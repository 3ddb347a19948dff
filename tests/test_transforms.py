import numpy as np
import pytest

from quantlab import transforms
from quantlab.calibration import self_generate
from quantlab.errors import DimensionMismatch
from quantlab.numerics import hadamard
from quantlab.quantcore import PER_CHANNEL, PER_GROUP, QuantSpec, fake_quant
from quantlab.quantrun import QuantPlan, prepare_runtime
from quantlab.rng import make_rng
from quantlab.toymodel import BOS_ID, N_RESERVED, PlainLinear
from quantlab.transforms import (
    FlatTransform,
    flat_map_weight,
    flat_objective,
    flat_train,
    kron_apply_right,
    kron_factor,
    smooth_fit,
)
from quantlab.weightquant import awq_fold

SPEC_W4 = QuantSpec(bits=4, symmetric=True, granularity=PER_CHANNEL, axis=0)
SPEC_A4 = QuantSpec(bits=4, symmetric=False, granularity=PER_GROUP, axis=1,
                    group_size=128)


def fold(x, w, ss):
    """(x / s, w * s) as the runtime folds it: the weight through awq_fold,
    the activation multiplied by the returned inverse scales."""
    ws, inv = awq_fold(w, ss)
    return x * inv, ws


class TestSmoothQuant:
    def test_alpha_one_normalizes_activations(self):
        rng = make_rng(0)
        x = rng.standard_normal((32, 8))
        w = rng.standard_normal((4, 8))
        ss = smooth_fit(x, w, alpha=1.0)
        xs, _ = fold(x, w, ss)
        assert np.allclose(np.max(np.abs(xs), axis=0), 1.0)

    def test_alpha_zero_normalizes_weights(self):
        rng = make_rng(1)
        x = rng.standard_normal((32, 8))
        w = rng.standard_normal((4, 8))
        ss = smooth_fit(x, w, alpha=0.0)
        _, ws = fold(x, w, ss)
        assert np.allclose(np.max(np.abs(ws), axis=0), 1.0)

    def test_outlier_channel_range_shrinks(self):
        rng = make_rng(2)
        x = rng.standard_normal((64, 16))
        x[:, 3] *= 100.0
        w = rng.standard_normal((8, 16))
        ss = smooth_fit(x, w, alpha=0.5)
        xs, _ = fold(x, w, ss)
        before = np.max(np.abs(x[:, 3]))
        after = np.max(np.abs(xs[:, 3]))
        assert after < before / 5.0  # roughly sqrt-scale reduction

    def test_folding_exact(self):
        rng = make_rng(3)
        x = rng.standard_normal((16, 8))
        w = rng.standard_normal((4, 8))
        ss = smooth_fit(x, w, alpha=0.5)
        xs, ws = fold(x, w, ss)
        ref = x @ w.T
        assert np.max(np.abs(xs @ ws.T - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            smooth_fit(np.zeros((4, 8)), np.zeros((4, 6)))


class TestRotation:
    def test_identity_for_n1(self):
        h = hadamard(1, make_rng(0))
        w = np.array([[2.0]])
        assert np.array_equal(h.apply(w), w * h.matrix[0])  # the sign: sqrt(1) is 1

    def test_computational_invariance(self):
        rng = make_rng(4)
        h = hadamard(64, rng)
        x = rng.standard_normal((16, 64))
        w = rng.standard_normal((8, 64))
        ref = x @ w.T
        got = h.apply(x) @ h.apply(w).T
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_spiky_row_spread_decreases(self):
        rng = make_rng(5)
        x = rng.standard_normal((1, 64))
        x[0, 7] = 500.0
        xr = x @ hadamard(64, rng).matrix

        def spread(v):
            a = np.abs(v)
            return np.max(a) / np.median(a)

        assert spread(xr[0]) < spread(x[0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hadamard(64, make_rng(0)).apply(np.zeros((4, 48)))


class TestKronecker:
    def test_factor_selection(self):
        assert kron_factor(12) == (3, 4)
        assert kron_factor(64) == (8, 8)
        assert kron_factor(7) == (1, 7)  # prime falls back to a dense factor

    KRON_SHAPES = [(6, 3, 4), (6, 2, 8), (6, 8, 8), (6, 1, 5),  # (m, n1, n2)
                   (512, 8, 8), (7, 3, 4), (64, 16, 16), (5, 1, 5),
                   (512, 8, 16), (1, 8, 8), (3, 1, 7)]

    @pytest.mark.parametrize("m,n1,n2", KRON_SHAPES, ids=[
        f"{n1}-{n2}" if m == 6 else f"{m}-{n1}-{n2}" for m, n1, n2 in KRON_SHAPES])
    def test_apply_matches_materialized(self, m, n1, n2):
        """Plain, transposed and inverse transposed factors, the strided
        ones as flat_map_weight passes them."""
        rng = make_rng(m * n1 + n2)
        x = rng.standard_normal((m, n1 * n2))
        p1 = rng.standard_normal((n1, n1))
        p2 = rng.standard_normal((n2, n2))
        for a, b in ((p1, p2), (p1.T, p2.T),
                     (np.linalg.inv(p1).T, np.linalg.inv(p2).T)):
            ref = x @ np.kron(a, b)
            got = kron_apply_right(x, a, b)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    def test_flat_weight_applies_the_inverse_factors(self):
        rng = make_rng(13)
        p = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        w = rng.standard_normal((6, 16))
        for q in (p, p.T, p.T.copy()):
            t = FlatTransform(p1=q, p2=p)
            want = kron_apply_right(w, np.linalg.inv(q).T, np.linalg.inv(p).T)
            assert flat_map_weight(w, t).tobytes() == want.tobytes()


class TestFlatQuant:
    def test_identity_transform_sentinel_is_exact(self):
        rng = make_rng(6)
        x = rng.standard_normal((8, 12))
        w = rng.standard_normal((4, 12))
        t = FlatTransform(p1=np.eye(3), p2=np.eye(4))
        lin = PlainLinear(flat_map_weight(w, t), None, t, None)
        assert np.array_equal(lin.pre_bias(x), x @ w.T)
        assert t.specs(None, None) == (None, None)
        assert flat_objective(w, x, t, None, None, y_ref=x @ w.T) == 0.0

    def test_unquantized_invariance_random_transform(self):
        rng = make_rng(7)
        t = FlatTransform(p1=np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
                          p2=np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
        x = rng.standard_normal((8, 12))
        w = rng.standard_normal((4, 12))
        ref = x @ w.T
        got = PlainLinear(flat_map_weight(w, t), None, t, None).pre_bias(x)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        obj = flat_objective(w, x, t, None, None, y_ref=ref)
        assert obj == float(np.sum(np.square(ref - got)))

    def test_zero_steps_is_identity_objective(self):
        rng = make_rng(8)
        x = rng.standard_normal((32, 16))
        w = rng.standard_normal((8, 16))
        t = flat_train(w, x, SPEC_W4, SPEC_A4, steps=0)
        assert np.array_equal(t.p1, np.eye(4)) and np.array_equal(t.p2, np.eye(4))
        plain = float(np.sum((x @ w.T - fake_quant(x, SPEC_A4)
                              @ fake_quant(w, SPEC_W4).T) ** 2))
        assert t.objective_trace[0] == pytest.approx(plain, rel=1e-12)

    def test_trace_monotone_and_final_beats_identity(self):
        rng = make_rng(9)
        x = rng.standard_normal((48, 12))
        x[:, 2] *= 50.0
        w = rng.standard_normal((6, 12))
        t = flat_train(w, x, SPEC_W4, SPEC_A4, steps=10)
        trace = np.asarray(t.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace[-1] <= trace[0]
        assert flat_objective(w, x, t, SPEC_W4, SPEC_A4, y_ref=x @ w.T) == pytest.approx(
            trace[-1], rel=1e-9)

    def test_given_y_ref_matches_computed(self):
        rng = make_rng(11)
        x = rng.standard_normal((40, 16))
        w = rng.standard_normal((8, 16))
        t = FlatTransform(p1=np.eye(4) + 0.1 * rng.standard_normal((4, 4)),
                          p2=np.eye(4) + 0.1 * rng.standard_normal((4, 4)),
                          act_clip=0.9, weight_clip=0.8)
        y_ref = x @ w.T
        sw, sa = t.specs(SPEC_W4, SPEC_A4)
        got = PlainLinear(fake_quant(flat_map_weight(w, t), sw), None, t, sa).pre_bias(x)
        assert flat_objective(w, x, t, SPEC_W4, SPEC_A4, y_ref=y_ref) == \
            float(np.sum(np.square(y_ref - got)))
        assert np.array_equal(y_ref, x @ w.T)

    def test_condition_number_within_gate(self):
        rng = make_rng(10)
        x = rng.standard_normal((32, 8))
        w = rng.standard_normal((4, 8))
        t = flat_train(w, x, SPEC_W4, SPEC_A4, steps=8)
        assert np.linalg.cond(t.p1) <= 1e6 and np.linalg.cond(t.p2) <= 1e6

    def test_training_is_deterministic(self):
        rng = make_rng(12)
        x = rng.standard_normal((32, 16))
        w = rng.standard_normal((8, 16))
        a, b = (flat_train(w, x, SPEC_W4, SPEC_A4, steps=3) for _ in range(2))
        assert a.p1.tobytes() == b.p1.tobytes() and a.p2.tobytes() == b.p2.tobytes()
        assert (a.act_clip, a.weight_clip) == (b.act_clip, b.weight_clip)
        assert a.objective_trace == b.objective_trace

    @pytest.mark.parametrize("n,d", [(16, 34), (64, 130), (128, 322)])
    def test_a_step_is_a_budget_of_d_gradient_evaluations(self, n, d, monkeypatch):
        """A step makes d // 16 updates (at least one); an update is 16
        gradient evaluations (8 directions, 2 each) and a line search of 1
        to 8. Objectives that always fall or always rise pin the line search
        at 1 or 8 evaluations."""
        rng = make_rng(n)
        x = rng.standard_normal((32, n))
        w = rng.standard_normal((4, n))
        assert sum(k * k for k in transforms.kron_factor(n)) + 2 == d
        steps = 2
        updates = steps * max(1, d // 16)
        calls = []
        real = transforms.flat_objective

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(transforms, "flat_objective", counted)
        flat_train(w, x, SPEC_W4, SPEC_A4, steps=steps)
        assert 1 + 17 * updates <= len(calls) <= 1 + 24 * updates
        for sign, line_search in ((-1.0, 1), (1.0, 8)):
            calls.clear()

            def monotone(*args, **kwargs):
                calls.append(None)
                return sign * len(calls)

            monkeypatch.setattr(transforms, "flat_objective", monotone)
            flat_train(w, x, SPEC_W4, SPEC_A4, steps=steps)
            assert len(calls) == 1 + updates * (16 + line_search)

    def test_non_finite_estimate_ends_training(self, monkeypatch):
        """Every objective after the first is inf: one estimate's 16
        evaluations, then training stops with the initial objective."""
        rng = make_rng(14)
        x = rng.standard_normal((32, 64))
        w = rng.standard_normal((8, 64))
        calls = []

        def first_finite(*args, **kwargs):
            calls.append(None)
            return 1.0 if len(calls) == 1 else np.inf

        monkeypatch.setattr(transforms, "flat_objective", first_finite)
        t = flat_train(w, x, SPEC_W4, SPEC_A4, steps=4)
        assert len(calls) == 1 + 16
        assert t.objective_trace == [1.0]
        assert np.array_equal(t.p1, np.eye(8)) and np.array_equal(t.p2, np.eye(8))

    def test_one_step_site_maps_beat_central_differences(self, biased_model):
        """The one-step FlatQuant map of each input site on the K-bias-outlier
        model, calibrated as the benchmark's ``calibrate`` workload does for
        seed 11, ends below the final/initial objective ratio that one step
        of central differences (2d evaluations, against SPSA's d) reached,
        truncated at four decimals."""
        central = {"attn_in": (0.9455, 0.9460), "attn_out_in": (0.9146, 0.9325),
                   "mlp_in": (0.9508, 0.9468), "mlp_down_in": (0.9248, 0.9410)}
        first = {"attn_in": "wq", "attn_out_in": "wo", "mlp_in": "w_gate",
                 "mlp_down_in": "w_down"}
        rng = make_rng(11)
        vocab = biased_model.config.vocab_size
        rng.integers(N_RESERVED, vocab, 63)  # the workload draws its probe first
        calib = self_generate(biased_model, [[BOS_ID]], 64, 8, rng).sequences
        plan = QuantPlan(w_bits=4, a_bits=4, wa_method="flatquant", flat_steps=1)
        rt = prepare_runtime(biased_model, plan, calib)
        for site, bounds in central.items():
            for layer, bound in enumerate(bounds):
                trace = rt.linears[f"layers.{layer}.{first[site]}"].map.objective_trace
                assert trace[-1] / trace[0] < bound, (layer, site)

    def test_dimension_mismatch(self):
        t = FlatTransform(p1=np.eye(2), p2=np.eye(3))
        with pytest.raises(DimensionMismatch):
            flat_objective(np.zeros((2, 5)), np.zeros((2, 5)), t, None, None,
                           y_ref=np.zeros((2, 2)))
