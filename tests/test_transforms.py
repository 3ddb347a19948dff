import numpy as np
import pytest

from quantlab import transforms
from quantlab.errors import DimensionMismatch
from quantlab.numerics import hadamard
from quantlab.quantcore import PER_CHANNEL, PER_GROUP, QuantSpec, fake_quant
from quantlab.rng import make_rng
from quantlab.transforms import (
    FlatTransform,
    flat_apply,
    flat_objective,
    flat_train,
    kron_apply_right,
    kron_factor,
    rotate_layer,
    smooth_fit,
)
from quantlab.weightquant import awq_fold

SPEC_W4 = QuantSpec(bits=4, symmetric=True, granularity=PER_CHANNEL, axis=0)
SPEC_A4 = QuantSpec(bits=4, symmetric=False, granularity=PER_GROUP, axis=1,
                    group_size=128)
SPEC_OFF = QuantSpec(bits=16)


def fold(x, w, ss):
    """(x / s, w * s) as the runtime folds it: the weight through awq_fold,
    the activation multiplied by the returned inverse scales."""
    ws, inv = awq_fold(w, ss.scales)
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
        h = hadamard(1)
        w = np.array([[2.0]])
        assert np.array_equal(rotate_layer(w, h), w)

    def test_computational_invariance(self):
        rng = make_rng(4)
        h = hadamard(64, randomize=True, rng=rng)
        x = rng.standard_normal((16, 64))
        w = rng.standard_normal((8, 64))
        ref = x @ w.T
        got = (x @ h.matrix) @ rotate_layer(w, h)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_spiky_row_spread_decreases(self):
        rng = make_rng(5)
        x = rng.standard_normal((1, 64))
        x[0, 7] = 500.0
        xr = x @ hadamard(64, randomize=True, rng=rng).matrix

        def spread(v):
            a = np.abs(v)
            return np.max(a) / np.median(a)

        assert spread(xr[0]) < spread(x[0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rotate_layer(np.zeros((4, 48)), hadamard(64))


class TestKronecker:
    def test_factor_selection(self):
        assert kron_factor(12) == (3, 4)
        assert kron_factor(64) == (8, 8)
        assert kron_factor(7) == (1, 7)  # prime falls back to a dense factor

    @pytest.mark.parametrize("n1,n2", [(3, 4), (2, 8), (8, 8), (1, 5)])
    def test_apply_matches_materialized(self, n1, n2):
        rng = make_rng(n1 * 10 + n2)
        p1 = rng.standard_normal((n1, n1))
        p2 = rng.standard_normal((n2, n2))
        x = rng.standard_normal((6, n1 * n2))
        got = kron_apply_right(x, p1, p2)
        ref = x @ np.kron(p1, p2)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)

    @pytest.mark.parametrize("m,n1,n2", [(512, 8, 8), (7, 3, 4), (64, 16, 16),
                                         (5, 1, 5)])
    def test_cached_path_matches_optimize_true(self, m, n1, n2):
        rng = make_rng(m + n1 + n2)
        x = rng.standard_normal((m, n1 * n2))
        p1 = rng.standard_normal((n1, n1))
        p2 = rng.standard_normal((n2, n2))
        # strided factors too, as flat_weight passes them
        for a, b in ((p1, p2), (p1.T, p2.T)):
            want = np.einsum("mkl,ki,lj->mij", x.reshape(m, n1, n2), a, b,
                             optimize=True).reshape(m, n1 * n2)
            assert kron_apply_right(x, a, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m,n1,n2", [(512, 8, 16), (1, 8, 8), (3, 1, 7)])
    def test_matmuls_match_optimize_true(self, m, n1, n2):
        """The P2-first order, a single row and a size-1 factor, with the
        inverse transposed factors flat_weight passes."""
        rng = make_rng(m * n1 + n2)
        x = rng.standard_normal((m, n1 * n2))
        p1 = rng.standard_normal((n1, n1))
        p2 = rng.standard_normal((n2, n2))
        for a, b in ((p1, p2), (p1.T, p2.T),
                     (np.linalg.inv(p1).T, np.linalg.inv(p2).T)):
            want = np.einsum("mkl,ki,lj->mij", x.reshape(m, n1, n2), a, b,
                             optimize=True).reshape(m, n1 * n2)
            got = kron_apply_right(x, a, b)
            # the layout too: a matmul on the result depends on it
            assert got.tobytes() == want.tobytes() and got.strides == want.strides

    def test_factor_algebra_cached_by_bytes(self):
        rng = make_rng(13)
        p = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        for q in (p, p.T, p.T.copy()):
            inv_t = transforms._inv_t(*transforms._key(q))
            assert inv_t.tobytes() == np.linalg.inv(q).T.tobytes()
            assert not inv_t.flags.writeable  # shared by every caller
            assert transforms._cond(*transforms._key(q)) == np.linalg.cond(q)
        # p.T and its copy hold the same bytes: one entry serves both
        assert transforms._inv_t(*transforms._key(p.T)) is \
            transforms._inv_t(*transforms._key(p.T.copy()))


class TestFlatQuant:
    def test_identity_transform_sentinel_is_exact(self):
        rng = make_rng(6)
        x = rng.standard_normal((8, 12))
        w = rng.standard_normal((4, 12))
        t = FlatTransform(p1=np.eye(3), p2=np.eye(4))
        assert np.array_equal(flat_apply(x, w, t, SPEC_OFF, SPEC_OFF), x @ w.T)

    def test_unquantized_invariance_random_transform(self):
        rng = make_rng(7)
        t = FlatTransform(p1=np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
                          p2=np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
        x = rng.standard_normal((8, 12))
        w = rng.standard_normal((4, 12))
        ref = x @ w.T
        got = flat_apply(x, w, t, SPEC_OFF, SPEC_OFF)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

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
        assert flat_objective(w, x, t, SPEC_W4, SPEC_A4) == pytest.approx(
            trace[-1], rel=1e-9)

    def test_given_y_ref_matches_computed(self):
        rng = make_rng(11)
        x = rng.standard_normal((40, 16))
        w = rng.standard_normal((8, 16))
        t = FlatTransform(p1=np.eye(4) + 0.1 * rng.standard_normal((4, 4)),
                          p2=np.eye(4) + 0.1 * rng.standard_normal((4, 4)),
                          act_clip=0.9, weight_clip=0.8)
        y_ref = x @ w.T
        assert flat_objective(w, x, t, SPEC_W4, SPEC_A4, y_ref=y_ref) == \
            flat_objective(w, x, t, SPEC_W4, SPEC_A4)
        assert np.array_equal(y_ref, x @ w.T)

    def test_condition_number_within_gate(self):
        rng = make_rng(10)
        x = rng.standard_normal((32, 8))
        w = rng.standard_normal((4, 8))
        t = flat_train(w, x, SPEC_W4, SPEC_A4, steps=8)
        assert np.linalg.cond(t.p1) <= 1e6 and np.linalg.cond(t.p2) <= 1e6

    def test_dimension_mismatch(self):
        t = FlatTransform(p1=np.eye(2), p2=np.eye(3))
        with pytest.raises(DimensionMismatch):
            flat_apply(np.zeros((2, 5)), np.zeros((2, 5)), t, SPEC_OFF, SPEC_OFF)
