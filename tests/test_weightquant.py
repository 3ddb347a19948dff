import itertools

import numpy as np
import pytest

from quantlab import weightquant
from quantlab.errors import NonPositiveScale, NotPositiveDefinite, TooLargeToEnumerate
from quantlab.quantcore import (
    PER_CHANNEL,
    PER_GROUP,
    PER_TENSOR,
    PER_TOKEN,
    QuantSpec,
    dequantize,
    fake_quant,
)
from quantlab.rng import make_rng
from quantlab.weightquant import (
    ACTIVATION_ORDER,
    NATURAL,
    AwqSearchResult,
    GptqConfig,
    awq_fold,
    awq_search,
    brute_force_optimal,
    default_weight_spec,
    dequant_loss,
    gptq_quantize,
    proxy_loss,
    rtn_quantize_weights,
)


def orthogonal_calib(n_in, n_tokens, rng, scale=1.0):
    """Calibration matrix (in, tokens) whose Gram matrix X X^T is diagonal."""
    reps = n_tokens // n_in
    return np.tile(np.eye(n_in) * scale, reps)


class TestRtn:
    def test_grid_aligned_zero_error(self):
        w = np.arange(16.0)[None, :]
        qt = rtn_quantize_weights(w, default_weight_spec(4, 16))
        assert np.max(np.abs(dequantize(qt) - w)) < 1e-12

    def test_1x1(self):
        qt = rtn_quantize_weights(np.array([[2.7]]), default_weight_spec(4, 1))
        assert np.allclose(dequantize(qt), 2.7)  # constant group is exact

    def test_group_bound(self):
        w = make_rng(0).standard_normal((4, 256))
        qt = rtn_quantize_weights(w, default_weight_spec(4))
        s, _ = qt.params.expand()
        assert np.all(np.abs(dequantize(qt) - w) <= s / 2 + 1e-6)


class TestGptq:
    def test_diagonal_hessian_equals_rtn(self):
        rng = make_rng(1)
        w = rng.standard_normal((3, 8))
        # distinct channel scales, so activation order is not natural order
        x = orthogonal_calib(8, 32, rng, scale=1.7) * rng.permutation(
            np.linspace(0.5, 2.0, 8))[:, None]
        # groups along axis 1 are fitted lazily, each when its first column
        # comes up; every other grid once, at the first column
        for spec, order in itertools.product((
                default_weight_spec(4, 4),
                default_weight_spec(3, 5),  # ragged: groups of 5 and 3
                QuantSpec(bits=4, symmetric=True, granularity=PER_GROUP, group_size=4),
                QuantSpec(bits=4, granularity=PER_GROUP, axis=0, group_size=2),
                QuantSpec(bits=3, granularity=PER_TOKEN),
                QuantSpec(bits=4, symmetric=True, granularity=PER_CHANNEL, axis=0),
                QuantSpec(bits=3, granularity=PER_CHANNEL, axis=1),
                QuantSpec(bits=4, granularity=PER_TENSOR),
                QuantSpec(bits=3, symmetric=True, granularity=PER_TENSOR)),
                (NATURAL, ACTIVATION_ORDER)):
            qt = gptq_quantize(w, x, GptqConfig(spec=spec, column_order=order))
            rtn = rtn_quantize_weights(w, spec)
            case = (spec, order)
            assert np.array_equal(qt.codes, rtn.codes), case
            assert qt.params.scales.tobytes() == rtn.params.scales.tobytes(), case
            if spec.symmetric:
                assert qt.params.zero_points is None
            else:
                assert np.array_equal(qt.params.zero_points, rtn.params.zero_points)

    def test_later_groups_fitted_after_compensation(self):
        # the first group is fitted on the weights as given; each later group
        # along axis 1 on the weights as earlier columns' errors left them
        rng = make_rng(6)
        w = rng.standard_normal((4, 8))
        x = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 64))
        spec = default_weight_spec(4, 4)
        qt = gptq_quantize(w, x, GptqConfig(spec=spec))
        rtn = rtn_quantize_weights(w, spec).params
        assert np.array_equal(qt.params.scales[:, 0], rtn.scales[:, 0])
        assert np.array_equal(qt.params.zero_points[:, 0], rtn.zero_points[:, 0])
        assert not np.array_equal(qt.params.scales[:, 1], rtn.scales[:, 1])

    def test_single_column_equals_rtn(self):
        rng = make_rng(2)
        w = rng.standard_normal((5, 1))
        x = rng.standard_normal((1, 16))
        spec = default_weight_spec(3, 1)
        qt = gptq_quantize(w, x, GptqConfig(spec=spec))
        assert np.array_equal(qt.codes, rtn_quantize_weights(w, spec).codes)

    def test_beats_rtn_on_correlated_data(self):
        spec = default_weight_spec(3, 8)
        wins = 0
        for seed in range(200):
            rng = make_rng(seed)
            w = rng.standard_normal((4, 8))
            # near-low-rank calibration: strongly correlated channels, where
            # cross-column compensation actually helps
            u = rng.standard_normal((8, 3))
            c = rng.standard_normal((3, 128))
            x = u @ c + 0.1 * rng.standard_normal((8, 128))
            g = dequant_loss(gptq_quantize(w, x, GptqConfig(spec=spec)), w, x)
            r = dequant_loss(rtn_quantize_weights(w, spec), w, x)
            wins += g <= r + 1e-12
        assert wins >= 180  # GPTQ no worse than RTN on >= 90% of instances

    def test_activation_order_runs(self):
        rng = make_rng(3)
        w = rng.standard_normal((2, 8))
        x = rng.standard_normal((8, 64))
        spec = default_weight_spec(4, 4)
        qt = gptq_quantize(w, x, GptqConfig(spec=spec,
                                            column_order=ACTIVATION_ORDER))
        assert qt.codes.shape == w.shape

    def test_calib_width_checked(self):
        with pytest.raises(ValueError, match="calib_x rows"):
            gptq_quantize(np.ones((2, 8)), np.ones((7, 16)), GptqConfig())

    def test_zero_hessian_damped_by_the_fraction(self):
        """All-zero calibration: the mean diagonal is 0, so the damping is
        ``damping_fraction`` itself; no column's error propagates, and the
        codes are RTN's."""
        w = make_rng(7).standard_normal((3, 8))
        spec = default_weight_spec(4, 4)
        qt = gptq_quantize(w, np.zeros((8, 16)), GptqConfig(spec=spec))
        assert np.array_equal(qt.codes, rtn_quantize_weights(w, spec).codes)

    def test_damping_doubles_until_the_hessian_inverts(self, monkeypatch):
        """Each failed inversion doubles the damping; the third try, at 4x
        the first, succeeds."""
        original, damped = weightquant.invert_spd, []

        def fail_twice(a):
            damped.append(a[0, 0])
            if len(damped) <= 2:
                raise NotPositiveDefinite(0)
            return original(a)

        monkeypatch.setattr(weightquant, "invert_spd", fail_twice)
        rng = make_rng(8)
        x = rng.standard_normal((8, 32))
        h00 = float(x[0] @ x[0])
        gptq_quantize(rng.standard_normal((2, 8)), x, GptqConfig())
        lam = [d - h00 for d in damped]
        assert len(lam) == 3
        assert lam[1] == pytest.approx(2 * lam[0]) and lam[2] == pytest.approx(4 * lam[0])

    def test_non_finite_hessian_not_positive_definite(self, monkeypatch):
        """A Hessian with a NaN entry fails every damping retry, then raises."""
        original, calls = weightquant.invert_spd, []

        def counting(a):
            calls.append(1)
            return original(a)

        monkeypatch.setattr(weightquant, "invert_spd", counting)
        x = make_rng(9).standard_normal((8, 16))
        x[3, 5] = np.nan
        with pytest.raises(NotPositiveDefinite):
            gptq_quantize(np.ones((2, 8)), x, GptqConfig())
        assert len(calls) == weightquant.MAX_DAMPING_RETRIES + 1

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            GptqConfig(damping_fraction=0.0)


class TestBruteForce:
    def test_1x1_picks_better_neighbor(self):
        rng = make_rng(4)
        x = rng.standard_normal((1, 8))
        w = np.array([[0.37]])
        spec = default_weight_spec(2, 1)
        qt, loss = brute_force_optimal(w, x, spec)
        # the winner must beat the other floor/ceil neighbor
        alt = qt.codes.copy()
        alt[0, 0] += 1 if alt[0, 0] == 0 else -1
        from quantlab.quantcore import QuantizedTensor

        alt_hat = dequantize(QuantizedTensor(alt, qt.params, spec, w.shape))
        assert loss <= proxy_loss(w, alt_hat, x) + 1e-12

    def test_diagonal_hessian_optimum_is_rtn(self):
        rng = make_rng(5)
        w = rng.standard_normal((2, 4))
        x = orthogonal_calib(4, 16, rng)
        spec = default_weight_spec(2, 4)
        _, loss = brute_force_optimal(w, x, spec)
        assert loss == pytest.approx(
            dequant_loss(rtn_quantize_weights(w, spec), w, x), rel=1e-9)

    def test_enumeration_guard(self):
        with pytest.raises(TooLargeToEnumerate):
            brute_force_optimal(np.zeros((8, 8)), np.zeros((8, 8)),
                                default_weight_spec(4, 8))

    def test_floor_beats_all_heuristics(self):
        spec = default_weight_spec(2, 4)
        for seed in range(10):
            rng = make_rng(seed)
            w = rng.standard_normal((2, 4))
            x = rng.standard_normal((4, 32))
            _, opt = brute_force_optimal(w, x, spec)
            for qt in (rtn_quantize_weights(w, spec),
                       gptq_quantize(w, x, GptqConfig(spec=spec))):
                assert opt <= dequant_loss(qt, w, x) + 1e-9


def awq_oracle(w, x, spec, grid_step):
    """awq_search as a per-point double loop over the (alpha, beta) grid:
    one fake_quant per point, scored by the direct output error."""
    c_x = np.maximum(np.mean(np.abs(x), axis=1), 1e-8)
    c_w = np.maximum(np.mean(np.abs(w), axis=0), 1e-8)
    ref = x.T @ w.T
    grid = np.arange(0.0, 1.0 + 1e-12, grid_step)
    best = None
    for alpha in grid:
        for beta in grid:
            s = c_x**alpha * c_w ** (-beta)
            w_s = fake_quant(w * s[np.newaxis, :], spec) / s[np.newaxis, :]
            loss = float(np.sum(np.square(ref - x.T @ w_s.T)))
            if best is None or loss < best.proxy_loss:
                best = AwqSearchResult(float(alpha), float(beta), s, loss)
    return best


def awq_cases():
    """(id, w, x, spec): several groups per row with a ragged last one, an
    exact-zero-loss grid, an all-zero weight, an outlier channel and a
    per-channel spec, which also groups by rows."""
    rng = make_rng(12)
    w = rng.standard_normal((6, 20))
    x = rng.standard_normal((20, 48))
    yield "groups-of-8", w, x, default_weight_spec(3, 8)
    yield "on-grid-zero-loss", np.arange(8.0)[None, :], np.eye(8), \
        default_weight_spec(4, 8)
    yield "zero-weight", np.zeros((2, 8)), rng.standard_normal((8, 16)), \
        default_weight_spec(4, 4)
    x = rng.standard_normal((16, 64))
    x[3] *= 1000.0
    yield "outlier-channel", rng.standard_normal((5, 16)), x, \
        default_weight_spec(4, 16)
    yield "per-channel-rows", rng.standard_normal((4, 12)), \
        rng.standard_normal((12, 32)), \
        QuantSpec(bits=4, symmetric=True, granularity=PER_CHANNEL, axis=0)


class TestAwq:
    # candidates per stacked call: one, five (21 = 4 * 5 + 1), all 21
    @pytest.mark.parametrize("per_chunk", [1, 5, 21])
    @pytest.mark.parametrize("case", list(awq_cases()), ids=lambda c: c[0])
    def test_matches_per_point_oracle(self, case, per_chunk, monkeypatch):
        _, w, x, spec = case
        monkeypatch.setattr(weightquant, "AWQ_CHUNK_ELEMENTS", per_chunk * w.size)
        got = awq_search(w, x, spec, grid_step=0.05)
        want = awq_oracle(w, x, spec, 0.05)
        assert (got.alpha, got.beta) == (want.alpha, want.beta)
        assert got.scales.tobytes() == want.scales.tobytes()
        assert got.proxy_loss == want.proxy_loss

    def test_chunks_cap_elements(self, monkeypatch):
        calls = []

        def counting(x, spec):
            calls.append(x.size)
            return fake_quant(x, spec)

        monkeypatch.setattr(weightquant, "fake_quant", counting)
        rng = make_rng(13)
        w = rng.standard_normal((64, 64))
        awq_search(w, rng.standard_normal((64, 32)), default_weight_spec(4))
        # 2^15 elements hold 8 candidates of 64 x 64: chunks of 8, 8 and 5
        assert len(calls) == 21 * 3
        assert max(calls) == weightquant.AWQ_CHUNK_ELEMENTS == 8 * w.size

    @pytest.mark.parametrize("spec", [
        QuantSpec(bits=4, granularity=PER_TENSOR),
        QuantSpec(bits=4, granularity=PER_CHANNEL, axis=1),
        QuantSpec(bits=4, granularity=PER_GROUP, axis=0, group_size=4),
    ], ids=["per-tensor", "per-channel-axis-1", "per-group-axis-0"])
    def test_rejects_spec_not_grouped_by_rows(self, spec):
        rng = make_rng(14)
        with pytest.raises(ValueError):
            awq_search(rng.standard_normal((4, 8)), rng.standard_normal((8, 16)), spec)

    def test_never_loses_to_rtn(self):
        spec = default_weight_spec(4, 8)
        for seed in range(20):
            rng = make_rng(seed)
            w = rng.standard_normal((4, 8))
            x = rng.standard_normal((8, 32))
            res = awq_search(w, x, spec, grid_step=0.25)
            w_scaled, inv_s = awq_fold(w, res.scales)
            rtn_loss = dequant_loss(rtn_quantize_weights(w, spec), w, x)
            assert res.proxy_loss <= rtn_loss + 1e-9

    def test_dominant_channel_drives_alpha_positive(self):
        rng = make_rng(6)
        w = rng.standard_normal((4, 8))
        x = rng.standard_normal((8, 64))
        x[3] *= 1000.0  # one huge activation channel
        res = awq_search(w, x, default_weight_spec(4, 8), grid_step=0.1)
        assert res.alpha > 0.0
        assert res.scales[3] > np.median(res.scales)

    def test_on_grid_zero_loss(self):
        w = np.arange(8.0)[None, :]
        x = np.eye(8)
        res = awq_search(w, x, default_weight_spec(4, 8), grid_step=0.5)
        assert res.proxy_loss == pytest.approx(0.0, abs=1e-18)

    def test_fold_identity(self):
        rng = make_rng(7)
        w = rng.standard_normal((4, 16))
        x = rng.standard_normal((32, 16))
        s = np.exp(rng.standard_normal(16))
        w_scaled, inv_s = awq_fold(w, s)
        ref = x @ w.T
        got = (x * inv_s[None, :]) @ w_scaled.T
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fold_trivial_scales(self):
        w = make_rng(8).standard_normal((2, 4))
        w1, inv1 = awq_fold(w, np.ones(4))
        assert np.array_equal(w1, w) and np.array_equal(inv1, np.ones(4))
        w2, inv2 = awq_fold(w, 2.0 * np.ones(4))
        assert np.array_equal(w2, 2.0 * w) and np.array_equal(inv2, 0.5 * np.ones(4))

    def test_fold_rejects_bad_scales(self):
        with pytest.raises(NonPositiveScale):
            awq_fold(np.ones((1, 2)), np.array([1.0, 0.0]))
        with pytest.raises(NonPositiveScale):
            awq_fold(np.ones((1, 2)), np.array([1.0, np.inf]))

    def test_result_fields(self):
        res = AwqSearchResult(0.5, 0.0, np.ones(3), 1.0)
        assert res.alpha == 0.5 and res.proxy_loss == 1.0
