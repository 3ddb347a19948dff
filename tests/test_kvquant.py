import numpy as np
import pytest

from quantlab.errors import (
    ChannelCountMismatch,
    EmptyCalibration,
    NotCalibrated,
    OddHeadDim,
)
from quantlab.kvquant import (
    POST_BIAS,
    POST_ROPE,
    PRE_BIAS,
    PRE_ROPE,
    KvQuantStarConfig,
    RopeConfig,
    _rope_table,
    calibrate_k_channels,
    default_kv_k_channel_spec,
    k_stage_tensor,
    quantize_k,
    rope_apply,
)
from quantlab.quantcore import QuantParams, QuantSpec, dequantize, fit_params, quantize
from quantlab.rng import make_rng
from quantlab.weightquant import default_weight_spec

from oracles import expand


def kv_cfg(bits=4, k_stage=PRE_ROPE, k_bias_mode=PRE_BIAS):
    return KvQuantStarConfig(k_spec=default_kv_k_channel_spec(bits),
                             k_stage=k_stage, k_bias_mode=k_bias_mode)


class TestRope:
    def test_position_zero_is_identity(self):
        x = make_rng(0).standard_normal((1, 8))
        assert np.array_equal(rope_apply(x, RopeConfig(head_dim=8)), x)

    def test_head_dim_2_closed_form(self):
        out = rope_apply(np.array([[1.0, 0.0]]), RopeConfig(head_dim=2),
                         start_pos=1)
        assert out[0] == pytest.approx([np.cos(1.0), np.sin(1.0)])

    def test_pairwise_norms_preserved(self):
        x = make_rng(1).standard_normal((16, 32))
        y = rope_apply(x, RopeConfig(head_dim=32), start_pos=5)
        nx = np.hypot(x[:, 0::2], x[:, 1::2])
        ny = np.hypot(y[:, 0::2], y[:, 1::2])
        assert np.max(np.abs(nx - ny)) <= 1e-12

    def test_scalar_start_matches_position_array(self):
        # the scalar start reads cached tables; an array of positions does not
        cfg = RopeConfig(head_dim=8)
        rng = make_rng(3)
        for shape in ((1, 8), (5, 8), (5, 3, 8), (32, 2, 8)):
            x = rng.standard_normal(shape)
            for start in (0, 1, 7, 1000, np.int64(9)):
                want = rope_apply(x, cfg, start + np.arange(shape[0]))
                for _ in range(2):  # a miss, then a hit
                    assert rope_apply(x, cfg, start).tobytes() == want.tobytes()

    def test_cached_tables_read_only(self):
        for table in _rope_table(RopeConfig(head_dim=8), 7, 3):
            assert table.shape == (3, 4)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 2.0

    def test_odd_head_dim_rejected(self):
        with pytest.raises(OddHeadDim):
            RopeConfig(head_dim=7)
        with pytest.raises(OddHeadDim):
            rope_apply(np.zeros((1, 6)), RopeConfig(head_dim=8))


class TestCalibration:
    def test_constant_channel_exact(self):
        k = np.full((10, 4), 3.3)
        cfg = calibrate_k_channels(k, kv_cfg())
        rope = RopeConfig(head_dim=4)
        stored = quantize_k(k[:2], np.zeros(4), cfg, rope)
        # pre-RoPE storage: the staged (pre-RoPE) tensor is on the grid exactly
        assert np.allclose(stored, rope_apply(k[:2], rope))

    def test_known_range_scale(self):
        k = np.array([[-1.0, -1.0], [1.0, 1.0]])
        cfg = calibrate_k_channels(k, kv_cfg(bits=4))
        scales, _ = cfg.k_grid
        assert np.allclose(scales, 2.0 / 15.0)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_grid_is_fit_params(self, bits):
        """The grid fitted once at calibration is the one fit_params gives
        for the samples, byte for byte: random, constant and all-zero
        channels."""
        k = make_rng(bits).standard_normal((40, 8)) * 3.0
        k[:, 2] = 3.3
        k[:, 5] = -0.7
        k[:, 6] = 0.0
        scales, zp = calibrate_k_channels(k, kv_cfg(bits=bits)).k_grid
        want = fit_params(k, default_kv_k_channel_spec(bits))
        for got, ref in ((scales, want.scales), (zp, want.zero_points)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_empty_calibration(self):
        with pytest.raises(EmptyCalibration):
            calibrate_k_channels(np.zeros((0, 4)), kv_cfg())

    def test_bias_outlier_visible_only_post_bias(self):
        rng = make_rng(2)
        k = rng.standard_normal((64, 8))
        bias = np.zeros(8)
        bias[1] = 400.0
        rope = RopeConfig(head_dim=8)
        pre = k_stage_tensor(k, bias, kv_cfg(k_bias_mode=PRE_BIAS), rope, 0)
        post = k_stage_tensor(k, bias, kv_cfg(k_bias_mode=POST_BIAS), rope, 0)
        assert np.max(np.abs(pre[:, 1])) < 10.0
        assert np.min(post[:, 1]) > 390.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            kv_cfg(k_stage="mid_rope")
        with pytest.raises(ValueError):
            kv_cfg(k_bias_mode="sometimes")


class TestQuantizeK:
    def _calibrated(self, k, bias, mode, stage=PRE_ROPE):
        cfg = kv_cfg(k_bias_mode=mode, k_stage=stage)
        rope = RopeConfig(head_dim=k.shape[1])
        staged = k_stage_tensor(k, bias, cfg, rope, 0)
        return calibrate_k_channels(staged, cfg), rope

    def test_zero_bias_modes_coincide(self):
        rng = make_rng(3)
        k = rng.standard_normal((32, 8))
        bias = np.zeros(8)
        outs = []
        for mode in (PRE_BIAS, POST_BIAS):
            cfg, rope = self._calibrated(k, bias, mode)
            outs.append(quantize_k(k, bias, cfg, rope))
        assert np.array_equal(outs[0], outs[1])

    def test_pre_bias_error_independent_of_bias(self):
        rng = make_rng(4)
        k = rng.standard_normal((32, 8))
        rope = RopeConfig(head_dim=8)
        errs = []
        for mag in (0.0, 400.0):
            bias = np.zeros(8)
            bias[1] = mag
            cfg, _ = self._calibrated(k, bias, PRE_BIAS)
            recon = quantize_k(k, bias, cfg, rope)
            exact = rope_apply(k + bias[None, :], rope)
            errs.append(np.abs(recon - exact))
        assert np.allclose(errs[0], errs[1])

    def test_post_bias_scale_grows_with_bias(self):
        rng = make_rng(5)
        k = rng.standard_normal((32, 8))
        bias = np.zeros(8)
        bias[1] = 400.0
        scales = {}
        for mode in (PRE_BIAS, POST_BIAS):
            cfg, _ = self._calibrated(k, bias, mode)
            scales[mode] = cfg.k_grid[0][0]
        assert np.all(scales[POST_BIAS] >= scales[PRE_BIAS] - 1e-12)
        assert scales[POST_BIAS][1] > scales[PRE_BIAS][1]

    @pytest.mark.parametrize("mode", [PRE_BIAS, POST_BIAS])
    @pytest.mark.parametrize("stage", [PRE_ROPE, POST_ROPE])
    def test_sentinel_bit_identical(self, stage, mode):
        """Every stage and bias mode stores the composition ``quantize_k``
        documents, bit for bit, Q the round trip on the calibrated grid:
        rope(Q(k) + b), rope(Q(k + b)), Q(rope(k)) + rope(b) or
        Q(rope(k + b))."""
        rng = make_rng(6)
        k = rng.standard_normal((8, 8))
        bias = rng.standard_normal(8)
        b = np.broadcast_to(bias, k.shape)
        rope = RopeConfig(head_dim=8)
        cfg = kv_cfg(bits=8, k_stage=stage, k_bias_mode=mode)
        cfg = calibrate_k_channels(k_stage_tensor(k, bias, cfg, rope, 0), cfg)

        def q(t):
            return dequantize(quantize(t, QuantParams(*cfg.k_grid, cfg.k_spec, t.shape)))

        def r(t):
            return rope_apply(t, rope)

        want = {(PRE_ROPE, PRE_BIAS): lambda: r(q(k) + b),
                (PRE_ROPE, POST_BIAS): lambda: r(q(k + b)),
                (POST_ROPE, PRE_BIAS): lambda: q(r(k)) + r(b),
                (POST_ROPE, POST_BIAS): lambda: q(r(k + b))}[stage, mode]()
        assert np.array_equal(quantize_k(k, bias, cfg, rope), want)

    @pytest.mark.parametrize("pos", [3, np.array([7, 0, 2, 9])],
                             ids=["start-3", "own-positions"])
    def test_post_rope_pre_bias_rotates_bias_at_each_position(self, pos):
        """Rows of two heads at a start position or at positions of their
        own: the bias added after RoPE is rotated at each row's position.
        The grid quantizes rope(k) alone, so the bias is all that a zero
        bias changes."""
        rng = make_rng(8)
        k = rng.standard_normal((4, 16))
        bias = rng.standard_normal(16)
        rope = RopeConfig(head_dim=8)
        cfg = kv_cfg(bits=8, k_stage=POST_ROPE, k_bias_mode=PRE_BIAS)
        cfg = calibrate_k_channels(k_stage_tensor(k, bias, cfg, rope, pos), cfg)
        rotated = rope_apply(np.broadcast_to(bias, (4, 16)).reshape(4, 2, 8), rope,
                             pos).reshape(4, 16)
        added = (quantize_k(k, bias, cfg, rope, pos)
                 - quantize_k(k, np.zeros(16), cfg, rope, pos))
        assert np.max(np.abs(added - rotated)) <= 1e-12

    def test_post_rope_stage_reconstruction(self):
        rng = make_rng(7)
        k = rng.standard_normal((16, 8))
        bias = rng.standard_normal(8)
        cfg, rope = self._calibrated(k, bias, POST_BIAS, stage=POST_ROPE)
        recon = quantize_k(k, bias, cfg, rope)
        exact = rope_apply(k + bias[None, :], rope)
        s = cfg.k_grid[0]
        assert np.all(np.abs(recon - exact) <= s / 2 + 1e-6)

    def test_rows_of_several_heads(self):
        rng = make_rng(9)
        k = rng.standard_normal((12, 16))
        bias = rng.standard_normal(16)
        rope = RopeConfig(head_dim=8)
        for stage in (PRE_ROPE, POST_ROPE):
            cfg = kv_cfg(k_stage=stage)
            rows = quantize_k(k, bias, calibrate_k_channels(
                k_stage_tensor(k, bias, cfg, rope, 3), cfg), rope, 3)
            heads = []
            for h in (slice(0, 8), slice(8, 16)):
                cal = calibrate_k_channels(
                    k_stage_tensor(k[:, h], bias[h], cfg, rope, 3), cfg)
                heads.append(quantize_k(k[:, h], bias[h], cal, rope, 3))
            assert np.array_equal(rows, np.concatenate(heads, axis=1))
        cfg = calibrate_k_channels(k[:, :12], kv_cfg())
        with pytest.raises(ChannelCountMismatch):
            quantize_k(k[:, :12], bias[:12], cfg, rope)

    def test_uncalibrated_rejected(self):
        with pytest.raises(NotCalibrated):
            quantize_k(np.zeros((1, 4)), np.zeros(4), kv_cfg(),
                       RopeConfig(head_dim=4))

    def test_channel_count_mismatch(self):
        cfg = calibrate_k_channels(np.ones((4, 4)), kv_cfg())
        with pytest.raises(ChannelCountMismatch):
            quantize_k(np.zeros((1, 8)), np.zeros(8), cfg,
                       RopeConfig(head_dim=8))


class TestVQuant:
    def test_per_token_group_bound(self):
        v = make_rng(8).standard_normal((4, 256))
        qt = quantize(v, fit_params(v, default_weight_spec(4)))
        s, _ = expand(qt.params)
        assert np.all(np.abs(dequantize(qt) - v) <= s / 2 + 1e-6)

    def test_rows_quantized_independently(self):
        v = np.vstack([np.full(128, 1e-3), np.full(128, 1e3)])
        v[0, 0], v[1, 0] = 2e-3, 2e3
        qt = quantize(v, fit_params(v, default_weight_spec(4)))
        assert qt.params.scales[1, 0] / qt.params.scales[0, 0] == pytest.approx(1e6)

