import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantlab import quantcore
from quantlab.quantcore import (
    PER_CHANNEL,
    PER_GROUP,
    PER_TENSOR,
    PER_TOKEN,
    SMALL_GRID,
    QuantSpec,
    _fit_arrays,
    _group_minmax,
    _round_half_away,
    _snap_down,
    dequantize,
    fake_quant,
    fit_asymmetric,
    fit_params,
    grid_shape,
    quantize,
    snap_scale,
)
from quantlab.checkpoint import pack_codes, unpack_codes
from quantlab.errors import NonFiniteInput
from quantlab.rng import make_rng
from quantlab.weightquant import GptqConfig, gptq_quantize

from oracles import expand


def spec_pg(bits, group_size=128, symmetric=False, **kw):
    return QuantSpec(bits=bits, symmetric=symmetric, granularity=PER_GROUP,
                     axis=1, group_size=group_size, **kw)


class TestFitParams:
    def test_all_zero_group_degenerate(self):
        p = fit_params(np.zeros((1, 8)), spec_pg(4, 8))
        assert p.scales[0, 0] == 1.0
        assert p.zero_points[0, 0] == 0

    def test_grid_aligned_0_to_15(self):
        p = fit_params(np.arange(16.0)[None, :], spec_pg(4, 16))
        assert p.scales[0, 0] == 1.0
        assert p.zero_points[0, 0] == 0

    def test_hand_evaluated_3bit(self):
        # min -3, max 5 at 3 bits: s = 8/7, z = round(3 * 7 / 8) = 3
        p = fit_params(np.array([[-3.0, 5.0]]), spec_pg(3, 2))
        assert p.scales[0, 0] == pytest.approx(8.0 / 7.0)
        assert p.zero_points[0, 0] == 3

    def test_nonzero_constant_group_exact(self):
        x = np.full((1, 4), 2.7)
        assert np.allclose(fake_quant(x, spec_pg(4, 4)), x)
        assert np.allclose(fake_quant(-x, spec_pg(4, 4, symmetric=True)), -x)

    def test_clip_ratio_shrinks_scale(self):
        x = make_rng(0).standard_normal((4, 16))
        s_full = fit_params(x, spec_pg(4, 16)).scales
        s_clip = fit_params(x, spec_pg(4, 16, clip_ratio=0.5)).scales
        assert np.all(s_clip <= s_full)
        assert np.any(s_clip < s_full)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=1)
        with pytest.raises(ValueError):
            QuantSpec(bits=4, granularity="per_row")
        with pytest.raises(ValueError):
            QuantSpec(bits=4, clip_ratio=0.0)
        for axis in (-1, 2, 5):
            with pytest.raises(ValueError):
                QuantSpec(bits=4, axis=axis)
        for bad in (dict(axis=True), dict(axis=1.0), dict(bits=4.0),
                    dict(bits=np.int64(4)), dict(group_size=8.5),
                    dict(symmetric="no"), dict(symmetric=0),
                    dict(clip_ratio=True), dict(clip_ratio="1")):
            with pytest.raises(TypeError):
                QuantSpec(**{"bits": 4, **bad})
        QuantSpec(bits=4, clip_ratio=1)  # an int ratio is a real number


def fit_asymmetric_two_sided(mn, mx, spec):
    """fit_asymmetric's rounding guard in its two-sided form: both range ends
    rounded half away from zero on every pass, and the zero point rounded
    again at the final scale."""
    levels = float(2**spec.bits - 1)
    mn_c = np.minimum(mn * spec.clip_ratio, 0.0)
    mx_c = np.maximum(mx * spec.clip_ratio, 0.0)
    scales = (mx_c - mn_c) / levels
    scales = np.where(scales <= 0, 1.0, scales)
    scales = snap_scale(scales, spec.bits)
    for _ in range(64):
        span = _round_half_away(mx_c / scales) - _round_half_away(mn_c / scales)
        short = (span < levels) & (mx_c > mn_c)
        if not np.any(short):
            break
        scales = np.where(short, _snap_down(scales, spec.bits), scales)
    zp = np.clip(_round_half_away(-mn_c / scales), 0, levels)
    return scales, zp.astype(np.int32)


@st.composite
def tie_ranges(draw):
    """(mn, mx) with mx - mn = (2^b - 1) s and -mn / s on a .5 tie: the
    ranges on which the rounding guard moves the snapped scale."""
    bits = draw(st.sampled_from([2, 3, 4, 8]))
    n = draw(st.integers(1, 6))
    s = draw(arrays(np.float64, n, elements=st.floats(1e-6, 1e6)))
    z = draw(arrays(np.int64, n, elements=st.integers(0, 2**bits - 2))) + 0.5
    return bits, (-z * s)[None, :], ((2**bits - 1 - z) * s)[None, :]


class TestFitAsymmetric:
    """The one-pass rounding guard gives the two-sided form's bytes."""

    @staticmethod
    def check(mn, mx, spec):
        want_s, want_z = fit_asymmetric_two_sided(mn, mx, spec)
        got_s, got_z = fit_asymmetric(mn, mx, spec)
        assert got_s.tobytes() == want_s.tobytes()
        assert got_z.dtype == np.int32 and got_z.tobytes() == want_z.tobytes()

    @given(tie_ranges(), st.sampled_from([1.0, 0.7]))
    @settings(max_examples=200, deadline=None)
    def test_ties(self, ranges, clip):
        bits, mn, mx = ranges
        self.check(mn, mx, QuantSpec(bits=bits, clip_ratio=clip))

    @given(arrays(np.float64, (2, 5), elements=st.floats(
               -1e30, 1e30, allow_nan=False, allow_subnormal=True)),
           st.sampled_from([2, 3, 4, 8]), st.sampled_from([1.0, 0.7]))
    @settings(max_examples=200, deadline=None)
    def test_ranges(self, ends, bits, clip):
        mn, mx = np.minimum(ends[:1], ends[1:]), np.maximum(ends[:1], ends[1:])
        self.check(mn, mx, QuantSpec(bits=bits, clip_ratio=clip))

    def test_guard_steps_on_a_tie(self):
        # -mn / s = 1.5 at 2 bits: the snapped scale is one step too large
        s, z = 6.373247256341329, 1.5
        mn, mx = np.array([[-z * s]]), np.array([[(3 - z) * s]])
        spec = QuantSpec(bits=2)
        scales, _ = fit_asymmetric(mn, mx, spec)
        assert scales[0, 0] < snap_scale((mx - mn) / 3.0, 2)[0, 0]
        self.check(mn, mx, spec)


SMALL_GRID_KINDS = ("ties", "zeros", "constant", "subnormal", "huge", "tiny",
                    "nonfinite")


def small_grid_input(kind, rows, groups, size, rng):
    """(rows, groups * size) inputs: (k + 0.5) * 2^-3, on rounding ties when
    the fitted scale is 1/8; signed zeros; one constant per row; subnormals;
    Gaussians scaled to about 1e300 (a range past the float64 maximum in
    some groups) or 1e-300; or Gaussians with NaN, +Inf or -Inf in some
    groups."""
    shape = (rows, groups * size)
    if kind == "ties":
        return (rng.integers(-8, 8, shape) + 0.5) / 8.0
    if kind == "zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    if kind == "constant":
        return np.repeat(rng.standard_normal((rows, 1)) * 3.0, shape[1], axis=1)
    if kind == "subnormal":
        return rng.integers(-1000, 1000, shape) * 5e-324
    x = rng.standard_normal(shape)
    if kind == "huge":
        return x * 1e300 * np.where(rng.random(shape) < 0.2, 170.0, 1.0)
    if kind == "tiny":
        return x * 1e-300
    x[rng.random(shape) < 0.1] = np.nan
    x[rng.random(shape) < 0.1] = np.inf
    x[rng.random(shape) < 0.1] = -np.inf
    return x


class TestSmallGrid:
    """A grid of at most SMALL_GRID finite cells is fitted on Python floats;
    its scales, zero points and fake_quant bytes are the array path's."""

    @pytest.mark.parametrize("kind", SMALL_GRID_KINDS)
    def test_matches_the_array_path(self, kind, monkeypatch):
        """Both paths give the same bytes, or both raise NonFiniteInput for a
        grid whose scale is not finite (only NaN and infinities do here)."""
        def outcome(f, *args):
            try:
                return f(*args)
            except NonFiniteInput:
                return NonFiniteInput

        rng = make_rng(SMALL_GRID_KINDS.index(kind))
        raised = 0
        for rows, groups in itertools.product((1, 2, 3), range(1, SMALL_GRID + 2)):
            x = small_grid_input(kind, rows, groups, 4, rng)
            for bits, clip in itertools.product((2, 3, 4, 8),
                                                (1.0, 0.7, rng.uniform(0.05, 1.0))):
                spec = spec_pg(bits, 4, clip_ratio=float(clip))
                mn, mx = _group_minmax(x, spec)
                with np.errstate(invalid="ignore", over="ignore"):
                    got_fit, got_x = (outcome(fit_asymmetric, mn, mx, spec),
                                      outcome(fake_quant, x, spec))
                    want_fit = outcome(_fit_arrays, mn, mx, spec)
                    monkeypatch.setattr(quantcore, "SMALL_GRID", 0)
                    want = outcome(fake_quant, x, spec)
                    monkeypatch.undo()
                case = (rows, groups, bits, clip)
                if want_fit is NonFiniteInput:
                    assert (got_fit, got_x, want) == (NonFiniteInput,) * 3, case
                    raised += 1
                    continue
                (got_s, got_z), (want_s, want_z) = got_fit, want_fit
                assert got_s.tobytes() == want_s.tobytes(), case
                assert got_z.dtype == np.int32, case
                assert got_z.tobytes() == want_z.tobytes(), case
                assert got_x.tobytes() == want.tobytes(), case
        assert bool(raised) == (kind == "nonfinite")

    def test_threshold(self, monkeypatch):
        """Grids up to SMALL_GRID finite cells take the float path; a larger
        grid, or one with a non-finite cell, the array path."""
        fits, original = [], quantcore._fit_cells
        monkeypatch.setattr(quantcore, "_fit_cells",
                            lambda *a: fits.append(original(*a)) or fits[-1])
        x = make_rng(0).standard_normal((1, 4 * (SMALL_GRID + 1)))
        spec = spec_pg(4, 4)
        fake_quant(x[:, : 4 * SMALL_GRID], spec)
        fake_quant(x, spec)  # not tried
        x[0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput):
            fake_quant(x[:, :4], spec)  # tried and declined
        assert [fit is None for fit in fits] == [False, True]

    @pytest.mark.parametrize("symmetric, row", [
        (s, r) for s in (False, True)
        for r in ([1.0, np.inf, -2.0], [1.0, -np.inf, -2.0], [1.0, np.nan, -2.0])
    ] + [(False, [1e308, 1.0, -1e308])],
        ids=["asym-inf", "asym--inf", "asym-nan", "sym-inf", "sym--inf", "sym-nan",
             "asym-range-overflow"])
    def test_non_finite_scale(self, symmetric, row):
        """A group whose fitted scale is not finite is NonFiniteInput, not a
        row of NaN and flipped infinities, though the other row's scale is
        finite."""
        spec = QuantSpec(bits=4, symmetric=symmetric, granularity=PER_TOKEN)
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(NonFiniteInput) as e:
            fake_quant(np.array([[0.5, 1.0, 2.0], row]), spec)
        assert str(e.value) == "a quantization scale holds a non-finite value"


class TestQuantizeDequantize:
    def test_on_grid_exact(self):
        p = fit_params(np.array([[-3.0, 5.0]]), spec_pg(3, 2))
        s, z = float(p.scales[0, 0]), int(p.zero_points[0, 0])
        x = s * (np.arange(8.0)[None, :] - z)
        p2 = fit_params(x, spec_pg(3, 8))
        assert np.max(np.abs(dequantize(quantize(x, p2)) - x)) < 1e-12

    def test_hand_codes(self):
        x = np.array([[-3.0, 5.0]])
        qt = quantize(x, fit_params(x, spec_pg(3, 2)))
        assert qt.codes[0, 0] == 0 and qt.codes[0, 1] == 7

    def test_symmetric_saturation(self):
        x = make_rng(1).standard_normal((1, 16))
        qt = quantize(x, fit_params(x, spec_pg(8, 16, symmetric=True)))
        peak = np.argmax(np.abs(x[0]))
        assert abs(qt.codes[0, peak]) == 127

    def test_all_zero_codes_decode_to_minus_sz(self):
        x = make_rng(2).standard_normal((2, 8))
        qt = quantize(x, fit_params(x, spec_pg(4, 8)))
        qt.codes[:] = 0
        s, z = expand(qt.params)
        assert np.allclose(dequantize(qt), -s * z)

    def test_round_trip_bound_scan(self):
        x = make_rng(3).standard_normal((6, 256))
        for spec in (spec_pg(4, 128), spec_pg(8, 128),
                     QuantSpec(bits=4, granularity=PER_TENSOR),
                     QuantSpec(bits=4, granularity=PER_TOKEN),
                     QuantSpec(bits=4, granularity=PER_CHANNEL, axis=1)):
            p = fit_params(x, spec)
            err = np.abs(dequantize(quantize(x, p)) - x)
            s, _ = expand(p)
            assert np.all(err <= s / 2 + 1e-6), spec.granularity

    def test_passthrough_sentinel(self):
        x = make_rng(4).standard_normal((3, 7))
        assert fake_quant(x, QuantSpec(bits=16)) is x

    def test_quantize_rejects_the_passthrough_sentinel(self):
        x = make_rng(4).standard_normal((3, 7))
        with pytest.raises(ValueError, match="pass-through"):
            quantize(x, fit_params(x, QuantSpec(bits=16)))

    def test_quantize_rejects_a_shape_other_than_fitted(self):
        x = make_rng(4).standard_normal((3, 8))
        with pytest.raises(ValueError, match="does not match"):
            quantize(x[:2], fit_params(x, spec_pg(4, 8)))

    def test_ragged_final_group(self):
        x = make_rng(5).standard_normal((2, 300))
        p = fit_params(x, spec_pg(4, 128))
        assert p.scales.shape == (2, 3)
        err = np.abs(dequantize(quantize(x, p)) - x)
        s, _ = expand(p)
        assert np.all(err <= s / 2 + 1e-6)


class TestProperties:
    @given(arrays(np.float64, (4, 32),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
    @settings(max_examples=50, deadline=None)
    def test_idempotence(self, x):
        spec = spec_pg(4, 16)
        once = fake_quant(x, spec)
        assert np.array_equal(fake_quant(once, spec), once)

    @given(arrays(np.float64, (2, 16),
                  elements=st.floats(-1e30, 1e30, allow_nan=False,
                                     allow_subnormal=True)),
           st.integers(2, 8), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_code_range_safety(self, x, bits, symmetric):
        qt = quantize(x, fit_params(x, spec_pg(bits, 8, symmetric=symmetric)))
        if symmetric:
            lim = 2 ** (bits - 1) - 1
            assert qt.codes.min() >= -lim and qt.codes.max() <= lim
        else:
            assert qt.codes.min() >= 0 and qt.codes.max() <= 2**bits - 1
        assert np.all(np.isfinite(dequantize(qt)))

    @given(arrays(np.float64, (6, 20), elements=st.floats(
               width=32, allow_nan=False, allow_infinity=False)),
           st.sampled_from([PER_TENSOR, PER_CHANNEL, PER_TOKEN, PER_GROUP]),
           st.integers(0, 1), st.integers(1, 24), st.integers(2, 8), st.booleans(),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_codes_come_back_from_the_weight(self, x, granularity, axis, group_size,
                                             bits, symmetric, gptq):
        """Quantizing a dequantized tensor under its own params gives back
        its codes exactly, for RTN and GPTQ codes alike: snapped scales put
        every grid point s * (c - z) exactly in float64. A quantized linear
        holds only its weight and params on the strength of this."""
        spec = QuantSpec(bits=bits, symmetric=symmetric, granularity=granularity,
                         axis=axis, group_size=group_size)
        if gptq:
            calib = make_rng(bits).standard_normal((x.shape[1], 32))
            qt = gptq_quantize(x, calib, GptqConfig(spec=spec))
        else:
            qt = quantize(x, fit_params(x, spec))
        assert np.array_equal(quantize(dequantize(qt), qt.params).codes, qt.codes)

    def test_bound_halves_with_extra_bit(self):
        x = make_rng(6).standard_normal((4, 64))
        for bits in (3, 4, 7):
            s_lo = fit_params(x, spec_pg(bits, 32)).scales
            s_hi = fit_params(x, spec_pg(bits + 1, 32)).scales
            assert np.all(s_hi / 2 <= s_lo / 2 / 2 + 1e-6)

    def test_granularity_refinement(self):
        x = make_rng(7).standard_normal((4, 256)) * np.exp(
            make_rng(8).uniform(-3, 3, size=(4, 256)))
        err_pt = np.sum((fake_quant(x, QuantSpec(bits=4, granularity=PER_TENSOR))
                         - x) ** 2)
        err_pg = np.sum((fake_quant(x, spec_pg(4, 128)) - x) ** 2)
        assert err_pg <= err_pt


def oracle_codes(x, params):
    """Elementwise reference for quantize: params expanded with np.repeat,
    two-branch round-half-away."""
    s, z = expand(params)
    t = x / s
    r = np.where(t >= 0, np.floor(t + 0.5), np.ceil(t - 0.5))
    if params.spec.symmetric:
        qmax = 2 ** (params.spec.bits - 1) - 1
        return np.clip(r, -qmax, qmax).astype(np.int32)
    return np.clip(r + z, 0, 2**params.spec.bits - 1).astype(np.int32)


def oracle_fake_quant(x, spec):
    params = fit_params(x, spec)
    codes = oracle_codes(x, params)
    s, z = expand(params)
    return s * codes if spec.symmetric else s * (codes - z)


def awkward_inputs(seed):
    """Ragged shapes with an all-zero row and column, -0.0 entries and an
    outlier, then the same values snapped to half-integers (rounding ties);
    then empty tensors, a zero extent on either axis or both."""
    rng = make_rng(seed)
    for shape in ((7, 20), (20, 7), (1, 13), (9, 1)):
        x = rng.standard_normal(shape) * 3.0
        x[rng.random(shape) < 0.2] = -0.0
        x[0] = 0.0
        x[:, -1] = -0.0
        x[-1, 0] *= 100.0
        yield x
        yield np.round(x * 2.0) / 2.0
    for shape in ((3, 0), (0, 64), (0, 0)):
        yield np.zeros(shape)


class TestGridViews:
    """quantize, dequantize and fake_quant, which broadcast the params through
    reshaped views, are byte-identical to the elementwise reference."""

    @staticmethod
    def check(x, spec):
        if x.size == 0 and spec.granularity == PER_TENSOR:
            with pytest.raises(ValueError):  # numpy's: no min of nothing
                fit_params(x, spec)
            return
        params = fit_params(x, spec)
        assert params.scales.shape == grid_shape(x.shape, spec), (x.shape, spec)
        q = quantize(x, params)
        assert q.codes.dtype == np.int32
        assert np.array_equal(q.codes, oracle_codes(x, params)), (x.shape, spec)
        want = oracle_fake_quant(x, spec).tobytes()
        assert dequantize(q).tobytes() == want, (x.shape, spec)
        got = fake_quant(x, spec)
        assert got.shape == x.shape
        assert got.tobytes() == want, (x.shape, spec)

    @pytest.mark.parametrize("granularity", [PER_TENSOR, PER_CHANNEL, PER_TOKEN,
                                             PER_GROUP])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_matches_oracle_bytes(self, granularity, axis, symmetric):
        for x in awkward_inputs(11):
            for order in ("C", "F"):
                for bits in (2, 3, 4, 8):
                    for clip in (1.0, 0.8, 0.35):
                        for group_size in (1, 3, 6, 128):
                            self.check(np.asarray(x, order=order),
                                       QuantSpec(bits=bits, symmetric=symmetric,
                                                 granularity=granularity, axis=axis,
                                                 group_size=group_size,
                                                 clip_ratio=clip))

    @given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 40)),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)),
           st.sampled_from([PER_TENSOR, PER_CHANNEL, PER_TOKEN, PER_GROUP]),
           st.integers(0, 1), st.integers(2, 8), st.booleans(),
           st.integers(1, 48))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_bytes_property(self, x, granularity, axis, bits,
                                           symmetric, group_size):
        self.check(x, QuantSpec(bits=bits, symmetric=symmetric,
                                granularity=granularity, axis=axis,
                                group_size=group_size))

    def test_input_not_modified(self):
        x = make_rng(12).standard_normal((6, 20))
        before = x.copy()
        fake_quant(x, spec_pg(4, 8))
        assert np.array_equal(x, before)


INPUT_KINDS = ("normal", "zeros", "constant", "negative", "subnormal", "ties")


@st.composite
def kind_inputs(draw):
    """A small matrix of one of INPUT_KINDS: all-zero with signed zeros, one
    constant, negative-only, subnormal, or (k + 0.5) * s for a power-of-two s,
    which fall on rounding ties whenever the fitted scale is s."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 24)))
    kind = draw(st.sampled_from(INPUT_KINDS))
    if kind == "zeros":
        return np.where(draw(arrays(np.bool_, shape)), -0.0, 0.0)
    if kind == "constant":
        return np.full(shape, draw(st.floats(-1e6, 1e6)))
    if kind == "ties":
        k = draw(arrays(np.int64, shape, elements=st.integers(-8, 7)))
        return (k + 0.5) * 2.0 ** draw(st.integers(-8, 8))
    elements = {"normal": st.floats(-1e6, 1e6),
                "negative": st.floats(-1e6, 0.0),
                "subnormal": st.floats(-2.2e-308, 2.2e-308)}[kind]
    return draw(arrays(np.float64, shape, elements=elements))


class TestEdgeInputs:
    """fake_quant's bytes, sign of zero included, match the elementwise
    reference on all-zero, constant, negative-only, subnormal and tie inputs."""

    @given(kind_inputs(), st.sampled_from([2, 3, 4, 8]), st.booleans(),
           st.sampled_from([PER_TENSOR, PER_CHANNEL, PER_TOKEN, PER_GROUP]),
           st.integers(0, 1), st.integers(1, 8), st.sampled_from([1.0, 0.7]))
    @settings(max_examples=400, deadline=None)
    def test_matches_oracle_bytes(self, x, bits, symmetric, granularity, axis,
                                  group_size, clip):
        TestGridViews.check(x, QuantSpec(bits=bits, symmetric=symmetric,
                                         granularity=granularity, axis=axis,
                                         group_size=group_size, clip_ratio=clip))


class TestRoundHalfAway:
    def test_halves_round_away_from_zero(self):
        t = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49, -0.49, 2.4, -2.6])
        want = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.0, -0.0, 2.0, -3.0])
        assert np.array_equal(_round_half_away(t), want)

    def test_zero_keeps_its_sign(self):
        got = _round_half_away(np.array([0.0, -0.0, -0.2]))
        assert np.array_equal(got, [0.0, 0.0, 0.0])
        assert list(np.signbit(got)) == [False, True, True]

    def test_large_magnitudes(self):
        t = np.array([2.0**52 - 0.5, -(2.0**52 - 0.5), 2.0**53, -(2.0**53),
                      1e300, -1e300])
        want = np.array([2.0**52, -(2.0**52), 2.0**53, -(2.0**53), 1e300, -1e300])
        assert np.array_equal(_round_half_away(t), want)

    def test_matches_two_branch_reference(self):
        t = make_rng(13).standard_normal(4000) * 10.0
        t[::7] = np.round(t[::7]) + 0.5
        ref = np.where(t >= 0, np.floor(t + 0.5), np.ceil(t - 0.5))
        assert np.array_equal(_round_half_away(t), ref)

    def test_divisor(self):
        t = np.array([5.0, -5.0, 3.0, -0.0, 1e-300])
        s = np.array([2.0, 2.0, 7.0, 3.0, 4.0])
        got = _round_half_away(t, s)
        assert np.array_equal(got, _round_half_away(t / s))
        assert list(np.signbit(got)) == list(np.signbit(t))


class TestCodePacking:
    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_round_trip(self, bits, symmetric):
        rng = make_rng(bits)
        if symmetric:
            lim = 2 ** (bits - 1) - 1
            codes = rng.integers(-lim, lim + 1, size=(3, 37)).astype(np.int32)
        else:
            codes = rng.integers(0, 2**bits, size=(3, 37)).astype(np.int32)
        raw = pack_codes(codes, bits, symmetric)
        back = unpack_codes(raw, codes.size, bits, symmetric).reshape(codes.shape)
        assert np.array_equal(back, codes)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([[16]]), 4, False)

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            unpack_codes(b"\x00", 100, 4, False)
