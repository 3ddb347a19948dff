"""Uniform quantization primitives: grid fitting, quantize/dequantize and
fake-quantize.

``quantize`` and ``dequantize`` broadcast the per-group params through
reshaped views of the tensor (``_grid_views``) instead of expanding them to
elementwise arrays, and ``quantize`` rounds, shifts and clips in one float64
buffer before narrowing to int32 codes. ``fake_quant`` is
``dequantize(quantize(x, fit_params(x, spec)))``, the path every quantized
forward and every calibration search runs; the tests check it against the
same arithmetic on the params expanded to elementwise arrays.

An asymmetric fit (``fit_asymmetric``) has two evaluations of the same
arithmetic. ``_fit_arrays`` fits every cell of the group grid at once in
some 25 numpy calls, each with a fixed cost of about a microsecond on a
one-cell grid. ``_fit_cells`` fits cell by cell on Python floats with the
same IEEE operations, so both give the same bytes. A decode step fits
grids of one or two cells (a token's row, or K and V stacked as two rows),
where the array path's fixed cost is most of a ``fake_quant``. Timed on a
shared 2-vCPU host (timeit, best of 9, two sessions), the float path costs
3-6 us for one cell, then 1-2 us per further cell; the array path 16-29 us
for any grid up to 32 cells. They cross near 12-16 cells, so grids of at
most ``SMALL_GRID`` = 8 cells take the float path, with room for the
float path's slower cells (those whose rounding guard nudges the scale).
A grid holding NaN or an infinity, or a range past the float64 maximum,
takes the array path, which raises for its scale: the float path's
comparisons would drop a NaN that ``np.minimum`` and ``np.maximum`` keep,
and an infinite scale has no mantissa to round.

Conventions (documented once, relied on everywhere):
  * rounding is round-half-away-from-zero;
  * asymmetric codes live in [0, 2^b - 1] with an integer zero point
    z = clamp(round(-min/s), 0, 2^b - 1); the fitted range is extended to
    include zero, which keeps z in range, makes the grid a fixed point of
    re-quantization (exact idempotence), and represents constant groups
    exactly;
  * the symmetric grid excludes -2^(b-1) (codes in +-(2^(b-1) - 1));
  * bits == 16 is a pass-through sentinel (no quantization);
  * an all-zero group gets scale 1 and zero point 0;
  * a scale that is not finite (from NaN, an infinity or a range past the
    float64 maximum) is NonFiniteInput.
"""

import math
from dataclasses import asdict, dataclass, fields, replace
from numbers import Real
from typing import Optional

import numpy as np

from .numerics import check_finite

PASSTHROUGH_BITS = 16
SMALL_GRID = 8  # cells; a grid this small is fitted on Python floats

PER_TENSOR = "per_tensor"
PER_CHANNEL = "per_channel"
PER_TOKEN = "per_token"
PER_GROUP = "per_group"


def _check_field_types(obj) -> None:
    """TypeError unless every field of dataclass ``obj`` annotated ``int``,
    ``bool`` or ``float`` holds one. A bool is neither an int nor a float;
    a float field takes any real number."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if (f.type in (int, bool) and type(v) is not f.type) or (f.type is float and (
                type(v) is bool or not isinstance(v, Real))):
            raise TypeError(f"{type(obj).__name__}.{f.name} must be "
                            f"{f.type.__name__}, got {v!r}")


@dataclass(frozen=True)
class QuantSpec:
    """Quantization configuration: bit-width, symmetry, granularity.

    ``axis`` is the channel axis for per_channel and the grouped axis for
    per_group (elements sharing a scale are consecutive runs of
    ``group_size`` along it). clip_ratio multiplicatively shrinks the
    fitted range before the scale is computed.
    """

    bits: int
    symmetric: bool = False
    granularity: str = PER_GROUP
    axis: int = 1
    group_size: int = 128
    clip_ratio: float = 1.0

    def __post_init__(self):
        _check_field_types(self)
        if self.bits != PASSTHROUGH_BITS and not (2 <= self.bits <= 8):
            raise ValueError(f"bits must be in 2..8 or 16, got {self.bits}")
        if self.granularity not in (PER_TENSOR, PER_CHANNEL, PER_TOKEN, PER_GROUP):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, got {self.axis!r}")
        if self.granularity == PER_GROUP and self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if not (0.0 < self.clip_ratio <= 1.0):
            raise ValueError("clip_ratio must be in (0, 1]")

    @property
    def passthrough(self) -> bool:
        return self.bits >= PASSTHROUGH_BITS

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The spec as a quantizer that applies itself: ``fake_quant(x, self)``."""
        return fake_quant(x, self)

    def with_clip(self, clip_ratio: float) -> "QuantSpec":
        return replace(self, clip_ratio=clip_ratio)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "QuantSpec":
        return QuantSpec(**d)


@dataclass
class QuantParams:
    """Fitted scales/zero-points on the group grid of a tensor.

    ``scales`` has one entry per group, arranged so that repeating each
    entry ``size`` times along the grouped axis (see ``_grouping``), and
    cutting the ragged last group to the extent, recovers an elementwise
    array: shape (rows, ceil(cols / size)) when grouping runs along axis 1
    and (ceil(rows / size), cols) when along axis 0, with at least one group
    on a zero extent. Per-tensor params are (1, 1).
    """

    scales: np.ndarray
    zero_points: Optional[np.ndarray]
    spec: QuantSpec
    shape: tuple


@dataclass
class QuantizedTensor:
    codes: np.ndarray  # int32, original shape; symmetric codes are signed
    params: QuantParams  # its spec and shape are the tensor's


def _grouping(shape, spec: QuantSpec):
    """Resolve (grouped_axis, size) for a 2-D shape.

    Consecutive runs of ``size`` elements along ``grouped_axis`` share
    params; the last run is ragged when ``size`` does not divide the
    extent. Per token and per channel a group spans its axis, its size the
    extent or 1 on a zero extent. (None, None) per tensor.
    """
    if spec.granularity == PER_TENSOR:
        return None, None
    if spec.granularity == PER_GROUP:
        return spec.axis, spec.group_size
    # per_token: one group per row, spanning all columns; per_channel: each
    # index along spec.axis is a channel, grouped along the other axis
    g_axis = 1 if spec.granularity == PER_TOKEN else 1 - spec.axis
    return g_axis, shape[g_axis] or 1


def grid_shape(shape, spec: QuantSpec) -> tuple:
    """The group grid (see QuantParams) fit_params fits for a 2-D ``shape``."""
    g_axis, size = _grouping(shape, spec)
    if g_axis is None:
        return (1, 1)
    n_groups = max(-(-shape[g_axis] // size), 1)  # a zero extent: one group
    return (shape[0], n_groups) if g_axis == 1 else (n_groups, shape[1])


def _group_minmax(x: np.ndarray, spec: QuantSpec):
    """Per-group (min, max) arrays on the group grid; an empty group has
    the range of an all-zero one."""
    g_axis, size = _grouping(x.shape, spec)
    if g_axis is None:
        return (np.array([[x.min()]]), np.array([[x.max()]]))
    if x.shape[g_axis] == 0:
        x = np.zeros(grid_shape(x.shape, spec))
    # reduceat even for one group, whose lone start needs no arange: along
    # axis 1 of a (512, 64) tensor it takes half the time reduce takes
    extent = x.shape[g_axis]
    starts = (0,) if size >= extent else np.arange(0, extent, size)
    return (np.minimum.reduceat(x, starts, axis=g_axis),
            np.maximum.reduceat(x, starts, axis=g_axis))


def _round_half_away(t: np.ndarray, s=1.0, out=None) -> np.ndarray:
    """Round t / s (s > 0) half away from zero: copysign(floor(|t| / s +
    0.5), t). t / s has the sign of t and |t| / s == |t / s| exactly, so the
    quotient is never stored; ``out`` must not alias t."""
    r = np.abs(t, out=out)
    r /= s
    r += 0.5
    np.floor(r, out=r)
    return np.copysign(r, t, out=r)


def snap_scale(scales: np.ndarray, bits: int) -> np.ndarray:
    """Round scales to 53 - bits mantissa bits (relative change ~2^-45).

    Every grid value s*k with |k| < 2^bits is then exact in float64, so a
    refit over dequantized data reproduces the identical scale and the grid
    is a true fixed point (exact idempotence of fake_quant).
    """
    m, e = np.frexp(scales)
    keep = float(1 << (53 - bits))
    return np.ldexp(np.rint(m * keep) / keep, e)


def _snap_down(scales: np.ndarray, bits: int) -> np.ndarray:
    """Previous representable value on the snapped-scale grid."""
    m, e = np.frexp(scales)
    keep = float(1 << (53 - bits))
    return np.ldexp((np.rint(m * keep) - 1.0) / keep, e)


def fit_asymmetric(mn: np.ndarray, mx: np.ndarray, spec: QuantSpec):
    """Asymmetric (scales, zero_points) from per-group float64 ranges
    ``mn`` and ``mx``, both on the group grid.

    The range is anchored at zero: keeps z unclamped, makes grid points
    exact fixed points of refit-and-requantize, and puts a constant
    group's value exactly on the grid. A grid of at most ``SMALL_GRID``
    finite cells is fitted on Python floats (``_fit_cells``), any other on
    arrays (``_fit_arrays``); both give the same bytes.
    """
    if mn.size <= SMALL_GRID:
        fit = _fit_cells(mn.ravel().tolist(), mx.ravel().tolist(), spec)
        if fit is not None:
            return (np.array(fit[0]).reshape(mn.shape),
                    np.array(fit[1], dtype=np.int32).reshape(mn.shape))
    return _fit_arrays(mn, mx, spec)


def _fit_arrays(mn: np.ndarray, mx: np.ndarray, spec: QuantSpec):
    """fit_asymmetric on arrays, every cell at once."""
    levels = float(2**spec.bits - 1)
    mn_c = np.minimum(mn * spec.clip_ratio, 0.0)
    mx_c = np.maximum(mx * spec.clip_ratio, 0.0)
    scales = check_finite((mx_c - mn_c) / levels, "a quantization scale")
    scales = np.where(scales <= 0, 1.0, scales)  # all-zero group
    scales = snap_scale(scales, spec.bits)
    # rounding guard: when -mn/s sits exactly on a .5 tie, scale rounding can
    # leave the grid one step short of the full code range, so a refit over
    # dequantized data would shrink the scale. Nudge the scale down until the
    # extreme codes span all 2^b - 1 steps; then refit reproduces s exactly.
    # Both ends are >= 0, so half-away rounding of end / s is floor(+ 0.5),
    # and the zero point is the low end's code at the final scale.
    ends = np.array((mx_c, -mn_c))
    nonzero = mx_c > mn_c
    for _ in range(64):
        codes = np.floor(ends / scales + 0.5)
        short = (codes[0] + codes[1] < levels) & nonzero
        if not np.logical_or.reduce(short, axis=None):
            break
        scales = np.where(short, _snap_down(scales, spec.bits), scales)
    else:
        codes = np.floor(ends / scales + 0.5)
    return scales, np.minimum(codes[1], levels).astype(np.int32)


def _fit_cells(mn: list, mx: list, spec: QuantSpec):
    """``_fit_arrays`` on lists of Python floats, cell by cell: the same
    IEEE operations (``frexp``, ``ldexp``, half-even ``round`` for
    ``snap_scale``, ``floor`` for the codes) and the same guard loop, with
    the scales and zero points as lists. None when a range end or a range
    is not finite: ``x if x < 0.0 else 0.0`` is ``np.minimum(x, 0.0)``,
    signed zeros included, except on NaN, and an infinite range has no
    scale to round."""
    levels = 2**spec.bits - 1
    keep = float(1 << (53 - spec.bits))
    scales, zps = [], []
    for lo, hi in zip(mn, mx):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return None
        lo, hi = lo * spec.clip_ratio, hi * spec.clip_ratio
        lo, hi = lo if lo < 0.0 else 0.0, hi if hi > 0.0 else 0.0
        if not math.isfinite(hi - lo):
            return None
        s = (hi - lo) / levels
        if s <= 0:  # all-zero group
            s = 1.0
        m, e = math.frexp(s)
        s = math.ldexp(round(m * keep) / keep, e)
        for _ in range(64):
            top, low = math.floor(hi / s + 0.5), math.floor(-lo / s + 0.5)
            if top + low >= levels or not hi > lo:
                break
            m, e = math.frexp(s)
            s = math.ldexp((round(m * keep) - 1.0) / keep, e)
        else:
            low = math.floor(-lo / s + 0.5)
        scales.append(s)
        zps.append(min(low, levels))
    return scales, zps


def fit_params(x: np.ndarray, spec: QuantSpec) -> QuantParams:
    """Fit per-group scales (and zero points when asymmetric); ValueError
    for the 16-bit pass-through sentinel, which has no grid."""
    x = np.asarray(x, dtype=np.float64)
    if spec.passthrough:
        raise ValueError("cannot quantize with the 16-bit pass-through sentinel")
    mn, mx = _group_minmax(x, spec)

    if spec.symmetric:
        qmax_sym = float(2 ** (spec.bits - 1) - 1)
        degenerate = mx == mn
        amax = np.maximum(np.abs(mn), np.abs(mx)) * spec.clip_ratio
        scales = amax / qmax_sym
        # degenerate groups: constant c != 0 maps to +-qmax exactly; c == 0
        # gets scale 0, then 1 below, so every code decodes to 0
        scales = np.where(degenerate, np.abs(mn) / qmax_sym, scales)
        scales = check_finite(np.where(scales <= 0, 1.0, scales), "a quantization scale")
        return QuantParams(snap_scale(scales, spec.bits), None, spec, x.shape)

    scales, zp = fit_asymmetric(mn, mx, spec)
    return QuantParams(scales, zp, spec, x.shape)


def _grid_views(x: np.ndarray, out: np.ndarray, s: np.ndarray,
                z: Optional[np.ndarray], spec: QuantSpec):
    """Pair views of ``x`` and ``out`` with views of the scales ``s`` and
    zero points ``z`` (group grid, see QuantParams; ``z`` may be None) that
    broadcast against them: (rows, groups, size) against (rows, groups, 1)
    when groups run along axis 1, (groups, size, cols) against
    (groups, 1, cols) along axis 0, ``size`` being the group size from
    ``_grouping``. A ragged last group is a pair of its own; a single group
    per row or column broadcasts as it is."""
    g_axis, size = _grouping(x.shape, spec)
    if g_axis is None or size >= x.shape[g_axis]:
        return [(x, out, s, z)]

    def along(*idx):  # index tuple starting at the grouped axis
        return (slice(None), *idx) if g_axis == 1 else idx

    def grid_of(a, idx):
        return None if a is None else a[idx]

    n_full = x.shape[g_axis] // size
    full = n_full * size
    split = x.shape[:g_axis] + (n_full, size) + x.shape[g_axis + 1:]
    body, grid = along(slice(full)), along(slice(n_full), None)
    pairs = [(x[body].reshape(split), out[body].reshape(split),
              s[grid], grid_of(z, grid))]
    if full < x.shape[g_axis]:
        tail, grid = along(slice(full, None)), along(slice(n_full, None))
        pairs.append((x[tail], out[tail], s[grid], grid_of(z, grid)))
    return pairs


def quantize(x: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Project x onto the fitted grid; codes are kept widened (int32).

    Rounds, adds the zero point and clips in one float64 buffer, with the
    per-group params broadcast through reshaped views (``_grid_views``)."""
    x = np.asarray(x, dtype=np.float64)
    spec = params.spec
    if spec.passthrough:
        raise ValueError("cannot quantize with the 16-bit pass-through sentinel")
    if x.shape != tuple(params.shape):
        raise ValueError(f"shape {x.shape} does not match fitted {params.shape}")
    if spec.symmetric:
        hi = float(2 ** (spec.bits - 1) - 1)
        lo = -hi
    else:
        lo, hi = 0.0, float(2**spec.bits - 1)
    q = np.empty(x.shape)
    for xv, qv, s, z in _grid_views(x, q, params.scales, params.zero_points, spec):
        _round_half_away(xv, s, out=qv)
        if z is not None:
            qv += z
        np.minimum(np.maximum(qv, lo, out=qv), hi, out=qv)
    return QuantizedTensor(q.astype(np.int32), params)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """s * codes (symmetric) or s * (codes - z), per group."""
    out = np.empty(q.codes.shape)
    params = q.params
    for c, o, s, z in _grid_views(q.codes, out, params.scales,
                                  params.zero_points, params.spec):
        if z is None:
            o[...] = c
        else:
            np.subtract(c, z, out=o)
        o *= s
    return out


def fake_quant(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """fit + quantize + dequantize in one call (dynamic quantization)."""
    if spec.passthrough:
        return x
    return dequantize(quantize(x, fit_params(x, spec)))
