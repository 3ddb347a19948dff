"""KV-cache quantization: RoPE, per-token dynamic quantization, and static
per-channel K quantization with pre-RoPE / pre-bias options.

K/V matrices are (positions, head_dim) per head. Quantize-at-write
semantics: entries are quantized and dequantized when appended, and the
cache holds the dequantized rows; past entries are never requantized.
Static K's per-channel grid is fitted once, at calibration. Each layer's
``KvWriter.write`` returns the rows its cache stores for a block of K/V rows.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    ChannelCountMismatch,
    EmptyCalibration,
    NotCalibrated,
    OddHeadDim,
)
from .numerics import HadamardMatrix
from .quantcore import (
    QuantParams,
    QuantSpec,
    dequantize,
    fit_asymmetric,
    quantize,
)

PRE_ROPE = "pre_rope"
POST_ROPE = "post_rope"
PRE_BIAS = "pre_bias"
POST_BIAS = "post_bias"


@dataclass(frozen=True)
class RopeConfig:
    head_dim: int
    base: float = 10000.0

    def __post_init__(self):
        if self.head_dim % 2 != 0:
            raise OddHeadDim(f"head_dim must be even, got {self.head_dim}")

    def angles(self, positions: np.ndarray) -> np.ndarray:
        """theta[p, i] = pos_p * base^(-2i/head_dim) for pair index i."""
        i = np.arange(self.head_dim // 2)
        freqs = self.base ** (-2.0 * i / self.head_dim)
        return np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]


@lru_cache(maxsize=1024, typed=True)  # a block's tables, by start position and length
def _rope_table(cfg: RopeConfig, start, rows: int):
    th = cfg.angles(np.asarray(start) + np.arange(rows))
    c, s = np.cos(th), np.sin(th)
    c.flags.writeable = s.flags.writeable = False
    return c, s


@lru_cache(maxsize=1024)  # a one-row decode up to 1,024 positions
def _rope_pair_table(cfg: RopeConfig, pos: int):
    """Position ``pos``'s read-only tables for two-product RoPE, from
    ``_rope_table``'s computation (not its cache): C, the cos of each pair's
    angle on both its columns, (head_dim,), and S, (-sin, sin) per pair,
    (head_dim / 2, 2)."""
    c, s = _rope_table.__wrapped__(cfg, pos, 1)
    c, s = np.repeat(c[0], 2), np.stack((-s[0], s[0]), axis=-1)
    c.flags.writeable = s.flags.writeable = False
    return c, s


def rope_apply(x: np.ndarray, cfg: RopeConfig, start_pos=0) -> np.ndarray:
    """Rotary embedding on interleaved pairs (x_{2i}, x_{2i+1}) of the last
    axis, which is head_dim wide. Positions run along axis 0: row r is at
    position start_pos + r, or at start_pos[r] when start_pos is an array.
    Pairwise 2-norms are preserved. With a scalar start_pos, cos and sin come
    from a bounded cache of read-only tables keyed by (cfg, start_pos, rows),
    each the bytes a fresh computation gives.

    A single position (a decode step) is rotated in two products and a sum,
    x * C + reversed_pairs(x) * S over ``_rope_pair_table``: negating sin
    and adding in the other order are exact, so these are the bytes of the
    four products below. Blocks keep the four products, which allocate
    less: a swapped copy of a 64-position block raised a ``drift`` cycle's
    page faults by a third."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != cfg.head_dim:
        raise OddHeadDim(f"expected {cfg.head_dim} columns, got {x.shape[-1]}")
    pos = np.asarray(start_pos)
    if pos.ndim == 0 and x.shape[0] == 1:  # one position, a decode step
        c, s = _rope_pair_table(cfg, pos.item())
        out = x * c
        out += (x.reshape(x.shape[:-1] + (-1, 2))[..., ::-1] * s).reshape(x.shape)
        return out
    if pos.ndim == 0:
        c, s = _rope_table(cfg, pos.item(), x.shape[0])
    else:
        th = cfg.angles(pos)
        c, s = np.cos(th), np.sin(th)
    shape = (x.shape[0],) + (1,) * (x.ndim - 2) + (-1,)
    c, s = c.reshape(shape), s.reshape(shape)
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * c - odd * s
    out[..., 1::2] = even * s + odd * c
    return out


def rope_heads(rows: np.ndarray, cfg: RopeConfig, pos) -> np.ndarray:
    """RoPE on every head of rows that hold one or more heads side by side,
    head_dim wide each; row r is at position pos + r (or pos[r])."""
    heads = rope_apply(rows.reshape(len(rows), -1, cfg.head_dim), cfg, pos)
    return heads.reshape(rows.shape)


def default_kv_k_channel_spec(bits: int) -> QuantSpec:
    """Static per-channel asymmetric quantization (channels = columns)."""
    return QuantSpec(bits=bits, symmetric=False, granularity="per_channel", axis=1)


@dataclass
class KvQuantStarConfig:
    k_spec: QuantSpec
    k_stage: str = PRE_ROPE
    k_bias_mode: str = PRE_BIAS
    k_grid: Optional[tuple] = None  # (scales, zero points), each (1, channels)

    def __post_init__(self):
        if self.k_stage not in (PRE_ROPE, POST_ROPE):
            raise ValueError(f"bad k_stage {self.k_stage!r}")
        if self.k_bias_mode not in (PRE_BIAS, POST_BIAS):
            raise ValueError(f"bad k_bias_mode {self.k_bias_mode!r}")

    @property
    def calibrated(self) -> bool:
        return self.k_grid is not None


def k_stage_tensor(k_raw: np.ndarray, bias: np.ndarray, cfg: KvQuantStarConfig,
                   cfg_rope: RopeConfig, pos) -> np.ndarray:
    """The K tensor at the configured quantization stage. k_raw is the
    pre-bias projection output, positions along axis 0, each row one or
    more heads of cfg_rope.head_dim channels; ``pos`` is as rope_apply's
    ``start_pos``."""
    k = np.asarray(k_raw, dtype=np.float64)
    if cfg.k_bias_mode == POST_BIAS:
        k = k + bias[np.newaxis, :]
    if cfg.k_stage == POST_ROPE:
        k = rope_heads(k, cfg_rope, pos)
    return k


def calibrate_k_channels(k_samples: np.ndarray, cfg: KvQuantStarConfig) -> KvQuantStarConfig:
    """Fit the static per-channel grid over calibration samples taken at
    the configured stage: the (scales, zero points) fit_params gives for
    the samples under cfg.k_spec, one per channel, fitted once."""
    k = np.asarray(k_samples, dtype=np.float64)
    if k.size == 0:
        raise EmptyCalibration("no K samples to calibrate from")
    scales, zp = fit_asymmetric(k.min(axis=0), k.max(axis=0), cfg.k_spec)
    return replace(cfg, k_grid=(scales[np.newaxis, :], zp[np.newaxis, :]))


def quantize_k(k_raw: np.ndarray, bias: np.ndarray, cfg: KvQuantStarConfig,
               cfg_rope: RopeConfig, pos: int = 0) -> np.ndarray:
    """The K rows the cache stores, rope(k + b) up to the round trip Q on
    the calibrated grid (none under the 16-bit sentinel), by stage and bias
    mode: pre_rope/pre_bias rope(Q(k) + b), pre_rope/post_bias
    rope(Q(k + b)), post_rope/pre_bias Q(rope(k)) + rope(b), post_rope/
    post_bias Q(rope(k + b)). The full-precision bias is rotated at each
    row's position when it is added after RoPE. A row may hold several
    heads of cfg_rope.head_dim channels each; RoPE runs per head."""
    k_raw = np.asarray(k_raw, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if not cfg.calibrated:
        raise NotCalibrated("calibrate_k_channels must run before quantize_k")
    scales, zp = cfg.k_grid
    if scales.shape[1] != k_raw.shape[1] or bias.shape[0] != k_raw.shape[1]:
        raise ChannelCountMismatch(
            f"channels: k {k_raw.shape[1]}, grid {scales.shape[1]}, bias {bias.shape[0]}")
    if k_raw.shape[1] % cfg_rope.head_dim:
        raise ChannelCountMismatch(
            f"{k_raw.shape[1]} channels are not whole heads of {cfg_rope.head_dim}")
    k = k_stage_tensor(k_raw, bias, cfg, cfg_rope, pos)
    if not cfg.k_spec.passthrough:
        k = dequantize(quantize(k, QuantParams(scales, zp, cfg.k_spec, k.shape)))
    if cfg.k_bias_mode == PRE_BIAS:
        b = np.broadcast_to(bias, k.shape)
        k = k + (rope_heads(b, cfg_rope, pos) if cfg.k_stage == POST_ROPE else b)
    if cfg.k_stage == PRE_ROPE:
        k = rope_heads(k, cfg_rope, pos)
    return k


@dataclass(frozen=True)
class KvWriter:
    """One layer's cache writer: K after RoPE and V per token, stacked in one
    ``spec.apply``, each head turned by ``h`` when set (rotated KV); or, with
    ``k_cfg``, static K by ``quantize_k`` on K before its bias, V per token."""

    spec: QuantSpec
    h: Optional[HadamardMatrix] = None
    k_bias: Optional[np.ndarray] = None
    k_cfg: Optional[KvQuantStarConfig] = None
    rope: Optional[RopeConfig] = None

    def write(self, k_pre, k_rope, v, pos):
        if self.k_cfg is not None:
            k = quantize_k(k_pre, self.k_bias, self.k_cfg, self.rope, pos)
            return k, self.spec.apply(v)
        h, kv = self.h, (k_rope, v)
        if h is not None:
            kv = [h.apply(r.reshape(-1, h.n)).reshape(r.shape) for r in kv]
        q = self.spec.apply(np.concatenate(kv))  # per-token groups: row-local
        kv = q[: len(v)], q[len(v) :]
        if h is not None:
            kv = tuple(h.unapply(r.reshape(-1, h.n)).reshape(r.shape) for r in kv)
        return kv
