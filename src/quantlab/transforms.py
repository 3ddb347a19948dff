"""Outlier-smoothing transforms for weight-activation quantization:
SmoothQuant channel migration and a desk-scale learned Kronecker transform
with learnable clipping, trained on simultaneous-perturbation (SPSA)
gradient estimates. The Hadamard rotation is ``numerics.HadamardMatrix``,
whose ``apply`` rotates weight rows and activation rows alike.

Conventions: weights ``w`` are (out, in), activations ``x`` are
(tokens, in); the layer computes ``x @ w.T``.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .quantcore import QuantSpec, fake_quant
from .rng import make_rng
from .toymodel import PlainLinear

FLAT_STEP_SIZE = 0.05  # flat_train's first line-search step length
FLAT_FD_EPS = 1e-2  # flat_train's SPSA perturbation along each +-1 direction
FLAT_DIRECTIONS = 8  # SPSA directions averaged into one gradient estimate
FLAT_MAX_CONDITION = 1e6  # flat_train scores a worse-conditioned factor as inf


def smooth_fit(x_calib: np.ndarray, w: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """The per-input-channel scales s_j = max|X_j|^alpha / max|W_j|^(1-alpha),
    floored at 1e-8.

    The weight side is multiplied by s and the activation side by 1 / s
    (``weightquant.awq_fold``), so the product is unchanged while outlier
    channels migrate into weights.
    """
    x = np.asarray(x_calib, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape[1] != w.shape[1]:
        raise DimensionMismatch(f"channel axes differ: x {x.shape} vs w {w.shape}")
    ax = np.maximum(np.max(np.abs(x), axis=0), 1e-8)
    aw = np.maximum(np.max(np.abs(w), axis=0), 1e-8)
    return np.maximum(ax**alpha / aw ** (1.0 - alpha), 1e-8)


@dataclass
class FlatTransform:
    """Kronecker-factored invertible transform P1 (x) P2 over the input dim,
    with learnable clip ratios for the activation and weight grids."""

    p1: np.ndarray
    p2: np.ndarray
    act_clip: float = 1.0
    weight_clip: float = 1.0
    objective_trace: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.p1.shape[0] * self.p2.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The transform of rows ``x``: x (P1 (x) P2)."""
        return kron_apply_right(x, self.p1, self.p2)

    def specs(self, spec_w: QuantSpec, spec_a: QuantSpec) -> tuple:
        """The weight and activation specs with the learned clips applied."""
        return _clipped(spec_w, self.weight_clip), _clipped(spec_a, self.act_clip)


def kron_factor(n: int) -> tuple:
    """n1 = largest divisor of n that is <= sqrt(n); n = n1 * n2."""
    n1 = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            n1 = d
    return n1, n // n1


def kron_apply_right(x: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """x @ (P1 (x) P2) without materializing the Kronecker product.

    Row index (k, l) of the product maps channel k*n2+l; the contraction is
    y[m, i*n2+j] = sum_kl x[m, k*n2+l] P1[k, i] P2[l, j]: P1 over an
    (n1, m*n2) matrix, then P2 over its (m*n1, n2) rows.
    """
    m = x.shape[0]
    n1, n2 = p1.shape[0], p2.shape[0]
    t = p1.T @ x.reshape(m, n1, n2).transpose(1, 0, 2).reshape(n1, m * n2)
    return (t.reshape(n1, m, n2).transpose(1, 0, 2).reshape(m * n1, n2) @ p2
            ).reshape(m, n1 * n2)


@functools.lru_cache(maxsize=64)  # flat_train asks for a few clips thousands of times
def _clipped(spec: QuantSpec, clip: float) -> QuantSpec:
    return spec.with_clip(float(np.clip(clip * spec.clip_ratio, 1e-3, 1.0)))


def flat_map_weight(w: np.ndarray, t: FlatTransform) -> np.ndarray:
    """(P1 (x) P2)^-1 W.T, stored transposed as (out, in) rows."""
    # (P1 (x) P2)^-1 W.T == (W applied with the inverse factors on its input).T
    return kron_apply_right(w, np.linalg.inv(t.p1).T, np.linalg.inv(t.p2).T)


def flat_objective(w: np.ndarray, x: np.ndarray, t: FlatTransform,
                   spec_w: QuantSpec, spec_a: QuantSpec, *, y_ref: np.ndarray) -> float:
    """||X W.T - Q(X P) Q(P^-1 W.T)||_F^2 on the calibration batch: the
    squared residual of the linear ``prepare_runtime`` builds from ``t``
    under RTN weights. ``y_ref`` is X W.T, which ``flat_train`` computes
    once for every evaluation."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape[1] != t.n or w.shape[1] != t.n:
        raise DimensionMismatch(f"transform dim {t.n} vs x {x.shape}, w {w.shape}")
    sw, sa = t.specs(spec_w, spec_a)
    r = PlainLinear(fake_quant(flat_map_weight(w, t), sw), None, t, sa).pre_bias(x)
    np.subtract(y_ref, r, out=r)
    return float(np.sum(np.square(r, out=r)))


def flat_train(w: np.ndarray, x_calib: np.ndarray, spec_w: QuantSpec,
               spec_a: QuantSpec, *, steps: int) -> FlatTransform:
    """Train the Kronecker transform by descent on simultaneous-perturbation
    (SPSA; Spall 1992) gradient estimates with a reject-and-halve line
    search. An update is accepted only when it lowers the objective, so the
    last accepted transform, which is returned, is the best seen.

    With d = n1^2 + n2^2 + 2 trained parameters (both factors and both
    clips), a step is a budget of d gradient evaluations: d // (2k) updates
    (at least one), each estimating the gradient as the mean over k =
    ``FLAT_DIRECTIONS`` random +-1 directions u of
    (f(v + c u) - f(v - c u)) / 2c * u, with c = ``FLAT_FD_EPS``. The
    directions come from a fixed-seed stream, so training is deterministic.
    A non-finite or zero estimate ends training.

    Rounding is treated as pass-through for gradient purposes: the
    perturbation is large relative to one grid step, which smooths over the
    rounding staircase.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x_calib, dtype=np.float64)
    n = w.shape[1]
    n1, n2 = kron_factor(n)
    t = FlatTransform(p1=np.eye(n1), p2=np.eye(n2))
    y_ref = x @ w.T
    obj = flat_objective(w, x, t, spec_w, spec_a, y_ref=y_ref)
    t.objective_trace.append(obj)

    def unpack(v):
        k1 = n1 * n1
        k2 = n2 * n2
        return (v[:k1].reshape(n1, n1), v[k1:k1 + k2].reshape(n2, n2),
                float(np.clip(v[k1 + k2], 0.2, 1.0)),
                float(np.clip(v[k1 + k2 + 1], 0.2, 1.0)))

    def evaluate(v):
        p1, p2, ac, wc = unpack(v)
        if (np.linalg.cond(p1) > FLAT_MAX_CONDITION
                or np.linalg.cond(p2) > FLAT_MAX_CONDITION):
            return np.inf
        cand = FlatTransform(p1=p1, p2=p2, act_clip=ac, weight_clip=wc)
        return flat_objective(w, x, cand, spec_w, spec_a, y_ref=y_ref)

    v = np.concatenate([t.p1.ravel(), t.p2.ravel(), [t.act_clip, t.weight_clip]])
    directions = make_rng(0)
    updates = max(1, v.size // (2 * FLAT_DIRECTIONS))
    for _ in range(steps * updates):
        u = 2.0 * directions.integers(0, 2, size=(FLAT_DIRECTIONS, v.size)) - 1.0
        diff = [evaluate(v + FLAT_FD_EPS * ui) - evaluate(v - FLAT_FD_EPS * ui)
                for ui in u]
        grad = np.asarray(diff) @ u / (2 * FLAT_FD_EPS * FLAT_DIRECTIONS)
        gnorm = np.linalg.norm(grad)
        if not np.isfinite(gnorm) or gnorm == 0:
            break
        step = FLAT_STEP_SIZE / gnorm
        for _halve in range(8):
            cand = v - step * grad
            cand_obj = evaluate(cand)
            if cand_obj < obj:
                v, obj = cand, cand_obj
                t.p1, t.p2, t.act_clip, t.weight_clip = unpack(v)
                t.objective_trace.append(obj)
                break
            step *= 0.5
    return t
