"""Weight-only quantization: RTN baseline, GPTQ error compensation, AWQ
scale search with exact folding, and a brute-force oracle for tiny layers.

Weight convention throughout: ``w`` is (out_features, in_features) and the
layer computes ``x @ w.T``; calibration activations ``calib_x`` are
(in_features, n_tokens), one column per token.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveScale, NotPositiveDefinite, TooLargeToEnumerate
from .numerics import cholesky, invert_spd
from .quantcore import (
    PER_GROUP,
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    _grouping,
    dequantize,
    fake_quant,
    fit_params,
    quantize,
)

NATURAL = "natural"
ACTIVATION_ORDER = "activation_order"
MAX_DAMPING_RETRIES = 8  # doublings of the GPTQ damping before giving up
AWQ_CHUNK_ELEMENTS = 1 << 15  # weight elements per stacked AWQ fake_quant call
BRUTE_FORCE_MAX_ASSIGNMENTS = 1 << 20  # brute_force_optimal's enumeration guard


def default_weight_spec(bits: int, group_size: int = 128) -> QuantSpec:
    """Asymmetric per-group quantization along axis 1: a weight-only plan's
    weight rows (input channels), and a token's activations or V row."""
    return QuantSpec(bits=bits, symmetric=False, granularity=PER_GROUP, axis=1,
                     group_size=group_size)


@dataclass
class GptqConfig:
    spec: QuantSpec = field(default_factory=lambda: default_weight_spec(4))
    damping_fraction: float = 0.01
    column_order: str = NATURAL

    def __post_init__(self):
        if self.damping_fraction <= 0:
            raise ValueError("damping_fraction must be > 0")


@dataclass
class AwqSearchResult:
    alpha: float
    beta: float
    scales: np.ndarray
    proxy_loss: float


def proxy_loss(w: np.ndarray, w_hat: np.ndarray, calib_x: np.ndarray) -> float:
    """||(w_hat - w) X||_F^2, the calibration-output squared error."""
    return float(np.sum(((w_hat - w) @ calib_x) ** 2))


def rtn_quantize_weights(w: np.ndarray, spec: QuantSpec) -> QuantizedTensor:
    w = np.asarray(w, dtype=np.float64)
    return quantize(w, fit_params(w, spec))


def gptq_quantize(w: np.ndarray, calib_x: np.ndarray, cfg: GptqConfig) -> QuantizedTensor:
    """GPTQ: quantize columns one at a time, folding each column's rounding
    error into the not-yet-quantized columns via the inverse Hessian.

    The params are fitted by ``fit_params`` on the weights as they stand
    after earlier compensation: once at the first column, and again for
    each later group along axis 1 when its first column comes up. Column
    ``j``'s codes are ``quantize`` of it under its slice of the group grid,
    and its quantized value, from which the error is propagated, is their
    ``dequantize``.
    """
    w = np.asarray(w, dtype=np.float64)
    spec = cfg.spec
    n_out, n_in = w.shape
    if calib_x.shape[0] != n_in:
        raise ValueError(f"calib_x rows {calib_x.shape[0]} != weight input dim {n_in}")

    H = calib_x @ calib_x.T
    lam = cfg.damping_fraction * float(np.mean(np.diag(H)))
    if lam <= 0:
        lam = cfg.damping_fraction
    C = None
    for _ in range(MAX_DAMPING_RETRIES + 1):
        try:
            Hinv = invert_spd(H + lam * np.eye(n_in))
            C = cholesky(Hinv).T  # upper triangular, Hinv = C.T @ C
            break
        except NotPositiveDefinite:
            lam *= 2.0
    if C is None:
        raise NotPositiveDefinite(-1, "Hessian not PD after damping escalation")

    if cfg.column_order == ACTIVATION_ORDER:
        order = np.argsort(-np.diag(H), kind="stable")
    else:
        order = np.arange(n_in)

    # column j's column of the group grid: its group along axis 1, itself
    # along axis 0, the one column of a per-tensor grid
    g_axis, starts = _grouping(w.shape, spec)
    grid_col = np.arange(n_in)
    if g_axis == 1:
        grid_col = np.searchsorted(starts, grid_col, side="right") - 1
    elif g_axis is None:
        grid_col[:] = 0

    # the fit at the first column, before any compensation; a group along
    # axis 1 is refitted when its first column comes up
    params = fit_params(w, spec)
    fitted = {grid_col[order[0]]}
    work = w.copy()
    codes = np.zeros((n_out, n_in), dtype=np.int32)
    for step, j in enumerate(order):
        k = grid_col[j]
        if g_axis == 1 and k not in fitted:
            fitted.add(k)
            fresh = fit_params(work, spec)
            params.scales[:, k] = fresh.scales[:, k]
            if not spec.symmetric:
                params.zero_points[:, k] = fresh.zero_points[:, k]
        col = work[:, j].copy()
        z = None if spec.symmetric else params.zero_points[:, k:k + 1]
        col_qt = quantize(col[:, np.newaxis],
                          QuantParams(params.scales[:, k:k + 1], z, spec, (n_out, 1)))
        codes[:, j] = col_qt.codes[:, 0]
        work[:, j] = dequantize(col_qt)[:, 0]

        err = (col - work[:, j]) / C[j, j]
        remaining = order[step + 1 :]
        if remaining.size:
            work[:, remaining] -= np.outer(err, C[j, remaining])

    return QuantizedTensor(codes, params)


def awq_search(w: np.ndarray, calib_x: np.ndarray, spec: QuantSpec,
               grid_step: float = 0.05) -> AwqSearchResult:
    """Grid search over (alpha, beta) for per-input-channel scales
    s = c_X^alpha * c_W^(-beta), minimizing calibration-output error.

    For each alpha, the beta candidates are stacked, at most
    ``AWQ_CHUNK_ELEMENTS`` weight elements at a time, into one
    (candidates * out, in) matrix and fake-quantized in one call. ``spec``
    must group along axis 1, so every row is quantized on its own and each
    candidate's codes are those of quantizing it alone. Candidates are scored
    by the Gram form sum((dW @ X X^T) * dW) of the calibration-output error,
    the first minimum in grid order wins, and the reported ``proxy_loss`` is
    the winner's ``proxy_loss``, the form GPTQ's ``dequant_loss`` reports.

    The (0, 0) grid point gives s = 1, so the result never loses to RTN.
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(calib_x, dtype=np.float64)
    if _grouping(w.shape, spec)[0] != 1:
        raise ValueError(f"awq_search stacks candidates by rows: a "
                         f"{spec.granularity} spec on axis {spec.axis} does "
                         f"not group along axis 1")
    n_out, n_in = w.shape
    c_x = np.maximum(np.mean(np.abs(x), axis=1), 1e-8)
    c_w = np.maximum(np.mean(np.abs(w), axis=0), 1e-8)
    gram = x @ x.T

    grid = np.arange(0.0, 1.0 + 1e-12, grid_step)
    per_chunk = max(1, AWQ_CHUNK_ELEMENTS // w.size)
    best = None
    for alpha in grid:
        x_alpha = c_x**alpha
        for lo in range(0, grid.size, per_chunk):
            betas = grid[lo:lo + per_chunk]
            # one scalar power per beta: a broadcast power rounds differently
            s = np.stack([x_alpha * c_w ** (-beta) for beta in betas])
            s = s[:, np.newaxis, :]
            w_s = fake_quant((w * s).reshape(-1, n_in), spec).reshape(-1, n_out, n_in)
            w_s /= s
            dw = w_s - w
            dw_gram = (dw.reshape(-1, n_in) @ gram).reshape(dw.shape)
            loss = np.sum(np.multiply(dw_gram, dw, out=dw_gram), axis=(1, 2))
            i = int(np.argmin(loss))
            if best is None or loss[i] < best[0]:
                best = (loss[i], alpha, betas[i], s[i, 0].copy(), w_s[i].copy())
    _, alpha, beta, s, w_s = best
    return AwqSearchResult(float(alpha), float(beta), s, proxy_loss(w, w_s, x))


def awq_fold(w: np.ndarray, scales: np.ndarray):
    """Scale the weight's input channels; return the activation-side
    inverse scales so (x / s) @ (w * s).T == x @ w.T exactly."""
    scales = np.asarray(scales, dtype=np.float64)
    if np.any(scales <= 0) or not np.all(np.isfinite(scales)):
        raise NonPositiveScale("AWQ scales must be positive and finite")
    w_scaled = np.asarray(w, dtype=np.float64) * scales[np.newaxis, :]
    return w_scaled, 1.0 / scales


@dataclass(frozen=True)
class InputScale:
    """The input map of an AWQ or SmoothQuant fold: ``awq_fold``'s inverse
    scales ``inv`` on each input channel."""

    inv: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x * self.inv[np.newaxis, :]


def brute_force_optimal(w: np.ndarray, calib_x: np.ndarray, spec: QuantSpec):
    """Exhaustive proxy-loss minimization over floor/ceil code choices.

    The candidate set per element is restricted to the two grid points
    bracketing the value; the true optimum of ||(w_hat - w) X||_F^2 lies on
    these neighbors in practice, and the full grid is infeasible.
    """
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    if 2**n > BRUTE_FORCE_MAX_ASSIGNMENTS:
        raise TooLargeToEnumerate(f"2^{n} assignments exceed the enumeration guard")

    params = fit_params(w, spec)
    s, z = params.expand()
    if spec.symmetric:
        lo_code = -(2 ** (spec.bits - 1) - 1)
        hi_code = 2 ** (spec.bits - 1) - 1
        t = w / s
    else:
        lo_code = 0
        hi_code = 2**spec.bits - 1
        t = w / s + z
    floor_c = np.clip(np.floor(t), lo_code, hi_code)
    ceil_c = np.clip(np.ceil(t), lo_code, hi_code)

    best_loss = np.inf
    best_codes = None
    for mask in itertools.product((0, 1), repeat=n):
        pick = np.array(mask).reshape(w.shape)
        codes = np.where(pick == 0, floor_c, ceil_c)
        w_hat = s * (codes - z) if not spec.symmetric else s * codes
        loss = proxy_loss(w, w_hat, calib_x)
        if loss < best_loss:
            best_loss = loss
            best_codes = codes
    qt = QuantizedTensor(best_codes.astype(np.int32), params)
    return qt, float(best_loss)


def dequant_loss(qt: QuantizedTensor, w: np.ndarray, calib_x: np.ndarray) -> float:
    return proxy_loss(np.asarray(w, dtype=np.float64), dequantize(qt), calib_x)
