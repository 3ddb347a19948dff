"""Test oracles: reference computations that only the tests run.

* ``expand``: fitted params broadcast to elementwise arrays, for checking
  ``quantcore``'s grouped arithmetic element by element;
* ``dequant_loss``: a quantized tensor's calibration-output error;
* ``brute_force_optimal``: the exhaustive optimum GPTQ is compared with on
  tiny layers.
"""

import itertools

import numpy as np

from quantlab.errors import QuantLabError
from quantlab.quantcore import (
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    _grouping,
    dequantize,
    fit_params,
)
from quantlab.weightquant import proxy_loss

BRUTE_FORCE_MAX_ASSIGNMENTS = 1 << 20  # brute_force_optimal's enumeration guard


class TooLargeToEnumerate(QuantLabError):
    pass


def expand(params: QuantParams):
    """Elementwise (scales, zero_points) broadcast to ``params.shape``; the
    zero points are None when the params have none."""
    shape, spec = params.shape, params.spec

    def grid(g):
        g_axis, size = _grouping(shape, spec)
        if g_axis is None:  # per tensor
            return np.broadcast_to(g, shape)
        full = np.repeat(g, size, axis=g_axis)  # the last group may be ragged
        return full[:, :shape[1]] if g_axis == 1 else full[:shape[0]]

    z = params.zero_points
    return grid(params.scales), None if z is None else grid(z)


def dequant_loss(qt: QuantizedTensor, w: np.ndarray, calib_x: np.ndarray) -> float:
    return proxy_loss(np.asarray(w, dtype=np.float64), dequantize(qt), calib_x)


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
    s, z = expand(params)
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
