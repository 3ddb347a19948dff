"""Quantized checkpoint file ("TQQ1"): a weight-only plan's Runtime, each
linear as its spec descriptor, float64 scales, int32 zero points, bit-packed
codes (recomputed from its weight) and AWQ's float64 inverse scales, beside
the model's other tensors in full precision; loading rebuilds it exactly.

Framing as TQM1 (toymodel.write_container): magic "TQQ1", version byte, u32
little-endian header length, UTF-8 JSON header, padding to 64 bytes, then
data blobs (each 64-byte aligned, absolute offsets in the header). Codes are
packed little-endian, LSB-first within each byte, groups contiguous;
symmetric codes are biased by +(2^(b-1)-1) before packing.
"""

import math

import numpy as np

from .errors import BadMagic, NonPositiveScale, ShapeMismatch
from .quantcore import (
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    dequantize,
    grid_shape,
    pack_codes,
    quantize,
    unpack_codes,
)
from .quantrun import FakeQuantLinear, QuantPlan, Runtime, _weight_linear_names
from .toymodel import (
    ToyModel,
    _linear_bias,
    check_finite,
    check_tensors,
    f32_blobs,
    manifest,
    manifest_shape,
    read_array,
    read_blob,
    read_header,
    write_container,
)
from .weightquant import InputScale

MAGIC = b"TQQ1"


def check_plan(plan: QuantPlan) -> QuantPlan:
    """``plan``, or ValueError unless it is weight-only, the one kind of plan
    whose runtime a checkpoint holds."""
    if plan.w_bits >= 16 or plan.a_bits < 16 or plan.kv_bits < 16 \
            or plan.wa_method != "none":
        raise ValueError(f"a checkpoint holds weight-only plans (W below 16 bits, A "
                         f"and KV at 16, no weight-activation method), got "
                         f"{plan.bits_string()} with wa_method {plan.wa_method!r}")
    return plan


def save_checkpoint(model: ToyModel, rt: Runtime, path) -> None:
    """``rt``'s plan and linears (params, codes and any AWQ inverse scales),
    and every tensor of ``model`` they do not replace in full precision; the
    plan must pass ``check_plan``."""
    check_plan(rt.plan)
    fp_manifest, blobs = f32_blobs(
        {n: t for n, t in model.tensors.items() if n not in rt.linears})
    q_manifest = []
    for n, lin in sorted(rt.linears.items()):
        p, spec = lin.params, lin.params.spec
        codes_raw = pack_codes(quantize(lin.w, p).codes, spec.bits, spec.symmetric)
        entry = {"name": n, "shape": list(lin.w.shape), "spec": spec.to_dict(),
                 "param_shape": list(p.scales.shape), "codes_bytes": len(codes_raw)}
        q_manifest.append(entry)
        blobs.append((p.scales.astype("<f8").tobytes(), entry, "scales_offset"))
        if p.zero_points is not None:
            blobs.append((np.ascontiguousarray(p.zero_points, dtype="<i4")
                          .tobytes(), entry, "zero_points_offset"))
        blobs.append((codes_raw, entry, "codes_offset"))
        if lin.map is not None:
            entry["in_scales_shape"] = list(lin.map.inv.shape)
            blobs.append((np.ascontiguousarray(lin.map.inv, dtype="<f8").tobytes(),
                          entry, "in_scales_offset"))
    write_container(path, MAGIC, {
        "config": model.config.to_dict(), "plan": rt.plan.to_dict(),
        "fp_tensors": fp_manifest, "q_tensors": q_manifest,
    }, blobs)


def load_checkpoint(path):
    """Returns (model, rt) for ``Session(model, runtime=rt)``: the file's
    full-precision tensors and the Runtime of its plan, each linear built as
    ``prepare_runtime`` builds it. A stored float or a dequantized weight
    that is not finite is NonFiniteInput. The tensors must be those the
    config needs, the plan weight-only, the linears exactly its linears, AWQ
    inverse scales stored exactly under AWQ, and each value one a writer makes."""
    with open(path, "rb") as f:
        raw = f.read()
    header, cfg = read_header(raw, MAGIC, ("plan", "fp_tensors", "q_tensors"))
    try:
        plan = check_plan(QuantPlan.from_dict(header["plan"]))
    except (TypeError, ValueError) as e:  # not a mapping, or a plan either rejects
        raise BadMagic(f"bad plan: {e}")
    tensors = {e["name"]: read_array(raw, e) for e in manifest(header, "fp_tensors")}

    linears = {}
    for entry in manifest(header, "q_tensors"):
        name = entry["name"]
        shape = manifest_shape(entry)
        what = f"tensor {name!r}"
        if name in tensors:
            raise BadMagic(f"{what} is both a full-precision and a quantized tensor")
        if len(shape) != 2 or 0 in shape:
            raise ShapeMismatch(f"{what}: shape {list(shape)} is not a nonempty matrix")
        try:
            spec = QuantSpec.from_dict(entry["spec"])
        except (KeyError, TypeError, ValueError) as e:  # absent, not a mapping,
            # bad key, or a value or type QuantSpec rejects
            raise BadMagic(f"{what}: bad spec: {e}")
        if spec.passthrough:
            raise BadMagic(f"{what}: bad spec: {spec.bits} bits is not a code width")
        count = math.prod(shape)
        nbytes = -(-count * spec.bits // 8)
        if entry.get("codes_bytes") != nbytes:
            raise ShapeMismatch(f"{what}: {entry.get('codes_bytes')!r} code bytes "
                                f"for shape {list(shape)} at {spec.bits} bits")
        # read before the grid is laid out, so the shape is one the file holds
        codes = unpack_codes(read_blob(raw, entry.get("codes_offset"), nbytes, what),
                             count, spec.bits, spec.symmetric).reshape(shape)
        grid = grid_shape(shape, spec)
        if manifest_shape(entry, "param_shape") != grid:
            raise ShapeMismatch(f"{what}: param_shape {entry['param_shape']} is not "
                                f"the group grid {list(grid)} of shape {list(shape)}")
        if spec.symmetric == ("zero_points_offset" in entry):
            raise ShapeMismatch(f"{what}: zero points must be stored exactly when "
                                f"the spec is asymmetric")
        scales = read_array(raw, entry, "<f8", "scales_offset", "param_shape")
        if scales.min() < np.finfo(np.float64).tiny:
            raise NonPositiveScale(f"{what}: a scale is not a positive normal float")
        zps = None if spec.symmetric else read_array(
            raw, entry, "<i4", "zero_points_offset", "param_shape")
        # values no writer makes, which a re-save would change; the symmetric
        # +2^(b-1) packs in range, but quantize clips it away
        top = 2 ** (spec.bits - 1) - 1 if spec.symmetric else 2**spec.bits - 1
        if codes.max() > top or zps is not None and (zps.min() < 0 or zps.max() > top):
            raise BadMagic(f"{what}: a code or zero point is off the code grid")
        qt = QuantizedTensor(codes, QuantParams(scales, zps, spec, shape))
        awq = plan.w_method == "awq"
        if awq != ("in_scales_offset" in entry) or awq and (
                manifest_shape(entry, "in_scales_shape") != shape[1:]):
            need = f"of shape [{shape[1]}]" if awq else "absent"
            raise ShapeMismatch(f"{what}: under w_method {plan.w_method!r}, AWQ inverse "
                                f"scales must be {need}")
        in_map = InputScale(read_array(raw, entry, "<f8", "in_scales_offset",
                                       "in_scales_shape")) if awq else None
        with np.errstate(over="ignore"):  # an overflow is NonFiniteInput here
            w = check_finite(dequantize(qt), f"{what}: dequantized weight")
        linears[name] = FakeQuantLinear(w, _linear_bias(tensors, name), in_map, None,
                                        qt.params)

    check_tensors(cfg, {**tensors, **{n: lin.w for n, lin in linears.items()}})
    model = ToyModel(config=cfg, tensors=tensors)
    want = set(_weight_linear_names(model, plan.include_lm_head))
    odd = sorted(want ^ linears.keys())
    if odd:
        state = "quantized" if odd[0] in linears else "in full precision"
        raise BadMagic(f"tensor {odd[0]!r}: {state} against the plan")
    return model, Runtime(plan=plan, linears=linears)
