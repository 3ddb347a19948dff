"""Quantized checkpoint file ("TQQ1"): per-tensor spec descriptor, params
arrays (float64 scales, int32 zero points), and bit-packed codes, plus the
model's remaining full-precision tensors and its aux arrays.

Framing as TQM1 (toymodel.write_container): magic "TQQ1", version byte, u32
little-endian header length, UTF-8 JSON header, padding to 64 bytes, then
data blobs (each 64-byte aligned, absolute offsets in the header). Codes are
packed little-endian, LSB-first within each byte, groups contiguous;
symmetric codes are biased by +(2^(b-1)-1) before packing.
"""

import math

import numpy as np

from .errors import BadMagic, ShapeMismatch
from .quantcore import (
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    dequantize,
    grid_shape,
    pack_codes,
    unpack_codes,
)
from .quantrun import QuantPlan
from .toymodel import (
    ToyModel,
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

MAGIC = b"TQQ1"
AWQ_SUFFIX = ".awq_inv_scales"


def save_checkpoint(model: ToyModel, plan_dict: dict, quantized: dict, path) -> None:
    """``quantized`` maps tensor names to QuantizedTensor; every other model
    tensor is stored in full precision."""
    fp_manifest, blobs = f32_blobs(
        {n: t for n, t in model.tensors.items() if n not in quantized})
    aux_manifest, aux_blobs = f32_blobs(model.aux)
    blobs += aux_blobs
    q_manifest = []
    for n, qt in sorted(quantized.items()):
        spec = qt.params.spec
        codes_raw = pack_codes(qt.codes, spec.bits, spec.symmetric)
        entry = {"name": n, "shape": list(qt.codes.shape), "spec": spec.to_dict(),
                 "param_shape": list(qt.params.scales.shape),
                 "codes_bytes": len(codes_raw)}
        q_manifest.append(entry)
        blobs.append((np.ascontiguousarray(qt.params.scales, dtype="<f8").tobytes(),
                      entry, "scales_offset"))
        if qt.params.zero_points is not None:
            blobs.append((np.ascontiguousarray(qt.params.zero_points, dtype="<i4")
                          .tobytes(), entry, "zero_points_offset"))
        blobs.append((codes_raw, entry, "codes_offset"))
    write_container(path, MAGIC, {
        "config": model.config.to_dict(), "plan": plan_dict,
        "fp_tensors": fp_manifest, "aux": aux_manifest, "q_tensors": q_manifest,
    }, blobs)


def load_checkpoint(path):
    """Returns (model, plan_dict, quantized). The model's quantized weights
    are materialized in dequantized form so it runs directly; a weight with
    AWQ inverse scales (aux ``<name>.awq_inv_scales``) has them folded into
    its input columns; such scales for a tensor that is not quantized are
    BadMagic. A stored float, a dequantized weight or its float32 cast that
    is not finite is NonFiniteInput. The plan must be one QuantPlan accepts,
    and the tensors those the config needs."""
    with open(path, "rb") as f:
        raw = f.read()
    header, cfg = read_header(raw, MAGIC, ("plan", "fp_tensors", "q_tensors"))
    try:
        QuantPlan.from_dict(header["plan"])
    except (TypeError, ValueError) as e:  # not a mapping, or a plan it rejects
        raise BadMagic(f"bad plan: {e}")
    tensors = {e["name"]: read_array(raw, e) for e in manifest(header, "fp_tensors")}
    aux = {e["name"]: read_array(raw, e) for e in manifest(header, "aux")}

    quantized = {}
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
        zps = None
        if not spec.symmetric:
            zps = read_array(raw, entry, "<i4", "zero_points_offset", "param_shape")
        qt = QuantizedTensor(codes, QuantParams(scales, zps, spec, shape))
        quantized[name] = qt
        inv_s = aux.get(name + AWQ_SUFFIX)
        if inv_s is not None and inv_s.shape != shape[1:]:
            raise ShapeMismatch(f"{what}: AWQ inverse scales of shape "
                                f"{inv_s.shape} for shape {shape}")
        with np.errstate(over="ignore"):  # an overflow is NonFiniteInput below
            w = dequantize(qt)
            if inv_s is not None:
                w = w * inv_s[np.newaxis, :]
            check_finite(w, f"{what}: dequantized weight")
            tensors[name] = check_finite(w.astype(np.float32),
                                         f"{what}: dequantized weight in float32")
    for key in aux:
        if key.endswith(AWQ_SUFFIX) and key[: -len(AWQ_SUFFIX)] not in quantized:
            raise BadMagic(f"aux {key!r}: AWQ inverse scales of no quantized tensor")

    check_tensors(cfg, tensors)
    return ToyModel(config=cfg, tensors=tensors, aux=aux), header["plan"], quantized
