"""Quantized checkpoint file ("TQQ1"): per-tensor spec descriptor, params
arrays (float64 scales, int32 zero points), and bit-packed codes, plus the
model's remaining full-precision tensors.

Layout: magic "TQQ1", version byte, u32 little-endian header length, UTF-8
JSON header, padding to 64 bytes, then data blobs (each 64-byte aligned,
absolute offsets in the header). Codes are packed little-endian, LSB-first
within each byte, groups contiguous; symmetric codes are biased by
+(2^(b-1)-1) before packing.
"""

import json
import struct

import numpy as np

from .errors import BadMagic, ShapeMismatch
from .quantcore import (
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    dequantize,
    pack_codes,
    unpack_codes,
)
from .toymodel import ToyModel, manifest_shape, read_blob, read_f32, read_header

MAGIC = b"TQQ1"
FORMAT_VERSION = 1
_ALIGN = 64


def _pad_to(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def save_checkpoint(model: ToyModel, plan_dict: dict, quantized: dict, path) -> None:
    """``quantized`` maps tensor names to QuantizedTensor; every other model
    tensor is stored in full precision."""
    fp_names = sorted(n for n in model.tensors if n not in quantized)
    q_names = sorted(quantized)
    aux_names = sorted(model.aux)

    blobs = []  # (bytes, manifest_entry, offset_keys)
    fp_manifest = []
    for n in fp_names:
        raw = np.ascontiguousarray(model.tensors[n], dtype="<f4").tobytes()
        entry = {"name": n, "shape": list(model.tensors[n].shape), "offset": 0}
        fp_manifest.append(entry)
        blobs.append((raw, entry, ("offset",)))
    aux_manifest = []
    for n in aux_names:
        arr = np.asarray(model.aux[n])
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entry = {"name": n, "shape": list(arr.shape), "offset": 0}
        aux_manifest.append(entry)
        blobs.append((raw, entry, ("offset",)))
    q_manifest = []
    for n in q_names:
        qt = quantized[n]
        scales_raw = np.ascontiguousarray(qt.params.scales, dtype="<f8").tobytes()
        codes_raw = pack_codes(qt.codes, qt.spec.bits, qt.spec.symmetric)
        entry = {
            "name": n,
            "shape": list(qt.shape),
            "spec": qt.spec.to_dict(),
            "param_shape": list(qt.params.scales.shape),
            "scales_offset": 0,
            "codes_offset": 0,
            "codes_bytes": len(codes_raw),
        }
        q_manifest.append(entry)
        blobs.append((scales_raw, entry, ("scales_offset",)))
        if qt.params.zero_points is not None:
            zp_raw = np.ascontiguousarray(qt.params.zero_points, dtype="<i4").tobytes()
            entry["zero_points_offset"] = 0
            blobs.append((zp_raw, entry, ("zero_points_offset",)))
        blobs.append((codes_raw, entry, ("codes_offset",)))

    def render():
        header = {
            "config": model.config.to_dict(),
            "plan": plan_dict,
            "fp_tensors": fp_manifest,
            "aux": aux_manifest,
            "q_tensors": q_manifest,
        }
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    hdr = render()
    while True:
        off = _pad_to(4 + 1 + 4 + len(hdr))
        for raw, entry, keys in blobs:
            entry[keys[0]] = off
            off = _pad_to(off + len(raw))
        new_hdr = render()
        if len(new_hdr) == len(hdr):
            hdr = new_hdr
            break
        hdr = new_hdr

    buf = bytearray(off)
    buf[:4] = MAGIC
    buf[4] = FORMAT_VERSION
    struct.pack_into("<I", buf, 5, len(hdr))
    buf[9 : 9 + len(hdr)] = hdr
    for raw, entry, keys in blobs:
        start = entry[keys[0]]
        buf[start : start + len(raw)] = raw
    with open(path, "wb") as f:
        f.write(bytes(buf))


def load_checkpoint(path):
    """Returns (model, plan_dict, quantized). The model's quantized weights
    are materialized in dequantized form so it runs directly."""
    with open(path, "rb") as f:
        raw = f.read()
    header, cfg = read_header(raw, MAGIC, ("plan", "fp_tensors", "q_tensors"))
    tensors = {e["name"]: read_f32(raw, e) for e in header["fp_tensors"]}
    aux = {e["name"]: read_f32(raw, e) for e in header.get("aux", [])}

    quantized = {}
    for entry in header["q_tensors"]:
        shape = manifest_shape(entry)
        pshape = manifest_shape(entry, "param_shape")
        what = f"tensor {entry['name']!r}"
        try:
            spec = QuantSpec.from_dict(entry["spec"])
        except (KeyError, TypeError) as e:  # absent, not a mapping, bad key
            raise BadMagic(f"{what}: bad spec: {e}")
        pcount = int(np.prod(pshape))
        scales = np.frombuffer(
            read_blob(raw, entry.get("scales_offset"), pcount * 8, what),
            dtype="<f8").reshape(pshape).copy()
        zps = None
        if "zero_points_offset" in entry:
            zps = np.frombuffer(
                read_blob(raw, entry["zero_points_offset"], pcount * 4, what),
                dtype="<i4").reshape(pshape).copy()
        codes_raw = read_blob(raw, entry.get("codes_offset"),
                              entry.get("codes_bytes", 0), what)
        count = int(np.prod(shape))
        codes = unpack_codes(codes_raw, count, spec.bits, spec.symmetric).reshape(shape)
        params = QuantParams(scales, zps, spec, shape)
        qt = QuantizedTensor(codes, params, spec, shape)
        quantized[entry["name"]] = qt
        tensors[entry["name"]] = dequantize(qt).astype(np.float32)

    model = ToyModel(config=cfg, tensors=tensors, aux=aux)
    if set(n["name"] for n in header["fp_tensors"]) | set(quantized) != set(tensors):
        raise ShapeMismatch("manifest does not cover the tensor set")
    return model, header["plan"], quantized
