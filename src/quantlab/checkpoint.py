"""The lab's file formats: model files ("TQM1") and quantized checkpoints
("TQQ1"). Every byte of both is decided here; FORMATS.md documents them.

Both are one container: magic, version byte, u32 little-endian header
length, UTF-8 JSON header, zero padding to a 64-byte boundary, then the
data blobs, each 64-byte aligned at the absolute file offset its manifest
entry records. A reader ignores header keys it does not know.
``write_container`` writes the config and the float32 manifest of the
full-precision tensors, and ``read_container`` reads them back. A TQM1 file
is that part alone, its manifest under ``tensors``.

A TQQ1 file adds a weight-only plan's Runtime to the model's other tensors
(under ``fp_tensors``): each linear as its spec descriptor, float64 scales,
int32 zero points, bit-packed codes (recomputed from its weight) and AWQ's
float64 inverse scales; loading rebuilds it exactly. Codes are packed
little-endian, LSB-first within each byte, groups contiguous; symmetric
codes are biased by +(2^(b-1)-1) before packing.
"""

import json
import math
import struct
from typing import Optional

import numpy as np

from .errors import BadMagic, NonPositiveScale, ShapeMismatch, TruncatedFile
from .numerics import check_finite
from .quantcore import (
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    dequantize,
    grid_shape,
    quantize,
)
from .quantrun import FakeQuantLinear, QuantPlan, Runtime, _weight_linear_names
from .toymodel import ToyConfig, ToyModel, _linear_bias, check_tensors
from .weightquant import InputScale

MODEL_MAGIC = b"TQM1"
CHECKPOINT_MAGIC = b"TQQ1"
FORMAT_VERSION = 1
_ALIGN = 64
# magic -> the key of its full-precision manifest, and what each entry of it
# holds besides name, shape and offset
_FP_MANIFEST = {MODEL_MAGIC: ("tensors", {"dtype": "f32"}),
                CHECKPOINT_MAGIC: ("fp_tensors", {})}


# --- the container ------------------------------------------------------------


def write_container(path, magic: bytes, config: ToyConfig, tensors: dict,
                    header: Optional[dict] = None, blobs=()) -> None:
    """Write ``config``, the float32 manifest of ``tensors`` (by sorted name)
    and their blobs, then the other keys of ``header`` and ``blobs``, a list
    of (bytes, manifest entry, offset key). Each blob's absolute offset is
    stored in its entry under its key, which lengthens the header, so offsets
    are laid out again until the header length stops changing."""
    key, extra = _FP_MANIFEST[magic]
    entries, fp_blobs = [], []
    for n in sorted(tensors):
        arr = np.ascontiguousarray(tensors[n], dtype="<f4")
        entries.append({"name": n, "shape": list(arr.shape), **extra})
        fp_blobs.append((arr.tobytes(), entries[-1], "offset"))
    header = {**(header or {}), "config": config.to_dict(), key: entries}
    blobs = fp_blobs + list(blobs)

    def render():
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    def pad(n):
        return (n + _ALIGN - 1) // _ALIGN * _ALIGN

    for _, entry, k in blobs:
        entry[k] = 0
    hdr, size = render(), None
    while len(hdr) != size:
        size = len(hdr)
        off = pad(9 + size)  # magic, version byte, u32 header length
        for raw, entry, k in blobs:
            entry[k] = off
            off = pad(off + len(raw))
        hdr = render()

    buf = bytearray(off)
    buf[:4] = magic
    buf[4] = FORMAT_VERSION
    struct.pack_into("<I", buf, 5, len(hdr))
    buf[9 : 9 + len(hdr)] = hdr
    for raw, entry, k in blobs:
        buf[entry[k] : entry[k] + len(raw)] = raw
    with open(path, "wb") as f:
        f.write(bytes(buf))


def read_container(path, magic: bytes, keys=()) -> tuple:
    """(raw bytes, header, ToyConfig, tensors) of the file at ``path``: its
    fixed header checked, its JSON header holding ``config``, the
    full-precision manifest of ``magic`` and ``keys``, and the float32
    tensors of that manifest read. An entry's ``dtype``, when present, must
    be "f32"."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 9:
        raise TruncatedFile(len(raw), "file shorter than fixed header")
    if raw[:4] != magic:
        raise BadMagic(f"expected {magic!r}, got {raw[:4]!r}")
    if raw[4] != FORMAT_VERSION:
        raise BadMagic(f"format version {raw[4]}, expected {FORMAT_VERSION}")
    hdr_len = struct.unpack_from("<I", raw, 5)[0]
    if 9 + hdr_len > len(raw):
        raise TruncatedFile(len(raw), "header extends past end of file")
    try:
        header = json.loads(raw[9 : 9 + hdr_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise BadMagic(f"unparseable header: {e}")
    fp_key = _FP_MANIFEST[magic][0]
    for key in ("config", *keys, fp_key):
        if not isinstance(header, dict) or key not in header:
            raise BadMagic(f"header has no {key!r} entry")
    try:
        cfg = ToyConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:  # a bad key, type or value, or no mapping
        raise BadMagic(f"bad config: {e}")
    tensors = {}
    for entry in manifest(header, fp_key):
        if entry.get("dtype", "f32") != "f32":
            raise BadMagic(f"tensor {entry['name']!r}: dtype {entry['dtype']!r} "
                           f"is not 'f32'")
        tensors[entry["name"]] = read_array(raw, entry)
    return raw, header, cfg, tensors


def manifest(header: dict, key: str) -> list:
    """The manifest list under ``key``, checked to hold mappings with a
    string ``name``, each name once."""
    entries = header[key]
    if not isinstance(entries, list):
        raise BadMagic(f"{key!r} manifest is not a list: {entries!r}")
    names = set()
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise BadMagic(f"malformed {key!r} manifest entry {entry!r}")
        if entry["name"] in names:
            raise BadMagic(f"{key!r} manifest repeats tensor {entry['name']!r}")
        names.add(entry["name"])
    return entries


def manifest_shape(entry, key: str = "shape") -> tuple:
    """A manifest entry's shape, checked to be a list of counts."""
    dims = entry.get(key)
    if not isinstance(dims, list) or not all(
            type(n) is int and n >= 0 for n in dims):
        raise ShapeMismatch(f"tensor {entry['name']!r}: bad {key} {dims!r}")
    return tuple(dims)


def read_blob(raw: bytes, start, nbytes: int, what: str) -> bytes:
    """``nbytes`` bytes at absolute offset ``start``, bounds-checked."""
    if type(start) is not int or start < 0:
        raise TruncatedFile(0, f"{what}: bad offset {start!r}")
    if start + nbytes > len(raw):
        raise TruncatedFile(start, f"{what} truncated")
    return raw[start : start + nbytes]


def read_array(raw: bytes, entry, dtype: str = "<f4", offset_key: str = "offset",
               shape_key: str = "shape") -> np.ndarray:
    """The array a manifest entry points at; a float array holding a NaN or
    an infinity is NonFiniteInput. The element count is taken in Python
    integers, so a huge shape reads past the end of the file rather than
    overflowing."""
    shape = manifest_shape(entry, shape_key)
    nbytes = np.dtype(dtype).itemsize * math.prod(shape)
    what = f"tensor {entry['name']!r}"
    data = read_blob(raw, entry.get(offset_key), nbytes, what)
    a = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    return check_finite(a, what) if a.dtype.kind == "f" else a


# --- TQM1 model files ---------------------------------------------------------


def save_model(m: ToyModel, path) -> None:
    write_container(path, MODEL_MAGIC, m.config, m.tensors)


def load_model(path) -> ToyModel:
    _, _, cfg, tensors = read_container(path, MODEL_MAGIC)
    check_tensors(cfg, tensors)
    return ToyModel(config=cfg, tensors=tensors)


# --- TQQ1 quantized checkpoints -----------------------------------------------


def pack_codes(codes: np.ndarray, bits: int, symmetric: bool) -> bytes:
    flat = codes.astype(np.int64).ravel()
    if symmetric:
        flat = flat + (2 ** (bits - 1) - 1)
    if flat.size and (flat.min() < 0 or flat.max() >= 2**bits):
        raise ValueError("codes out of range for bit width")
    bit_cols = (flat[:, None] >> np.arange(bits)) & 1
    return np.packbits(bit_cols.astype(np.uint8).ravel(), bitorder="little").tobytes()


def unpack_codes(raw: bytes, count: int, bits: int, symmetric: bool) -> np.ndarray:
    bits_flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    needed = count * bits
    if bits_flat.size < needed:
        raise ValueError("packed buffer too short")
    vals = bits_flat[:needed].reshape(count, bits) @ (1 << np.arange(bits))
    vals = vals.astype(np.int32)
    if symmetric:
        vals = vals - (2 ** (bits - 1) - 1)
    return vals


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
    q_manifest, blobs = [], []
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
    fp = {n: t for n, t in model.tensors.items() if n not in rt.linears}
    write_container(path, CHECKPOINT_MAGIC, model.config, fp,
                    {"plan": rt.plan.to_dict(), "q_tensors": q_manifest}, blobs)


def load_checkpoint(path):
    """Returns (model, rt) for ``Session(model, runtime=rt)``: the file's
    full-precision tensors and the Runtime of its plan, each linear built as
    ``prepare_runtime`` builds it. A stored float or a dequantized weight
    that is not finite is NonFiniteInput. The tensors must be those the
    config needs, the plan weight-only, the linears exactly its linears, AWQ
    inverse scales stored exactly under AWQ, and each value one a writer makes."""
    raw, header, cfg, tensors = read_container(path, CHECKPOINT_MAGIC,
                                               ("plan", "q_tensors"))
    try:
        plan = check_plan(QuantPlan.from_dict(header["plan"]))
    except (TypeError, ValueError) as e:  # not a mapping, or a plan either rejects
        raise BadMagic(f"bad plan: {e}")

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
            # bad key, or a value or type QuantSpec rejects (16 bits among them)
            raise BadMagic(f"{what}: bad spec: {e}")
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
