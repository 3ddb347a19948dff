"""Tiny Qwen-like decoder-only transformer: RMSNorm, QKV projections with
biases, RoPE, SwiGLU MLP. Deterministic init, binary serialization, and one
forward pass (Session.forward) that the reference and quantized paths,
calibration capture and generation all use; Session.step is its one-token
case. Incremental generation and full-context recomputation run the same
code on differently shaped blocks, so they agree to about 1e-13 with
identical argmax rather than bit for bit.

A Session holds one or more rows, sequences that advance in lockstep
through one forward per call; its KV cache is (layer, row, head, position,
head_dim). ``decode`` is the one sampling loop: it runs a batch of prompts,
one Session per prompt length, and each row finishes on its own stop rule.
``sample_rows`` is the one sampler, one uniform per row; ``sample_token``
is its one-row case. Each caller draws the uniforms as a one-by-one loop
would: ``generate`` and ``harness.generate_with_length_control`` are
batches of one, ``harness.run_length_control`` gives every run its own rng,
and ``calibration.self_generate`` draws one stream, sequence after
sequence.

Session.forward takes positions in blocks of BLOCK = 32. Within a block the
linears run on (rows x T, d_model) matrices and the attention scores form one
(rows, heads, T, context) array, so the block size bounds the working set. On
512-token teacher-forced drift runs, peak memory with 32-position blocks
stays within 1% of the one-token path; 64-position blocks add about 3%, and
a single 512-position block about 40%.

Each layer's linears are declared once, in ``_LAYER_LINEARS``: name, bias
and the capture site of the input. The tensor layout, the linears a Session
builds, the linears ``quantrun.prepare_runtime`` quantizes with their
calibration inputs, and ``calibration.known_sites`` are read from it. Its
order is the order of creation: ``init_model`` draws the weights linear by
linear in that order, and the rotate plan its Hadamard signs input site by
input site, layer by layer, then lm_head, so reordering the table changes
every model and every rotated plan.

The linears of one input site run together: ``wq``, ``wk`` and ``wv`` read
``attn_in``, ``w_gate`` and ``w_up`` read ``mlp_in``, and ``wo``,
``w_down`` and ``lm_head`` are sites of one. A linear (``PlainLinear``) maps
and quantizes its input through objects that apply themselves, then
multiplies by its stored weight. When a site's linears hold one input map
and one quantizer, ``site_pre_bias`` maps and quantizes the input once and
each linear multiplies those rows by its own weight.

Reserved token ids: 0 = BOS, 1 = EOS, 2 = THINK_END, 3 = WAIT.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadMagic,
    ContextOverflow,
    ShapeMismatch,
    TokenOutOfRange,
    TruncatedFile,
)
from .kvquant import RopeConfig, rope_heads
from .numerics import check_finite, is_power_of_two
from .quantcore import _check_field_types

BOS_ID = 0
EOS_ID = 1
THINK_END_ID = 2
WAIT_ID = 3
N_RESERVED = 4

MAGIC = b"TQM1"
FORMAT_VERSION = 1
_ALIGN = 64
BLOCK = 32  # positions per Session.forward block; see the module docstring
_LATER = np.triu(np.ones((BLOCK, BLOCK), dtype=bool), 1)  # [t, s]: key s after query t
HUGE_PAGE_BYTES = 1 << 22  # numpy backs arrays this large with huge pages


@dataclass(frozen=True)
class ToyConfig:
    n_layers: int = 2
    d_model: int = 64
    n_heads: int = 2
    head_dim: int = 32
    ffn_mult: int = 2
    vocab_size: int = 64
    max_seq_len: int = 1024
    rope_base: float = 10000.0
    qkv_bias: bool = True

    def __post_init__(self):
        _check_field_types(self)
        for name in ("n_layers", "n_heads", "ffn_mult", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.head_dim < 2:
            raise ValueError(f"head_dim must be >= 2, got {self.head_dim}")
        if not (math.isfinite(self.rope_base) and self.rope_base > 0):
            raise ValueError(f"rope_base must be finite and > 0, got {self.rope_base}")
        if self.d_model != self.n_heads * self.head_dim:
            raise ValueError("d_model must equal n_heads * head_dim")
        if not is_power_of_two(self.head_dim):
            raise ValueError("head_dim must be a power of two")
        if self.vocab_size < N_RESERVED:
            raise ValueError("vocab must include the reserved control tokens")

    @property
    def ffn_dim(self) -> int:
        return self.ffn_mult * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ToyConfig":
        return ToyConfig(**d)


@dataclass
class ToyModel:
    config: ToyConfig
    tensors: dict  # name -> float32 ndarray


# name -> (bias or None, capture site of the input, (output, input) widths as
# ToyConfig attributes), in creation order (see the module docstring)
_LAYER_LINEARS = {
    "wq": ("bq", "attn_in", ("d_model", "d_model")),
    "wk": ("bk", "attn_in", ("d_model", "d_model")),
    "wv": ("bv", "attn_in", ("d_model", "d_model")),
    "wo": (None, "attn_out_in", ("d_model", "d_model")),
    "w_gate": (None, "mlp_in", ("ffn_dim", "d_model")),
    "w_up": (None, "mlp_in", ("ffn_dim", "d_model")),
    "w_down": (None, "mlp_down_in", ("d_model", "ffn_dim")),
}

# the sites a Session records per layer: its linears' inputs, then K before
# its bias, after it and after RoPE
_CAPTURE_SITES = (*dict.fromkeys(site for _, site, _ in _LAYER_LINEARS.values()),
                  "k_pre_bias", "k_post_bias", "k_post_rope")


def _layer_tensor_specs(cfg: ToyConfig):
    """Yields (name, shape) of each tensor ``cfg`` declares, in layout order."""
    d, v = cfg.d_model, cfg.vocab_size
    yield "embed", (v, d)
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        yield from ((p + "norm1", (d,)), (p + "norm2", (d,)))
        for name, (bias, _, (out, inp)) in _LAYER_LINEARS.items():
            yield p + name, (getattr(cfg, out), getattr(cfg, inp))
            if bias and cfg.qkv_bias:
                yield p + bias, (getattr(cfg, out),)
    yield from (("norm_f", (d,)), ("lm_head", (v, d)))


def linear_weight(model: ToyModel, name: str) -> np.ndarray:
    """Linear ``name``'s weight; ShapeMismatch if ``model`` holds none (a
    loaded checkpoint's model lacks the weights its runtime quantized)."""
    if name not in model.tensors:
        raise ShapeMismatch(f"missing tensor {name!r}: the model holds no weight for it")
    return model.tensors[name]


def _linear_bias(tensors: dict, name: str) -> Optional[np.ndarray]:
    """The bias of linear ``name`` in float64; None when it has none."""
    prefix, _, short = name.rpartition(".")
    bias = _LAYER_LINEARS.get(short, (None,))[0]
    b = tensors.get(f"{prefix}.{bias}") if bias else None
    return None if b is None else b.astype(np.float64)


def _k_bias(model: ToyModel, layer: int) -> np.ndarray:
    """Layer ``layer``'s K bias in float64; zeros for a model without QKV biases."""
    b = _linear_bias(model.tensors, f"layers.{layer}.wk")
    return np.zeros(model.config.d_model) if b is None else b


def init_model(cfg: ToyConfig, rng, k_bias_outlier: Optional[tuple] = None) -> ToyModel:
    """Deterministic init: embeddings N(0, 1), linear weights
    N(0, fan_in^-1/2), norms 1, biases 0.

    ``k_bias_outlier`` = (layer, channel, magnitude) sets one K-projection
    bias channel to the given magnitude, recreating the huge key-bias
    outlier seen in small Qwen-family checkpoints. Magnitude 0 leaves the
    model identical to the uninjected one (biases init to zero).
    """
    tensors = {}
    for name, shape in _layer_tensor_specs(cfg):
        short = name.split(".")[-1]
        if short.startswith("norm"):
            t = np.ones(shape)
        elif short.startswith("b"):
            t = np.zeros(shape)
        elif name == "embed":
            t = rng.standard_normal(shape)
        else:
            t = rng.standard_normal(shape) / np.sqrt(shape[-1])
        tensors[name] = t.astype(np.float32)
    if k_bias_outlier is not None:
        layer, channel, magnitude = k_bias_outlier
        if not cfg.qkv_bias:
            raise ValueError("bias injection requires qkv_bias=True")
        if not (0 <= layer < cfg.n_layers and 0 <= channel < cfg.d_model):
            raise ValueError(f"bias injection at layer {layer}, channel {channel} is "
                             f"outside {cfg.n_layers} layers of {cfg.d_model} channels")
        if not math.isfinite(magnitude):
            raise ValueError(f"bias injection magnitude must be finite, got {magnitude}")
        tensors[f"layers.{layer}.bk"][channel] = np.float32(magnitude)
    return ToyModel(config=cfg, tensors=tensors)


# --- binary container format (TQM1 model files, TQQ1 checkpoints) -------------
# magic, version byte, u32 little-endian header length, UTF-8 JSON header,
# zero padding to a 64-byte boundary, then the data blobs, each 64-byte
# aligned at the absolute file offset its manifest entry records. TQM1 holds
# the config and the float32 `tensors` manifest; TQQ1 is laid out in
# quantlab.checkpoint. A reader ignores header keys it does not know.


def write_container(path, magic: bytes, header: dict, blobs) -> None:
    """Write ``header`` and ``blobs``, a list of (bytes, manifest entry,
    offset key): each blob's absolute offset is stored in its entry under
    its key, which lengthens the header, so offsets are laid out again until
    the header length stops changing."""
    def render():
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    def pad(n):
        return (n + _ALIGN - 1) // _ALIGN * _ALIGN

    for _, entry, key in blobs:
        entry[key] = 0
    hdr = render()
    while True:
        off = pad(9 + len(hdr))  # magic, version byte, u32 header length
        for raw, entry, key in blobs:
            entry[key] = off
            off = pad(off + len(raw))
        new_hdr = render()
        if len(new_hdr) == len(hdr):
            hdr = new_hdr
            break
        hdr = new_hdr

    buf = bytearray(off)
    buf[:4] = magic
    buf[4] = FORMAT_VERSION
    struct.pack_into("<I", buf, 5, len(hdr))
    buf[9 : 9 + len(hdr)] = hdr
    for raw, entry, key in blobs:
        buf[entry[key] : entry[key] + len(raw)] = raw
    with open(path, "wb") as f:
        f.write(bytes(buf))


def f32_blobs(arrays: dict, extra: Optional[dict] = None) -> tuple:
    """The manifest of ``arrays`` (by sorted name, each entry holding
    ``extra``) and its float32 blobs, for write_container."""
    entries, blobs = [], []
    for n in sorted(arrays):
        arr = np.asarray(arrays[n])
        entry = {"name": n, "shape": list(arr.shape), **(extra or {})}
        entries.append(entry)
        blobs.append((np.ascontiguousarray(arr, dtype="<f4").tobytes(), entry, "offset"))
    return entries, blobs


def save_model(m: ToyModel, path) -> None:
    tensors, blobs = f32_blobs(m.tensors, {"dtype": "f32"})
    write_container(path, MAGIC, {"config": m.config.to_dict(), "tensors": tensors},
                    blobs)


def read_header(raw: bytes, magic: bytes, keys) -> tuple:
    """Check the fixed header of a TQM1/TQQ1 file and parse its JSON header,
    which must hold ``config`` and ``keys``. Returns (header, ToyConfig)."""
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
    for key in ("config", *keys):
        if not isinstance(header, dict) or key not in header:
            raise BadMagic(f"header has no {key!r} entry")
    try:
        cfg = ToyConfig.from_dict(header["config"])
    except (TypeError, ValueError) as e:  # a bad key, type or value, or no mapping
        raise BadMagic(f"bad config: {e}")
    return header, cfg


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


def load_model(path) -> ToyModel:
    with open(path, "rb") as f:
        raw = f.read()
    header, cfg = read_header(raw, MAGIC, ("tensors",))
    tensors = {e["name"]: read_array(raw, e) for e in manifest(header, "tensors")}
    check_tensors(cfg, tensors)
    return ToyModel(config=cfg, tensors=tensors)


def check_tensors(cfg: ToyConfig, tensors: dict) -> None:
    """ShapeMismatch unless ``tensors`` holds every tensor ``cfg`` needs, each
    of the shape it needs, and no other; TQM1 and TQQ1 loaders call it on
    what they read. The declared names are walked one at a time, so the
    work is bounded by ``tensors``, not by the layer count a header claims."""
    declared = set()
    for name, shape in _layer_tensor_specs(cfg):
        if name not in tensors:
            raise ShapeMismatch(f"missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ShapeMismatch(
                f"tensor {name!r}: expected {shape}, got {tensors[name].shape}")
        declared.add(name)
    extra = sorted(tensors.keys() - declared)
    if extra:
        raise ShapeMismatch(f"tensor {extra[0]!r} is not one the config declares")


# --- forward pass -------------------------------------------------------------


def rmsnorm(x: np.ndarray, g: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    # what np.mean computes, without its Python wrapper
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    return x / np.sqrt(ms + eps) * g


def silu(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) = inf below -709: silu is -0.0
        return x / (1.0 + np.exp(-x))


def softmax(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=-1, keepdims=True)  # the methods skip np.max's wrapper
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


class PlainLinear:
    """A linear, y = x @ w.T (+ b). ``quantize_input`` applies the input map
    ``map``, then the activation quantizer ``act`` (objects with ``apply``;
    None: the identity), and ``pre_bias`` multiplies the result by the
    stored weight ``w``. Full precision by default; a quantized linear of
    quantrun.py holds its map, its quantizer (a ``QuantSpec`` or
    ``mxfp4.MXFP4``) and ``params``, the ``QuantParams`` of ``w`` or None."""

    def __init__(self, w: np.ndarray, b: Optional[np.ndarray] = None, map=None,
                 act=None, params=None):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        self.map, self.act, self.params = map, act, params

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        x = x if self.map is None else self.map.apply(x)
        return x if self.act is None else self.act.apply(x)

    def pre_bias(self, x: np.ndarray) -> np.ndarray:
        return self.quantize_input(x) @ self.w.T

    def add_bias(self, y: np.ndarray) -> np.ndarray:
        return y if self.b is None else y + self.b

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.add_bias(self.pre_bias(x))


def site_pre_bias(linears, x: np.ndarray) -> list:
    """``pre_bias(x)`` of the linears of one input site. When they hold one
    ``map`` object and equal quantizers, the input is mapped and quantized
    once and each linear multiplies those rows; otherwise each runs its own
    ``pre_bias``."""
    first = linears[0]
    if any(lin.map is not first.map
           or (lin.act is not first.act and lin.act != first.act) for lin in linears):
        return [lin.pre_bias(x) for lin in linears]
    x = first.quantize_input(x)
    return [x @ lin.w.T for lin in linears]


class Session:
    """Forward pass over token blocks of one or more rows, with a private KV
    cache.

    ``runtime`` is None for the reference; otherwise a session reads its
    ``linears`` (by name; a ``PlainLinear`` runs the rest) and the K/V rows
    ``kv_write(layer, k_pre, k_rope, v, pos)`` returns for the cache.
    ``recorder`` gets ``record(site, rows)`` per site and block, the rows as
    the linears see them; their positions are the caller's to know.

    ``rows`` sequences advance in lockstep: every call feeds each row the
    same number of tokens, so all rows sit at position ``pos``. The KV cache
    is (layer, row, head, position, head_dim). The linears, norms and
    activation quantizers see one (rows x positions, d_model) matrix; only
    RoPE, ``Runtime.kv_write`` and attention read a row's own positions and
    cache. A one-row session runs the shapes of an unbatched forward: scalar
    positions, cached RoPE tables and one (positions, head_dim) matrix
    product per head.

    Within a block, each layer runs: ``rmsnorm``; the ``attn_in`` site
    (``wq``, ``wk``, ``wv`` in one ``site_pre_bias`` call, the q and v
    biases added, K's bias added to its pre-bias rows); RoPE on q and k;
    ``Runtime.kv_write`` and attention; ``wo``; ``rmsnorm``; the ``mlp_in``
    site (``w_gate``, ``w_up``); SwiGLU; ``w_down``. Then the final norm and
    ``lm_head``. With a runtime, each site maps and quantizes its input once
    per block when its linears share a map and a quantizer, and K and V are
    written in one call.

    ``forward`` runs its tokens in blocks of ``BLOCK`` positions and ``step``
    is its one-token case, so prefill, decode and teacher forcing share one
    path. Splitting a sequence differently (token by token, in one call, in
    uneven chunks), or running it beside other rows, changes only the shapes
    of the matrix products, so the logits agree to about 1e-13 with
    identical argmax, not bit for bit.
    """

    def __init__(self, model: ToyModel, runtime=None, recorder=None, rows: int = 1):
        self.cfg = model.config
        self.runtime = runtime
        self._record = (lambda site, rows: None) if recorder is None else recorder.record
        self.rope = RopeConfig(head_dim=self.cfg.head_dim, base=self.cfg.rope_base)
        self.pos = 0
        cfg = self.cfg
        whole = 8 * cfg.n_layers * rows * cfg.n_heads * cfg.max_seq_len * cfg.head_dim
        self._recache(range(rows), cfg.max_seq_len if whole < HUGE_PAGE_BYTES else 0)
        self._embed = model.tensors["embed"].astype(np.float64)
        self._norm_f = model.tensors["norm_f"].astype(np.float64)
        linears = {} if runtime is None else runtime.linears
        self._lm_head = (linears.get("lm_head")
                         or PlainLinear(linear_weight(model, "lm_head")))
        self._layers = []
        t = model.tensors
        for i in range(cfg.n_layers):
            p = f"layers.{i}."
            layer = {"norm1": t[p + "norm1"].astype(np.float64),
                     "norm2": t[p + "norm2"].astype(np.float64)}
            for name, (_, site, _) in _LAYER_LINEARS.items():
                layer[name] = (linears.get(p + name) or PlainLinear(
                    linear_weight(model, p + name), _linear_bias(t, p + name)))
                layer.setdefault(site, []).append(layer[name])
            layer["bk"] = _k_bias(model, i)
            layer["site"] = {s: f"layer{i}.{s}" for s in _CAPTURE_SITES}
            self._layers.append(layer)

    def step(self, tokens):
        """Feed one token per row, a list of ``rows`` ids (or one int for a
        one-row session); return each row's logits, (rows, vocab) (or
        (vocab,) for the int)."""
        tokens = np.asarray(tokens)
        logits = self.forward(tokens.reshape(-1, 1))[:, 0]
        return logits if tokens.ndim else logits[0]

    def forward(self, tokens) -> np.ndarray:
        """Feed tokens, (rows, positions) or, for a one-row session,
        (positions,); return one logits row per token, shaped like
        ``tokens`` plus a vocab axis."""
        cfg = self.cfg
        tokens = np.asarray(tokens, dtype=np.int64)
        block = tokens if tokens.ndim == 2 else tokens.reshape(1, -1)
        if len(block) != self.rows:
            raise ShapeMismatch(f"{len(block)} token rows for {self.rows} session rows")
        bad = tokens[(tokens < 0) | (tokens >= cfg.vocab_size)]
        if bad.size:
            raise TokenOutOfRange(f"token {bad[0]} outside vocab {cfg.vocab_size}")
        n = block.shape[1]
        if self.pos + n > cfg.max_seq_len:
            raise ContextOverflow(f"context limit {cfg.max_seq_len} reached")
        room = self.k_cache.shape[3]
        if self.pos + n > room:
            self._recache(range(self.rows),
                          min(cfg.max_seq_len, max(2 * room, self.pos + n, BLOCK)))
        logits = np.empty((self.rows, n, cfg.vocab_size))
        for s in range(0, n, BLOCK):
            logits[:, s : s + BLOCK] = self._block(block[:, s : s + BLOCK])
        return logits.reshape(tokens.shape + (cfg.vocab_size,))

    def keep(self, rows) -> None:
        """Drop every row but ``rows`` (indices, in their new order) from the
        batch."""
        self._recache(rows, self.k_cache.shape[3])

    def _recache(self, rows, room: int) -> None:
        """New K/V caches, (layer, row, head, position, head_dim), for
        ``rows`` (indices into the batch) with ``room`` positions, holding
        the rows' cached positions. A cache that would fill a huge page
        starts empty and doubles its room as positions come: huge pages
        are resident in full however few positions are written. A smaller
        one, a one-row session's, holds the whole context from the start."""
        cfg = self.cfg
        for name in ("k_cache", "v_cache"):
            new = np.zeros((cfg.n_layers, len(rows), cfg.n_heads, room, cfg.head_dim))
            if self.pos:
                new[:, :, :, : self.pos] = getattr(self, name)[:, rows, :, : self.pos]
            setattr(self, name, new)
        self.rows = len(rows)

    def _block(self, tokens: np.ndarray) -> np.ndarray:
        """One (rows, positions) block; returns its (rows, positions, vocab)
        logits."""
        n = tokens.shape[1]
        x = self._embed[tokens.reshape(-1)]  # row b's position t is row b * n + t
        pos = self.pos if self.rows == 1 else np.tile(np.arange(self.pos, self.pos + n),
                                                       self.rows)
        for i, layer in enumerate(self._layers):
            site = layer["site"]
            h = rmsnorm(x, layer["norm1"])
            self._record(site["attn_in"], h)
            q, k_pre, v = site_pre_bias(layer["attn_in"], h)
            q, v = layer["wq"].add_bias(q), layer["wv"].add_bias(v)
            k_post = k_pre + layer["bk"]
            self._record(site["k_pre_bias"], k_pre)
            self._record(site["k_post_bias"], k_post)
            qk = rope_heads(np.concatenate((q, k_post), axis=1), self.rope, pos)
            q, k = qk[:, : q.shape[1]], qk[:, q.shape[1] :]
            self._record(site["k_post_rope"], k)
            attn = self._attend(i, q, k_pre, k, v, pos)
            self._record(site["attn_out_in"], attn)
            x = x + layer["wo"](attn)

            h2 = rmsnorm(x, layer["norm2"])
            self._record(site["mlp_in"], h2)
            gate, up = site_pre_bias(layer["mlp_in"], h2)  # neither has a bias
            act = silu(gate) * up
            self._record(site["mlp_down_in"], act)
            x = x + layer["w_down"](act)

        hf = rmsnorm(x, self._norm_f)
        self._record("lm_head_in", hf)
        logits = self._lm_head(hf)
        self.pos += n
        return logits.reshape(self.rows, n, -1)

    def _attend(self, i, q, k_pre, k, v, pos) -> np.ndarray:
        """Causal attention of a block's queries over every head of every
        row at once, each row over its own cache.

        Quantize-at-write: the cache keeps the rows Runtime.kv_write returns
        and later positions read those, while each position scores and
        reads its own fresh k/v row. So position 0 is independent of the KV
        bit-width.

        A block of more than one position masks only its own columns
        (``mask_later``): no cached position comes after a new query, and a
        one-position block sees every column.
        """
        cfg, p0 = self.cfg, self.pos
        n_new = len(q) // self.rows
        end = p0 + n_new
        if self.runtime is not None:
            k_store, v_store = self.runtime.kv_write(i, k_pre, k, v, pos)
        else:
            k_store, v_store = k, v

        def heads(x):  # (rows * n_new, d_model) -> (rows, n_heads, n_new, head_dim)
            return x.reshape(self.rows, n_new, cfg.n_heads, cfg.head_dim).transpose(
                0, 2, 1, 3)

        self.k_cache[i, :, :, p0:end] = heads(k_store)
        self.v_cache[i, :, :, p0:end] = heads(v_store)
        qh, vh = heads(q), heads(v)
        scores = qh @ self.k_cache[i, :, :, :end].transpose(0, 1, 3, 2)
        own_positions(scores, p0)[...] = (qh * heads(k)).sum(axis=-1)
        if n_new > 1:  # one new position sees every cached one
            mask_later(scores, p0)
        scores /= math.sqrt(cfg.head_dim)
        p = softmax(scores)
        own = own_positions(p, p0)
        p_own = own.copy()
        own[...] = 0.0
        out = p @ self.v_cache[i, :, :, :end] + p_own[..., np.newaxis] * vh
        return out.transpose(0, 2, 1, 3).reshape(self.rows * n_new, cfg.d_model)


def mask_later(scores: np.ndarray, p0: int) -> None:
    """Set to -inf each cell of a block of attention scores, (rows, heads,
    n_new, p0 + n_new), whose key comes after its query: the strict upper
    triangle of the block's own columns ``scores[..., p0:]``, n_new at most
    ``BLOCK``. Every cached column before p0 precedes every new query, so
    it is left alone."""
    n = scores.shape[-2]
    np.copyto(scores[..., p0:], -np.inf, where=_LATER[:n, :n])


def own_positions(a: np.ndarray, p0: int) -> np.ndarray:
    """The (rows, heads, n_new) view of a C-contiguous block of attention
    scores ``a``, (rows, heads, n_new, p0 + n_new), at each new position's
    own column: query t's cell (t, p0 + t) sits p0 + t * (p0 + n_new + 1)
    cells into its head's flattened (n_new, p0 + n_new) matrix."""
    return a.reshape(a.shape[0], a.shape[1], -1)[..., p0 :: a.shape[-1] + 1]


def forward_reference(m: ToyModel, tokens) -> np.ndarray:
    """Full-precision logits for every position of a token sequence."""
    return Session(m).forward(tokens)


def nucleus_filter(probs: np.ndarray, top_p: float) -> np.ndarray:
    """Zero out, in each row of ``probs`` (vocab along the last axis),
    everything outside the smallest prefix of descending-sorted
    probabilities whose mass reaches top_p (ties kept in index order);
    renormalize."""
    p = probs.reshape(-1, probs.shape[-1])
    order = (-p).argsort(axis=-1, kind="stable")
    rows = np.arange(len(p))[:, np.newaxis]
    csum = p[rows, order].cumsum(axis=-1)
    last = (csum < top_p).sum(axis=-1, keepdims=True)  # the last rank kept
    keep = np.empty(p.shape)
    keep[rows, order] = np.arange(p.shape[1]) <= last
    out = p * keep
    return (out / out.sum(axis=-1, keepdims=True)).reshape(probs.shape)


def sample_rows(logits: np.ndarray, temperature: float, top_p: float,
                draw) -> np.ndarray:
    """One token per row of (rows, vocab) ``logits``: the argmax at
    temperature 0; otherwise a draw from the nucleus of the tempered
    softmax. ``draw()``, called only when sampling, gives one uniform in
    [0, 1) per row, and each row's token is the one ``rng.choice(p=...)``
    picks with that uniform: the first whose cumulative probability,
    normalised by the total, exceeds it."""
    if temperature == 0:
        return logits.argmax(axis=-1)
    cdf = nucleus_filter(softmax(logits / temperature), top_p).cumsum(axis=-1)
    cdf /= cdf[:, -1:]
    return (cdf <= np.asarray(draw())[:, np.newaxis]).sum(axis=-1)


def sample_token(logits: np.ndarray, temperature: float, top_p: float, rng) -> int:
    """``sample_rows`` for one logits row, drawing its uniform from ``rng``."""
    return int(sample_rows(logits[np.newaxis], temperature, top_p,
                           lambda: rng.random(1))[0])


def check_prompts(prompts, vocab_size: int) -> None:
    """ValueError unless there is a prompt and every prompt holds a token;
    TokenOutOfRange for an id outside the vocab. Callers run it before a
    plan's calibration, not after it."""
    if len(prompts) == 0:
        raise ValueError("need at least one prompt")
    for prompt in prompts:
        if len(prompt) == 0:
            raise ValueError("prompt must hold at least one token")
        bad = [t for t in prompt if not 0 <= t < vocab_size]
        if bad:
            raise TokenOutOfRange(f"token {bad[0]} outside vocab {vocab_size}")


def decode(m: ToyModel, prompts, choose, done, runtime=None) -> list:
    """The sampling loop, for a batch of sequences. Prompts of one length
    form one group, a ``Session`` whose rows advance in lockstep; groups run
    one after another. Each group's prompts are fed in one ``forward``.
    Then, while some row r is not ``done(r, seq)`` and its sequence is
    shorter than the context, ``choose(rows, logits)`` gets those rows (indices
    into ``prompts``) and their (rows, vocab) logits, and returns the token
    each row appends. A finished row leaves the batch. The last token of
    each row is stepped into the session just before the next is chosen, so
    every token is fed by its own ``step`` and the final one, whose logits
    nothing reads, is not fed at all. ``choose`` draws each row's
    randomness itself; the loop calls it once per step, rows in prompt
    order. Returns the full id sequences."""
    check_prompts(prompts, m.config.vocab_size)
    seqs = [list(p) for p in prompts]
    groups = {}
    for r, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(r)
    for n, rows in groups.items():
        sess = Session(m, runtime=runtime, rows=len(rows))
        logits = sess.forward([seqs[r] for r in rows])[:, -1]
        while True:
            live = [j for j, r in enumerate(rows)
                    if len(seqs[r]) < m.config.max_seq_len and not done(r, seqs[r])]
            if not live:
                break
            if len(live) < len(rows):
                sess.keep(live)
                rows, logits = [rows[j] for j in live], logits[live]
            if len(seqs[rows[0]]) > n:
                logits = sess.step([seqs[r][-1] for r in rows])
            for r, tok in zip(rows, choose(rows, logits)):
                seqs[r].append(int(tok))
    return seqs


def check_generate(cfg: ToyConfig, prompt, max_new: int, temperature: float,
                   top_p: float, rng) -> None:
    """The input checks of ``generate``, which ``quantlab generate`` runs
    before preparing its plan."""
    check_prompts([prompt], cfg.vocab_size)
    if max_new < 0:
        raise ValueError(f"max_new must be >= 0, got {max_new}")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if not 0 < top_p <= 1:
        raise ValueError(f"top_p must be in (0, 1], got {top_p}")
    if len(prompt) + max_new > cfg.max_seq_len:
        raise ContextOverflow(
            f"{len(prompt)} prompt + {max_new} new > {cfg.max_seq_len}")
    if temperature != 0 and rng is None:
        raise ValueError("sampling requires an rng")


def generate(m: ToyModel, prompt, max_new: int, temperature: float = 0.6,
             top_p: float = 0.95, rng=None, runtime=None) -> list:
    """Autoregressive sampling of ``max_new`` tokens, a batch of one;
    greedy when temperature == 0. Returns the full id sequence (prompt +
    continuation)."""
    check_generate(m.config, prompt, max_new, temperature, top_p, rng)
    stop = len(prompt) + max_new

    def choose(rows, logits):
        return [sample_token(logits[0], temperature, top_p, rng)]

    return decode(m, [prompt], choose, lambda r, seq: len(seq) == stop, runtime)[0]
