"""Tiny Qwen-like decoder-only transformer: RMSNorm, QKV projections with
biases, RoPE, SwiGLU MLP. Deterministic init and one forward pass
(Session.forward) that the reference and quantized paths, calibration
capture and generation all use; Session.step is its one-token case.
Incremental generation and full-context recomputation run the same code on
differently shaped blocks, so they agree to about 1e-13 with identical
argmax rather than bit for bit. Model files (TQM1) are quantlab.checkpoint's.

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

Session.forward takes positions in blocks of BLOCK = 64. Within a block the
linears run on (rows x T, d_model) matrices and the attention scores form one
(rows, heads, T, context) array, so the block size bounds the working set; a
larger block makes fewer numpy calls per token. In 30 s ``drift`` benchmark
runs (512-token teacher-forced forwards), peak RSS was 44.6-44.7 MB with
32-position blocks, 45.3-45.4 MB with 64, and 45.6-46.5 MB with 128, which
ran no faster than 64.

Attention divides once per block, on its output. The queries are divided by
sqrt(head_dim) before the score products; the scores are shifted by their
row max and exponentiated in place, into unnormalized weights whose row
sums are kept; and the weighted sum of the values, (rows, heads, T,
head_dim), is divided by those sums. No pass divides the (rows, heads, T,
context) scores, as FlashAttention and online softmax arrange it.
``softmax`` is the sampler's.

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

import math
import os
import resource
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ContextOverflow, ShapeMismatch, TokenOutOfRange
from .kvquant import RopeConfig, rope_heads
from .numerics import is_power_of_two
from .quantcore import _check_field_types

BOS_ID = 0
EOS_ID = 1
THINK_END_ID = 2
WAIT_ID = 3
N_RESERVED = 4

BLOCK = 64  # positions per Session.forward block; see the module docstring
_LATER = np.triu(np.ones((BLOCK, BLOCK), dtype=bool), 1)  # [t, s]: key s after query t
HUGE_PAGE_BYTES = 1 << 22  # numpy backs arrays this large with huge pages
RMS_EPS = 1e-6  # added to rmsnorm's mean square
TEMPERATURE = 0.6  # every sampler's default temperature
TOP_P = 0.95  # and its default nucleus
# controllers field of a /proc/self/cgroup line -> (hierarchy under the cgroup
# mount, memory limit file, usage file): cgroup v2, then v1
_CGROUP_MEMORY = {"": ("", "memory.max", "memory.current"),
                  "memory": ("memory", "memory.limit_in_bytes", "memory.usage_in_bytes")}


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


def check_tensors(cfg: ToyConfig, tensors: dict) -> None:
    """ShapeMismatch unless ``tensors`` holds exactly the tensors ``cfg``
    declares, each of its shape. The names are walked one at a time, so the
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


# --- forward pass -------------------------------------------------------------


def rmsnorm(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x / sqrt(mean(x^2) + RMS_EPS) * g along the last axis. The mean is what
    np.mean computes, without its Python wrapper; a single row takes its
    root on a Python float, the same IEEE operations in three fewer numpy
    calls."""
    ss = np.add.reduce(x * x, axis=-1, keepdims=True)
    if ss.size == 1:
        return x / math.sqrt(ss.item() / x.shape[-1] + RMS_EPS) * g
    return x / np.sqrt(ss / x.shape[-1] + RMS_EPS) * g


def silu(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) = inf below -709: silu is -0.0
        return x / (1.0 + np.exp(-x))


def exp_shifted(x: np.ndarray) -> np.ndarray:
    """In place: ``x`` less the max along its last axis, exponentiated, so
    no cell overflows; returns the sums along that axis (keepdims), the
    divisors that make each row a softmax."""
    x -= x.max(axis=-1, keepdims=True)  # the methods skip np.max's wrapper
    np.exp(x, out=x)
    return x.sum(axis=-1, keepdims=True)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, in place: overwrites the float array
    ``x`` with its probabilities and returns it. Pass a copy to keep ``x``.
    The sampler (``sample_rows``) is its caller; attention keeps its
    weights unnormalized and divides its output (``Session._attend``)."""
    x /= exp_shifted(x)
    return x


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
    ``linears`` (by name; a ``PlainLinear`` runs the rest) and binds its K/V
    write once: the cache stores the rows ``runtime.kv_write(layer, k_pre,
    k_rope, v, pos)`` returns, or a reference session's fresh k_rope and v.
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
    (``wq``, ``wk``, ``wv`` in one ``site_pre_bias`` call, then each adds
    its bias); RoPE on q and k; the K/V write and attention; ``wo``;
    ``rmsnorm``; the ``mlp_in`` site (``w_gate``, ``w_up``); SwiGLU; ``w_down``. Then the final norm and
    ``lm_head``. With a runtime, each site maps and quantizes its input once
    per block when its linears share a map and a quantizer, and K and V are
    written in one call.

    ``forward`` runs its tokens in blocks of ``BLOCK`` (64) positions and
    ``step`` is its one-token case, so prefill, decode and teacher forcing
    share one path. Splitting a sequence differently (token by token, in
    one call, in uneven chunks), or running it beside other rows, changes
    only the shapes of the matrix products, so the logits agree to about
    1e-13 with identical argmax, not bit for bit.
    """

    def __init__(self, model: ToyModel, runtime=None, recorder=None, rows: int = 1):
        self.cfg = model.config
        self._kv_write = (runtime.kv_write if runtime is not None
                          else lambda i, k_pre, k, v, pos: (k, v))
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
        ``tokens`` plus a vocab axis. TokenOutOfRange for ids that are not
        integers (floats, bools) or lie outside the vocab; the range is
        checked on Python ints, which costs a step's one id per row less
        than array comparisons."""
        cfg = self.cfg
        tokens = np.asarray(tokens)
        if tokens.size and tokens.dtype.kind not in "iu":
            raise TokenOutOfRange(f"token ids must be integers, got {tokens.dtype} ids")
        block = tokens if tokens.ndim == 2 else tokens.reshape(1, -1)
        if len(block) != self.rows:
            raise ShapeMismatch(f"{len(block)} token rows for {self.rows} session rows")
        ids = block.ravel().tolist()
        if ids and not (min(ids) >= 0 and max(ids) < cfg.vocab_size):
            bad = next(t for t in ids if not 0 <= t < cfg.vocab_size)
            raise TokenOutOfRange(f"token {bad} outside vocab {cfg.vocab_size}")
        n = block.shape[1]
        if self.pos + n > cfg.max_seq_len:
            raise ContextOverflow(f"context limit {cfg.max_seq_len} reached")
        room = self.k_cache.shape[3]
        if self.pos + n > room:
            self._recache(range(self.rows),
                          min(cfg.max_seq_len, max(2 * room, self.pos + n, BLOCK)))
        if 0 < n <= BLOCK:
            logits = self._block(block)
        else:
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
            k_post = layer["wk"].add_bias(k_pre)
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

        The queries are divided by sqrt(head_dim) before the score products,
        on their (rows x n_new, d_model) rows. The scores are then shifted
        by their row max and exponentiated in place: unnormalized weights
        ``e``, whose row sums are kept. The output is ``e`` times the values
        (own cells zeroed, the fresh row added) divided by those sums, once,
        on (..., head_dim) rows: no pass divides the (..., context) scores.

        A block of more than one position masks only its own columns
        (``mask_later``): no cached position comes after a new query. One
        new position per row, a decode step, sees every column and runs
        ``_attend_one``.
        """
        cfg, p0 = self.cfg, self.pos
        n_new = len(q) // self.rows
        end = p0 + n_new
        k_store, v_store = self._kv_write(i, k_pre, k, v, pos)
        kc, vc = self.k_cache[i, :, :, :end], self.v_cache[i, :, :, :end]
        q = q / math.sqrt(cfg.head_dim)
        if n_new == 1:
            return self._attend_one(kc, vc, q, k, v, k_store, v_store)

        def heads(x):  # (rows * n_new, d_model) -> (rows, n_heads, n_new, head_dim)
            return x.reshape(self.rows, n_new, cfg.n_heads, cfg.head_dim).transpose(
                0, 2, 1, 3)

        kc[:, :, p0:] = heads(k_store)
        vc[:, :, p0:] = heads(v_store)
        qh, vh = heads(q), heads(v)
        e = qh @ kc.transpose(0, 1, 3, 2)  # the scores, then their weights
        own_positions(e, p0)[...] = np.add.reduce(qh * heads(k), axis=-1)
        mask_later(e, p0)
        total = exp_shifted(e)
        own = own_positions(e, p0)
        e_own = own[..., np.newaxis].copy()
        own[...] = 0.0
        out = e @ vc
        out += e_own * vh
        out /= total
        return out.transpose(0, 2, 1, 3).reshape(self.rows * n_new, cfg.d_model)

    def _attend_one(self, kc, vc, q, k, v, k_store, v_store) -> np.ndarray:
        """``_attend`` for one new position per row, with its scaled queries
        ``q``, over the layer's cache ``kc``, ``vc`` (rows, heads, positions,
        head_dim) up to and including the new one: the same unnormalized
        weights and one division of the output. A head of a (rows, d_model)
        row is then a (rows, heads, 1, head_dim) view, the new position's
        own cell is the last column, and the output needs no transpose: the
        block path's products on the same operands, so the same bytes,
        without its head transposes and its strided own-cell view."""
        cfg = self.cfg
        shape = (self.rows, cfg.n_heads, 1, cfg.head_dim)
        kc[:, :, -1:] = k_store.reshape(shape)
        vc[:, :, -1:] = v_store.reshape(shape)
        qh = q.reshape(shape)
        e = qh @ kc.transpose(0, 1, 3, 2)  # (rows, heads, 1, positions)
        e[..., -1] = np.add.reduce(qh * k.reshape(shape), axis=-1)
        total = exp_shifted(e)
        e_own = e[..., -1:].copy()
        e[..., -1] = 0.0
        out = e @ vc
        out += e_own * v.reshape(shape)
        out /= total
        return out.reshape(self.rows, cfg.d_model)


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
    renormalize. One row is filtered as a vector, without the row index
    arrays the batch needs: the same products and sums, so the same bytes."""
    p = probs.reshape(-1, probs.shape[-1])
    if len(p) == 1:
        row = p[0]
        order = (-row).argsort(kind="stable")
        last = np.count_nonzero(row[order].cumsum() < top_p)  # the last rank kept
        keep = np.zeros(row.shape)
        keep[order[: last + 1]] = 1.0
        out = row * keep
        out /= np.add.reduce(out)
        return out.reshape(probs.shape)
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
    if len(logits) == 1:  # one row as a vector: the same arithmetic, fewer calls
        cdf = nucleus_filter(softmax(logits[0] / temperature), top_p).cumsum()
        cdf /= cdf[-1]
        return np.array([np.count_nonzero(cdf <= draw()[0])])
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


def _read_text(path: str) -> str:
    """The stripped text of file ``path``; "" when it cannot be read."""
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def cgroup_room(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup"):
    """The bytes the process's own memory cgroup has left: its limit less
    its usage, the least over the cgroups ``proc`` lists, one
    ``id:controllers:path`` line each. The line with no controllers is
    cgroup v2, read from ``memory.max`` and ``memory.current`` in ``root``
    + path; the ``memory`` line is v1, read from ``memory.limit_in_bytes``
    and ``memory.usage_in_bytes`` in ``root``/memory + path. A missing file
    or a limit of ``max`` bounds nothing: inf when no cgroup does."""
    room = math.inf
    for line in _read_text(proc).splitlines():
        _, controllers, path = line.split(":", 2)
        for name in set(controllers.split(",")) & _CGROUP_MEMORY.keys():
            sub, *files = _CGROUP_MEMORY[name]
            limit, usage = (_read_text(os.path.join(root, sub, path.lstrip("/"), f))
                            for f in files)
            if limit not in ("", "max") and usage:
                room = min(room, int(limit) - int(usage))
    return room


def check_batch(cfg: ToyConfig, prompts, runs: int) -> None:
    """ValueError when ``runs`` sequences, run i continuing
    ``prompts[i % len(prompts)]``, make a ``decode`` group that cannot fit
    in the memory the process may take, checked before anything is
    allocated for them: the least of the host's physical memory, what its
    memory cgroup has left (``cgroup_room``) and the soft address-space
    limit (``ulimit -v``) less the virtual size the process already maps.
    Runs of one prompt length form one group, whose session holds float64
    K and V for at least ``min(BLOCK, max_seq_len)`` positions of every row
    (``_recache``); groups run one after another, so the largest counts."""
    group = {}
    for j, p in enumerate(prompts):
        group[len(p)] = group.get(len(p), 0) + len(range(j, runs, len(prompts)))
    rows = max(group.values())
    need = 16 * cfg.n_layers * rows * cfg.d_model * min(BLOCK, cfg.max_seq_len)
    page = os.sysconf("SC_PAGE_SIZE")
    have = min(page * os.sysconf("SC_PHYS_PAGES"), cgroup_room())
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        mapped = 0
        if os.path.exists("/proc/self/statm"):
            with open("/proc/self/statm") as f:
                mapped = int(f.read().split()[0]) * page
        have = min(have, limit - mapped)
    if need > have:
        raise ValueError(f"a decode group of {rows} sequences needs at least "
                         f"{need / 2**30:.3g} GiB of K/V cache; at most "
                         f"{max(have, 0) / 2**30:.3g} GiB is available")


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


def check_sampling(temperature: float, top_p: float) -> None:
    """ValueError unless temperature is finite and >= 0 and top_p in (0, 1]."""
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if not 0 < top_p <= 1:
        raise ValueError(f"top_p must be in (0, 1], got {top_p}")


def check_generate(cfg: ToyConfig, prompts, max_new: int, temperature: float,
                   top_p: float, rng) -> None:
    """The one entry check of every sampler, run before a plan is prepared:
    ``check_prompts``; ValueError for ``max_new`` < 0; ``check_sampling``;
    ContextOverflow when the longest prompt plus ``max_new`` overruns the
    context; ValueError when sampling (temperature > 0) without an ``rng``.
    A sampler whose length is not ``max_new`` passes 0."""
    check_prompts(prompts, cfg.vocab_size)
    if max_new < 0:
        raise ValueError(f"max_new must be >= 0, got {max_new}")
    check_sampling(temperature, top_p)
    longest = max(len(p) for p in prompts)
    if longest + max_new > cfg.max_seq_len:
        raise ContextOverflow(f"{longest} prompt + {max_new} new > {cfg.max_seq_len}")
    if temperature != 0 and rng is None:
        raise ValueError("sampling requires an rng")


def generate(m: ToyModel, prompt, max_new: int, temperature: float = TEMPERATURE,
             top_p: float = TOP_P, rng=None, runtime=None) -> list:
    """Autoregressive sampling of ``max_new`` tokens, a batch of one;
    greedy when temperature == 0. Returns the full id sequence (prompt +
    continuation)."""
    check_generate(m.config, [prompt], max_new, temperature, top_p, rng)
    stop = len(prompt) + max_new

    def choose(rows, logits):
        return [sample_token(logits[0], temperature, top_p, rng)]

    return decode(m, [prompt], choose, lambda r, seq: len(seq) == stop, runtime)[0]
