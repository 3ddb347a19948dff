"""Quantized inference: QuantPlan, per-linear quantized wrappers, the
runtime, and calibration-driven preparation.

A plan is expressed in W-A-KV bit notation ("4-16-16") plus method names.
Queries are never quantized: activation quantization happens at linear
inputs, and the q vectors produced for attention stay in full precision.

Every quantized linear is a ``toymodel.PlainLinear``: an input map and an
activation quantizer, each applying itself, then the product with its
pre-quantized weight. The map is a SmoothQuant or AWQ ``InputScale``, a
``HadamardMatrix``, a ``FlatTransform`` or none; the quantizer a per-token
``QuantSpec``, the ``mxfp4.MXFP4`` codec or none. The four linear classes
here only rebind ``pre_bias`` for tracing (``FlatLinear.t`` is its map).
``prepare_runtime`` builds them in two stages. Per input site, it fits one
input map on the stacked weight of the site's linears (``[Wq; Wk; Wv]`` at
``attn_in``) and maps that weight whole (``HadamardMatrix.apply``,
``flat_map_weight``, the SmoothQuant fold); MXFP4 instead runs it through
its codec; FlatQuant takes the clipped specs ``FlatTransform.specs`` gives,
as ``flat_objective`` did in training. Per linear, it quantizes the mapped
weight with the plan's ``w_method``: RTN, GPTQ on the Hessian of the site's
mapped input, or AWQ, a map of its own; a linear keeps its
``QuantParams``, none at 16 bits or MXFP4.
``Session`` runs a site's linears through ``toymodel.site_pre_bias``, which
maps and quantizes the input once per block when they share a map and a
quantizer. Every runtime quantizer is row-local (per-token groups, MXFP4
blocks within a row, as MXT4 stores them). ``_kv_writers``, the one reader
of ``kv_method``, builds one ``kvquant.KvWriter`` per layer;
``Runtime.kv_write`` calls it.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import MissingCalibration
from .kvquant import (
    POST_BIAS,
    POST_ROPE,
    PRE_BIAS,
    PRE_ROPE,
    KvQuantStarConfig,
    KvWriter,
    RopeConfig,
    calibrate_k_channels,
    default_kv_k_channel_spec,
    k_stage_tensor,
)
from .mxfp4 import MXFP4
from .numerics import hadamard
from .quantcore import (
    PASSTHROUGH_BITS,
    PER_CHANNEL,
    QuantParams,
    QuantSpec,
    _check_field_types,
    dequantize,
)
from .rng import make_rng
from .toymodel import (_LAYER_LINEARS, PlainLinear, Session, ToyModel, _k_bias,
                       _linear_bias, linear_weight)
from .transforms import flat_map_weight, flat_train, smooth_fit
from .weightquant import (
    GptqConfig,
    InputScale,
    awq_fold,
    awq_search,
    default_weight_spec,
    gptq_quantize,
    proxy_loss,
    rtn_quantize_weights,
)

W_METHODS = ("rtn", "gptq", "awq")
WA_METHODS = ("none", "smoothquant", "rotate", "flatquant", "mxfp4")
KV_METHODS = ("per_token", "kvquant_star", "rotated_per_token")


@dataclass(frozen=True)
class QuantPlan:
    w_bits: int = 16
    a_bits: int = 16
    kv_bits: int = 16
    w_method: str = "rtn"
    wa_method: str = "none"
    kv_method: str = "per_token"
    group_size: int = 128
    k_stage: str = PRE_ROPE
    k_bias_mode: str = PRE_BIAS
    smooth_alpha: float = 0.5
    flat_steps: int = 24
    awq_grid_step: float = 0.05
    rotation_seed: int = 0
    include_lm_head: bool = False

    def __post_init__(self):
        _check_field_types(self)
        for bits in (self.w_bits, self.a_bits, self.kv_bits):
            if bits != PASSTHROUGH_BITS and not 2 <= bits <= 8:
                raise ValueError(f"bit widths must be in 2..8 or 16, got {bits}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")
        if self.w_method not in W_METHODS:
            raise ValueError(f"w_method must be one of {W_METHODS}")
        if self.wa_method not in WA_METHODS:
            raise ValueError(f"wa_method must be one of {WA_METHODS}")
        if self.kv_method not in KV_METHODS:
            raise ValueError(f"kv_method must be one of {KV_METHODS}")
        if self.k_stage not in (PRE_ROPE, POST_ROPE):
            raise ValueError(f"k_stage must be {PRE_ROPE!r} or {POST_ROPE!r}")
        if self.k_bias_mode not in (PRE_BIAS, POST_BIAS):
            raise ValueError(f"k_bias_mode must be {PRE_BIAS!r} or {POST_BIAS!r}")
        if self.kv_method != "kvquant_star" and (self.k_stage, self.k_bias_mode) != (
                PRE_ROPE, PRE_BIAS):
            raise ValueError(f"k_stage and k_bias_mode apply to kv_method "
                             f"'kvquant_star' only, not {self.kv_method!r}")
        if not (math.isfinite(self.awq_grid_step) and 0 < self.awq_grid_step <= 1):
            raise ValueError(f"awq_grid_step must be finite and in (0, 1], "
                             f"got {self.awq_grid_step}")
        if self.flat_steps < 0:
            raise ValueError(f"flat_steps must be >= 0, got {self.flat_steps}")
        if not 0 <= self.smooth_alpha <= 1:
            raise ValueError(f"smooth_alpha must be in [0, 1], got {self.smooth_alpha}")
        if self.a_bits < 16 and self.wa_method == "none":
            raise ValueError("a_bits < 16 requires a weight-activation method")
        if (self.w_method != "rtn" and self.wa_method == "mxfp4") or (
                self.w_method == "awq" and self.wa_method != "none"):
            raise ValueError(f"w_method {self.w_method!r} cannot run under wa_method "
                             f"{self.wa_method!r}; AWQ is a map, MXFP4 a codec pair")
        if self.wa_method == "mxfp4" and (self.w_bits != 4 or self.a_bits != 4):
            raise ValueError("mxfp4 fixes w_bits = a_bits = 4")

    @property
    def passthrough(self) -> bool:
        return self.w_bits >= 16 and self.a_bits >= 16 and self.kv_bits >= 16

    @property
    def needs_calibration(self) -> bool:
        return (
            (self.w_bits < 16 and self.w_method in ("gptq", "awq"))
            or self.wa_method in ("smoothquant", "flatquant")
            or (self.kv_bits < 16 and self.kv_method == "kvquant_star")
        )

    def bits_string(self) -> str:
        return f"{self.w_bits}-{self.a_bits}-{self.kv_bits}"

    @staticmethod
    def from_bits_string(s: str, **kwargs) -> "QuantPlan":
        try:
            w, a, kv = (int(p) for p in s.split("-"))
        except (AttributeError, ValueError):  # not a string, or not three ints
            raise ValueError(f"plan must look like '4-16-16', got {s!r}")
        try:
            return QuantPlan(w_bits=w, a_bits=a, kv_bits=kv, **kwargs)
        except TypeError as e:  # an unknown option, or a bit width again
            raise ValueError(f"bad options for plan {s!r}: {e}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "QuantPlan":
        return QuantPlan(**d)


# --- calibration capture ------------------------------------------------------


class ActivationRecorder:
    """Collects the row blocks a forward pass produces per capture site.
    ``positions`` holds one position per row, the same for every site, set
    by the caller that fed the tokens (``capture_activations``)."""

    def __init__(self, sites=None):
        self.sites = None if sites is None else set(sites)
        self.rows = {}
        self.positions = None

    def record(self, site, rows):
        """One block of rows, in the order the session lays them out."""
        if self.sites is not None and site not in self.sites:
            return
        self.rows.setdefault(site, []).append(np.array(rows))

    def matrix(self, site) -> np.ndarray:
        if site not in self.rows:
            raise MissingCalibration(f"no activations captured at {site!r}")
        return np.concatenate(self.rows[site])


def capture_activations(model: ToyModel, sequences, sites=None) -> ActivationRecorder:
    """Record a one-row reference forward of each calibration sequence, whole
    from position 0; the leading () keeps the positions defined for none."""
    rec = ActivationRecorder(sites)
    for seq in sequences:
        Session(model, recorder=rec).forward(seq)
    rec.positions = np.concatenate([np.arange(len(s)) for s in [(), *sequences]])
    return rec


def linear_input_site(name: str) -> Optional[str]:
    """The capture site of linear ``name``'s input; None for a tensor that
    is not a linear."""
    if name == "lm_head":
        return "lm_head_in"
    prefix, _, short = name.rpartition(".")
    if short not in _LAYER_LINEARS:
        return None
    return f"layer{prefix.split('.')[1]}.{_LAYER_LINEARS[short][1]}"


# --- quantized linear wrappers ------------------------------------------------
# Each is PlainLinear under its own name and binds ``pre_bias`` on its own
# class, so that each class's calls can be traced.


class FakeQuantLinear(PlainLinear):
    """A uniform quantized linear with no input map or an input scale
    (AWQ, SmoothQuant)."""

    pre_bias = PlainLinear.pre_bias


class RotatedLinear(FakeQuantLinear):
    """Q(x H) @ Q(H.T W.T), the rotation absorbed into the weight offline."""

    pre_bias = PlainLinear.pre_bias


class FlatLinear(FakeQuantLinear):
    """Q(x (P1 (x) P2)) @ Q((P1 (x) P2)^-1 W.T) with trained factors ``t``,
    its map, and the clipped specs ``t.specs`` gives; ``flat_objective``
    scores this linear with an RTN weight."""

    t = property(lambda self: self.map)
    pre_bias = PlainLinear.pre_bias


class Mxfp4Linear(PlainLinear):
    """Weights and inputs round-tripped through MXFP4 blocks along rows."""

    pre_bias = PlainLinear.pre_bias


# --- runtime ------------------------------------------------------------------


@dataclass
class Runtime:
    """Prepared quantization state for one model + plan."""

    plan: QuantPlan
    linears: dict = field(default_factory=dict)   # name -> PlainLinear subclass
    kv: list = field(default_factory=list)        # layer -> KvWriter; none at 16 bits
    proxy_losses: dict = field(default_factory=dict)

    def kv_write(self, layer, k_pre, k_rope, v, pos):
        """The (dequantized) K/V rows the cache stores for a block of (T,
        d_model) rows of ``layer``: K before its bias, K after bias and RoPE,
        and V at positions pos + r (or pos[r]); at 16-bit KV, k_rope and v."""
        return self.kv[layer].write(k_pre, k_rope, v, pos) if self.kv else (k_rope, v)


def _weight_linear_names(model: ToyModel, include_lm_head: bool):
    names = [f"layers.{i}.{short}" for i in range(model.config.n_layers)
             for short in _LAYER_LINEARS]
    return names + ["lm_head"] if include_lm_head else names


def _split_rows(p: QuantParams, ends) -> list:
    """The row blocks of ``p`` that end at ``ends``; its groups lie in rows."""
    zs = ([None] * (len(ends) + 1) if p.zero_points is None
          else np.split(p.zero_points, ends))
    return [QuantParams(s, z, p.spec, (len(s), p.shape[1]))
            for s, z in zip(np.split(p.scales, ends), zs)]


def prepare_runtime(model: ToyModel, plan: QuantPlan,
                    calib_sequences=None) -> Runtime:
    """Quantize weights, fit/train transforms, and calibrate KV ranges.

    ``calib_sequences`` (token-id sequences) must be given whenever the
    plan uses a data-dependent method (GPTQ, AWQ, SmoothQuant, FlatQuant,
    KVQuant-style static K ranges).
    """
    rt = Runtime(plan=plan)
    if plan.passthrough:
        return rt
    if plan.needs_calibration and not calib_sequences:
        raise MissingCalibration(f"plan {plan.bits_string()} needs calibration data")

    rec = capture_activations(model, calib_sequences) if plan.needs_calibration else None
    rng = make_rng(plan.rotation_seed)

    wa = plan.wa_method
    # weight-activation methods: per-channel symmetric weights (one scale per
    # output row), activations in asymmetric group_size groups along each
    # token's row (the spec of weight-only weights and of V)
    spec_w = QuantSpec(bits=plan.w_bits, symmetric=True, granularity=PER_CHANNEL, axis=0)
    spec_a = default_weight_spec(plan.a_bits, plan.group_size)
    if wa == "none":
        spec_w, spec_a = default_weight_spec(plan.w_bits, plan.group_size), None
    cls = {"rotate": RotatedLinear, "flatquant": FlatLinear,
           "mxfp4": Mxfp4Linear}.get(wa, FakeQuantLinear)
    sites = {}  # input site -> its linears, in _LAYER_LINEARS order
    for name in (_weight_linear_names(model, plan.include_lm_head)
                 if wa != "none" or plan.w_bits < 16 else ()):
        sites.setdefault(linear_input_site(name), []).append(name)
    for site, names in sites.items():
        ws = np.concatenate([linear_weight(model, n) for n in names]).astype(np.float64)
        ends = np.cumsum([len(model.tensors[n]) for n in names])[:-1]
        x = None if rec is None else rec.matrix(site)  # (tokens, in)
        # stage 1, per site: the input map, fitted on and applied to the stacked weight
        imap, spec, act = None, spec_w, spec_a
        if wa == "rotate":
            imap = hadamard(ws.shape[1], rng)
            ws = imap.apply(ws)
        elif wa == "smoothquant":
            ws, inv = awq_fold(ws, smooth_fit(x, ws, alpha=plan.smooth_alpha))
            imap = InputScale(inv)
        elif wa == "flatquant":
            imap = flat_train(ws, x, spec_w, spec_a, steps=plan.flat_steps)
            ws = flat_map_weight(ws, imap)
            spec, act = imap.specs(spec_w, spec_a)
        elif wa == "mxfp4":  # no map; the codec's row-local blocks, no codes
            ws, spec, act = MXFP4.apply(ws), QuantSpec(bits=PASSTHROUGH_BITS), MXFP4
        # stage 2, per linear: the weight quantizer on the mapped weight. Specs
        # group within rows, so the site's stacked weight is quantized at once
        qt = None
        if plan.w_method == "gptq" and not spec.passthrough:
            x = x if imap is None else imap.apply(x)  # as the site's linears map it
            qt = gptq_quantize(ws, x.T, GptqConfig(spec=spec))
        elif plan.w_method == "rtn" and not spec.passthrough:
            qt = rtn_quantize_weights(ws, spec)
        w_qs = np.split(ws if qt is None else dequantize(qt), ends)
        params = [None] * len(names) if qt is None else _split_rows(qt.params, ends)
        for name, w, w_q, p in zip(names, np.split(ws, ends), w_qs, params):
            if plan.w_method == "awq":  # an input map of its own, per linear
                res = awq_search(w, x.T, spec, grid_step=plan.awq_grid_step)
                w, inv = awq_fold(w, res.scales)
                imap = InputScale(inv)
                qt = rtn_quantize_weights(w, spec)
                w_q, p = dequantize(qt), qt.params
                rt.proxy_losses[name] = res.proxy_loss
            elif plan.w_method == "gptq" and p is not None:
                rt.proxy_losses[name] = proxy_loss(w, w_q, x.T)
            rt.linears[name] = cls(w_q, _linear_bias(model.tensors, name), imap, act, p)

    if plan.kv_bits < 16:  # after the site maps: rotated KV draws from rng last
        rt.kv = _kv_writers(model, plan, rec, rng)
    return rt


def _kv_writers(model: ToyModel, plan: QuantPlan, rec, rng) -> list:
    """One KV writer per layer; rotated per-token KV shares one Hadamard."""
    mc, spec = model.config, default_weight_spec(plan.kv_bits, plan.group_size)
    if plan.kv_method != "kvquant_star":
        h = hadamard(mc.head_dim, rng) if plan.kv_method == "rotated_per_token" else None
        return [KvWriter(spec, h)] * mc.n_layers
    rope = RopeConfig(head_dim=mc.head_dim, base=mc.rope_base)
    cfg = KvQuantStarConfig(k_spec=default_kv_k_channel_spec(plan.kv_bits),
                            k_stage=plan.k_stage, k_bias_mode=plan.k_bias_mode)
    writers = []
    for i in range(mc.n_layers):
        bias = _k_bias(model, i)
        k = k_stage_tensor(rec.matrix(f"layer{i}.k_pre_bias"), bias, cfg, rope,
                           rec.positions)
        writers.append(KvWriter(spec, k_bias=bias, k_cfg=calibrate_k_channels(k, cfg),
                                rope=rope))
    return writers


def forward_quantized(model: ToyModel, tokens, plan: QuantPlan,
                      calib_sequences=None, runtime: Optional[Runtime] = None
                      ) -> np.ndarray:
    """Logits for every position under a quantization plan. A prepared
    runtime may be passed to amortize calibration across probes."""
    if runtime is None:
        runtime = prepare_runtime(model, plan, calib_sequences)
    return Session(model, runtime=runtime).forward(tokens)
