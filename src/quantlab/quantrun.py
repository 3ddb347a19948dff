"""Quantized inference: QuantPlan, per-linear quantized wrappers, KV-cache
write hooks, and calibration-driven preparation.

A plan is expressed in W-A-KV bit notation ("4-16-16") plus method names.
Queries are never quantized: activation quantization happens at linear
inputs, and the q vectors produced for attention stay in full precision.

Every quantized linear is a ``toymodel.PlainLinear`` in three stages: an
input map that applies itself (``map.apply``: a SmoothQuant or AWQ
``InputScale``, a ``HadamardMatrix``, a ``FlatTransform`` or none), an
activation quantizer (``act``: a per-token ``QuantSpec``, MXFP4 rows or
none) and the product with its pre-quantized weight. The linear classes here
name it for tracing; ``Mxfp4Linear`` adds its codecs. ``prepare_runtime``
builds them in two stages. Per input site, it fits one input map on the
stacked weight of the site's linears (``[Wq; Wk; Wv]`` at ``attn_in``). Per
linear, it quantizes the mapped weight with the plan's ``w_method``: RTN,
GPTQ on the Hessian of the site's mapped input, or AWQ, a map of its own.
``Session`` runs a site's linears through ``toymodel.site_pre_bias``, which
maps and quantizes the input once per block when they share a map and a
quantizer. Every runtime quantizer is row-local (per-token groups, MXFP4
blocks within a row), so K and V quantize stacked in one call with no bit
changed; rotated KV turns each head with the same ``HadamardMatrix.apply``.
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
    RopeConfig,
    calibrate_k_channels,
    default_kv_k_channel_spec,
    default_kv_v_spec,
    k_stage_tensor,
    quantize_k,
)
from .mxfp4 import BLOCK_SIZE, mxfp4_fake_quant
from .numerics import hadamard
from .quantcore import (
    PASSTHROUGH_BITS,
    PER_CHANNEL,
    PER_GROUP,
    QuantParams,
    QuantSpec,
    QuantizedTensor,
    _check_field_types,
    dequantize,
    fake_quant,
)
from .rng import make_rng
from .toymodel import (_LAYER_LINEARS, PlainLinear, Session, ToyModel, _k_bias,
                       _linear_bias)
from .transforms import (
    _clipped,
    flat_map_weight,
    flat_train,
    rotate_layer,
    smooth_fit,
)
from .weightquant import (
    GptqConfig,
    InputScale,
    awq_fold,
    awq_search,
    default_weight_spec,
    dequant_loss,
    gptq_quantize,
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
    """Q(x (P1 (x) P2)) @ Q((P1 (x) P2)^-1 W.T) with trained factors ``t``;
    the input map and quantizer are those of ``transforms.flat_input``."""

    t = property(lambda self: self.map)
    pre_bias = PlainLinear.pre_bias


def _mxfp4_rows(x: np.ndarray) -> np.ndarray:
    """MXFP4 round trip of each row on its own: rows are zero-padded to
    whole 32-element blocks, so no block straddles two rows."""
    cols = x.shape[1]
    return mxfp4_fake_quant(np.pad(x, ((0, 0), (0, -cols % BLOCK_SIZE))))[:, :cols]


class Mxfp4Linear(PlainLinear):
    """Weights and inputs round-tripped through MXFP4 blocks along rows."""

    def __init__(self, w, b):
        super().__init__(_mxfp4_rows(np.asarray(w, dtype=np.float64)), b, act="mxfp4")

    def quantize(self, x):
        return _mxfp4_rows(x)

    pre_bias = PlainLinear.pre_bias


# --- runtime ------------------------------------------------------------------


@dataclass
class Runtime:
    """Prepared quantization state for one model + plan."""

    model: ToyModel
    plan: QuantPlan
    linears: dict = field(default_factory=dict)   # name -> PlainLinear subclass
    kv_cfgs: dict = field(default_factory=dict)   # layer -> quantize_k's bias, cfg, rope
    kv_hadamard: Optional[object] = None
    kv_token_spec: Optional[QuantSpec] = None
    proxy_losses: dict = field(default_factory=dict)

    def kv_write(self, layer, k_pre, k_rope, v, pos):
        """Return the (dequantized) K/V rows to store in the cache for a
        block of (T, d_model) rows of ``layer``: K before its bias, K after
        bias and RoPE, and V; row r is at position pos + r, or at pos[r].

        ``per_token`` and ``rotated_per_token`` round-trip ``k_rope`` and V
        stacked, in one ``fake_quant`` call, ``kv_hadamard`` rotating each
        head before and after. ``kvquant_star`` runs ``quantize_k`` on ``k_pre``
        with the layer's static grid, K bias and RoPE, and V per token."""
        plan = self.plan
        if plan.kv_bits >= 16:
            return k_rope, v
        spec = self.kv_token_spec
        if plan.kv_method == "kvquant_star":
            bias, cfg, rope = self.kv_cfgs[layer]
            return quantize_k(k_pre, bias, cfg, rope, pos), fake_quant(v, spec)
        hd, h, n = self.model.config.head_dim, self.kv_hadamard, len(v)
        kv = (k_rope, v)
        if plan.kv_method == "rotated_per_token":
            kv = [h.apply(r.reshape(-1, hd)).reshape(r.shape) for r in kv]
        q = fake_quant(np.concatenate(kv), spec)  # per-token groups: row-local
        k_q, v_q = q[:n], q[n:]
        if plan.kv_method == "per_token":
            return k_q, v_q
        return tuple(h.unapply(r.reshape(-1, hd)).reshape(r.shape) for r in (k_q, v_q))


def _weight_linear_names(model: ToyModel, include_lm_head: bool):
    names = [f"layers.{i}.{short}" for i in range(model.config.n_layers)
             for short in _LAYER_LINEARS]
    return names + ["lm_head"] if include_lm_head else names


def _split_rows(qt: QuantizedTensor, ends) -> list:
    """The row blocks of ``qt`` that end at ``ends``; its groups lie in rows."""
    p = qt.params
    zs = ([None] * (len(ends) + 1) if p.zero_points is None
          else np.split(p.zero_points, ends))
    return [QuantizedTensor(c, QuantParams(s, z, p.spec, c.shape), p.spec, c.shape)
            for c, s, z in zip(np.split(qt.codes, ends), np.split(p.scales, ends), zs)]


def prepare_runtime(model: ToyModel, plan: QuantPlan,
                    calib_sequences=None) -> Runtime:
    """Quantize weights, fit/train transforms, and calibrate KV ranges.

    ``calib_sequences`` (token-id sequences) must be given whenever the
    plan uses a data-dependent method (GPTQ, AWQ, SmoothQuant, FlatQuant,
    KVQuant-style static K ranges).
    """
    rt = Runtime(model=model, plan=plan)
    if plan.passthrough:
        return rt
    if plan.needs_calibration and not calib_sequences:
        raise MissingCalibration(f"plan {plan.bits_string()} needs calibration data")

    rec = capture_activations(model, calib_sequences) if plan.needs_calibration else None
    rng = make_rng(plan.rotation_seed)

    wa = plan.wa_method
    # weight-activation methods: per-channel symmetric weights (one scale per
    # output row), per-token asymmetric activations in group_size groups;
    # weight-only plans: asymmetric per-group weights
    spec_w = QuantSpec(bits=plan.w_bits, symmetric=True, granularity=PER_CHANNEL, axis=0)
    spec_a = QuantSpec(bits=plan.a_bits, symmetric=False, granularity=PER_GROUP,
                       axis=1, group_size=plan.group_size)
    if wa == "none":
        spec_w, spec_a = default_weight_spec(plan.w_bits, plan.group_size), None
    cls = {"rotate": RotatedLinear, "flatquant": FlatLinear}.get(wa, FakeQuantLinear)
    sites = {}  # input site -> its linears, in _LAYER_LINEARS order
    for name in (_weight_linear_names(model, plan.include_lm_head)
                 if wa != "none" or plan.w_bits < 16 else ()):
        sites.setdefault(linear_input_site(name), []).append(name)
    for site, names in sites.items():
        ws = np.concatenate([model.tensors[n] for n in names]).astype(np.float64)
        ends = np.cumsum([len(model.tensors[n]) for n in names])[:-1]
        x = None if rec is None else rec.matrix(site)  # (tokens, in)
        if wa == "mxfp4":  # a fixed pair of weight and activation codecs
            for name, w in zip(names, np.split(ws, ends)):
                rt.linears[name] = Mxfp4Linear(w, _linear_bias(model.tensors, name))
            continue
        # stage 1, per site: the input map, fitted on the stacked weight
        imap, spec, act = None, spec_w, spec_a
        if wa == "rotate":
            imap = hadamard(ws.shape[1], randomize=True, rng=rng)
            ws = np.concatenate([rotate_layer(w, imap).T for w in np.split(ws, ends)])
        elif wa == "smoothquant":
            ws, inv = awq_fold(ws, smooth_fit(x, ws, alpha=plan.smooth_alpha).scales)
            imap = InputScale(inv)
        elif wa == "flatquant":
            imap = flat_train(ws, x, spec_w, spec_a, steps=plan.flat_steps)
            ws = np.concatenate([flat_map_weight(w, imap) for w in np.split(ws, ends)])
            spec, act = (_clipped(spec_w, imap.weight_clip),
                         _clipped(spec_a, imap.act_clip))
        # stage 2, per linear: the weight quantizer on the mapped weight. Specs
        # group within rows, so the site's stacked weight is quantized at once
        qts = [None] * len(names)  # 16-bit weights keep no codes
        if plan.w_method == "gptq" and not spec.passthrough:
            x = x if imap is None else imap.apply(x)  # as the site's linears map it
            qts = _split_rows(gptq_quantize(ws, x.T, GptqConfig(spec=spec)), ends)
        elif plan.w_method == "rtn" and not spec.passthrough:
            qts = _split_rows(rtn_quantize_weights(ws, spec), ends)
        for name, w, qt in zip(names, np.split(ws, ends), qts):
            if plan.w_method == "awq":  # an input map of its own, per linear
                res = awq_search(w, x.T, spec, grid_step=plan.awq_grid_step)
                w, inv = awq_fold(w, res.scales)
                imap = InputScale(inv)
                qt = rtn_quantize_weights(w, spec)
                rt.proxy_losses[name] = res.proxy_loss
            elif plan.w_method == "gptq" and qt is not None:
                rt.proxy_losses[name] = dequant_loss(qt, w, x.T)
            w = w if qt is None else dequantize(qt)
            if wa == "rotate":  # Fortran order, the transpose of rotate_layer's
                w = np.asfortranarray(w)  # (in, out): a matmul's bytes depend on it
            rt.linears[name] = cls(w, _linear_bias(model.tensors, name), imap, act, qt)

    if plan.kv_bits < 16:
        _prepare_kv(rt, rec, rng)
    return rt


def _prepare_kv(rt: Runtime, rec, rng):
    plan = rt.plan
    model = rt.model
    rt.kv_token_spec = default_kv_v_spec(plan.kv_bits, plan.group_size)
    if plan.kv_method == "rotated_per_token":
        rt.kv_hadamard = hadamard(model.config.head_dim, randomize=True, rng=rng)
    if plan.kv_method != "kvquant_star":
        return
    rope_cfg = RopeConfig(head_dim=model.config.head_dim, base=model.config.rope_base)
    cfg = KvQuantStarConfig(k_spec=default_kv_k_channel_spec(plan.kv_bits),
                            k_stage=plan.k_stage, k_bias_mode=plan.k_bias_mode)
    for i in range(model.config.n_layers):
        site = f"layer{i}.k_pre_bias"
        bias = _k_bias(model, i)
        staged = k_stage_tensor(rec.matrix(site), bias, cfg, rope_cfg, rec.positions)
        rt.kv_cfgs[i] = (bias, calibrate_k_channels(staged, cfg), rope_cfg)


def forward_quantized(model: ToyModel, tokens, plan: QuantPlan,
                      calib_sequences=None, runtime: Optional[Runtime] = None
                      ) -> np.ndarray:
    """Logits for every position under a quantization plan. A prepared
    runtime may be passed to amortize calibration across probes."""
    if runtime is None:
        runtime = prepare_runtime(model, plan, calib_sequences)
    return Session(model, runtime=runtime).forward(tokens)
