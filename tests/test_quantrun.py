import json
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantlab import kvquant, mxfp4, quantcore, quantrun, weightquant
from quantlab.calibration import known_sites
from quantlab.checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
from quantlab.errors import (
    BadMagic,
    MissingCalibration,
    NonFiniteInput,
    NonPositiveScale,
    QuantLabError,
    ShapeMismatch,
    TruncatedFile,
)
from quantlab.mxfp4 import MXFP4, mxfp4_fake_quant
from quantlab.quantcore import (PER_CHANNEL, PER_GROUP, QuantSpec, dequantize,
                                 fake_quant, quantize)
from quantlab.quantrun import (
    ActivationRecorder,
    FakeQuantLinear,
    FlatLinear,
    Mxfp4Linear,
    QuantPlan,
    RotatedLinear,
    _weight_linear_names,
    capture_activations,
    forward_quantized,
    linear_input_site,
    prepare_runtime,
)
from quantlab.rng import make_rng
from quantlab.toymodel import (
    BLOCK,
    _LAYER_LINEARS,
    PlainLinear,
    Session,
    ToyConfig,
    _linear_bias,
    forward_reference,
    init_model,
    site_pre_bias,
)
from quantlab.transforms import (
    flat_map_weight,
    flat_objective,
    flat_train,
    smooth_fit,
)
from quantlab.weightquant import (
    GptqConfig,
    InputScale,
    awq_fold,
    default_weight_spec,
    gptq_quantize,
    rtn_quantize_weights,
)

from conftest import mutate_container, rewrite_header, with_header_room
from oracles import dequant_loss

SMALL = ToyConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8,
                  vocab_size=16, max_seq_len=64)


@pytest.fixture(scope="module")
def small_model():
    return init_model(SMALL, make_rng(0))


@pytest.fixture(scope="module")
def calib_seqs(small_model):
    rng = make_rng(1)
    return [[int(t) for t in rng.integers(0, SMALL.vocab_size, size=24)]
            for _ in range(3)]


def probe(n, vocab=SMALL.vocab_size, seed=2):
    rng = make_rng(seed)
    return [int(t) for t in rng.integers(0, vocab, size=n)]


PLAN_FAMILIES = [
    dict(w_bits=4, w_method="rtn"),
    dict(w_bits=4, w_method="gptq"),
    dict(w_bits=4, w_method="awq", awq_grid_step=0.25),
    dict(w_bits=4, a_bits=4, wa_method="smoothquant"),
    dict(w_bits=4, a_bits=4, wa_method="rotate"),
    dict(w_bits=4, a_bits=4, wa_method="flatquant", flat_steps=2),
    dict(w_bits=4, a_bits=4, wa_method="mxfp4"),
    dict(kv_bits=4, kv_method="per_token"),
    dict(kv_bits=4, kv_method="rotated_per_token"),
    dict(kv_bits=4, kv_method="kvquant_star"),
]


class TestPlan:
    def test_bits_string_round_trip(self):
        p = QuantPlan(w_bits=4, a_bits=8, kv_bits=3, wa_method="smoothquant")
        assert p.bits_string() == "4-8-3"
        assert QuantPlan.from_bits_string(
            "4-8-3", wa_method="smoothquant").bits_string() == "4-8-3"

    def test_bad_bits_string(self):
        with pytest.raises(ValueError):
            QuantPlan.from_bits_string("4-8")
        with pytest.raises(ValueError):
            QuantPlan.from_bits_string("a-b-c")

    def test_activation_bits_need_wa_method(self):
        with pytest.raises(ValueError):
            QuantPlan(w_bits=4, a_bits=4, wa_method="none")

    def test_mxfp4_pins_widths(self):
        with pytest.raises(ValueError):
            QuantPlan(w_bits=8, a_bits=4, wa_method="mxfp4")
        QuantPlan(w_bits=4, a_bits=4, wa_method="mxfp4")  # ok

    def test_unknown_methods_rejected(self):
        with pytest.raises(ValueError):
            QuantPlan(w_method="magic")
        with pytest.raises(ValueError):
            QuantPlan(wa_method="magic")
        with pytest.raises(ValueError):
            QuantPlan(kv_method="magic")

    @pytest.mark.parametrize("w_method", ["gptq", "awq"])
    @pytest.mark.parametrize("wa_method", ["smoothquant", "rotate", "flatquant",
                                           "mxfp4"])
    def test_w_method_a_wa_method_ignores_rejected(self, wa_method, w_method):
        """GPTQ quantizes the weight in a map's basis, so it runs under
        rotate, SmoothQuant and FlatQuant. AWQ is an input map itself, and
        MXFP4 a fixed pair of codecs: a weight method either would ignore is
        rejected rather than mislabel the run."""
        plan = dict(w_bits=4, a_bits=4, wa_method=wa_method, w_method=w_method)
        if w_method == "awq" or wa_method == "mxfp4":
            with pytest.raises(ValueError, match="cannot run under"):
                QuantPlan(**plan)
        else:
            assert QuantPlan(**plan).needs_calibration
        QuantPlan(w_bits=4, a_bits=4, wa_method=wa_method)  # rtn, the default

    @pytest.mark.parametrize("field, value", [
        ("k_stage", "mid"), ("k_stage", "pre_bias"), ("k_bias_mode", "sometimes"),
        ("k_bias_mode", "pre_rope")])
    def test_k_stage_and_bias_mode_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            QuantPlan(kv_bits=4, kv_method="kvquant_star", **{field: value})
        with pytest.raises(ValueError, match=field):  # not only for static K
            QuantPlan(**{field: value})

    @pytest.mark.parametrize("kv_method", ["per_token", "rotated_per_token"])
    @pytest.mark.parametrize("field, value", [
        ("k_stage", kvquant.POST_ROPE), ("k_bias_mode", kvquant.POST_BIAS)])
    def test_k_stage_and_bias_mode_need_static_k(self, kv_method, field, value):
        """Only kvquant_star reads them; elsewhere a non-default value would
        only mislabel the run."""
        with pytest.raises(ValueError, match="'kvquant_star' only"):
            QuantPlan(kv_bits=4, kv_method=kv_method, **{field: value})
        QuantPlan(kv_bits=4, kv_method="kvquant_star", **{field: value})
        QuantPlan(kv_bits=4, kv_method=kv_method)  # the defaults

    @pytest.mark.parametrize("field, value", [
        ("w_bits", 32), ("w_bits", 1), ("a_bits", 0), ("a_bits", 9), ("kv_bits", 17),
        ("kv_bits", -4), ("group_size", 0), ("group_size", -128)])
    def test_widths_no_quantizer_takes_rejected(self, field, value):
        with pytest.raises(ValueError):
            QuantPlan(wa_method="rotate", kv_method="rotated_per_token",
                      **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("w_bits", 4.0), ("group_size", True), ("include_lm_head", 1),
        ("smooth_alpha", False), ("awq_grid_step", "0.05"), ("rotation_seed", None)])
    def test_field_types_checked(self, field, value):
        with pytest.raises(TypeError, match=rf"^QuantPlan\.{field} must be "):
            QuantPlan(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("awq_grid_step", 0.0), ("awq_grid_step", -0.1), ("awq_grid_step", 1.5),
        ("awq_grid_step", float("inf")), ("awq_grid_step", float("nan")),
        ("flat_steps", -1), ("smooth_alpha", 7.0), ("smooth_alpha", -3.0),
        ("smooth_alpha", 1.01), ("smooth_alpha", float("nan"))])
    def test_tuning_values_no_method_uses_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            QuantPlan(**{field: value})

    def test_tuning_range_ends_accepted(self):
        QuantPlan(awq_grid_step=1.0, flat_steps=0, smooth_alpha=0.0)
        QuantPlan(awq_grid_step=1e-9, smooth_alpha=1.0)

    def test_dict_round_trip(self):
        p = QuantPlan(w_bits=4, kv_bits=4, kv_method="kvquant_star")
        assert QuantPlan.from_dict(p.to_dict()) == p

    def test_passthrough_and_calibration_flags(self):
        assert QuantPlan().passthrough
        assert not QuantPlan(w_bits=4).passthrough
        assert QuantPlan(w_bits=4, w_method="gptq").needs_calibration
        assert not QuantPlan(w_bits=4, w_method="rtn").needs_calibration


class TestForward:
    def test_sentinel_bit_exact(self, small_model):
        toks = probe(16)
        ref = forward_reference(small_model, toks)
        q = forward_quantized(small_model, toks, QuantPlan())
        assert np.array_equal(ref, q)

    @pytest.mark.parametrize("plan", [QuantPlan(), QuantPlan(wa_method="rotate")])
    def test_passthrough_runtime_is_the_reference(self, small_model, plan):
        """A 16-16-16 plan's runtime is empty: its session computes the
        reference logits byte for byte."""
        toks = probe(40)
        rt = prepare_runtime(small_model, plan)
        assert rt.linears == {}
        got = Session(small_model, runtime=rt).forward(toks)
        assert got.tobytes() == forward_reference(small_model, toks).tobytes()

    def test_missing_calibration(self, small_model):
        with pytest.raises(MissingCalibration):
            prepare_runtime(small_model, QuantPlan(w_bits=4, w_method="gptq"))

    def test_weight_bits_error_ordering(self, small_model):
        toks = probe(64)
        ref = forward_reference(small_model, toks)
        mse = {}
        for b in (3, 4, 8):
            q = forward_quantized(small_model, toks, QuantPlan(w_bits=b))
            mse[b] = float(np.mean((q - ref) ** 2))
        assert mse[3] >= mse[4] >= mse[8] > 0.0

    def test_position_zero_independent_of_kv_bits(self, small_model):
        """The current token attends with its fresh K/V row, so the first
        logits row never sees quantized cache entries."""
        toks = probe(8)
        ref = forward_reference(small_model, toks)
        for bits in (3, 8):
            q = forward_quantized(small_model, toks, QuantPlan(kv_bits=bits))
            assert np.array_equal(q[0], ref[0])
            assert not np.array_equal(q[1:], ref[1:])

    def test_causality_preserved_under_quantization(self, small_model):
        plan = QuantPlan(w_bits=4, kv_bits=4)
        rt = prepare_runtime(small_model, plan)
        a = forward_quantized(small_model, [0, 5, 9, 2], plan, runtime=rt)
        b = forward_quantized(small_model, [0, 5, 9, 7], plan, runtime=rt)
        assert np.allclose(a[:3], b[:3])

    @pytest.mark.parametrize("plan_kwargs", PLAN_FAMILIES)
    def test_every_method_runs_and_stays_close(self, small_model, calib_seqs,
                                               plan_kwargs):
        toks = probe(12)
        ref = forward_reference(small_model, toks)
        q = forward_quantized(small_model, toks, QuantPlan(**plan_kwargs),
                              calib_sequences=calib_seqs)
        assert np.all(np.isfinite(q))
        assert np.max(np.abs(q - ref)) < 0.5 * np.max(np.abs(ref)) + 5.0

    @pytest.mark.parametrize("plan_kwargs", [dict()] + PLAN_FAMILIES)
    def test_step_forward_and_chunks_agree(self, calib_seqs, plan_kwargs):
        """Token-by-token steps, one forward call, and uneven chunks, one
        longer than a block, run one path on differently shaped blocks."""
        model = init_model(replace(SMALL, max_seq_len=BLOCK + 18), make_rng(0))
        rt = prepare_runtime(model, QuantPlan(**plan_kwargs), calib_seqs)
        toks = probe(BLOCK + 18)
        whole = Session(model, runtime=rt).forward(toks)
        sess = Session(model, runtime=rt)
        stepped = np.stack([sess.step(t) for t in toks])
        sess = Session(model, runtime=rt)
        cuts = np.cumsum([0, 5, BLOCK + 8, 1, 4])
        chunked = np.concatenate([sess.forward(toks[a:b])
                                  for a, b in zip(cuts, cuts[1:])])
        for other in (stepped, chunked):
            assert np.max(np.abs(other - whole)) <= 1e-12
            assert np.array_equal(np.argmax(other, axis=1),
                                  np.argmax(whole, axis=1))

    @pytest.mark.parametrize("plan_kwargs", [dict()] + PLAN_FAMILIES)
    @pytest.mark.parametrize("context, n", [(SMALL.max_seq_len, SMALL.max_seq_len),
                                            (16384, 80)])
    def test_batched_rows_agree_with_one_row_sessions(self, calib_seqs, plan_kwargs,
                                                      context, n):
        """Rows of ``n`` tokens fed side by side, then stepped after one row
        leaves the batch, read their own positions and caches: each agrees
        with its own one-row session as token-by-token steps do. With the
        long context the batch's cache would fill huge pages, so it starts
        empty and grows, n - 10 = 70 positions for the prompts (more than
        one block; a BLOCK past 70 would leave room BLOCK, not 140), then
        twice that once the steps pass them."""
        model = init_model(replace(SMALL, max_seq_len=context), make_rng(0))
        rt = prepare_runtime(model, QuantPlan(**plan_kwargs), calib_seqs)
        fed = n - 10  # then 10 steps
        room = min(context, 2 * fed)
        toks = np.array([probe(n, seed=s) for s in (2, 3, 4)])
        batch = Session(model, runtime=rt, rows=3)
        logits = batch.forward(toks[:, :fed])
        batch.keep([2, 0])
        stepped = np.stack([batch.step(toks[[2, 0], t]) for t in range(fed, n)], axis=1)
        assert logits.shape == (3, fed, SMALL.vocab_size)
        assert stepped.shape == (2, 10, SMALL.vocab_size)
        assert batch.k_cache.shape == (1, 2, 2, room, 8)
        for r, got in [(0, logits[0]), (1, logits[1]), (2, logits[2]),
                       (2, stepped[0]), (0, stepped[1])]:
            want = Session(model, runtime=rt).forward(toks[r])
            want = want[:fed] if len(got) == fed else want[fed:]
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))

    def test_session_rejects_a_wrong_row_count(self, small_model):
        with pytest.raises(ShapeMismatch):
            Session(small_model, rows=2).forward([0, 1])
        with pytest.raises(ShapeMismatch):
            Session(small_model, rows=2).step([0, 1, 2])

    def test_mxfp4_linear_blocks_each_row(self):
        """With 48 input features a flat 32-block would straddle rows; each
        row, of weights and of inputs, is blocked on its own."""
        rng = make_rng(3)
        w = rng.standard_normal((8, 48))
        lin = PlainLinear(MXFP4.apply(w), None, act=MXFP4)
        x = rng.standard_normal((5, 48))
        by_row = np.concatenate([lin.pre_bias(x[r : r + 1]) for r in range(5)])
        assert np.array_equal(lin.pre_bias(x), by_row)
        for r in range(8):
            assert np.array_equal(lin.w[r], MXFP4.apply(w[r : r + 1])[0])

    @pytest.mark.parametrize("include_lm_head", [False, True])
    def test_mxfp4_runs_both_prepare_stages(self, small_model, include_lm_head):
        """An MXFP4 linear has no input map, its weight through the codec,
        no codes, and the codec as its activation quantizer."""
        rt = prepare_runtime(small_model, QuantPlan(
            w_bits=4, a_bits=4, wa_method="mxfp4", include_lm_head=include_lm_head))
        assert len(rt.linears) == len(_weight_linear_names(small_model, include_lm_head))
        for name, lin in rt.linears.items():
            assert type(lin) is Mxfp4Linear
            assert lin.map is None and lin.act is MXFP4 and lin.params is None
            want = mxfp4_fake_quant(small_model.tensors[name].astype(np.float64))
            assert lin.w.tobytes() == want.tobytes()

    def test_flat_linear_is_the_trained_transform(self, small_model, calib_seqs):
        """Training scores the linears the runtime runs: at each site, the
        squared residual of ``site_pre_bias`` over the site's linears is the
        last objective ``flat_train`` recorded, byte for byte."""
        plan = QuantPlan(w_bits=4, a_bits=4, wa_method="flatquant", flat_steps=2)
        rt = prepare_runtime(small_model, plan, calib_seqs)
        rec = capture_activations(small_model, calib_seqs)
        spec_w = QuantSpec(bits=4, symmetric=True, granularity=PER_CHANNEL, axis=0)
        spec_a = default_weight_spec(4, plan.group_size)
        sites = {}
        for name in rt.linears:
            sites.setdefault(linear_input_site(name), []).append(name)
        for site, names in sites.items():
            lins = [rt.linears[n] for n in names]
            t = lins[0].t
            assert type(lins[0]) is FlatLinear and all(lin.t is t for lin in lins)
            assert len(t.objective_trace) > 1, site
            x = rec.matrix(site)
            ws = np.concatenate([small_model.tensors[n] for n in names]).astype(np.float64)
            r = x @ ws.T - np.concatenate(site_pre_bias(lins, x), axis=1)
            got = float(np.sum(np.square(r)))
            assert got == flat_objective(ws, x, t, spec_w, spec_a, y_ref=x @ ws.T), site
            assert got == t.objective_trace[-1], site

    @pytest.mark.parametrize("plan", [
        QuantPlan(w_bits=4, w_method="awq", awq_grid_step=0.25),
        QuantPlan(w_bits=8, a_bits=8, wa_method="smoothquant"),
    ])
    def test_prepare_leaves_model_untouched(self, calib_seqs, plan):
        model = init_model(SMALL, make_rng(0))
        tensors = {n: t.copy() for n, t in model.tensors.items()}
        rt = prepare_runtime(model, plan, calib_seqs)
        assert model.tensors.keys() == tensors.keys()
        for name, t in tensors.items():
            assert np.array_equal(model.tensors[name], t)
        assert all(lin.map is not None for lin in rt.linears.values())

    def test_static_k_handles_injected_bias(self, calib_seqs):
        """Pre-bias per-channel K quantization keeps the huge bias channel
        out of the fitted range; logit error stays below the per-token
        post-bias path on a bias-dominated model."""
        model = init_model(SMALL, make_rng(0), k_bias_outlier=(0, 3, 400.0))
        toks = probe(48)
        ref = forward_reference(model, toks)
        star = forward_quantized(
            model, toks,
            QuantPlan(kv_bits=3, kv_method="kvquant_star",
                      k_bias_mode="pre_bias"),
            calib_sequences=calib_seqs)
        tok = forward_quantized(model, toks,
                                QuantPlan(kv_bits=3, kv_method="per_token"))
        assert np.mean((star - ref) ** 2) < np.mean((tok - ref) ** 2)

    def test_static_k_grid_fitted_once(self, calib_seqs, monkeypatch):
        """The static-K grid is fitted once per layer when the runtime is
        prepared; writing K to the cache fits nothing."""
        model = init_model(SMALL, make_rng(0), k_bias_outlier=(0, 3, 400.0))
        fits = []
        fit = kvquant.fit_asymmetric
        monkeypatch.setattr(kvquant, "fit_asymmetric",
                            lambda *a: fits.append(a) or fit(*a))
        rt = prepare_runtime(model, QuantPlan(kv_bits=4, kv_method="kvquant_star"),
                             calib_seqs)
        assert len(fits) == SMALL.n_layers
        del fits[:]
        Session(model, runtime=rt).forward(probe(40))
        assert fits == []

    def test_runtime_reuse_matches_fresh(self, small_model, calib_seqs):
        plan = QuantPlan(w_bits=4, w_method="gptq")
        rt = prepare_runtime(small_model, plan, calib_seqs)
        toks = probe(8)
        a = forward_quantized(small_model, toks, plan, runtime=rt)
        b = forward_quantized(small_model, toks, plan,
                              calib_sequences=calib_seqs)
        assert np.array_equal(a, b)

    def test_linear_input_site_mapping(self):
        assert linear_input_site("layers.0.wq") == "layer0.attn_in"
        assert linear_input_site("layers.1.w_down") == "layer1.mlp_down_in"
        assert linear_input_site("lm_head") == "lm_head_in"
        assert linear_input_site("layers.0.norm1") is None

    @pytest.mark.parametrize("cfg", [ToyConfig(), ToyConfig(qkv_bias=False, ffn_mult=4)],
                             ids=["default", "no-qkv-bias"])
    def test_layout_matches_a_recorded_forward(self, cfg):
        """The sites one recorded forward produces are those known_sites
        lists; each linear's input site was recorded as wide as its weight's
        input; no other tensor has an input site."""
        model = init_model(cfg, make_rng(0))
        rec = capture_activations(model, [[0, 5]])
        assert sorted(rec.rows) == sorted(known_sites(model))
        for include_lm_head in (False, True):
            names = _weight_linear_names(model, include_lm_head)
            assert ("lm_head" in names) == include_lm_head
            for name in names:
                assert rec.matrix(linear_input_site(name)).shape == (
                    2, model.tensors[name].shape[1])
        others = set(model.tensors) - set(_weight_linear_names(model, True))
        assert others and all(linear_input_site(n) is None for n in others)

    def test_capture_activations_shapes(self, small_model, calib_seqs):
        rec = capture_activations(small_model, calib_seqs)
        x = rec.matrix("layer0.attn_in")
        assert x.shape == (sum(len(s) for s in calib_seqs), SMALL.d_model)
        with pytest.raises(MissingCalibration):
            rec.matrix("nowhere")

    def test_capture_positions_are_each_sequence_from_0(self):
        """Sequences of 3, BLOCK + 8 and 2 * BLOCK tokens, two crossing the
        first block's end: every site's rows are at each sequence's
        positions in turn."""
        model = init_model(replace(SMALL, max_seq_len=2 * BLOCK), make_rng(0))
        lengths = (3, BLOCK + 8, 2 * BLOCK)
        rec = capture_activations(model, [probe(n, seed=n) for n in lengths])
        want = np.concatenate([np.arange(n) for n in lengths])
        for site in known_sites(model):
            assert len(rec.matrix(site)) == len(want)
            assert np.array_equal(rec.positions, want)

    def test_capture_of_no_sequences(self, small_model):
        """No sequences capture nothing: asking for rows is MissingCalibration."""
        rec = capture_activations(small_model, [])
        assert rec.positions.size == 0
        with pytest.raises(MissingCalibration):
            rec.matrix("layer0.attn_in")

    def test_recorder_gets_the_rows_of_every_session_row(self, small_model):
        """A two-row session records each block's rows, row b's position t
        at b * n + t, as the rows' own one-row forwards record them."""
        seqs = [[0, 5, 6], [0, 7, 8]]
        rec = ActivationRecorder(["layer0.attn_in"])
        Session(small_model, recorder=rec, rows=2).forward(seqs)
        alone = capture_activations(small_model, seqs, ["layer0.attn_in"])
        assert np.allclose(rec.matrix("layer0.attn_in"),
                           alone.matrix("layer0.attn_in"), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("plan", [
        QuantPlan(w_bits=4), QuantPlan(w_bits=4, include_lm_head=True),
        QuantPlan(w_bits=4, a_bits=4, wa_method="rotate"), QuantPlan(kv_bits=4)],
        ids=["rtn", "rtn-lm-head", "rotate", "kv-only"])
    def test_session_holds_the_runtime_linears(self, small_model, plan):
        """A session runs the runtime's own linear objects, and a full-
        precision PlainLinear of the model's weight and bias for the rest."""
        rt = prepare_runtime(small_model, plan)
        sess = Session(small_model, runtime=rt)
        held = {"lm_head": sess._lm_head}
        for i, layer in enumerate(sess._layers):
            held.update({f"layers.{i}.{short}": layer[short] for short in _LAYER_LINEARS})
        assert set(rt.linears) <= set(held)
        assert len(rt.linears) == (0 if plan.w_bits == 16 else
                                   len(held) - (not plan.include_lm_head))
        for name, lin in held.items():
            if name in rt.linears:
                assert lin is rt.linears[name]
                continue
            assert type(lin) is PlainLinear
            assert np.array_equal(lin.w, small_model.tensors[name])
            b = _linear_bias(small_model.tensors, name)
            assert (lin.b is None) if b is None else np.array_equal(lin.b, b)

    @pytest.mark.parametrize("cls", [FakeQuantLinear, RotatedLinear, FlatLinear,
                                     Mxfp4Linear])
    def test_linear_classes_only_rebind_pre_bias(self, cls):
        """Each runtime linear class is PlainLinear under a traced name: its
        own ``pre_bias`` is PlainLinear's, and FlatLinear adds ``t``."""
        own = {k for k in vars(cls) if not (k.startswith("__") and k.endswith("__"))}
        assert own == ({"pre_bias", "t"} if cls is FlatLinear else {"pre_bias"})
        assert vars(cls)["pre_bias"] is PlainLinear.pre_bias

    @pytest.mark.parametrize("plan_kwargs", PLAN_FAMILIES)
    def test_maps_and_quantizers_apply_themselves(self, small_model, calib_seqs,
                                                 plan_kwargs):
        plan = QuantPlan(**plan_kwargs)
        rt = prepare_runtime(small_model, plan,
                             calib_seqs if plan.needs_calibration else None)
        for lin in rt.linears.values():
            for part in (lin.map, lin.act):
                assert part is None or callable(part.apply)


# one layer at the default width: groups of 32 and a ragged 24 split each
# 64-wide row into several groups
SITE_CFG = ToyConfig(n_layers=1, vocab_size=16, max_seq_len=64)
SITE_FAMILIES = {
    "reference": {},
    "rtn": dict(w_bits=4),
    "awq": dict(w_bits=4, w_method="awq", awq_grid_step=0.25),
    "rotate": dict(w_bits=4, a_bits=4, wa_method="rotate"),
    "smoothquant": dict(w_bits=8, a_bits=8, wa_method="smoothquant"),
    "mxfp4": dict(w_bits=4, a_bits=4, wa_method="mxfp4"),
    "flatquant": dict(w_bits=4, a_bits=4, wa_method="flatquant", flat_steps=1),
}


@pytest.fixture(scope="module")
def site_model():
    return init_model(SITE_CFG, make_rng(5))


def _site_rows(rng, n, width):
    """Gaussian rows with one outlier channel, so groups differ in range."""
    x = rng.standard_normal((n, width))
    x[:, 3] *= 40.0
    return x


def _count_fake_quant(monkeypatch) -> list:
    """Wrap quantcore.fake_quant in every quantlab module that binds it;
    returns the list each call appends its input shape to."""
    original, calls = quantcore.fake_quant, []

    def counting(x, spec):
        calls.append(np.shape(x))
        return original(x, spec)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "quantlab" and getattr(mod, "fake_quant", None) is original:
            monkeypatch.setattr(mod, "fake_quant", counting)
    return calls


class TestInputSites:
    @pytest.mark.parametrize("group_size", [128, 32, 24])
    @pytest.mark.parametrize("family", sorted(SITE_FAMILIES))
    def test_site_call_is_each_linears_pre_bias(self, site_model, family, group_size):
        """One call over a site's linears, stacked where they share a
        quantizer, gives each linear's own pre_bias byte for byte."""
        plan = QuantPlan(group_size=group_size, **SITE_FAMILIES[family])
        calib = [probe(24, vocab=SITE_CFG.vocab_size, seed=s) for s in (7, 8)]
        rt = prepare_runtime(site_model, plan, calib)
        layer = Session(site_model, runtime=rt)._layers[0]
        rng = make_rng(6)
        for site in ("attn_in", "attn_out_in", "mlp_in", "mlp_down_in"):
            linears = layer[site]
            for n in (1, 3, 32):
                x = _site_rows(rng, n, linears[0].w.shape[1])
                got = site_pre_bias(linears, x)
                want = [lin.pre_bias(x) for lin in linears]
                assert [y.tobytes() for y in got] == [y.tobytes() for y in want]

    @pytest.mark.parametrize("n", [1, 3, 32])
    @pytest.mark.parametrize("group_size", [128, 32, 24])
    @pytest.mark.parametrize("kv_method", ["per_token", "rotated_per_token"])
    def test_kv_written_stacked_is_each_round_trip(self, site_model, kv_method,
                                                   group_size, n):
        rt = prepare_runtime(site_model, QuantPlan(kv_bits=3, kv_method=kv_method,
                                                   group_size=group_size))
        spec, h, hd = rt.kv[0].spec, rt.kv[0].h, SITE_CFG.head_dim

        def alone(rows):
            if kv_method == "per_token":
                return fake_quant(rows, spec)
            rot = h.apply(rows.reshape(-1, hd)).reshape(rows.shape)
            q = fake_quant(rot, spec).reshape(-1, hd)
            return h.unapply(q).reshape(rows.shape)

        rng = make_rng(9)
        k, v = (_site_rows(rng, n, SITE_CFG.d_model) for _ in range(2))
        got = rt.kv_write(0, None, k, v, 0)
        assert [a.tobytes() for a in got] == [alone(k).tobytes(), alone(v).tobytes()]

    @pytest.mark.parametrize("mode", [kvquant.PRE_BIAS, kvquant.POST_BIAS])
    @pytest.mark.parametrize("stage", [kvquant.PRE_ROPE, kvquant.POST_ROPE])
    @pytest.mark.parametrize("qkv_bias", [True, False], ids=["qkv-bias", "no-qkv-bias"])
    def test_static_k_write_is_quantize_k(self, calib_seqs, qkv_bias, stage, mode):
        """kv_write(layer, k_pre, k, v, pos) for kvquant_star is quantize_k
        with the layer's K bias (zeros without QKV biases), calibrated grid
        and RoPE, and V per token, byte for byte."""
        cfg = replace(SMALL, qkv_bias=qkv_bias)
        model = init_model(cfg, make_rng(0),
                           k_bias_outlier=(0, 3, 40.0) if qkv_bias else None)
        rt = prepare_runtime(model, QuantPlan(kv_bits=4, kv_method="kvquant_star",
                                              k_stage=stage, k_bias_mode=mode),
                             calib_seqs)
        bias = (model.tensors["layers.0.bk"].astype(np.float64) if qkv_bias
                else np.zeros(cfg.d_model))
        rope = kvquant.RopeConfig(head_dim=cfg.head_dim, base=cfg.rope_base)
        k_cfg = rt.kv[0].k_cfg
        assert (k_cfg.k_stage, k_cfg.k_bias_mode) == (stage, mode) and k_cfg.calibrated
        rng = make_rng(4)
        for pos in (0, 5, np.array([9, 1, 30, 2])):
            k_pre, v = (rng.standard_normal((4, cfg.d_model)) for _ in range(2))
            k = kvquant.rope_heads(k_pre + bias, rope, pos)
            got = rt.kv_write(0, k_pre, k, v, pos)
            want = (kvquant.quantize_k(k_pre, bias, k_cfg, rope, pos),
                    fake_quant(v, rt.kv[0].spec))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("plan, calls", [
        (QuantPlan(w_bits=4, a_bits=4, kv_bits=4, wa_method="rotate",
                   kv_method="rotated_per_token"), 10),
        (QuantPlan(kv_bits=4), 2)], ids=["rotate-4-4-4", "per-token-16-16-4"])
    def test_fake_quant_calls_per_step(self, tiny_model, monkeypatch, plan, calls):
        """Per layer, a rotate step quantizes the attn_in, attn_out_in,
        mlp_in and mlp_down_in inputs once each and K with V once; a
        per-token KV step quantizes K with V once."""
        sess = Session(tiny_model, runtime=prepare_runtime(tiny_model, plan))
        sess.forward([0, 5, 9])
        seen = _count_fake_quant(monkeypatch)
        sess.step(7)
        assert len(seen) == calls


class TestKvWriters:
    """prepare_runtime builds one K/V writer per layer; kv_write hands each
    block to its layer's writer."""

    @staticmethod
    def _calib(model):
        return [probe(16, vocab=model.config.vocab_size, seed=s) for s in (3, 4)]

    @pytest.mark.parametrize("kv_method", quantrun.KV_METHODS)
    def test_one_writer_per_layer(self, biased_model, kv_method):
        """Each writer holds what its method reads: a Hadamard for rotated
        per-token KV, a static K grid for kvquant_star, the V spec always."""
        plan = QuantPlan(kv_bits=4, kv_method=kv_method)
        rt = prepare_runtime(biased_model, plan, self._calib(biased_model))
        assert len(rt.kv) == biased_model.config.n_layers
        for w in rt.kv:
            assert type(w) is kvquant.KvWriter
            assert w.spec == default_weight_spec(4, plan.group_size)
            assert (w.h is not None) == (kv_method == "rotated_per_token")
            assert (w.k_cfg is not None) == (kv_method == "kvquant_star")

    def test_rotated_layers_share_one_hadamard(self, tiny_model):
        rt = prepare_runtime(tiny_model, QuantPlan(kv_bits=4, kv_method="rotated_per_token"))
        h = rt.kv[0].h
        assert h.n == tiny_model.config.head_dim
        assert all(w.h is h for w in rt.kv)

    def test_static_k_writer_holds_its_layers_bias_and_grid(self, biased_model):
        """Layer i's writer holds layer i's K bias and the grid fitted on
        layer i's K samples; the outlier in layer 0 tells the layers apart."""
        calib = self._calib(biased_model)
        rt = prepare_runtime(biased_model, QuantPlan(kv_bits=4, kv_method="kvquant_star"),
                             calib)
        rec = capture_activations(biased_model, calib)
        for i, w in enumerate(rt.kv):
            bias = biased_model.tensors[f"layers.{i}.bk"].astype(np.float64)
            assert w.k_bias.tobytes() == bias.tobytes()
            want = kvquant.calibrate_k_channels(rec.matrix(f"layer{i}.k_pre_bias"),
                                                w.k_cfg)
            assert [g.tobytes() for g in w.k_cfg.k_grid] == [
                g.tobytes() for g in want.k_grid]
        (b0, g0), (b1, g1) = ((w.k_bias, w.k_cfg.k_grid[0]) for w in rt.kv)
        assert (b0[5], b1[5]) == (400.0, 0.0)
        assert g0.tobytes() != g1.tobytes()

    def test_16_bit_kv_has_no_writers(self, tiny_model):
        rt = prepare_runtime(tiny_model, QuantPlan(w_bits=4))
        assert rt.kv == []
        k, v = (np.ones((2, tiny_model.config.d_model)) for _ in range(2))
        got = rt.kv_write(0, None, k, v, 0)
        assert got[0] is k and got[1] is v


# the three methods that fit one input map per site
SITE_MAPS = {
    "rotate": dict(w_bits=4, a_bits=4, wa_method="rotate"),
    "smoothquant": dict(w_bits=8, a_bits=8, wa_method="smoothquant"),
    "flatquant": dict(w_bits=4, a_bits=4, wa_method="flatquant", flat_steps=1),
}
TWO_LAYERS = replace(SMALL, n_layers=2)


class TestSiteMaps:
    @pytest.mark.parametrize("qkv_bias", [True, False], ids=["qkv-bias", "no-qkv-bias"])
    @pytest.mark.parametrize("family", sorted(SITE_MAPS))
    def test_linears_of_a_site_hold_one_map(self, calib_seqs, family, qkv_bias):
        model = init_model(replace(TWO_LAYERS, qkv_bias=qkv_bias), make_rng(0))
        plan = QuantPlan(include_lm_head=True, **SITE_MAPS[family])
        rt = prepare_runtime(model, plan, calib_seqs)
        by_site = {}
        for name, lin in rt.linears.items():
            assert lin.map is not None
            by_site.setdefault(linear_input_site(name), []).append(lin.map)
        assert [len(maps) for maps in by_site.values()] == [3, 1, 2, 1, 3, 1, 2, 1, 1]
        for maps in by_site.values():
            assert all(m is maps[0] for m in maps)
        assert len({id(maps[0]) for maps in by_site.values()}) == len(by_site)

    @pytest.mark.parametrize("include_lm_head", [False, True], ids=["layers", "lm-head"])
    @pytest.mark.parametrize("family, fit", [
        ("rotate", "hadamard"), ("smoothquant", "smooth_fit"),
        ("flatquant", "flat_train")])
    def test_one_fit_per_site(self, calib_seqs, monkeypatch, family, fit,
                              include_lm_head):
        """One map per site, fitted on the stacked weight of its linears:
        [Wq; Wk; Wv], Wo, [W_gate; W_up], W_down per layer, then lm_head."""
        original, widths = getattr(quantrun, fit), []

        def counting(*args, **kwargs):
            w = args[1] if fit == "smooth_fit" else args[0]
            widths.append(w if fit == "hadamard" else w.shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(quantrun, fit, counting)
        plan = QuantPlan(include_lm_head=include_lm_head, **SITE_MAPS[family])
        prepare_runtime(init_model(TWO_LAYERS, make_rng(0)), plan, calib_seqs)
        d, f, v = TWO_LAYERS.d_model, TWO_LAYERS.ffn_dim, TWO_LAYERS.vocab_size
        want = ([(3 * d, d), (d, d), (2 * f, d), (d, f)] * TWO_LAYERS.n_layers
                + [(v, d)] * include_lm_head)
        assert len(widths) == 4 * TWO_LAYERS.n_layers + include_lm_head
        assert widths == ([w[1] for w in want] if fit == "hadamard" else want)

    @pytest.mark.parametrize("plan, quantizer, shapes", [
        (QuantPlan(w_bits=4, a_bits=4, kv_bits=4, wa_method="rotate",
                   kv_method="rotated_per_token"), "fake_quant",
         [(1, 64), (2, 64), (1, 64), (1, 64), (1, 128)]),
        (QuantPlan(w_bits=4, a_bits=4, wa_method="mxfp4"), "mxfp4_fake_quant",
         [(1, 64), (1, 64), (1, 64), (1, 128)])], ids=["rotate-4-4-4", "mxfp4"])
    def test_step_quantizes_each_site_once(self, tiny_model, monkeypatch, plan,
                                           quantizer, shapes):
        """Per layer, one step quantizes one row at attn_in, K with V (rotate
        with rotated KV), one row at attn_out_in, mlp_in and mlp_down_in:
        the shared map runs once, not once per linear."""
        sess = Session(tiny_model, runtime=prepare_runtime(tiny_model, plan))
        sess.forward([0, 5, 9])
        if quantizer == "fake_quant":
            seen = _count_fake_quant(monkeypatch)
        else:
            original, seen = mxfp4.mxfp4_fake_quant, []

            def counting(x):
                seen.append(x.shape)
                return original(x)

            monkeypatch.setattr(mxfp4, "mxfp4_fake_quant", counting)
        sess.step(7)
        assert seen == shapes * tiny_model.config.n_layers


SPEC_W4 = QuantSpec(bits=4, symmetric=True, granularity=PER_CHANNEL, axis=0)


def _same_codes(lin, want) -> bool:
    """``lin`` holds ``want``'s params, and its weight quantizes to
    ``want``'s codes under them."""
    got = quantize(lin.w, lin.params)
    return all(a is b or a.tobytes() == b.tobytes() for a, b in [
        (got.codes, want.codes), (lin.params.scales, want.params.scales),
        (lin.params.zero_points, want.params.zero_points)])


def _in_map_basis(model, rt, name, x, spec):
    """Linear ``name``'s weight, its site's input ``x`` and the weight spec
    in the basis of its map in ``rt``, recomputed from the model."""
    w, m = model.tensors[name].astype(np.float64), rt.linears[name].map
    if rt.plan.wa_method == "rotate":
        return m.apply(w), m.apply(x), spec
    if rt.plan.wa_method == "smoothquant":  # the scales are fitted on the site
        site = [n for n in rt.linears if linear_input_site(n) == linear_input_site(name)]
        ws = np.concatenate([model.tensors[n] for n in site]).astype(np.float64)
        w, inv_s = awq_fold(w, smooth_fit(x, ws, alpha=rt.plan.smooth_alpha))
        assert inv_s.tobytes() == m.inv.tobytes()
        return w, m.apply(x), spec
    if rt.plan.wa_method == "flatquant":
        return flat_map_weight(w, m), m.apply(x), m.specs(spec, spec)[0]
    return w, x, spec


class TestWeightQuantizer:
    """Stage 2 of the prepare loop: the plan's weight quantizer on each
    linear's weight in its site map's basis."""

    @pytest.mark.parametrize("wa_method", ["rotate", "smoothquant", "flatquant"])
    def test_gptq_under_a_map_quantizes_the_mapped_weight(self, small_model,
                                                          calib_seqs, wa_method):
        """Each linear's codes are those of GPTQ alone on its mapped weight,
        under the method's weight spec, with the Hessian of the site's
        mapped input; its proxy loss is scored in that basis."""
        plan = QuantPlan(w_bits=4, a_bits=4, wa_method=wa_method, w_method="gptq",
                         flat_steps=1)
        rt = prepare_runtime(small_model, plan, calib_seqs)
        rec = capture_activations(small_model, calib_seqs)
        for name, lin in rt.linears.items():
            w, x, spec = _in_map_basis(small_model, rt, name,
                                       rec.matrix(linear_input_site(name)), SPEC_W4)
            want = gptq_quantize(w, x.T, GptqConfig(spec=spec))
            assert _same_codes(lin, want), name
            assert lin.w.tobytes() == dequantize(want).tobytes()
            assert rt.proxy_losses[name] == dequant_loss(want, w, x.T)

    @pytest.mark.parametrize("wa_method", ["none", "rotate", "smoothquant", "flatquant"])
    def test_rtn_under_a_map_is_rtn_of_the_mapped_weight(self, small_model,
                                                         calib_seqs, wa_method):
        """A site's stacked weight, quantized once and cut into rows, gives
        each linear the codes of quantizing its mapped weight alone."""
        plan = QuantPlan(w_bits=4, a_bits=16 if wa_method == "none" else 4,
                         wa_method=wa_method, group_size=8, flat_steps=1)
        rt = prepare_runtime(small_model, plan, calib_seqs)
        rec = capture_activations(small_model, calib_seqs)
        spec = default_weight_spec(4, 8) if wa_method == "none" else SPEC_W4
        for name, lin in rt.linears.items():
            w, _, spec_w = _in_map_basis(small_model, rt, name,
                                         rec.matrix(linear_input_site(name)), spec)
            assert _same_codes(lin, rtn_quantize_weights(w, spec_w)), name

    def test_gptq_forms_one_hessian_per_site(self, calib_seqs, monkeypatch):
        """A weight-only GPTQ prepare of a 2-layer model inverts one Hessian
        per input site (4 per layer), not one per linear (7 per layer), and
        no damping retry adds an inversion."""
        original, widths = weightquant.invert_spd, []

        def counting(a):
            widths.append(a.shape[0])
            return original(a)

        monkeypatch.setattr(weightquant, "invert_spd", counting)
        model = init_model(TWO_LAYERS, make_rng(0))
        rt = prepare_runtime(model, QuantPlan(w_bits=4, w_method="gptq"), calib_seqs)
        d, f = TWO_LAYERS.d_model, TWO_LAYERS.ffn_dim
        assert widths == [d, d, d, f] * TWO_LAYERS.n_layers
        assert sorted(rt.proxy_losses) == sorted(rt.linears)


ROOM = {"w_bits": 4}  # a weight-only plan in few header bytes: room for an edit


def _plan_edit(**fields):
    """A header edit that sets plan ``fields``; it drops the plan's
    ``include_lm_head``, which the default covers, to make room."""
    def edit(h):
        del h["plan"]["include_lm_head"]
        h["plan"].update(fields)
    return edit


def _relinked(rt, changes):
    """A copy of runtime ``rt`` with the linears of ``changes`` set by name;
    a None drops one."""
    linears = {**rt.linears, **changes}
    return replace(rt, linears={n: lin for n, lin in linears.items() if lin is not None})


def _with_map(lin, in_map):
    """``lin`` with input map ``in_map``."""
    return FakeQuantLinear(lin.w, lin.b, in_map, lin.act, lin.params)


def _patch_blob(path, name, key, dtype, value) -> None:
    """Set the first element of the blob at offset ``key`` of q-tensor
    ``name`` in a TQQ1 file to ``value``, stored as ``dtype``."""
    raw = bytearray(path.read_bytes())
    header = json.loads(raw[9 : 9 + struct.unpack_from("<I", raw, 5)[0]])
    start = next(e for e in header["q_tensors"] if e["name"] == name)[key]
    data = np.array([value], dtype=dtype).tobytes()
    raw[start : start + len(data)] = data
    path.write_bytes(bytes(raw))


def _to_old_awq_layout(h) -> None:
    """Edit a TQQ1 header into the earlier AWQ layout: each linear's inverse
    scales listed in an ``aux`` manifest as ``<name>.awq_inv_scales``, not
    in its own entry."""
    h["aux"] = [{"name": f"{e['name']}.awq_inv_scales", "shape": e.pop(
        "in_scales_shape"), "offset": e.pop("in_scales_offset")} for e in h["q_tensors"]]


def _contents(model, rt=None) -> list:
    """What a loaded file holds: the config, each tensor's bytes and, for an
    AWQ runtime, its plan and each linear's arrays, by name."""
    out = [model.config, *((n, t.tobytes()) for n, t in sorted(model.tensors.items()))]
    if rt is not None:
        out += [rt.plan, *((n, None if a is None else a.tobytes())
                           for n, lin in sorted(rt.linears.items())
                           for a in (lin.w, lin.b, lin.params.scales,
                                     lin.params.zero_points, lin.map.inv))]
    return out


CHECKPOINT_PLANS = {
    "rtn-g128": dict(w_bits=4), "rtn-g32": dict(w_bits=4, group_size=32),
    "gptq": dict(w_bits=4, w_method="gptq"), "awq": dict(w_bits=4, w_method="awq"),
    "awq-lm-head": dict(w_bits=4, w_method="awq", include_lm_head=True)}
CHECKPOINT_MODELS = {"default": ToyConfig(),
                     "no-qkv-bias": ToyConfig(qkv_bias=False, ffn_mult=4)}


class TestCheckpoint:
    @staticmethod
    def _runtime(model):
        """The RTN 4-16-16 runtime in groups of 8: each linear quantized."""
        return prepare_runtime(model, QuantPlan(w_bits=4, group_size=8))

    @pytest.fixture(scope="class")
    def awq_rt(self, small_model, calib_seqs):
        return prepare_runtime(small_model, QuantPlan(
            w_bits=4, group_size=8, w_method="awq", awq_grid_step=0.25), calib_seqs)

    @pytest.mark.parametrize("model_name", CHECKPOINT_MODELS)
    @pytest.mark.parametrize("plan_name", CHECKPOINT_PLANS)
    def test_loads_as_the_saved_runtime(self, tmp_path, model_name, plan_name):
        """save -> load -> Session computes the in-memory runtime's logits
        byte for byte, and the loaded pair re-saves byte for byte."""
        cfg = CHECKPOINT_MODELS[model_name]
        model, rng = init_model(cfg, make_rng(0)), make_rng(1)
        calib = [[int(t) for t in rng.integers(0, cfg.vocab_size, 32)]
                 for _ in range(2)]
        tokens = probe(128, cfg.vocab_size)
        plan = QuantPlan(**CHECKPOINT_PLANS[plan_name])
        rt = prepare_runtime(model, plan, calib if plan.needs_calibration else None)
        p1, p2 = tmp_path / "a.tqq", tmp_path / "b.tqq"
        save_checkpoint(model, rt, p1)
        loaded, loaded_rt = load_checkpoint(p1)
        assert (loaded_rt.plan, loaded_rt.proxy_losses) == (plan, {})
        assert loaded.tensors.keys() == model.tensors.keys() - rt.linears.keys()
        got = Session(loaded, runtime=loaded_rt).forward(tokens)
        assert got.tobytes() == Session(model, runtime=rt).forward(tokens).tobytes()
        save_checkpoint(loaded, loaded_rt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("case, error, message", [
        ("not-weight-only", BadMagic, "bad plan: a checkpoint holds weight-only plans "
         "(W below 16 bits, A and KV at 16, no weight-activation method), got 4-4-16 "
         "with wa_method 'rotate'"),
        ("missing-linear", BadMagic,
         "tensor 'layers.0.wo': in full precision against the plan"),
        ("extra-linear", BadMagic, "tensor 'lm_head': quantized against the plan"),
        ("awq-without-in-scales", ShapeMismatch, "tensor 'layers.0.wq': under "
         "w_method 'awq', AWQ inverse scales must be of shape [16]"),
        ("old-awq-layout", ShapeMismatch, "tensor 'layers.0.w_down': under "
         "w_method 'awq', AWQ inverse scales must be of shape [32]"),
        ("in-scales-without-awq", ShapeMismatch, "tensor 'layers.0.wq': under "
         "w_method 'rtn', AWQ inverse scales must be absent"),
        ("scale-zero", NonPositiveScale,
         "tensor 'layers.0.wq': a scale is not a positive normal float"),
        ("scale-negative", NonPositiveScale,
         "tensor 'layers.0.wq': a scale is not a positive normal float"),
        ("scale-subnormal", NonPositiveScale,
         "tensor 'layers.0.wq': a scale is not a positive normal float"),
        ("symmetric-code-past-range", BadMagic,
         "tensor 'layers.0.w_down': a code or zero point is off the code grid"),
        ("zero-point-past-range", BadMagic,
         "tensor 'layers.0.wq': a code or zero point is off the code grid")],
        ids=["not-weight-only", "missing-linear", "extra-linear",
             "awq-without-in-scales", "old-awq-layout", "in-scales-without-awq",
             "scale-zero", "scale-negative", "scale-subnormal",
             "symmetric-code-past-range", "zero-point-past-range"])
    def test_not_a_prepared_runtime(self, small_model, awq_rt, tmp_path, case, error,
                                    message):
        """A file whose plan, quantized linears, input maps or stored values
        are not those prepare_runtime builds is a one-line error, not a
        runtime that differs from the one the file claims or that re-saves
        differently (an AWQ file of the old layout, its inverse scales in
        ``aux``, among them). The quantizer writes no scale that is not a
        positive normal float, no symmetric code of +2^(b-1) (a packed
        2^b - 1) and no zero point outside [0, 2^b - 1]."""
        model, rt = small_model, self._runtime(small_model)
        if case == "missing-linear":
            rt = _relinked(rt, {"layers.0.wo": None})
        elif case == "extra-linear":
            qt = rtn_quantize_weights(model.tensors["lm_head"].astype(np.float64),
                                      default_weight_spec(4, 8))
            rt = _relinked(rt, {"lm_head": FakeQuantLinear(dequantize(qt),
                                                           params=qt.params)})
        elif case == "awq-without-in-scales":
            rt = _relinked(awq_rt, {"layers.0.wq": _with_map(
                awq_rt.linears["layers.0.wq"], None)})
        elif case == "old-awq-layout":
            rt = awq_rt
        elif case == "in-scales-without-awq":
            rt = _relinked(rt, {"layers.0.wq": _with_map(
                rt.linears["layers.0.wq"], InputScale(np.full(SMALL.d_model, 2.0)))})
        p = tmp_path / "c.tqq"
        save_checkpoint(model, rt, p)
        if case == "not-weight-only":  # a plan save_checkpoint refuses to write
            rewrite_header(p, p, _plan_edit(a_bits=4, wa_method="rotate"))
        elif case == "old-awq-layout":
            p.write_bytes(with_header_room(p.read_bytes()))
            rewrite_header(p, p, _to_old_awq_layout)
        elif case.startswith("scale-"):
            value = {"scale-zero": 0.0, "scale-negative": -1.0,
                     "scale-subnormal": 5e-324}[case]
            _patch_blob(p, "layers.0.wq", "scales_offset", "<f8", value)
        elif case == "symmetric-code-past-range":  # packed 15, the 4-bit code +8
            rewrite_header(p, p, lambda h: h["q_tensors"][0]["spec"].update(
                symmetric=True) or h["q_tensors"][0].pop("zero_points_offset"))
            _patch_blob(p, "layers.0.w_down", "codes_offset", "u1", 0xFF)
        elif case == "zero-point-past-range":
            _patch_blob(p, "layers.0.wq", "zero_points_offset", "<i4", 16)
        with pytest.raises(error) as e:
            load_checkpoint(p)
        assert str(e.value) == message

    @pytest.mark.parametrize("call", [
        lambda model: forward_reference(model, [1, 2, 3]),
        lambda model: prepare_runtime(model, QuantPlan(w_bits=4)),
        lambda model: Session(model, runtime=prepare_runtime(model, QuantPlan(
            kv_bits=4)))], ids=["forward_reference", "prepare_runtime", "kv-only"])
    def test_loaded_model_holds_no_quantized_weight(self, small_model, tmp_path, call):
        """A loaded checkpoint's model without its runtime lacks the
        quantized weights: a call that reads one is a one-line error naming
        the tensor."""
        p = tmp_path / "c.tqq"
        save_checkpoint(small_model, self._runtime(small_model), p)
        model, _ = load_checkpoint(p)
        with pytest.raises(ShapeMismatch) as e:
            call(model)
        assert str(e.value) == ("missing tensor 'layers.0.wq': the model holds no "
                                "weight for it")

    def test_save_refuses_a_plan_no_file_holds(self, small_model, tmp_path):
        rt = prepare_runtime(small_model, QuantPlan(w_bits=4, a_bits=4, group_size=8,
                                                    wa_method="rotate"))
        with pytest.raises(ValueError, match="a checkpoint holds weight-only plans"):
            save_checkpoint(small_model, rt, tmp_path / "c.tqq")
        assert not (tmp_path / "c.tqq").exists()

    @pytest.mark.parametrize("case, error, message", [
        ("fp-undeclared", ShapeMismatch, "tensor 'bogus' is not one the config declares"),
        ("q-undeclared", ShapeMismatch, "tensor 'bogus' is not one the config declares"),
        ("fp-repeated", BadMagic, "'fp_tensors' manifest repeats tensor 'embed'"),
        ("q-repeated", BadMagic, "'q_tensors' manifest repeats tensor 'layers.0.w_gate'"),
        ("fp-and-q", BadMagic,
         "tensor 'layers.0.wq' is both a full-precision and a quantized tensor")],
        ids=["fp-undeclared", "q-undeclared", "fp-repeated", "q-repeated", "fp-and-q"])
    def test_tensor_names(self, small_model, tmp_path, case, error, message):
        """Every tensor a checkpoint holds is one the config declares, held
        once; otherwise loading is a one-line error."""
        rt, tensors = self._runtime(small_model), dict(small_model.tensors)
        if case == "fp-undeclared":
            tensors["bogus"] = np.ones((2, 8), dtype=np.float32)
        elif case == "q-undeclared":
            qt = rtn_quantize_weights(np.ones((2, 8)), default_weight_spec(4, 8))
            rt = _relinked(rt, {"bogus": FakeQuantLinear(dequantize(qt),
                                                         params=qt.params)})
        p = tmp_path / "c.tqq"
        save_checkpoint(replace(small_model, tensors=tensors), rt, p)
        edits = {
            "fp-repeated": lambda h: h["fp_tensors"][1].update(
                name=h["fp_tensors"][0]["name"]),
            "q-repeated": lambda h: h["q_tensors"][0].update(
                name=h["q_tensors"][1]["name"]),
            "fp-and-q": lambda h: next(e for e in h["fp_tensors"]
                                       if e["name"] == "layers.0.norm1").update(
                                           name="layers.0.wq")}
        if case in edits:
            rewrite_header(p, p, edits[case])
        with pytest.raises(error) as e:
            load_checkpoint(p)
        assert str(e.value) == message

    def test_round_trip_values(self, small_model, tmp_path):
        """Each loaded linear holds the saved params and bias, and as ``w``
        the saved weight, which the stored codes dequantize to, as
        prepare_runtime builds it; the model holds the other tensors."""
        rt = self._runtime(small_model)
        p = tmp_path / "c.tqq"
        save_checkpoint(small_model, rt, p)
        model2, rt2 = load_checkpoint(p)
        assert (rt2.plan, rt2.kv, rt2.proxy_losses) == (rt.plan, [], {})
        assert sorted(rt2.linears) == sorted(rt.linears)
        for name, lin in rt.linears.items():
            got = rt2.linears[name]
            assert type(got) is FakeQuantLinear and (got.map, got.act) == (None, None)
            assert got.params.scales.tobytes() == lin.params.scales.tobytes()
            assert got.params.zero_points.tobytes() == lin.params.zero_points.tobytes()
            assert got.w.tobytes() == lin.w.tobytes()
            assert np.array_equal(quantize(got.w, got.params).codes,
                                  quantize(lin.w, lin.params).codes)
            assert (got.b is None) == (lin.b is None)
            assert got.b is None or got.b.tobytes() == lin.b.tobytes()
        assert model2.tensors.keys() == small_model.tensors.keys() - rt.linears.keys()
        assert np.array_equal(model2.tensors["embed"],
                              small_model.tensors["embed"])

    def test_resave_byte_identical(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.tqq", tmp_path / "b.tqq"
        save_checkpoint(small_model, self._runtime(small_model), p1)
        save_checkpoint(*load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, small_model, tmp_path):
        p = tmp_path / "c.tqq"
        save_checkpoint(small_model, self._runtime(small_model), p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            load_checkpoint(p)

    def test_truncated(self, small_model, tmp_path):
        p = tmp_path / "c.tqq"
        save_checkpoint(small_model, self._runtime(small_model), p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(TruncatedFile) as ei:
            load_checkpoint(p)
        assert isinstance(ei.value.offset, int)

    def test_awq_inverse_scales_of_another_width(self, small_model, awq_rt,
                                                  tmp_path):
        rt = _relinked(awq_rt, {"layers.0.wq": _with_map(
            awq_rt.linears["layers.0.wq"], InputScale(np.ones(3)))})
        p = tmp_path / "c.tqq"
        save_checkpoint(small_model, rt, p)
        with pytest.raises(ShapeMismatch) as e:
            load_checkpoint(p)
        assert str(e.value) == ("tensor 'layers.0.wq': under w_method 'awq', AWQ "
                                "inverse scales must be of shape [16]")

    @pytest.mark.parametrize("aux", ["manifest", "aux-int"])
    def test_old_aux_key_is_ignored(self, small_model, awq_rt, tmp_path, aux):
        """A TQM1 and a TQQ1 file whose header still carries an ``aux`` key,
        as files of earlier versions did, a manifest or not, load with the
        same tensors and runtime as the same files without it: the readers
        ignore it like any other header key they do not know."""
        tqm, tqq = tmp_path / "m.tqm", tmp_path / "c.tqq"
        save_model(small_model, tqm)
        save_checkpoint(small_model, awq_rt, tqq)
        for p, load, tensors in ((tqm, lambda f: (load_model(f),), "tensors"),
                                 (tqq, load_checkpoint, "fp_tensors")):
            old = p.with_suffix(".old")
            old.write_bytes(with_header_room(p.read_bytes()))
            rewrite_header(old, old, lambda h: h.update(aux=1 if aux == "aux-int" else [
                {"name": "probe.scales", "shape": [4],
                 "offset": h[tensors][0]["offset"]}]))
            assert _contents(*load(old)) == _contents(*load(p))

    @pytest.fixture(scope="class")
    def roomy_checkpoint(self, small_model, awq_rt, tmp_path_factory):
        """An AWQ 4-16-16 checkpoint with room in its header, and a directory
        to write mutants to."""
        d = tmp_path_factory.mktemp("tqq1")
        save_checkpoint(small_model, awq_rt, d / "base.tqq")
        return with_header_room((d / "base.tqq").read_bytes()), d

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_loads_or_raises(self, roomy_checkpoint, data):
        """Every truncation, bit flip and header rewrite of a TQQ1 file (its
        config, ``n_layers`` up to 2^31 among them, its plan, its manifest
        entries and their specs) loads with every tensor, weight and scale
        finite or raises a QuantLabError; what loads re-saves to a file that
        loads the same tensors and runtime."""
        raw, d = roomy_checkpoint
        (d / "c.tqq").write_bytes(mutate_container(raw, data, ("fp_tensors",
                                                                "q_tensors")))
        try:
            model, rt = load_checkpoint(d / "c.tqq")
        except QuantLabError:
            return
        assert all(np.isfinite(a).all() for a in (
            *model.tensors.values(),
            *(a for lin in rt.linears.values()
              for a in (lin.w, lin.params.scales, lin.map.inv))))
        save_checkpoint(model, rt, d / "r.tqq")
        assert _contents(*load_checkpoint(d / "r.tqq")) == _contents(model, rt)

    @pytest.mark.parametrize("case, message", [
        ("fp-tensor", "tensor 'embed' holds a non-finite value"),
        ("scale", "tensor 'layers.0.wq' holds a non-finite value"),
        ("in-scales", "tensor 'layers.0.wq' holds a non-finite value"),
        ("dequantized", "tensor 'layers.0.wq': dequantized weight holds a "
                        "non-finite value")],
        ids=["fp-tensor", "scale", "in-scales", "dequantized"])
    def test_non_finite(self, small_model, awq_rt, tmp_path, case, message):
        """A stored float that is NaN or infinite, and a dequantized weight
        that overflows float64 by its scale, are each NonFiniteInput."""
        rt, tensors = self._runtime(small_model), dict(small_model.tensors)
        if case == "fp-tensor":
            tensors["embed"] = np.full_like(tensors["embed"], np.nan)
        elif case == "in-scales":
            wq = awq_rt.linears["layers.0.wq"]
            rt = _relinked(awq_rt, {"layers.0.wq": _with_map(
                wq, InputScale(np.full(SMALL.d_model, np.nan)))})
        p = tmp_path / "c.tqq"
        save_checkpoint(replace(small_model, tensors=tensors), rt, p)
        if case in ("scale", "dequantized"):  # 1e308 overflows on codes 2 steps off z
            _patch_blob(p, "layers.0.wq", "scales_offset", "<f8",
                        {"scale": -np.inf, "dequantized": 1e308}[case])
        with pytest.raises(NonFiniteInput) as e:
            load_checkpoint(p)
        assert str(e.value) == message

    @pytest.mark.parametrize("edit, error", [
        pytest.param(lambda h: h.pop("q_tensors"), BadMagic,
                     id="missing-q-tensors"),
        pytest.param(lambda h: h["config"].update(
            qkv_biaz=h["config"].pop("qkv_bias")), BadMagic,
                     id="unknown-config-key"),
        pytest.param(lambda h: h.update(config=[1]), BadMagic,
                     id="config-not-a-dict"),
        pytest.param(lambda h: h["fp_tensors"][0].update(offset=-64),
                     TruncatedFile, id="negative-fp-offset"),
        pytest.param(lambda h: h["q_tensors"][0].update(codes_offset=-64),
                     TruncatedFile, id="negative-codes-offset"),
        pytest.param(lambda h: h["q_tensors"][0].update(param_shape=[-1]),
                     ShapeMismatch, id="negative-param-dim"),
        pytest.param(lambda h: h["q_tensors"][0].pop("spec"), BadMagic,
                     id="missing-spec"),
        pytest.param(lambda h: h.update(q_tensors=None), BadMagic,
                     id="q-tensors-null"),
        pytest.param(lambda h: h.update(fp_tensors="x"), BadMagic,
                     id="fp-tensors-string"),
        pytest.param(lambda h: h["q_tensors"].__setitem__(0, 1), BadMagic,
                     id="entry-not-a-mapping"),
        # the plan shrunk to ROOM makes room for the edit
        pytest.param(lambda h: h.update(plan=ROOM) or h["fp_tensors"][0].update(
            name=[h["fp_tensors"][0]["name"]]), BadMagic,
                     id="name-not-a-string"),
        pytest.param(lambda h: h.update(plan=ROOM) or h["fp_tensors"][0].update(
            shape=[2**40, 2**40]), TruncatedFile, id="fp-count-overflow"),
        pytest.param(lambda h: h.update(plan=ROOM) or h["q_tensors"][0].update(
            shape=[2**40, 2**40]), ShapeMismatch, id="q-count-overflow"),
        pytest.param(lambda h: h["q_tensors"][0].update(shape=[512]),
                     ShapeMismatch, id="q-shape-not-a-matrix"),
        # the first q-tensor, w_down (16 x 32 in groups of 8), has grid [16, 4]
        pytest.param(lambda h: h["q_tensors"][0].update(param_shape=[16, 1]),
                     ShapeMismatch, id="param-shape-short"),
        pytest.param(lambda h: h["q_tensors"][0].update(param_shape=[1, 2]),
                     ShapeMismatch, id="param-shape-one-row"),
        pytest.param(lambda h: h["q_tensors"][0].update(param_shape=[0, 0]),
                     ShapeMismatch, id="param-shape-empty"),
        pytest.param(lambda h: h["q_tensors"][0]["spec"].update(symmetric=True),
                     ShapeMismatch, id="symmetric-with-zero-points"),
        pytest.param(lambda h: h["q_tensors"][0].pop("zero_points_offset"),
                     ShapeMismatch, id="asymmetric-without-zero-points"),
        # values QuantSpec rejects: a spec in a file is BadMagic, never a
        # bare ValueError or IndexError
        pytest.param(lambda h: h["q_tensors"][0]["spec"].update(axis=5), BadMagic,
                     id="spec-axis-5"),
        pytest.param(lambda h: h["q_tensors"][0]["spec"].update(bits=1), BadMagic,
                     id="spec-bits-1"),
        pytest.param(lambda h: h.update(plan=ROOM) or h["q_tensors"][0]["spec"].update(
            bits=16), BadMagic, id="spec-bits-16"),
        pytest.param(lambda h: h["q_tensors"][0]["spec"].update(granularity="per_x"),
                     BadMagic, id="spec-granularity-per-x"),
        # fields of the wrong type; the plan is emptied to make room
        pytest.param(lambda h: h.update(plan=ROOM) or h["q_tensors"][0]["spec"].update(
            axis=1.0), BadMagic, id="spec-axis-float"),
        pytest.param(lambda h: h.update(plan=ROOM) or h["q_tensors"][0]["spec"].update(
            axis=True), BadMagic, id="spec-axis-bool"),
        pytest.param(lambda h: h.update(plan=ROOM) or h["q_tensors"][0]["spec"].update(
            bits=4.0), BadMagic, id="spec-bits-float"),
        pytest.param(lambda h: h["q_tensors"][0]["spec"].update(symmetric="no"),
                     BadMagic, id="spec-symmetric-string"),
        pytest.param(lambda h: h.update(plan=ROOM) or h["q_tensors"][0]["spec"].update(
            group_size=8.5), BadMagic, id="spec-group-size-float"),
        pytest.param(lambda h: h.update(plan=ROOM) or h["q_tensors"][0]["spec"].update(
            clip_ratio=True), BadMagic, id="spec-clip-ratio-bool"),
        # a tensor the model needs, absent or of another shape
        pytest.param(lambda h: h.update(fp_tensors=[
            e for e in h["fp_tensors"] if e["name"] != "layers.0.norm1"]),
                     ShapeMismatch, id="fp-tensor-missing"),
        pytest.param(lambda h: next(e for e in h["fp_tensors"]
                                    if e["name"] == "embed").update(shape=[32, 8]),
                     ShapeMismatch, id="fp-tensor-reshaped"),
        # a plan QuantPlan rejects
        pytest.param(_plan_edit(w_bits="x"), BadMagic, id="plan-bits-string"),
        pytest.param(_plan_edit(w_bits=32), BadMagic, id="plan-bits-32"),
        pytest.param(_plan_edit(kv_bits=17), BadMagic, id="plan-bits-17"),
        pytest.param(_plan_edit(group_size=0), BadMagic, id="plan-group-size-0"),
        pytest.param(_plan_edit(w_method="magic"), BadMagic, id="plan-unknown-method"),
        pytest.param(_plan_edit(wa_method="rotate", w_method="awq"), BadMagic,
                     id="plan-w-method-under-wa-method"),
        pytest.param(lambda h: h["plan"].update(w_methd=h["plan"].pop("w_method")),
                     BadMagic, id="plan-unknown-key"),
        pytest.param(lambda h: h.update(plan=1), BadMagic, id="plan-not-a-mapping"),
        pytest.param(_plan_edit(k_stage="mid"), BadMagic, id="plan-bad-k-stage"),
        pytest.param(_plan_edit(k_bias_mode="no_bias"), BadMagic,
                     id="plan-bad-k-bias-mode"),
        pytest.param(_plan_edit(k_stage="post_rope"), BadMagic,
                     id="plan-k-stage-without-static-k"),
        pytest.param(_plan_edit(k_bias_mode="post_bias"), BadMagic,
                     id="plan-k-bias-mode-without-static-k"),
        pytest.param(_plan_edit(awq_grid_step=0.0), BadMagic,
                     id="plan-awq-grid-step-zero"),
        pytest.param(_plan_edit(flat_steps=-1), BadMagic, id="plan-flat-steps-negative"),
        pytest.param(_plan_edit(smooth_alpha=7.0), BadMagic, id="plan-smooth-alpha-7"),
        # a config ToyConfig rejects
        pytest.param(lambda h: h["config"].update(n_layers=0), BadMagic,
                     id="config-zero-layers"),
        pytest.param(lambda h: h["config"].update(max_seq_len=-5), BadMagic,
                     id="config-negative-max-seq-len"),
        pytest.param(lambda h: h["config"].update(rope_base=-1.0), BadMagic,
                     id="config-negative-rope-base"),
    ])
    def test_malformed_header(self, small_model, tmp_path, edit, error):
        p = tmp_path / "c.tqq"
        save_checkpoint(small_model, self._runtime(small_model), p)
        rewrite_header(p, tmp_path / "bad.tqq", edit)
        with pytest.raises(error):
            load_checkpoint(tmp_path / "bad.tqq")

    @pytest.fixture(scope="class")
    def saved(self, small_model, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "c.tqq"
        save_checkpoint(small_model, self._runtime(small_model), p)
        return p

    # any JSON value, with near-valid ones (counts as ints, floats and bools;
    # granularity names) drawn often; containers hold at most five printable
    # ASCII leaves, so the edited header fits in the old one
    scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
               | st.floats() | st.text(st.characters(min_codepoint=32,
                                                     max_codepoint=126), max_size=8))
    json_values = (
        st.sampled_from([0, 1, 2, 4, 8, 16, -1, 0.0, 1.0, 4.0, 8.5, 0.7, True,
                         False, "no", "per_tensor", "per_channel", "per_token",
                         "per_group"])
        | scalars | st.text(max_size=8)
        | st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text("abc", max_size=4), inner, max_size=3),
                       max_leaves=5))

    @pytest.mark.parametrize("field", ["bits", "symmetric", "granularity", "axis",
                                       "group_size", "clip_ratio"])
    @given(value=json_values)
    @settings(max_examples=100, deadline=None)
    def test_spec_field_fuzz(self, saved, field, value):
        """A spec field holding any JSON value loads or is a QuantLabError."""
        bad = saved.with_name("bad.tqq")
        for i in range(2):
            rewrite_header(saved, bad, lambda h: h.update(plan=ROOM)
                           or h["q_tensors"][i]["spec"].update({field: value}))
            try:
                load_checkpoint(bad)
            except QuantLabError:
                pass
