"""End-to-end acceptance suite. Each test prints one PASS/FAIL line with
its runtime and enforces a wall-clock budget."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from quantlab.errors import BadMagic, TruncatedFile
from quantlab.harness import ExperimentConfig, LengthControl, run_drift
from quantlab.harness import generate_with_length_control
from quantlab.kvquant import (
    KvQuantStarConfig,
    RopeConfig,
    calibrate_k_channels,
    default_kv_k_channel_spec,
    quantize_k,
    rope_apply,
)
from quantlab.mxfp4 import (
    BLOCK_SIZE,
    E2M1_VALUES,
    _pack,
    _unpack,
    decode_array,
    encode_array,
)
from quantlab.numerics import hadamard
from quantlab.quantcore import (
    PER_CHANNEL,
    PER_GROUP,
    PER_TENSOR,
    PER_TOKEN,
    QuantSpec,
    dequantize,
    fake_quant,
    fit_params,
    quantize,
)
from quantlab.quantrun import QuantPlan, forward_quantized, prepare_runtime
from quantlab.rng import make_rng
from quantlab.toymodel import ToyConfig, forward_reference, init_model, softmax
from quantlab.transforms import flat_train
from quantlab.weightquant import (
    GptqConfig,
    awq_fold,
    awq_search,
    default_weight_spec,
    gptq_quantize,
    rtn_quantize_weights,
)
from quantlab.checkpoint import load_checkpoint, load_model, save_checkpoint, save_model

from oracles import brute_force_optimal, dequant_loss, expand


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"{name}: {dt:.2f}s exceeds {budget_s}s budget"
    print(f"PASS: {name} ({dt:.2f}s)")


def _check_round_trip(x, spec):
    """Error bound s/2 + 1e-6 on every element and exact idempotence."""
    once = fake_quant(x, spec)
    s, _ = expand(fit_params(x, spec))
    assert np.all(np.abs(once - x) <= s / 2 + 1e-6)
    assert np.array_equal(fake_quant(once, spec), once)


def test_criterion_1_quant_round_trip():
    with criterion("1 quantization round-trip (1e5 groups, idempotence)", 10):
        rng = make_rng(0)
        n_groups = 0
        for bits in (3, 4, 8):
            x = rng.standard_normal((700, 800)) * 10.0
            spec = QuantSpec(bits=bits, symmetric=False, granularity=PER_GROUP,
                             axis=1, group_size=16)
            _check_round_trip(x, spec)
            n_groups += x.shape[0] * (x.shape[1] // 16)
        assert n_groups >= 10**5
        # remaining granularities, both symmetries
        y = rng.standard_normal((64, 96)) * 5.0
        for gran, kwargs in ((PER_TENSOR, {}), (PER_TOKEN, {}),
                             (PER_CHANNEL, {"axis": 0}),
                             (PER_CHANNEL, {"axis": 1}),
                             (PER_GROUP, {"axis": 0, "group_size": 16})):
            for sym in (False, True):
                for bits in (3, 4, 8):
                    _check_round_trip(y, QuantSpec(bits=bits, symmetric=sym,
                                                   granularity=gran, **kwargs))


def test_criterion_2_hadamard():
    with criterion("2 Hadamard orthogonality and invariance", 5):
        rng = make_rng(1)
        for k in range(11):  # n = 1, 2, 4, ..., 1024
            n = 2**k
            h = hadamard(n, rng)
            err = np.max(np.abs(h.matrix @ h.matrix.T - np.eye(n)))
            assert err <= 1e-10, f"n={n}: orthogonality error {err}"
            x = rng.standard_normal((4, n))
            w = rng.standard_normal((3, n))
            ref = x @ w.T
            got = (x @ h.matrix) @ (h.matrix.T @ w.T)
            rel = np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)
            assert rel <= 1e-11, f"n={n}: invariance error {rel}"


def test_criterion_3_gptq_oracle():
    with criterion("3 GPTQ within 1.1x of exhaustive optimum", 30):
        spec = default_weight_spec(2, 4)
        worst = 0.0
        for seed in range(50):
            rng = make_rng(seed)
            w = rng.standard_normal((2, 4))
            # correlated calibration with a near-diagonal Gram matrix:
            # enough structure for error compensation to matter, benign
            # enough that greedy column elimination stays near the optimum
            g = rng.standard_normal((4, 1024))
            r = rng.standard_normal((4, 4)) / 2
            x = (np.eye(4) + 0.03 * r) @ g
            g_loss = dequant_loss(gptq_quantize(w, x, GptqConfig(spec=spec)),
                                  w, x)
            _, opt = brute_force_optimal(w, x, spec)
            if opt > 0:
                worst = max(worst, g_loss / opt)
            else:
                assert g_loss <= 1e-12
        assert worst <= 1.1, f"worst GPTQ/optimum ratio {worst}"
        # diagonal Hessian: GPTQ must reduce exactly to RTN
        for seed in range(10):
            rng = make_rng(100 + seed)
            w = rng.standard_normal((3, 8))
            x = np.tile(np.eye(8) * (1.0 + seed), 4)
            qt = gptq_quantize(w, x, GptqConfig(spec=default_weight_spec(2, 4)))
            rtn = rtn_quantize_weights(w, default_weight_spec(2, 4))
            assert np.array_equal(qt.codes, rtn.codes)


def test_criterion_4_awq_dominance():
    with criterion("4 AWQ never loses to RTN (100 instances)", 60):
        spec = default_weight_spec(4, 8)
        for seed in range(100):
            rng = make_rng(seed)
            w = rng.standard_normal((4, 8))
            x = rng.standard_normal((8, 32))
            if seed % 3 == 0:
                x[seed % 8] *= 50.0  # activation outlier channel
            res = awq_search(w, x, spec, grid_step=0.25)
            rtn_loss = dequant_loss(rtn_quantize_weights(w, spec), w, x)
            assert res.proxy_loss <= rtn_loss + 1e-9
            # folding identity
            w_scaled, inv_s = awq_fold(w, res.scales)
            ref = x.T @ w.T
            got = (x.T * inv_s[np.newaxis, :]) @ w_scaled.T
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_criterion_5_mxfp4_codec():
    with criterion("5 MXFP4 codec (table, optimality, bijection)", 10):
        # exhaustive code-table round-trip over every scale exponent, through
        # the array codec the MXT4 container runs
        all_codes = np.arange(16, dtype=np.uint8)
        canonical = np.where(all_codes == 8, 0, all_codes)  # -0 -> +0
        block = np.concatenate([all_codes, np.zeros(16, dtype=np.uint8)])
        for exp in range(255):
            vals = decode_array(np.array([exp]), block[None, :])
            back_exps, back_codes = encode_array(vals)
            assert back_exps[0] == exp
            assert np.array_equal(back_codes[0, :16], canonical)
        # nearest-value optimality on 1e5 random blocks
        rng = make_rng(2)
        n = 10**5
        x = rng.standard_normal((n, BLOCK_SIZE))
        x *= np.exp2(rng.integers(-8, 9, size=(n, 1)).astype(float))
        exps, codes = encode_array(x)
        got_err = np.abs(decode_array(exps, codes) - x)
        scale = np.exp2((exps - 127).astype(np.float64))[:, None]
        grid = np.concatenate([E2M1_VALUES, -E2M1_VALUES[1:]])
        best = np.min(np.abs(x[:, :, None] - scale[:, :, None] * grid), axis=2)
        assert np.all(got_err <= best + 1e-12)
        # bijective 17-byte serialization both directions, on 200 random
        # blocks and 200 random byte rows
        exps = rng.integers(0, 255, 200)
        codes = rng.integers(0, 16, (200, BLOCK_SIZE)).astype(np.uint8)
        raw = _pack(exps, codes)
        assert raw.shape == (200, 17)
        back_exps, back_codes = _unpack(raw)
        assert np.array_equal(back_exps, exps)
        assert np.array_equal(back_codes, codes)
        raw = rng.integers(0, 256, (200, 17)).astype(np.uint8)
        raw[:, 0] = rng.integers(0, 255, 200)
        assert np.array_equal(_pack(*_unpack(raw)), raw)


def test_criterion_6_pre_bias_k_quant():
    with criterion("6 pre-bias K beats per-token post-bias (10 heads)", 60):
        head_dim, n_pos, bits = 32, 64, 4
        rope = RopeConfig(head_dim=head_dim)
        wins = 0
        for seed in range(10):
            rng = make_rng(seed)
            k_raw = rng.standard_normal((n_pos, head_dim))
            v = rng.standard_normal((n_pos, head_dim))
            q = rng.standard_normal(head_dim)
            bias = np.zeros(head_dim)
            bias[5] = 400.0
            exact_k = rope_apply(k_raw + bias[None, :], rope)

            # static per-channel, quantized before bias and RoPE; the
            # reconstruction adds the exact bias and applies RoPE
            cfg = KvQuantStarConfig(
                k_spec=default_kv_k_channel_spec(bits),
                k_stage="pre_rope", k_bias_mode="pre_bias")
            cfg = calibrate_k_channels(k_raw, cfg)
            k_pre = quantize_k(k_raw, bias, cfg, rope)  # adds the full-precision bias

            # dynamic per-token, quantized after the bias is added
            post = rope_apply(k_raw + bias[None, :], rope)
            spec_tok = QuantSpec(bits=bits, symmetric=False,
                                 granularity=PER_TOKEN)
            k_post = dequantize(quantize(post, fit_params(post, spec_tok)))

            def attn_out(k_ctx):
                p = softmax((k_ctx @ q) / np.sqrt(head_dim))
                return p @ v

            ref = attn_out(exact_k)
            mse_pre = np.mean((attn_out(k_pre) - ref) ** 2)
            mse_post = np.mean((attn_out(k_post) - ref) ** 2)
            wins += mse_pre < mse_post
        assert wins == 10, f"pre-bias won only {wins}/10 heads"


def test_criterion_7_drift_ordering():
    with criterion("7 drift ordering on 512-token probe", 120):
        model = init_model(ToyConfig(max_seq_len=600), make_rng(0))
        probe = [int(t) for t in
                 make_rng(1).integers(0, model.config.vocab_size, size=512)]

        def final_dis(plan):
            cfg = ExperimentConfig(plan=plan, probe_tokens=probe)
            return run_drift(model, cfg).final_disagreement

        kv = {b: final_dis(QuantPlan(kv_bits=b)) for b in (3, 4, 8)}
        assert kv[3] >= kv[4] >= kv[8], f"KV ordering violated: {kv}"
        w = {b: final_dis(QuantPlan(w_bits=b, w_method="rtn"))
             for b in (3, 4, 8)}
        assert w[3] >= w[4] >= w[8], f"W ordering violated: {w}"


def test_criterion_8_flatquant():
    with criterion("8 FlatQuant-lite monotone and beats identity", 120):
        spec_w = QuantSpec(bits=4, symmetric=True, granularity=PER_CHANNEL,
                           axis=0)
        spec_a = QuantSpec(bits=4, symmetric=False, granularity=PER_GROUP,
                           axis=1, group_size=128)
        for seed in range(3):
            rng = make_rng(seed)
            w = rng.standard_normal((8, 16))
            x = rng.standard_normal((64, 16))
            t = flat_train(w, x, spec_w, spec_a, steps=12)
            trace = np.asarray(t.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)
            assert trace[-1] <= trace[0]
        # synthetic x100-outlier layer: the transform must cut the
        # identity-transform objective by more than 10%
        rng = make_rng(10)
        w = rng.standard_normal((16, 64))
        x = rng.standard_normal((128, 64))
        x[:, 7] *= 100.0
        t = flat_train(w, x, spec_w, spec_a, steps=24)
        trace = np.asarray(t.objective_trace)
        assert trace[-1] < 0.9 * trace[0], \
            f"outlier layer ratio {trace[-1] / trace[0]:.3f}"


def test_criterion_9_sentinel_bit_exact():
    with criterion("9 16-16-16 plan is bit-exact", 10):
        model = init_model(ToyConfig(), make_rng(0))
        plan = QuantPlan()
        for seed in range(10):
            rng = make_rng(seed)
            toks = [int(t) for t in
                    rng.integers(0, model.config.vocab_size, size=16)]
            ref = forward_reference(model, toks)
            q = forward_quantized(model, toks, plan)
            assert np.array_equal(ref, q)


def test_criterion_10_length_control():
    with criterion("10 suppression cap and promotion floor", 120):
        model = init_model(ToyConfig(), make_rng(0))
        plan = QuantPlan()
        # suppression cap: hard guarantee over 200 seeded runs
        lc = LengthControl(mode="suppress", budget=16)
        for seed in range(200):
            _, think, _ = generate_with_length_control(
                model, [0], plan, lc, make_rng(seed))
            assert think <= 16, f"seed {seed}: cap broken ({think})"
        # promotion floor: thinking >= min(budget, context room), plus
        # non-decreasing mean thinking across budgets
        room = model.config.max_seq_len - 1
        means = []
        for budget in (8, 16, 32, 64):
            lc = LengthControl(mode="promote", budget=budget,
                               max_waits=10**9)
            lengths = []
            for seed in range(50):
                _, think, _ = generate_with_length_control(
                    model, [0], plan, lc, make_rng(seed))
                assert think >= min(budget, room), \
                    f"budget {budget} seed {seed}: floor broken ({think})"
                lengths.append(think)
            means.append(float(np.mean(lengths)))
        assert all(b >= a for a, b in zip(means, means[1:])), \
            f"mean thinking not monotone: {means}"


def test_criterion_11_serialization(tmp_path):
    with criterion("11 byte-identical save/load and corruption errors", 5):
        cfg = ToyConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8,
                        vocab_size=16, max_seq_len=64)
        model = init_model(cfg, make_rng(0))
        # model file: save -> load -> save byte-identical
        p1, p2 = tmp_path / "a.tqm", tmp_path / "b.tqm"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        # quantized checkpoint: same property
        rt = prepare_runtime(model, QuantPlan(w_bits=4, group_size=8))
        c1, c2 = tmp_path / "a.tqq", tmp_path / "b.tqq"
        save_checkpoint(model, rt, c1)
        loaded = load_checkpoint(c1)
        save_checkpoint(*loaded, c2)
        assert c1.read_bytes() == c2.read_bytes()
        # corruption: wrong magic and truncation raise dedicated errors
        for path, loader in ((p1, load_model), (c1, load_checkpoint)):
            raw = path.read_bytes()
            bad = tmp_path / (path.name + ".bad")
            bad.write_bytes(b"XXXX" + raw[4:])
            with pytest.raises(BadMagic):
                loader(bad)
            cut = tmp_path / (path.name + ".cut")
            cut.write_bytes(raw[: len(raw) // 2])
            with pytest.raises(TruncatedFile):
                loader(cut)
