import struct

import numpy as np
import pytest

from quantlab import toymodel
from quantlab.checkpoint import load_checkpoint, save_checkpoint
from quantlab.errors import (
    BadMagic,
    ContextOverflow,
    ShapeMismatch,
    TokenOutOfRange,
    TruncatedFile,
)
from quantlab.quantrun import QuantPlan, prepare_runtime
from quantlab.rng import make_rng
from quantlab.toymodel import (
    BOS_ID,
    FORMAT_VERSION,
    THINK_END_ID,
    Session,
    ToyConfig,
    decode,
    forward_reference,
    generate,
    init_model,
    load_model,
    mask_later,
    nucleus_filter,
    own_positions,
    rmsnorm,
    sample_rows,
    sample_token,
    save_model,
    silu,
    softmax,
)

SMALL = ToyConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8,
                  vocab_size=16, max_seq_len=32)


def full_width_mask(scores, p0):
    """The causal mask over every column of a block's scores, (rows, heads,
    n_new, p0 + n_new): key position s after query position p0 + t."""
    at = p0 + np.arange(scores.shape[-2])
    scores[..., np.arange(scores.shape[-1]) > at[:, np.newaxis]] = -np.inf


@pytest.fixture(scope="module")
def small_model():
    return init_model(SMALL, make_rng(0))


class TestConfig:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError):
            ToyConfig(d_model=48, n_heads=2, head_dim=32)

    def test_head_dim_power_of_two(self):
        with pytest.raises(ValueError):
            ToyConfig(d_model=36, n_heads=3, head_dim=12)

    def test_vocab_must_hold_reserved_ids(self):
        with pytest.raises(ValueError):
            ToyConfig(vocab_size=3)

    def test_round_trip_dict(self):
        cfg = ToyConfig()
        assert ToyConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", 64.0), ("max_seq_len", 1e3), ("n_layers", True),
        ("head_dim", "32"), ("qkv_bias", 1), ("qkv_bias", "yes"), ("rope_base", True),
        ("rope_base", "1e4")])
    def test_field_types_checked(self, field, value):
        with pytest.raises(TypeError, match=rf"^ToyConfig\.{field} must be "):
            ToyConfig(**{field: value})

    def test_float_field_takes_any_real(self):
        assert ToyConfig(rope_base=10000).rope_base == 10000

    @pytest.mark.parametrize("field, value", [
        ("n_layers", 0), ("n_layers", -2), ("n_heads", 0), ("ffn_mult", 0),
        ("max_seq_len", 0), ("max_seq_len", -5), ("head_dim", 1), ("head_dim", 0),
        ("rope_base", 0.0), ("rope_base", -1.0), ("rope_base", float("inf")),
        ("rope_base", float("nan"))])
    def test_ranges_checked(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            ToyConfig(**{field: value})

    def test_smallest_config_runs(self):
        cfg = ToyConfig(n_layers=1, d_model=2, n_heads=1, head_dim=2, ffn_mult=1,
                        vocab_size=4, max_seq_len=1, rope_base=0.5)
        logits = forward_reference(init_model(cfg, make_rng(0)), [0])
        assert logits.shape == (1, 4) and np.all(np.isfinite(logits))


class TestInit:
    def test_deterministic_under_seed(self, tmp_path):
        paths = []
        for i in range(2):
            m = init_model(SMALL, make_rng(7))
            p = tmp_path / f"m{i}.tqm"
            save_model(m, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self):
        a = init_model(SMALL, make_rng(0))
        b = init_model(SMALL, make_rng(1))
        assert not np.array_equal(a.tensors["embed"], b.tensors["embed"])

    def test_norms_one_biases_zero(self, small_model):
        assert np.all(small_model.tensors["layers.0.norm1"] == 1.0)
        assert np.all(small_model.tensors["layers.0.bq"] == 0.0)

    def test_zero_magnitude_injection_is_identity(self):
        plain = init_model(SMALL, make_rng(3))
        injected = init_model(SMALL, make_rng(3), k_bias_outlier=(0, 5, 0.0))
        for name in plain.tensors:
            assert np.array_equal(plain.tensors[name], injected.tensors[name])

    def test_injection_sets_single_channel(self):
        m = init_model(SMALL, make_rng(4), k_bias_outlier=(0, 5, 400.0))
        bk = m.tensors["layers.0.bk"]
        assert bk[5] == 400.0
        assert np.all(np.delete(bk, 5) == 0.0)

    def test_injection_requires_biases(self):
        cfg = ToyConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8,
                        vocab_size=16, qkv_bias=False)
        with pytest.raises(ValueError):
            init_model(cfg, make_rng(0), k_bias_outlier=(0, 0, 1.0))


class TestForward:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_silu_saturates_without_overflow_warning(self):
        """exp(1000) overflows to inf; silu(-1000) is its limit, -0.0."""
        y = silu(np.array([-1000.0, 1000.0]))
        assert y[0] == 0.0 and np.signbit(y[0]) and y[1] == 1000.0

    def test_deterministic(self, small_model):
        tokens = [0, 5, 9, 2, 11]
        a = forward_reference(small_model, tokens)
        b = forward_reference(small_model, tokens)
        assert np.array_equal(a, b)
        assert a.shape == (5, SMALL.vocab_size)

    def test_causality_prefix_invariant(self, small_model):
        """Logits at position i must not depend on later tokens."""
        base = forward_reference(small_model, [0, 5, 9, 2])
        changed = forward_reference(small_model, [0, 5, 9, 7])
        assert np.array_equal(base[:3], changed[:3])
        assert not np.array_equal(base[3], changed[3])

    @pytest.mark.parametrize("t", [31, 32, 33, 69])
    def test_causality_across_blocks(self, t):
        """On 70 tokens, run as blocks of 32, 32 and 6 positions, changing
        token t leaves the logits of every earlier position byte-identical
        and changes position t's."""
        model = init_model(ToyConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8,
                                     vocab_size=16, max_seq_len=70), make_rng(0))
        tokens = [int(x) for x in make_rng(3).integers(0, 16, size=70)]
        changed = list(tokens)
        changed[t] = (tokens[t] + 1) % 16
        base, other = forward_reference(model, tokens), forward_reference(model, changed)
        assert base[:t].tobytes() == other[:t].tobytes()
        assert not np.array_equal(base[t], other[t])

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("p0", [0, 1, 40])
    @pytest.mark.parametrize("n_new", [2, 17, 32])
    def test_mask_later(self, n_new, p0, rows):
        """mask_later sets -inf on exactly the cells the full-width mask
        sets, on scores laid out as attention's, and leaves the rest."""
        heads, hd, end = 2, 4, p0 + n_new
        rng = make_rng(n_new * 100 + p0)
        q = rng.standard_normal((rows, n_new, heads, hd)).transpose(0, 2, 1, 3)
        k = rng.standard_normal((rows, heads, end, hd)).transpose(0, 1, 3, 2)
        a = q @ k
        b = a.copy()
        mask_later(a, p0)
        full_width_mask(b, p0)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("plan", [None, QuantPlan(kv_bits=4, kv_method="per_token")],
                             ids=["reference", "per-token-kv"])
    def test_forward_matches_full_width_mask(self, plan, rows, monkeypatch):
        """A session's logits over blocks of 32, 32 and 6 positions are
        byte-identical to those under the full-width mask."""
        model = init_model(ToyConfig(), make_rng(0))
        tokens = make_rng(4).integers(0, 64, size=(rows, 70))
        rt = None if plan is None else prepare_runtime(model, plan)
        logits = Session(model, runtime=rt, rows=rows).forward(tokens)
        monkeypatch.setattr(toymodel, "mask_later", full_width_mask)
        oracle = Session(model, runtime=rt, rows=rows).forward(tokens)
        assert logits.tobytes() == oracle.tobytes()

    def test_token_out_of_range(self, small_model):
        with pytest.raises(TokenOutOfRange):
            forward_reference(small_model, [SMALL.vocab_size])
        with pytest.raises(TokenOutOfRange):
            forward_reference(small_model, [-1])

    def test_context_overflow(self, small_model):
        with pytest.raises(ContextOverflow):
            forward_reference(small_model, [0] * (SMALL.max_seq_len + 1))

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("p0", [0, 1, 40])
    @pytest.mark.parametrize("n_new", [1, 2, 31, 32])
    def test_own_positions(self, n_new, p0, rows):
        """own_positions addresses exactly the cells (t, p0 + t) of the fancy
        index (..., arange(n_new), p0 + arange(n_new)), on scores shaped and
        laid out as attention's: the product of head-major views."""
        heads, hd, end = 2, 4, p0 + n_new
        rng = make_rng(n_new * 100 + p0)
        q = rng.standard_normal((rows, n_new, heads, hd)).transpose(0, 2, 1, 3)
        k = rng.standard_normal((rows, heads, end, hd)).transpose(0, 1, 3, 2)
        a = q @ k
        b = a.copy()
        fancy = (Ellipsis, np.arange(n_new), p0 + np.arange(n_new))
        view = own_positions(a, p0)
        assert view.shape == (rows, heads, n_new)
        assert view.tobytes() == b[fancy].tobytes()
        marks = -np.arange(1.0, 1.0 + view.size).reshape(view.shape)
        view[...] = marks
        b[fancy] = marks
        assert a.tobytes() == b.tobytes()

    def test_rmsnorm_closed_form(self):
        x = np.array([3.0, 4.0])
        g = np.array([2.0, 2.0])
        rms = np.sqrt((9.0 + 16.0) / 2.0 + 1e-6)
        assert np.allclose(rmsnorm(x, g), 2.0 * x / rms)

    def test_rmsnorm_scale_invariant_direction(self):
        x = make_rng(5).standard_normal(8)
        g = np.ones(8)
        a = rmsnorm(x, g)
        b = rmsnorm(1000.0 * x, g)
        assert np.allclose(a, b, atol=1e-6)


class TestSerialization:
    def test_save_load_save_byte_identical(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.tqm", tmp_path / "b.tqm"
        save_model(small_model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_preserves_values(self, small_model, tmp_path):
        p = tmp_path / "m.tqm"
        save_model(small_model, p)
        loaded = load_model(p)
        assert loaded.config == small_model.config
        for name in small_model.tensors:
            assert np.array_equal(loaded.tensors[name],
                                  small_model.tensors[name])

    def test_bad_magic(self, small_model, tmp_path):
        p = tmp_path / "m.tqm"
        save_model(small_model, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            load_model(p)

    def test_truncated_file_has_offset(self, small_model, tmp_path):
        p = tmp_path / "m.tqm"
        save_model(small_model, p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedFile) as ei:
            load_model(p)
        assert isinstance(ei.value.offset, int)

    def test_tiny_file_truncated(self, tmp_path):
        p = tmp_path / "m.tqm"
        p.write_bytes(b"TQM1")
        with pytest.raises(TruncatedFile):
            load_model(p)

    @pytest.mark.parametrize("fmt", ["tqm", "tqq"])
    @pytest.mark.parametrize("corrupt, error", [
        pytest.param(lambda raw: raw.__setitem__(4, 0), BadMagic, id="version-0"),
        pytest.param(lambda raw: raw.__setitem__(4, FORMAT_VERSION + 1), BadMagic,
                     id="version-next"),
        pytest.param(lambda raw: raw.__setitem__(4, 7), BadMagic, id="version-7"),
        pytest.param(lambda raw: struct.pack_into("<I", raw, 5, len(raw)),
                     TruncatedFile, id="header-past-eof"),
        pytest.param(lambda raw: raw.__setitem__(9, ord("x")), BadMagic,
                     id="header-not-json"),
        pytest.param(lambda raw: raw.__setitem__(9, 0xFF), BadMagic,
                     id="header-not-utf8"),
    ])
    def test_fixed_header(self, small_model, tmp_path, fmt, corrupt, error):
        """TQM1 and TQQ1 check the version byte, the header length and the
        JSON header alike, in ``read_header``."""
        p = tmp_path / f"m.{fmt}"
        if fmt == "tqm":
            save_model(small_model, p)
            load = load_model
        else:
            save_checkpoint(small_model, prepare_runtime(
                small_model, QuantPlan(w_bits=4, group_size=8)), p)
            load = load_checkpoint
        load(p)
        raw = bytearray(p.read_bytes())
        corrupt(raw)
        p.write_bytes(bytes(raw))
        with pytest.raises(error):
            load(p)

    def test_missing_tensor_rejected(self, small_model, tmp_path):
        import json
        import struct

        p = tmp_path / "m.tqm"
        save_model(small_model, p)
        raw = p.read_bytes()
        hdr_len = struct.unpack_from("<I", raw, 5)[0]
        header = json.loads(raw[9 : 9 + hdr_len].decode())
        header["tensors"] = [t for t in header["tensors"]
                             if t["name"] != "norm_f"]
        new_hdr = json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode()
        buf = bytearray(raw)
        # shrinking the manifest keeps the header shorter; pad to old length
        new_hdr = new_hdr + b" " * (hdr_len - len(new_hdr))
        buf[9 : 9 + hdr_len] = new_hdr
        p.write_bytes(bytes(buf))
        with pytest.raises(ShapeMismatch):
            load_model(p)


class TestSampling:
    def test_nucleus_keeps_top_mass(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        out = nucleus_filter(probs, 0.8)
        assert out[2] == 0.0 and out[3] == 0.0
        assert np.isclose(out.sum(), 1.0)
        assert out[0] > out[1] > 0.0

    def test_nucleus_top_p_one_keeps_all(self):
        probs = np.full(8, 0.125)
        out = nucleus_filter(probs, 1.0)
        assert np.allclose(out, probs)

    def test_nucleus_property_support_and_mass(self):
        rng = make_rng(6)
        for _ in range(50):
            p = rng.dirichlet(np.ones(12))
            out = nucleus_filter(p, 0.9)
            kept = out > 0
            # kept set is a prefix in descending-probability order
            assert p[kept].min() >= p[~kept].max() - 1e-15
            # minimal: kept mass reaches 0.9, dropping the smallest kept
            # entry would fall below it
            mass = p[kept].sum()
            assert mass >= 0.9 - 1e-12
            assert mass - p[kept].min() < 0.9
            assert np.isclose(out.sum(), 1.0)

    @pytest.mark.parametrize("temperature, top_p", [(0.6, 0.95), (1.0, 0.5), (0.3, 1.0)])
    def test_sample_rows_draws_what_rng_choice_draws(self, temperature, top_p):
        """Over 20,000 seeded logit rows, tied and rounded ones included, each
        row's token is the one rng.choice picks from its nucleus with the
        same uniform, and one-row sample_token calls draw the same stream."""
        gen = make_rng(123)
        n = 20_000
        logits = gen.standard_normal((n, 64)) * gen.uniform(0.1, 8.0, (n, 1))
        logits[::7, 5] = logits[::7, 9]
        logits[::11] = np.round(logits[::11])

        def reference(lg, rng):  # the per-row sampler, written out
            probs = softmax(lg / temperature)
            order = np.argsort(-probs, kind="stable")
            cutoff = int(np.searchsorted(np.cumsum(probs[order]), top_p)) + 1
            kept = np.zeros_like(probs)
            kept[order[:cutoff]] = probs[order[:cutoff]]
            return int(rng.choice(len(probs), p=kept / kept.sum()))

        want_rng, one_rng, batch_rng = make_rng(5), make_rng(5), make_rng(5)
        want = [reference(lg, want_rng) for lg in logits]
        assert [sample_token(lg, temperature, top_p, one_rng) for lg in logits] == want
        got = sample_rows(logits, temperature, top_p, lambda: batch_rng.random(n))
        assert got.tolist() == want
        assert want_rng.random() == one_rng.random() == batch_rng.random()

    def test_greedy_rows_draw_nothing(self):
        logits = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 3.0]])
        assert sample_rows(logits, 0.0, 0.95, None).tolist() == [1, 0]

    def test_greedy_is_argmax(self):
        logits = np.array([0.1, 2.0, -1.0])
        assert sample_token(logits, 0.0, 0.95, None) == 1

    def test_generate_greedy_deterministic(self, small_model):
        a = generate(small_model, [BOS_ID], max_new=8, temperature=0.0)
        b = generate(small_model, [BOS_ID], max_new=8, temperature=0.0)
        assert a == b and len(a) == 9

    def test_generate_seeded_reproducible(self, small_model):
        a = generate(small_model, [BOS_ID], max_new=8, rng=make_rng(9))
        b = generate(small_model, [BOS_ID], max_new=8, rng=make_rng(9))
        c = generate(small_model, [BOS_ID], max_new=8, rng=make_rng(10))
        assert a == b
        assert all(0 <= t < SMALL.vocab_size for t in a)
        assert a != c or True  # different seed may coincide; just sanity

    def test_generate_requires_rng_when_sampling(self, small_model):
        with pytest.raises(ValueError):
            generate(small_model, [BOS_ID], max_new=4, temperature=0.6)

    def test_generate_context_guard(self, small_model):
        with pytest.raises(ContextOverflow):
            generate(small_model, [BOS_ID], max_new=SMALL.max_seq_len,
                     temperature=0.0)

    def test_generate_rejects_negative_max_new(self, small_model):
        with pytest.raises(ValueError, match="max_new"):
            generate(small_model, [BOS_ID], max_new=-1, temperature=0.0)

    def test_decode_stops_when_done_and_at_the_context(self, small_model):
        seen = []

        def choose(rows, logits):
            seen.append(logits)
            return logits.argmax(axis=-1)

        [out] = decode(small_model, [[BOS_ID]], choose, lambda r, seq: len(seen) == 3)
        assert len(out) == 4 and len(seen) == 3
        assert out == generate(small_model, [BOS_ID], max_new=3, temperature=0.0)
        # never asked again once the sequence fills the context
        seen.clear()
        [out] = decode(small_model, [[BOS_ID] * 30],
                       lambda rows, lg: seen.append(lg) or [5], lambda r, seq: False)
        assert out[30:] == [5, 5] and len(seen) == 2

    @pytest.mark.parametrize("prompt_len, max_new, steps", [
        (1, 3, 2), (1, 1, 0), (1, 0, 0), (5, 12, 11),
        (1, SMALL.max_seq_len - 1, SMALL.max_seq_len - 2),  # fills the context
    ])
    def test_generate_steps_only_for_the_next_token(self, small_model, monkeypatch,
                                                    prompt_len, max_new, steps):
        # a token is fed by its own step only when another token is chosen
        # after it: the last one's logits are never read. A step feeds one
        # token per row, a list of one here.
        calls = []
        step = Session.step
        monkeypatch.setattr(Session, "step",
                            lambda sess, toks: calls.extend(toks) or step(sess, toks))
        out = generate(small_model, [BOS_ID] * prompt_len, max_new=max_new,
                       temperature=0.0)
        assert len(out) == prompt_len + max_new
        assert calls == out[prompt_len:-1] and len(calls) == steps

    def test_reserved_ids(self):
        assert (BOS_ID, THINK_END_ID) == (0, 2)
