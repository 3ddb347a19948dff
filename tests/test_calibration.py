import numpy as np
import pytest

from quantlab.calibration import (
    CalibrationSet,
    capture_channel_stats,
    known_sites,
    load_calibration,
    parse_sequences,
    self_generate,
    stats_to_csv,
    write_sequences,
)
from quantlab.errors import ContextOverflow, FileTooSmall, ParseError, UnknownSite
from quantlab.quantrun import capture_activations
from quantlab.rng import make_rng
from quantlab.toymodel import ToyConfig, generate, init_model

SMALL = ToyConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8,
                  vocab_size=16, max_seq_len=64)


@pytest.fixture(scope="module")
def small_model():
    return init_model(SMALL, make_rng(0))


class TestSequencesFile:
    def test_write_parse_round_trip(self, tmp_path):
        seqs = [[0, 5, 9], [2], [1, 1, 1, 1]]
        p = tmp_path / "calib.txt"
        write_sequences(seqs, p)
        assert parse_sequences(p) == seqs

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "calib.txt"
        p.write_text("1 2 3\n\n4 5\n")
        assert parse_sequences(p) == [[1, 2, 3], [4, 5]]

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "calib.txt"
        p.write_text("1 2 3\n4 oops 5\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_sequences(p)


class TestLoadCalibration:
    def test_exact_partition_is_deterministic(self, tmp_path):
        p = tmp_path / "calib.txt"
        write_sequences([list(range(12))], p)
        cs = load_calibration(p, seq_len=4, count=3, rng=make_rng(0))
        assert cs.sequences == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
        assert (cs.seq_len, cs.count) == (4, 3)

    def test_seeded_crops_reproducible(self, tmp_path):
        p = tmp_path / "calib.txt"
        write_sequences([list(range(50)), list(range(100, 160))], p)
        a = load_calibration(p, seq_len=8, count=4, rng=make_rng(3))
        b = load_calibration(p, seq_len=8, count=4, rng=make_rng(3))
        c = load_calibration(p, seq_len=8, count=4, rng=make_rng(4))
        assert a.sequences == b.sequences
        assert a.sequences != c.sequences
        assert all(len(s) == 8 for s in a.sequences)

    def test_file_too_small(self, tmp_path):
        p = tmp_path / "calib.txt"
        write_sequences([[1, 2, 3]], p)
        with pytest.raises(FileTooSmall):
            load_calibration(p, seq_len=4, count=1, rng=make_rng(0))
        with pytest.raises(FileTooSmall):
            load_calibration(p, seq_len=2, count=5, rng=make_rng(0))

    @pytest.mark.parametrize("seq_len,count", [(0, 1), (-5, 1), (2, 0)])
    def test_counts_below_range(self, tmp_path, seq_len, count):
        p = tmp_path / "calib.txt"
        write_sequences([[1, 2, 3, 4]], p)
        with pytest.raises(ValueError, match="seq_len"):
            load_calibration(p, seq_len=seq_len, count=count, rng=make_rng(0))


class TestSelfGenerate:
    def test_seeded_and_tagged(self, small_model):
        a = self_generate(small_model, [[0]], seq_len=12, count=3,
                          rng=make_rng(5))
        b = self_generate(small_model, [[0]], seq_len=12, count=3,
                          rng=make_rng(5))
        assert a.sequences == b.sequences
        assert a.domain_tag == "self_generated"
        assert all(len(s) == 12 for s in a.sequences)

    def test_greedy_degenerate(self, small_model):
        cs = self_generate(small_model, [[0]], seq_len=8, count=2,
                           rng=make_rng(0), temperature=0.0)
        assert cs.sequences[0] == cs.sequences[1]

    @pytest.mark.parametrize("temperature", [0.6, 0.0])
    def test_batch_is_the_one_by_one_set(self, small_model, temperature):
        """Prompts of three lengths, one longer than the set's sequences: the
        set and the rng's state after it are those of sampling each
        sequence in turn from the one rng."""
        prompts = [[0], [0, 5, 9], [1] * 14]
        rng, ref_rng = make_rng(5), make_rng(5)
        cs = self_generate(small_model, prompts, seq_len=12, count=7, rng=rng,
                           temperature=temperature)
        want = []
        for i in range(7):
            prompt = prompts[i % 3]
            want.append(generate(small_model, prompt, max(12 - len(prompt), 0),
                                 temperature=temperature, rng=ref_rng)[:12])
        assert cs.sequences == want
        after = rng.random()
        assert after == ref_rng.random()
        if temperature == 0:
            assert after == make_rng(5).random()  # greedy draws nothing

    def test_empty_prompts_rejected(self, small_model):
        with pytest.raises(ValueError):
            self_generate(small_model, [], seq_len=8, count=1, rng=make_rng(0))

    def test_longer_than_context_rejected(self, small_model):
        with pytest.raises(ContextOverflow):
            self_generate(small_model, [[0]], seq_len=SMALL.max_seq_len + 1, count=1,
                          rng=make_rng(0))

    def test_sampling_without_rng_rejected(self, small_model):
        with pytest.raises(ValueError, match="rng"):
            self_generate(small_model, [[0]], seq_len=8, count=1, rng=None)
        greedy = self_generate(small_model, [[0]], seq_len=8, count=1, rng=None,
                               temperature=0.0)  # greedy decoding draws nothing
        assert len(greedy.sequences[0]) == 8

    @pytest.mark.parametrize("seq_len,count", [(0, 1), (8, 0)])
    def test_counts_below_range(self, small_model, seq_len, count):
        with pytest.raises(ValueError, match="seq_len"):
            self_generate(small_model, [[0]], seq_len=seq_len, count=count,
                          rng=make_rng(0))


class TestChannelStats:
    def test_unknown_site(self, small_model):
        cs = CalibrationSet([[0, 1]])
        with pytest.raises(UnknownSite):
            capture_channel_stats(small_model, cs, ["layer9.attn_in"])

    def test_injected_bias_dominates_post_bias_site(self):
        model = init_model(SMALL, make_rng(0), k_bias_outlier=(0, 3, 400.0))
        rng = make_rng(7)
        seqs = [[int(t) for t in rng.integers(0, SMALL.vocab_size, size=16)]]
        cs = CalibrationSet(seqs)
        stats = {s.site: s for s in capture_channel_stats(
            model, cs, ["layer0.k_pre_bias", "layer0.k_post_bias"])}
        pre = stats["layer0.k_pre_bias"]
        post = stats["layer0.k_post_bias"]
        assert post.max_abs[3] == pytest.approx(400.0, rel=0.05)
        assert pre.max_abs[3] < 10.0
        assert np.argmax(post.max_abs) == 3

    def test_position_buckets(self, small_model):
        rng = make_rng(8)
        seqs = [[int(t) for t in rng.integers(0, SMALL.vocab_size, size=8)]]
        stats = capture_channel_stats(small_model, CalibrationSet(seqs),
                                      ["layer0.attn_in"],
                                      pos_buckets=[(0, 4), (4, 8)])
        buckets = {s.pos_bucket: s for s in stats}
        assert set(buckets) == {"[0,4)", "[4,8)"}
        assert buckets["[0,4)"].tokens == 4

    def test_position_buckets_over_unequal_lengths(self, small_model):
        """Sequences of 3, 40 and 64 tokens, two crossing the 32-position
        block: each bucket holds the rows at its positions of every
        sequence, as each sequence's own capture gives them."""
        rng = make_rng(9)
        seqs = [[int(t) for t in rng.integers(0, SMALL.vocab_size, size=n)]
                for n in (3, 40, 64)]
        buckets = [(0, 2), (2, 32), (32, 40), (40, 64)]
        site = "layer0.k_post_rope"
        stats = capture_channel_stats(small_model, CalibrationSet(seqs), [site],
                                      pos_buckets=buckets)
        assert [(s.pos_bucket, s.tokens) for s in stats] == [
            ("[0,2)", 6), ("[2,32)", 61), ("[32,40)", 16), ("[40,64)", 24)]
        alone = [np.abs(capture_activations(small_model, [s], [site]).matrix(site))
                 for s in seqs]
        for st, (lo, hi) in zip(stats, buckets):
            rows = np.concatenate([a[lo:hi] for a in alone])
            assert np.array_equal(st.max_abs, rows.max(axis=0))

    def test_known_sites_cover_layers(self, small_model):
        sites = known_sites(small_model)
        assert "lm_head_in" in sites
        assert "layer0.k_post_rope" in sites

    def test_csv_columns(self, small_model, tmp_path):
        cs = CalibrationSet([[0, 1, 2]])
        stats = capture_channel_stats(small_model, cs, ["layer0.attn_in"])
        p = tmp_path / "stats.csv"
        stats_to_csv(stats, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "site,channel,mean_abs,max_abs,tokens,pos_bucket"
        assert len(lines) == 1 + SMALL.d_model
        first = lines[1].split(",")
        assert first[0] == "layer0.attn_in" and first[1] == "0"
        # values round-trip through repr() for exact reload
        assert float(first[2]) == stats[0].mean_abs[0]
