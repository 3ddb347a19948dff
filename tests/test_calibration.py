import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from quantlab.toymodel import BLOCK, ToyConfig, generate, init_model

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

    def test_not_utf8_reports_line(self, tmp_path):
        p = tmp_path / "calib.txt"
        p.write_bytes(b"1 2 3\n4 \xff 5\n")
        with pytest.raises(ParseError, match="line 2: 'utf-8' codec"):
            parse_sequences(p)

    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=64),
        st.lists(st.sampled_from([b"0", b"17", b"-3", b" ", b"\t", b"\n", b"\r",
                                  b"\r\n", b"x", b"\xff", b"\xc3\xa9", b"1_0"]),
                 max_size=24).map(b"".join)))
    def test_any_bytes_parse_or_raise(self, tmp_path_factory, raw):
        """Any file is a list of integer sequences or a ParseError."""
        p = tmp_path_factory.getbasetemp() / "fuzz_calib.txt"
        p.write_bytes(raw)
        try:
            seqs = parse_sequences(p)
        except ParseError:
            return
        assert all(s and all(type(t) is int for t in s) for s in seqs)


class TestLoadCalibration:
    def test_exact_partition_is_deterministic(self, tmp_path):
        p = tmp_path / "calib.txt"
        write_sequences([list(range(12))], p)
        cs = load_calibration(p, seq_len=4, count=3, rng=make_rng(0))
        assert cs.sequences == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

    def test_whole_window_lines_are_partitioned(self, tmp_path):
        p = tmp_path / "calib.txt"
        write_sequences([list(range(8)), list(range(8, 12))], p)
        cs = load_calibration(p, seq_len=4, count=3, rng=make_rng(0))
        assert cs.sequences == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

    @pytest.mark.parametrize("short_lines", [14, 15])
    def test_no_window_spans_two_lines(self, tmp_path, short_lines):
        """One 64-token line and 14 or 15 32-token lines: with 14 the file
        holds exactly eight 64-token windows' worth of tokens, but only the
        first line is long enough for a window, and it holds one."""
        long = list(range(100, 164))
        p = tmp_path / "calib.txt"
        write_sequences([long] + [list(range(32))] * short_lines, p)
        with pytest.raises(FileTooSmall, match="8 distinct windows .* holds 1$"):
            load_calibration(p, seq_len=64, count=8, rng=make_rng(0))

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

    def test_position_buckets_over_unequal_lengths(self):
        """Sequences of 3, BLOCK + 8 and 2 * BLOCK tokens, two crossing the
        first block's end: each bucket holds the rows at its positions of
        every sequence, as each sequence's own capture gives them."""
        model = init_model(replace(SMALL, max_seq_len=2 * BLOCK), make_rng(0))
        rng = make_rng(9)
        seqs = [[int(t) for t in rng.integers(0, SMALL.vocab_size, size=n)]
                for n in (3, BLOCK + 8, 2 * BLOCK)]
        buckets = [(0, 2), (2, BLOCK), (BLOCK, BLOCK + 8), (BLOCK + 8, 2 * BLOCK)]
        site = "layer0.k_post_rope"
        stats = capture_channel_stats(model, CalibrationSet(seqs), [site],
                                      pos_buckets=buckets)
        labels = [f"[{lo},{hi})" for lo, hi in buckets]
        assert [s.pos_bucket for s in stats] == labels  # in position order
        by_bucket = {s.pos_bucket: s for s in stats}
        assert [by_bucket[label].tokens for label in labels] == [
            6, 2 * BLOCK - 3, 16, BLOCK - 8]
        alone = [np.abs(capture_activations(model, [s], [site]).matrix(site))
                 for s in seqs]
        for label, (lo, hi) in zip(labels, buckets):
            st = by_bucket[label]
            rows = np.concatenate([a[lo:hi] for a in alone])
            assert np.array_equal(st.max_abs, rows.max(axis=0))

    def test_buckets_come_out_in_position_order(self, tmp_path):
        """Buckets (0, 2), (2, 128), (128, 136), (136, 256), given out of
        order, come back and are written to CSV by start position, not in
        the string order of their labels, which puts [2,128) last."""
        model = init_model(replace(SMALL, max_seq_len=256), make_rng(0))
        seqs = [[int(t) for t in make_rng(4).integers(0, SMALL.vocab_size, size=256)]]
        buckets = [(0, 2), (2, 128), (128, 136), (136, 256)]
        labels = [f"[{lo},{hi})" for lo, hi in buckets]
        sites = ["layer0.k_post_rope", "layer0.attn_in"]
        stats = capture_channel_stats(model, CalibrationSet(seqs), sites,
                                      pos_buckets=buckets[::-1])
        assert [(s.site, s.pos_bucket) for s in stats] == [
            (site, label) for site in sorted(sites) for label in labels]
        assert [s.tokens for s in stats[:4]] == [2, 126, 8, 120]
        p = tmp_path / "stats.csv"
        stats_to_csv(stats, p)
        with open(p, newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert [r[5] for r in rows[:: SMALL.d_model]] == labels * 2

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
