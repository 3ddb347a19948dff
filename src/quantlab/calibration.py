"""Calibration sets and channel-magnitude statistics.

Calibration file format: newline-delimited decimal token ids, one sequence
per line. ChannelStats export as CSV with columns
site, channel, mean_abs, max_abs, tokens, pos_bucket.
"""

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContextOverflow, FileTooSmall, ParseError, UnknownSite
from .quantrun import capture_activations
from .toymodel import (_CAPTURE_SITES, TEMPERATURE, TOP_P, ToyModel, check_batch,
                       check_generate, decode, sample_rows)


@dataclass
class CalibrationSet:
    sequences: list
    domain_tag: str = "pretrain"


def parse_sequences(path) -> list:
    """The token-id sequences of a calibration file; a line that is not
    UTF-8 or holds a token that is not an integer is a ParseError."""
    seqs = []
    with open(path, "rb") as f:
        lines = f.read().splitlines()  # at \n, \r\n or \r, as text mode splits
    for ln, line in enumerate(lines, 1):
        try:
            tokens = line.decode().split()
            if tokens:
                seqs.append([int(t) for t in tokens])
        except ValueError as e:  # UnicodeDecodeError is a ValueError
            raise ParseError(f"line {ln}: {e}")
    return seqs


def write_sequences(seqs, path) -> None:
    with open(path, "w") as f:
        for s in seqs:
            f.write(" ".join(str(t) for t in s) + "\n")


def _check_counts(seq_len: int, count: int) -> None:
    if seq_len < 1 or count < 1:
        raise ValueError(f"need seq_len >= 1 and count >= 1, got seq_len {seq_len}, "
                         f"count {count}")


def load_calibration(path, seq_len: int, count: int, rng) -> CalibrationSet:
    """`count` distinct windows of `seq_len` tokens from the file's
    sequences, none spanning two of them; FileTooSmall when the file holds
    fewer. A file of exactly `count` windows, each line a whole number of
    them, is partitioned in order; otherwise the windows, each a line and a
    start in it, are drawn uniformly without replacement, deterministic
    under the rng seed."""
    _check_counts(seq_len, count)
    seqs = parse_sequences(path)
    windows = [(s, start) for s in seqs for start in range(len(s) - seq_len + 1)]
    if len(windows) < count:
        raise FileTooSmall(f"need {count} distinct windows of {seq_len} tokens, "
                           f"the file holds {len(windows)}")
    if sum(len(s) for s in seqs) == count * seq_len and all(
            len(s) % seq_len == 0 for s in seqs):
        # exact fit: partition the concatenation, no randomness needed
        flat = [t for s in seqs for t in s]
        out = [flat[i * seq_len : (i + 1) * seq_len] for i in range(count)]
        return CalibrationSet(out, domain_tag="pretrain")
    out = []
    for i in rng.choice(len(windows), size=count, replace=False):
        s, start = windows[i]
        out.append(s[start : start + seq_len])
    return CalibrationSet(out, domain_tag="pretrain")


def self_generate(m: ToyModel, prompts, seq_len: int, count: int, rng,
                  temperature: float = TEMPERATURE) -> CalibrationSet:
    """Generate calibration continuations with the unquantized model in the
    nucleus ``TOP_P``, all ``count`` in one ``decode`` batch;
    tagged "self_generated". Sequence i continues prompt i modulo the
    prompts to ``seq_len`` tokens. ``rng`` gives each sequence's uniforms
    in turn, sequence i's after sequence i - 1's, so the set is the one
    sampling the sequences one by one gives; greedy decoding draws none."""
    check_generate(m.config, prompts, 0, temperature, TOP_P, rng)
    _check_counts(seq_len, count)
    if seq_len > m.config.max_seq_len:
        raise ContextOverflow(f"seq_len {seq_len} > context {m.config.max_seq_len}")
    check_batch(m.config, prompts, count)  # before the per-sequence lists
    runs = [list(prompts[i % len(prompts)]) for i in range(count)]
    max_new = np.array([max(seq_len - len(p), 0) for p in runs])
    first = np.cumsum(max_new) - max_new  # sequence i's first uniform
    u = None if temperature == 0 else rng.random(int(max_new.sum()))
    taken = np.zeros(count, dtype=int)

    def choose(rows, logits):
        toks = sample_rows(logits, temperature, TOP_P,
                           lambda: u[first[rows] + taken[rows]])
        taken[rows] += 1
        return toks

    seqs = decode(m, runs, choose, lambda r, seq: len(seq) >= len(runs[r]) + max_new[r])
    return CalibrationSet([s[:seq_len] for s in seqs], domain_tag="self_generated")


@dataclass
class ChannelStats:
    site: str
    mean_abs: np.ndarray
    max_abs: np.ndarray
    tokens: int
    pos_bucket: str = "all"


def known_sites(m: ToyModel) -> list:
    """Every site a forward records: lm_head's input, then each layer's
    linear inputs and K stages."""
    return ["lm_head_in"] + [f"layer{i}.{s}" for i in range(m.config.n_layers)
                             for s in _CAPTURE_SITES]


def capture_channel_stats(m: ToyModel, calib: CalibrationSet, sites,
                          pos_buckets: Optional[list] = None) -> list:
    """Per-channel mean-|.| and max-|.| at the named capture sites over all
    calibration sequences, optionally bucketed by half-open position ranges
    (a position counts in the first bucket holding it). The result is
    ordered by site name, then by bucket start; buckets with one start keep
    their given order."""
    valid = set(known_sites(m))
    for s in sites:
        if s not in valid:
            raise UnknownSite(f"unknown capture site {s!r}")
    rec = capture_activations(m, calib.sequences, sites)
    out = []
    for site in rec.rows:
        a = np.abs(rec.matrix(site))
        pos = rec.positions
        free = np.ones(len(pos), dtype=bool)
        for lo, hi in pos_buckets or [(0, np.inf)]:
            keep = free & (lo <= pos) & (pos < hi)
            free &= ~keep
            n = int(keep.sum())
            if n:
                out.append((site, lo, ChannelStats(
                    site=site, mean_abs=a[keep].sum(axis=0) / n,
                    max_abs=a[keep].max(axis=0), tokens=n,
                    pos_bucket="all" if pos_buckets is None else f"[{lo},{hi})")))
    return [st for _, _, st in sorted(out, key=lambda e: e[:2])]


def stats_to_csv(stats, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["site", "channel", "mean_abs", "max_abs", "tokens", "pos_bucket"])
        for st in stats:
            for ch in range(len(st.mean_abs)):
                w.writerow([st.site, ch, repr(float(st.mean_abs[ch])),
                            repr(float(st.max_abs[ch])), st.tokens, st.pos_bucket])
