"""Experiment driver: drift/accumulation metrics against the reference
model, reasoning-length budget control, and sweep execution with CSV/JSON
report emission.

Config files are UTF-8 JSON with a ``schema_version`` field; plans use the
W-A-KV bit notation (e.g. "4-16-16").
"""

import csv
import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import __version__
from .quantcore import _check_field_types
from .quantrun import QuantPlan, forward_quantized, prepare_runtime
from .rng import make_rng
from .toymodel import (
    TEMPERATURE,
    THINK_END_ID,
    TOP_P,
    WAIT_ID,
    ToyModel,
    check_batch,
    check_generate,
    check_prompts,
    check_sampling,
    decode,
    forward_reference,
    sample_rows,
)

SCHEMA_VERSION = 1
CODE_VERSION = f"quantlab-{__version__}"

LC_OFF = "off"
LC_SUPPRESS = "suppress"
LC_PROMOTE = "promote"
ANSWER_BUDGET = 32  # tokens sampled after THINK_END


@dataclass
class LengthControl:
    mode: str = LC_OFF
    budget: int = 32
    max_waits: int = 8

    def __post_init__(self):
        _check_field_types(self)
        if self.mode not in (LC_OFF, LC_SUPPRESS, LC_PROMOTE):
            raise ValueError(f"bad length-control mode {self.mode!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.max_waits < (1 if self.mode == LC_PROMOTE else 0):
            raise ValueError("max_waits must be >= 0, and >= 1 when promoting")


@dataclass
class ExperimentConfig:
    plan: QuantPlan = field(default_factory=QuantPlan)
    probe_tokens: Optional[list] = None
    prompts: list = field(default_factory=lambda: [[0]])
    calib_sequences: Optional[list] = None
    temperature: float = TEMPERATURE
    top_p: float = TOP_P
    length_control: LengthControl = field(default_factory=LengthControl)
    seed: int = 0
    n_runs: int = 1

    def __post_init__(self):
        _check_field_types(self)
        check_sampling(self.temperature, self.top_p)

    def to_row_fields(self) -> dict:
        """The run's labels: the bit string, then every plan field."""
        return {"plan": self.plan.bits_string(), **self.plan.to_dict(),
                "seed": self.seed, "code_version": CODE_VERSION}


@dataclass
class DriftReport:
    positions: np.ndarray
    max_abs_err: np.ndarray
    mse: np.ndarray
    top1_agree: np.ndarray  # 1.0 where argmax matches, per position
    cumulative_disagreement: np.ndarray
    first_divergence: int  # -1 when the paths never diverge
    meta: dict = field(default_factory=dict)

    @property
    def final_disagreement(self) -> int:
        return int(self.cumulative_disagreement[-1])


@dataclass
class LengthReport:
    thinking_tokens: list
    total_tokens: list
    meta: dict = field(default_factory=dict)

    @property
    def mean_thinking(self) -> float:
        return float(np.mean(self.thinking_tokens))

    @property
    def median_thinking(self) -> float:
        return float(np.median(self.thinking_tokens))


def run_drift(model: ToyModel, cfg: ExperimentConfig) -> DriftReport:
    """Teacher-forced probe through reference and quantized models;
    per-position logit error and top-1 agreement."""
    probe = cfg.probe_tokens
    if probe is None or len(probe) == 0:
        raise ValueError("drift runs need at least one probe token")
    ref = forward_reference(model, probe)
    q = forward_quantized(model, probe, cfg.plan,
                          calib_sequences=cfg.calib_sequences)
    diff = q - ref
    max_abs = np.max(np.abs(diff), axis=1)
    mse = np.mean(diff * diff, axis=1)
    agree = (np.argmax(ref, axis=1) == np.argmax(q, axis=1)).astype(float)
    cum_dis = np.cumsum(1.0 - agree).astype(int)
    div = np.nonzero(agree == 0)[0]
    return DriftReport(
        positions=np.arange(len(probe)),
        max_abs_err=max_abs,
        mse=mse,
        top1_agree=agree,
        cumulative_disagreement=cum_dis,
        first_divergence=int(div[0]) if div.size else -1,
        meta=cfg.to_row_fields(),
    )


class _LengthRule:
    """One run's length-control state. Thinking tokens are the tokens chosen
    before THINK_END, one that fills the context included. Suppression
    force-inserts THINK_END at the budget; promotion replaces an early
    THINK_END with WAIT while the wait budget lasts. After THINK_END the
    answer phase runs for ANSWER_BUDGET tokens."""

    def __init__(self, lc: LengthControl):
        self.lc = lc
        self.thinking = self.waits_used = 0
        self.answer_left = None  # answer tokens still to choose, once THINK_END is in

    @property
    def forced(self) -> bool:
        """Whether the next token is a forced THINK_END, which draws nothing."""
        return (self.answer_left is None and self.lc.mode == LC_SUPPRESS
                and self.thinking >= self.lc.budget)

    def take(self, tok: int) -> int:
        """Count the chosen token in; return the token to append."""
        lc = self.lc
        if self.answer_left is not None:
            self.answer_left -= 1
        elif tok != THINK_END_ID:
            self.thinking += 1
        elif (lc.mode == LC_PROMOTE and self.thinking < lc.budget
              and self.waits_used < lc.max_waits):
            self.waits_used += 1
            self.thinking += 1
            tok = WAIT_ID
        else:
            self.answer_left = ANSWER_BUDGET
        return tok


def _length_controlled(model: ToyModel, prompts, lc: LengthControl, rngs,
                       temperature: float, top_p: float, runtime) -> list:
    """Controlled generations of ``prompts`` in one ``decode`` batch. Run r
    samples from ``rngs[r]``, one uniform each time it samples, as a run on
    its own would; a forced row's sample is discarded and draws nothing.
    Returns (sequence, thinking_count, total_generated) per run."""
    rules = [_LengthRule(lc) for _ in prompts]

    def choose(rows, logits):
        forced = [rules[r].forced for r in rows]
        toks = sample_rows(logits, temperature, top_p, lambda: [
            0.0 if f else rngs[r].random() for r, f in zip(rows, forced)])
        return [rules[r].take(THINK_END_ID if f else int(tok))
                for r, f, tok in zip(rows, forced, toks)]

    seqs = decode(model, prompts, choose, lambda r, seq: rules[r].answer_left == 0,
                  runtime)
    return [(seq, rule.thinking, len(seq) - len(prompt))
            for seq, rule, prompt in zip(seqs, rules, prompts)]


def generate_with_length_control(model: ToyModel, prompt, plan: QuantPlan,
                                 lc: LengthControl, rng,
                                 temperature: float = TEMPERATURE, runtime=None):
    """One controlled generation, a batch of one (see ``_LengthRule``), in
    the nucleus ``TOP_P``, on ``runtime`` or, without one, on the runtime
    ``plan`` prepares uncalibrated.

    Returns (sequence, thinking_count, total_generated).
    """
    check_generate(model.config, [prompt], 0, temperature, TOP_P, rng)
    if runtime is None:
        runtime = prepare_runtime(model, plan)
    return _length_controlled(model, [prompt], lc, [rng], temperature, TOP_P,
                              runtime)[0]


def run_length_control(model: ToyModel, cfg: ExperimentConfig) -> LengthReport:
    """``cfg.n_runs`` controlled generations in one batch, run r from prompt
    r modulo the prompts, sampling from ``make_rng(cfg.seed + r)``."""
    if cfg.n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {cfg.n_runs}")
    check_prompts(cfg.prompts, model.config.vocab_size)
    check_batch(model.config, cfg.prompts, cfg.n_runs)  # before the per-run lists
    lc = cfg.length_control
    runtime = prepare_runtime(model, cfg.plan, cfg.calib_sequences)
    runs = _length_controlled(
        model, [cfg.prompts[r % len(cfg.prompts)] for r in range(cfg.n_runs)], lc,
        [make_rng(cfg.seed + r) for r in range(cfg.n_runs)], cfg.temperature,
        cfg.top_p, runtime)
    meta = cfg.to_row_fields()
    meta.update({"lc_mode": lc.mode, "budget": lc.budget,
                 "max_waits": lc.max_waits})
    return LengthReport(thinking_tokens=[think for _, think, _ in runs],
                        total_tokens=[total for _, _, total in runs], meta=meta)


def _sweep_one(model, cfg: ExperimentConfig) -> dict:
    row = cfg.to_row_fields()
    try:
        if cfg.probe_tokens is not None:
            rep = run_drift(model, cfg)
            row.update({
                "status": "ok",
                "final_disagreement": rep.final_disagreement,
                "final_max_abs_err": float(rep.max_abs_err[-1]),
                "mean_mse": float(np.mean(rep.mse)),
                "first_divergence": rep.first_divergence,
            })
        else:
            rep = run_length_control(model, cfg)
            row.update({
                "status": "ok",
                "mean_thinking": rep.mean_thinking,
                "median_thinking": rep.median_thinking,
            })
    except Exception as e:  # noqa: BLE001 - sweep isolation is the contract
        row.update({"status": "error", "error": f"{type(e).__name__}: {e}"})
    return row


def run_sweep(model: ToyModel, cfgs: list) -> list:
    """Execute independent configs in order; failures are recorded per row
    and never affect other rows."""
    return [_sweep_one(model, c) for c in cfgs]


_SWEEP_COLUMNS = [
    "plan", *(f.name for f in fields(QuantPlan)), "seed", "code_version",
    "status", "final_disagreement", "final_max_abs_err", "mean_mse",
    "first_divergence", "mean_thinking", "median_thinking", "error",
]


def write_sweep_csv(rows: list, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=_SWEEP_COLUMNS, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow(row)


def write_sweep_json(rows: list, path) -> None:
    with open(path, "w") as f:
        json.dump({"schema_version": SCHEMA_VERSION, "rows": rows}, f,
                  indent=2, sort_keys=True)


def drift_rows(rep: DriftReport) -> list:
    rows = []
    for i in range(len(rep.positions)):
        row = dict(rep.meta)
        row.update({
            "position": int(rep.positions[i]),
            "max_abs_err": float(rep.max_abs_err[i]),
            "mse": float(rep.mse[i]),
            "top1_agree": float(rep.top1_agree[i]),
            "cumulative_disagreement": int(rep.cumulative_disagreement[i]),
        })
        rows.append(row)
    return rows


def write_drift_csv(rep: DriftReport, path) -> None:
    rows = drift_rows(rep)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        w.writeheader()
        for row in rows:
            w.writerow(row)
