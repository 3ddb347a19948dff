import csv
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from quantlab import harness
from quantlab.errors import TokenOutOfRange
from quantlab.harness import (
    CODE_VERSION,
    LC_OFF,
    LC_PROMOTE,
    LC_SUPPRESS,
    SCHEMA_VERSION,
    ExperimentConfig,
    LengthControl,
    drift_rows,
    generate_with_length_control,
    run_drift,
    run_length_control,
    run_sweep,
    write_drift_csv,
    write_sweep_csv,
    write_sweep_json,
)
from quantlab.quantrun import QuantPlan, prepare_runtime
from quantlab.rng import make_rng
from quantlab.toymodel import THINK_END_ID, Session, ToyConfig, init_model

from conftest import BAD_SAMPLING, BAD_TEMPERATURES

SMALL = ToyConfig(n_layers=1, d_model=16, n_heads=2, head_dim=8,
                  vocab_size=16, max_seq_len=256)
SHORT = replace(SMALL, max_seq_len=12)  # thinking often fills the context


@pytest.fixture(scope="module")
def small_model():
    return init_model(SMALL, make_rng(0))


@pytest.fixture(scope="module")
def short_model():
    return init_model(SHORT, make_rng(0))


def probe(n, seed=2):
    rng = make_rng(seed)
    return [int(t) for t in rng.integers(0, SMALL.vocab_size, size=n)]


class TestDrift:
    def test_passthrough_plan_has_zero_drift(self, small_model):
        cfg = ExperimentConfig(plan=QuantPlan(), probe_tokens=probe(24))
        rep = run_drift(small_model, cfg)
        assert np.all(rep.max_abs_err == 0.0)
        assert np.all(rep.top1_agree == 1.0)
        assert rep.final_disagreement == 0
        assert rep.first_divergence == -1

    def test_probe_required(self, small_model):
        with pytest.raises(ValueError):
            run_drift(small_model, ExperimentConfig(plan=QuantPlan()))
        with pytest.raises(ValueError):
            run_drift(small_model, ExperimentConfig(plan=QuantPlan(), probe_tokens=[]))

    def test_weight_bits_mean_mse_ordering(self, small_model):
        mse = {}
        for b in (3, 4, 8):
            cfg = ExperimentConfig(plan=QuantPlan(w_bits=b),
                                   probe_tokens=probe(48))
            mse[b] = float(np.mean(run_drift(small_model, cfg).mse))
        assert mse[3] >= mse[4] >= mse[8] > 0.0

    def test_rerun_deterministic(self, small_model):
        cfg = ExperimentConfig(plan=QuantPlan(w_bits=4, kv_bits=4),
                               probe_tokens=probe(24))
        a = run_drift(small_model, cfg)
        b = run_drift(small_model, cfg)
        assert np.array_equal(a.mse, b.mse)
        assert np.array_equal(a.cumulative_disagreement,
                              b.cumulative_disagreement)

    def test_cumulative_disagreement_monotone(self, small_model):
        cfg = ExperimentConfig(plan=QuantPlan(w_bits=3, kv_bits=3),
                               probe_tokens=probe(48))
        rep = run_drift(small_model, cfg)
        assert np.all(np.diff(rep.cumulative_disagreement) >= 0)
        if rep.first_divergence >= 0:
            assert rep.top1_agree[rep.first_divergence] == 0.0
            assert np.all(rep.top1_agree[: rep.first_divergence] == 1.0)

    def test_drift_rows_and_csv(self, small_model, tmp_path):
        cfg = ExperimentConfig(plan=QuantPlan(w_bits=4), probe_tokens=probe(8))
        rep = run_drift(small_model, cfg)
        rows = drift_rows(rep)
        assert len(rows) == 8
        assert rows[0]["plan"] == "4-16-16"
        assert rows[0]["code_version"] == CODE_VERSION
        p = tmp_path / "drift.csv"
        write_drift_csv(rep, p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 9
        assert "cumulative_disagreement" in lines[0]


class TestLengthControl:
    def test_validation(self):
        with pytest.raises(ValueError):
            LengthControl(mode="sometimes")
        with pytest.raises(ValueError):
            LengthControl(budget=0)
        with pytest.raises(ValueError):
            LengthControl(mode="promote", max_waits=0)
        for mode in (LC_OFF, LC_SUPPRESS, LC_PROMOTE):
            with pytest.raises(ValueError, match="max_waits must be >= 0"):
                LengthControl(mode=mode, max_waits=-1)
        assert LengthControl(mode=LC_SUPPRESS, max_waits=0).max_waits == 0

    @pytest.mark.parametrize("field, value", [
        ("budget", 2.5), ("budget", True), ("max_waits", True), ("max_waits", 8.0)])
    def test_field_types_checked(self, field, value):
        with pytest.raises(TypeError, match=rf"^LengthControl\.{field} must be int"):
            LengthControl(mode=LC_PROMOTE, **{field: value})

    @pytest.mark.parametrize("case", BAD_SAMPLING)
    def test_experiment_config_rejects_bad_sampling(self, small_model, case):
        """run_length_control samples at the config's arguments."""
        temperature, top_p, arg = BAD_SAMPLING[case]
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            run_length_control(small_model, ExperimentConfig(
                temperature=temperature, top_p=top_p, n_runs=2,
                length_control=LengthControl(mode=LC_SUPPRESS, budget=4)))

    @pytest.mark.parametrize("case", BAD_TEMPERATURES)
    def test_generate_with_length_control_rejects_bad_temperature(self, small_model,
                                                                  case):
        temperature, _, _ = BAD_SAMPLING[case]
        with pytest.raises(ValueError, match="^temperature must be"):
            generate_with_length_control(small_model, [0], QuantPlan(), LengthControl(),
                                         make_rng(0), temperature=temperature)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.0), ("seed", True), ("n_runs", 2.0), ("temperature", "0.6"),
        ("temperature", False), ("top_p", None)])
    def test_experiment_config_field_types_checked(self, field, value):
        with pytest.raises(TypeError, match=rf"^ExperimentConfig\.{field} must be "):
            ExperimentConfig(**{field: value})

    def test_suppress_caps_thinking(self, small_model):
        lc = LengthControl(mode="suppress", budget=6)
        for seed in range(8):
            seq, think, total = generate_with_length_control(
                small_model, [0], QuantPlan(), lc, make_rng(seed))
            assert think <= 6
            assert 2 in seq[1:]  # forced or natural THINK_END marker

    def test_promote_floor(self, small_model):
        budget = 12
        lc = LengthControl(mode="promote", budget=budget, max_waits=10**9)
        for seed in range(8):
            seq, think, _ = generate_with_length_control(
                small_model, [0], QuantPlan(), lc, make_rng(seed))
            room = SMALL.max_seq_len - 1
            assert think >= min(budget, room)

    def test_empty_prompt_rejected_before_calibration(self, small_model,
                                                      monkeypatch):
        def no_calibration(*args, **kwargs):
            raise AssertionError("prepare_runtime ran for an empty prompt")

        monkeypatch.setattr("quantlab.harness.prepare_runtime", no_calibration)
        with pytest.raises(ValueError, match="prompt"):
            generate_with_length_control(
                small_model, [], QuantPlan(w_bits=4, w_method="gptq"),
                LengthControl(), make_rng(0))

    def test_sampling_without_rng_rejected_before_calibration(self, small_model,
                                                              monkeypatch):
        def no_calibration(*args, **kwargs):
            raise AssertionError("prepare_runtime ran for a sampler without an rng")

        with monkeypatch.context() as m:
            m.setattr("quantlab.harness.prepare_runtime", no_calibration)
            with pytest.raises(ValueError, match="rng"):
                generate_with_length_control(small_model, [0], QuantPlan(),
                                             LengthControl(), None, temperature=0.6)
        seq, _, total = generate_with_length_control(  # greedy draws nothing
            small_model, [0], QuantPlan(), LengthControl(), None, temperature=0.0)
        assert seq[0] == 0 and total == len(seq) - 1 > 0

    @pytest.mark.parametrize("mode", [LC_OFF, LC_SUPPRESS, LC_PROMOTE])
    def test_thinking_count_when_context_fills(self, short_model, mode):
        """Thinking counts every token chosen before THINK_END, the one that
        fills the context included, so the promotion floor holds there too."""
        lc = LengthControl(mode=mode, budget=16, max_waits=10**9)
        room = SHORT.max_seq_len - 1
        filled = 0
        for seed in range(200):
            seq, think, total = generate_with_length_control(
                short_model, [0], QuantPlan(), lc, make_rng(seed))
            gen = seq[1:]
            assert total == len(gen)
            assert THINK_END_ID not in gen[:think], f"seed {seed}"
            if think < len(gen):
                assert gen[think] == THINK_END_ID, f"seed {seed}"
            else:
                filled += 1
            if mode == LC_PROMOTE:
                assert think >= min(lc.budget, room), f"seed {seed}: {think}"
        assert filled > 0

    @pytest.mark.parametrize("mode", [LC_OFF, LC_SUPPRESS, LC_PROMOTE])
    def test_steps_only_for_the_next_token(self, small_model, short_model,
                                           monkeypatch, mode):
        """After the prompt's one forward, each token is fed by its own step,
        a forced THINK_END included, and only when another token is chosen
        after it, whether the rule or the context ends the run."""
        # a batch of one: step feeds a list of one token, and its own forward
        # a (1, 1) block, a feed of 1
        steps, feeds = [], []
        step, forward = Session.step, Session.forward
        monkeypatch.setattr(Session, "step",
                            lambda sess, t: steps.extend(t) or step(sess, t))
        monkeypatch.setattr(Session, "forward",
                            lambda sess, t: feeds.append(np.size(t)) or forward(sess, t))
        lc = LengthControl(mode=mode, budget=4, max_waits=10**9)
        prompt = [0, 5]
        ended_by = set()
        for model in (small_model, short_model):
            for seed in range(6):
                steps.clear()
                feeds.clear()
                seq, _, total = generate_with_length_control(
                    model, prompt, QuantPlan(), lc, make_rng(seed))
                assert steps == seq[len(prompt):-1], f"seed {seed}"
                assert feeds == [len(prompt)] + [1] * (total - 1), f"seed {seed}"
                ended_by.add(len(seq) == model.config.max_seq_len)
        assert ended_by == {True, False}

    def test_off_mode_unconstrained(self, small_model):
        lc = LengthControl(mode="off", budget=1)
        seq, think, total = generate_with_length_control(
            small_model, [0], QuantPlan(), lc, make_rng(0))
        assert total == len(seq) - 1

    @pytest.mark.parametrize("plan", [QuantPlan(), QuantPlan(wa_method="rotate")])
    def test_passthrough_runtime_matches_none(self, small_model, plan):
        """A 16-16-16 plan runs through its prepared (empty) runtime, which
        samples exactly what the reference session samples."""
        lc = LengthControl(mode="promote", budget=12)
        rt = prepare_runtime(small_model, plan)
        for seed in range(3):
            got = generate_with_length_control(small_model, [0], plan, lc,
                                               make_rng(seed), runtime=rt)
            assert got == generate_with_length_control(small_model, [0], plan, lc,
                                                       make_rng(seed))

    @pytest.mark.parametrize("plan", [
        QuantPlan(), QuantPlan(kv_bits=4),
        QuantPlan(w_bits=4, a_bits=4, kv_bits=4, wa_method="rotate",
                  kv_method="rotated_per_token"),
        QuantPlan(kv_bits=4, kv_method="kvquant_star"),
    ], ids=["16-16-16", "16-16-4-per-token", "4-4-4-rotate", "16-16-4-kvquant-star"])
    @pytest.mark.parametrize("lc", [LengthControl(mode=LC_SUPPRESS, budget=24),
                                    LengthControl(mode=LC_PROMOTE, budget=12)],
                             ids=["suppress", "promote"])
    @pytest.mark.parametrize("temperature", [0.6, 0.0])
    def test_batch_is_the_one_by_one_runs(self, small_model, short_model, monkeypatch,
                                          plan, lc, temperature):
        """run_length_control decodes its runs as one batch, grouped by
        prompt length, rows leaving as they finish; every run's sequence and
        counts are those of the run on its own with its own rng."""
        batches = []
        decode = harness.decode
        monkeypatch.setattr(harness, "decode",
                            lambda *a: batches.append(decode(*a)) or batches[-1])
        prompts = [[0], [0, 5, 9]]
        for model in (small_model, short_model):
            calib = [probe(10, seed=s) for s in (1, 2)]
            cfg = ExperimentConfig(plan=plan, prompts=prompts, calib_sequences=calib,
                                   temperature=temperature, length_control=lc,
                                   seed=3, n_runs=8)
            batches.clear()
            rep = run_length_control(model, cfg)
            rt = prepare_runtime(model, plan, calib)
            want = [generate_with_length_control(
                model, prompts[r % 2], plan, lc, make_rng(3 + r),
                temperature=temperature, runtime=rt) for r in range(8)]
            assert batches[0] == [seq for seq, _, _ in want]
            assert rep.thinking_tokens == [think for _, think, _ in want]
            assert rep.total_tokens == [total for _, _, total in want]
            if temperature and model is small_model:  # the context ends none
                # rows of one prompt finish at different steps
                assert len(set(rep.total_tokens[::2])) > 1

    def test_prompts_checked_before_calibration(self, small_model, monkeypatch):
        def no_calibration(*args, **kwargs):
            raise AssertionError("prepare_runtime ran for a bad prompt list")

        monkeypatch.setattr("quantlab.harness.prepare_runtime", no_calibration)
        plan = QuantPlan(w_bits=4, w_method="gptq")
        for prompts, error in (([], ValueError), ([[0], []], ValueError),
                               ([[0], [0, 16]], TokenOutOfRange)):
            with pytest.raises(error):
                run_length_control(small_model, ExperimentConfig(
                    plan=plan, prompts=prompts, n_runs=2))
            if prompts:
                with pytest.raises(error):
                    generate_with_length_control(small_model, prompts[1], plan,
                                                 LengthControl(), make_rng(0))

    def test_run_needs_a_run(self, small_model):
        with pytest.raises(ValueError, match="n_runs"):
            run_length_control(small_model, ExperimentConfig(plan=QuantPlan(), n_runs=0))

    def test_run_report_stats(self, small_model):
        cfg = ExperimentConfig(
            plan=QuantPlan(), n_runs=5, seed=3,
            length_control=LengthControl(mode="suppress", budget=4))
        rep = run_length_control(small_model, cfg)
        assert len(rep.thinking_tokens) == 5
        assert rep.mean_thinking == pytest.approx(
            np.mean(rep.thinking_tokens))
        assert rep.meta["lc_mode"] == "suppress"


class TestSweep:
    def test_empty_sweep_writes_header_only(self, small_model, tmp_path):
        rows = run_sweep(small_model, [])
        assert rows == []
        p = tmp_path / "sweep.csv"
        write_sweep_csv(rows, p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("plan,")

    def test_duplicate_configs_identical_rows(self, small_model):
        cfg = ExperimentConfig(plan=QuantPlan(w_bits=4),
                               probe_tokens=probe(16))
        rows = run_sweep(small_model, [cfg, cfg])
        assert rows[0] == rows[1]
        assert rows[0]["status"] == "ok"

    def test_error_isolation(self, small_model):
        good = ExperimentConfig(plan=QuantPlan(w_bits=4),
                                probe_tokens=probe(16))
        bad = ExperimentConfig(plan=QuantPlan(w_bits=4, w_method="gptq"),
                               probe_tokens=probe(16))  # no calibration data
        rows = run_sweep(small_model, [good, bad, good])
        assert [r["status"] for r in rows] == ["ok", "error", "ok"]
        assert "MissingCalibration" in rows[1]["error"]
        assert rows[0] == rows[2]

    def test_length_control_sweep_rows(self, small_model):
        cfg = ExperimentConfig(
            plan=QuantPlan(), n_runs=2,
            length_control=LengthControl(mode="suppress", budget=4))
        rows = run_sweep(small_model, [cfg])
        assert rows[0]["status"] == "ok"
        assert "mean_thinking" in rows[0]

    def test_static_k_rows_labelled(self, small_model, tmp_path):
        """The four K stage and bias mode pairs of one static-K plan give four
        labels; other rows carry the plan's defaults."""
        static = [QuantPlan(kv_bits=4, kv_method="kvquant_star", group_size=32,
                            k_stage=stage, k_bias_mode=mode)
                  for stage in ("pre_rope", "post_rope")
                  for mode in ("pre_bias", "post_bias")]
        cfgs = [ExperimentConfig(plan=plan, probe_tokens=probe(8),
                                 calib_sequences=[probe(16, seed=3)])
                for plan in static + [QuantPlan(kv_bits=4)]]
        p = tmp_path / "sweep.csv"
        write_sweep_csv(run_sweep(small_model, cfgs), p)
        with open(p, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["status"] for r in rows] == ["ok"] * 5
        labels = [tuple(r[k] for k in ("plan", "kv_method", "group_size", "k_stage",
                                       "k_bias_mode")) for r in rows]
        assert len(set(labels[:4])) == 4
        assert labels[0] == ("16-16-4", "kvquant_star", "32", "pre_rope", "pre_bias")
        assert labels[4] == ("16-16-4", "per_token", "128", "pre_rope", "pre_bias")

    # six runs that differ only in settings outside the W-A-KV bit string
    OFF_STRING_RUNS = (
        {"plan": "8-8-16", "wa_method": "smoothquant", "smooth_alpha": 0.2},
        {"plan": "8-8-16", "wa_method": "smoothquant", "smooth_alpha": 0.8},
        {"plan": "4-4-16", "wa_method": "rotate", "rotation_seed": 0},
        {"plan": "4-4-16", "wa_method": "rotate", "rotation_seed": 7},
        {"plan": "4-4-16", "wa_method": "flatquant", "flat_steps": 0},
        {"plan": "4-4-16", "wa_method": "flatquant", "flat_steps": 2},
    )

    @staticmethod
    def sweep_cfgs(runs) -> list:
        """A sweep's configs for run dicts in the form of a sweep config's runs."""
        return [ExperimentConfig(
            plan=QuantPlan.from_bits_string(run["plan"], **{
                k: v for k, v in run.items() if k != "plan"}),
            probe_tokens=probe(16), calib_sequences=[probe(16, seed=3)])
            for run in runs]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_off_string_runs_labelled_apart(self, small_model, tmp_path, fmt):
        """Runs that differ only in a plan field outside the bit string
        (SmoothQuant's alpha, the rotation draw, FlatQuant's steps) give six
        distinct label sets: a row carries every plan field."""
        rows = run_sweep(small_model, self.sweep_cfgs(self.OFF_STRING_RUNS))
        p = tmp_path / f"sweep.{fmt}"
        if fmt == "csv":
            write_sweep_csv(rows, p)
            with open(p, newline="") as f:
                rows = list(csv.DictReader(f))
        else:
            write_sweep_json(rows, p)
            rows = json.loads(p.read_text())["rows"]
        assert [r["status"] for r in rows] == ["ok"] * 6
        keys = ["plan", *(f.name for f in fields(QuantPlan)), "seed", "code_version"]
        assert len({tuple(r[k] for k in keys) for r in rows}) == 6

    def test_json_rows_replay_their_plans(self, small_model, tmp_path):
        """Every sweep JSON row, ok or error, drift or length control, gives
        back its run's plan whole."""
        cfgs = self.sweep_cfgs(self.OFF_STRING_RUNS + (
            {"plan": "16-16-4", "kv_method": "kvquant_star", "k_stage": "post_rope",
             "k_bias_mode": "post_bias", "group_size": 32},
            {"plan": "4-4-16", "wa_method": "mxfp4", "include_lm_head": True},
            {"plan": "4-16-16", "w_method": "awq", "awq_grid_step": 0.25},
            {"plan": "3-16-16", "group_size": 8}))
        cfgs.append(ExperimentConfig(plan=QuantPlan(w_bits=4, w_method="gptq"),
                                     probe_tokens=probe(16)))  # no calibration: an error
        cfgs.append(ExperimentConfig(plan=QuantPlan(kv_bits=4), n_runs=2,
                                     length_control=LengthControl(budget=4)))
        p = tmp_path / "sweep.json"
        write_sweep_json(run_sweep(small_model, cfgs), p)
        rows = json.loads(p.read_text())["rows"]
        assert [r["status"] for r in rows] == ["ok"] * 10 + ["error", "ok"]
        for row, cfg in zip(rows, cfgs, strict=True):
            assert QuantPlan.from_dict({f.name: row[f.name]
                                        for f in fields(QuantPlan)}) == cfg.plan

    def test_sweep_keys_are_columns(self, small_model):
        """Every key of an ok drift row, an ok length-control row and an
        error row has a CSV column, which the writer would otherwise drop."""
        cfgs = [ExperimentConfig(plan=QuantPlan(w_bits=4), probe_tokens=probe(8)),
                ExperimentConfig(plan=QuantPlan(), n_runs=2,
                                 length_control=LengthControl(budget=4)),
                ExperimentConfig(plan=QuantPlan(w_bits=4, w_method="gptq"),
                                 probe_tokens=probe(8))]
        rows = run_sweep(small_model, cfgs)
        assert [r["status"] for r in rows] == ["ok", "ok", "error"]
        assert "mean_mse" in rows[0] and "mean_thinking" in rows[1]
        for row in rows:
            assert set(row) <= set(harness._SWEEP_COLUMNS)

    def test_json_report_schema(self, small_model, tmp_path):
        cfg = ExperimentConfig(plan=QuantPlan(w_bits=4),
                               probe_tokens=probe(8))
        rows = run_sweep(small_model, [cfg])
        p = tmp_path / "sweep.json"
        write_sweep_json(rows, p)
        doc = json.loads(p.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["rows"][0]["plan"] == "4-16-16"
