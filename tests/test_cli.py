import json
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantlab import cli, harness
from quantlab.calibration import parse_sequences
from quantlab.checkpoint import load_checkpoint, save_checkpoint
from quantlab.errors import QuantLabError, ShapeMismatch
from quantlab.quantrun import QuantPlan, Runtime, forward_quantized, prepare_runtime
from quantlab.rng import make_rng
from quantlab.toymodel import Session, load_model, save_model

from conftest import mutate_container, rewrite_header, with_header_room

SMALL_CFG = {"n_layers": 1, "d_model": 16, "n_heads": 2, "head_dim": 8,
             "vocab_size": 16, "max_seq_len": 128}


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.json"
    p.write_text(json.dumps(SMALL_CFG))
    return str(p)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, cfg_file):
    p = tmp_path_factory.mktemp("model") / "m.tqm"
    rc = cli.main(["init-model", "--config", cfg_file, "--seed", "0",
                   "--out", str(p)])
    assert rc == 0
    return str(p)


@pytest.fixture(scope="module")
def calib_file(tmp_path_factory, model_file):
    p = tmp_path_factory.mktemp("calib") / "calib.txt"
    rc = cli.main(["calib", "--model", model_file, "--calib-len", "24",
                   "--count", "8", "--seed", "1", "--out", str(p)])
    assert rc == 0
    return str(p)


class TestInitModel:
    def test_deterministic(self, cfg_file, tmp_path):
        a, b = tmp_path / "a.tqm", tmp_path / "b.tqm"
        for out in (a, b):
            assert cli.main(["init-model", "--config", cfg_file, "--seed",
                             "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_inject_k_bias(self, cfg_file, tmp_path):
        out = tmp_path / "m.tqm"
        assert cli.main(["init-model", "--config", cfg_file,
                         "--inject-k-bias", "0:3:400.0",
                         "--out", str(out)]) == 0
        m = load_model(out)
        assert m.tensors["layers.0.bk"][3] == 400.0


class TestQuantize:
    def test_rtn_checkpoint(self, model_file, tmp_path, capsys):
        out = tmp_path / "c.tqq"
        rc = cli.main(["quantize", "--model", model_file, "--plan", "4-16-16",
                       "--method", "rtn", "--group-size", "8",
                       "--out", str(out)])
        assert rc == 0
        model, rt = load_checkpoint(out)
        assert rt.plan.w_bits == 4 and rt.plan.w_method == "rtn"
        assert "layers.0.wq" in rt.linears
        assert "wrote" in capsys.readouterr().out

    def test_awq_prints_proxy_loss(self, model_file, calib_file, tmp_path,
                                   capsys):
        out = tmp_path / "c.tqq"
        rc = cli.main(["quantize", "--model", model_file, "--plan", "4-16-16",
                       "--method", "awq", "--calib", calib_file,
                       "--calib-len", "16", "--out", str(out)])
        assert rc == 0
        assert "proxy_loss=" in capsys.readouterr().out

    def test_gptq_without_calib_fails(self, model_file, tmp_path, capsys):
        rc = cli.main(["quantize", "--model", model_file, "--plan", "4-16-16",
                       "--method", "gptq", "--out", str(tmp_path / "c.tqq")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: MissingCalibration: ")

    @staticmethod
    def _quantize(method, model_file, calib_file, out):
        """``quantlab quantize`` at 4-16-16 and the in-memory runtime for the
        same plan and calibration windows."""
        rc = cli.main(["quantize", "--model", model_file, "--plan", "4-16-16",
                       "--method", method, "--calib", calib_file,
                       "--calib-len", "16", "--out", str(out)])
        assert rc == 0
        model = load_model(model_file)
        plan = QuantPlan(w_bits=4, w_method=method)
        return model, plan, prepare_runtime(
            model, plan, cli._load_calib(calib_file, 0, 16))

    @pytest.mark.parametrize("method", ["gptq", "awq"])
    def test_printed_proxy_losses(self, model_file, calib_file, tmp_path,
                                  capsys, method):
        _, _, rt = self._quantize(method, model_file, calib_file,
                                  tmp_path / "c.tqq")
        printed = dict(line.split(": proxy_loss=")
                       for line in capsys.readouterr().out.splitlines()
                       if ": proxy_loss=" in line)
        assert printed == {name: f"{loss:.6g}"
                           for name, loss in rt.proxy_losses.items()}
        assert len(printed) == 7

    @pytest.mark.parametrize("method", ["rtn", "gptq", "awq"])
    def test_loaded_checkpoint_runs_as_runtime(self, model_file, calib_file,
                                               tmp_path, method):
        out = tmp_path / "c.tqq"
        model, plan, rt = self._quantize(method, model_file, calib_file, out)
        loaded, loaded_rt = load_checkpoint(out)
        probe = [int(t) for t in make_rng(3).integers(4, 16, 64)]
        got = Session(loaded, runtime=loaded_rt).forward(probe)
        want = forward_quantized(model, probe, plan, runtime=rt)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("plan, method", [
        ("8-8-16", "smoothquant"), ("4-16-4", "per_token"), ("16-16-16", None)])
    def test_rejects_plans_a_checkpoint_cannot_hold(self, model_file, tmp_path,
                                                    capsys, plan, method):
        out = tmp_path / "c.tqq"
        argv = ["quantize", "--model", model_file, "--plan", plan,
                "--out", str(out)]
        rc = cli.main(argv + (["--method", method] if method else []))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestDrift:
    def test_passthrough_zero_disagreement(self, model_file, tmp_path,
                                           capsys):
        out = tmp_path / "drift.csv"
        rc = cli.main(["drift", "--model", model_file, "--plan", "16-16-16",
                       "--probe-len", "16", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "final_disagreement=0" in stdout
        assert "first_divergence=-1" in stdout
        assert len(out.read_text().strip().splitlines()) == 17

    def test_quantized_plan(self, model_file, tmp_path):
        out = tmp_path / "drift.csv"
        rc = cli.main(["drift", "--model", model_file, "--plan", "4-16-4",
                       "--probe-len", "16", "--out", str(out)])
        assert rc == 0


class TestGenerate:
    def test_deterministic_under_seed(self, model_file, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            rc = cli.main(["generate", "--model", model_file, "--prompt", "0",
                           "--max-new", "12", "--seed", "7",
                           "--out", str(out)])
            assert rc == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        toks = [int(t) for t in outs[0].split()]
        assert len(toks) == 13 and toks[0] == 0

    def test_missing_calib_file(self, model_file, tmp_path, capsys):
        """--calib is loaded for every plan, the 16-bit sentinel included."""
        rc = cli.main(["generate", "--model", model_file, "--plan", "16-16-16",
                       "--calib", str(tmp_path / "absent.txt"),
                       "--out", str(tmp_path / "g.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")


class TestLengthControl:
    def test_json_report(self, model_file, tmp_path):
        out = tmp_path / "lc.json"
        rc = cli.main(["length-control", "--model", model_file, "--mode",
                       "suppress", "--budget", "6", "--runs", "4",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["thinking_tokens"]) == 4
        assert all(t <= 6 for t in doc["thinking_tokens"])


class TestCalibStats:
    def test_calib_output_parseable(self, calib_file):
        seqs = parse_sequences(calib_file)
        assert len(seqs) == 8
        assert all(len(s) == 24 for s in seqs)

    def test_stats_csv(self, model_file, tmp_path):
        out = tmp_path / "stats.csv"
        rc = cli.main(["stats", "--model", model_file, "--site",
                       "layer0.attn_in", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("site,channel")
        assert len(lines) == 1 + SMALL_CFG["d_model"]

    def test_stats_unknown_site(self, model_file, tmp_path, capsys):
        rc = cli.main(["stats", "--model", model_file, "--site", "nowhere",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert "error: UnknownSite" in capsys.readouterr().err


class TestSweep:
    def test_csv_grid(self, model_file, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "probe_len": 16,
            "runs": [{"plan": "3-16-16"}, {"plan": "4-16-16"},
                     {"plan": "16-16-4"}],
        }))
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--model", model_file, "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("3-16-16,")

    def test_json_format(self, model_file, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"probe_len": 8,
                                   "runs": [{"plan": "16-16-16"}]}))
        out = tmp_path / "sweep_out.json"
        rc = cli.main(["sweep", "--model", model_file, "--config", str(cfg),
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["final_disagreement"] == 0

    def test_calib_key_feeds_calibrated_methods(self, model_file, tmp_path):
        calib = tmp_path / "calib64.txt"
        assert cli.main(["calib", "--model", model_file, "--calib-len", "64",
                         "--count", "8", "--seed", "1", "--out", str(calib)]) == 0
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "probe_len": 16, "calib": str(calib),
            "runs": [{"plan": "4-16-16", "w_method": "gptq"},
                     {"plan": "16-16-4", "kv_method": "kvquant_star"}],
        }))
        out = tmp_path / "sweep_out.json"
        rc = cli.main(["sweep", "--model", model_file, "--config", str(cfg),
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        assert [r["status"] for r in rows] == ["ok", "ok"], rows

    def test_gptq_under_rotate(self, model_file, tmp_path):
        """A weight-activation method takes the run's weight method: rotate
        with GPTQ weights is calibrated and writes an ok row."""
        calib = tmp_path / "calib64.txt"
        assert cli.main(["calib", "--model", model_file, "--calib-len", "64",
                         "--count", "8", "--seed", "1", "--out", str(calib)]) == 0
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "probe_len": 16, "calib": str(calib),
            "runs": [{"plan": "4-4-16", "wa_method": "rotate", "w_method": "gptq"}]}))
        out = tmp_path / "sweep_out.json"
        rc = cli.main(["sweep", "--model", model_file, "--config", str(cfg),
                       "--format", "json", "--out", str(out)])
        assert rc == 0
        [row] = json.loads(out.read_text())["rows"]
        assert (row["status"], row["w_method"], row["wa_method"]) == (
            "ok", "gptq", "rotate"), row

    def test_missing_calib_file(self, model_file, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"calib": str(tmp_path / "absent.txt"),
                                   "runs": [{"plan": "4-16-16"}]}))
        rc = cli.main(["sweep", "--model", model_file, "--config", str(cfg),
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")


def _unread_dtypes_dropped(edit):
    """``edit`` after deleting the manifest ``dtype`` keys, which the loader
    does not read, to make room for an edit that lengthens the header."""
    def run(h):
        for entry in h["tensors"]:
            del entry["dtype"]
        edit(h)
    return run


class TestErrors:
    @pytest.mark.parametrize("case, error", [
        ("undeclared", "ShapeMismatch: tensor 'bogus' is not one the config declares"),
        ("repeated", "BadMagic: 'tensors' manifest repeats tensor 'embed'")],
        ids=["undeclared", "repeated"])
    def test_model_tensor_names(self, model_file, tmp_path, capsys, case, error):
        """A TQM1 tensor the config does not declare, or a name listed twice,
        is a one-line error."""
        bad = tmp_path / "bad.tqm"
        if case == "undeclared":
            model = load_model(model_file)
            model.tensors["bogus"] = np.ones((2, 3), dtype=np.float32)
            save_model(model, bad)
        else:
            rewrite_header(model_file, bad,
                           lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]))
        rc = cli.main(["drift", "--model", str(bad), "--plan", "16-16-16",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["layers.0.wq"])
    def test_non_finite_model_tensor(self, model_file, tmp_path, capsys, value, where):
        """A TQM1 tensor holding NaN or an infinity is a one-line
        NonFiniteInput, not a drift run on NaN logits."""
        model = load_model(model_file)
        model.tensors[where] = model.tensors[where].copy()
        model.tensors[where][0, 0] = value
        bad = tmp_path / "bad.tqm"
        save_model(model, bad)
        rc = cli.main(["drift", "--model", str(bad), "--plan", "16-16-16",
                       "--out", str(tmp_path / "d.csv")])
        assert (rc, capsys.readouterr().err) == (
            1, f"error: NonFiniteInput: tensor {where!r} holds a non-finite value\n")

    def test_claimed_layer_count_is_not_walked(self, model_file, tmp_path, capsys):
        """A header that claims 10^9 layers over one layer's tensors fails at
        the first missing tensor, in well under a second, TQM1 and TQQ1
        alike (no CLI command reads TQQ1)."""
        model = load_model(model_file)
        big = replace(model, config=replace(model.config, n_layers=10**9))
        tqm, tqq = tmp_path / "m.tqm", tmp_path / "c.tqq"
        save_model(big, tqm)
        save_checkpoint(big, Runtime(QuantPlan(w_bits=4)), tqq)
        t0 = time.perf_counter()
        rc = cli.main(["drift", "--model", str(tqm), "--plan", "16-16-16",
                       "--out", str(tmp_path / "d.csv")])
        with pytest.raises(ShapeMismatch, match="missing tensor 'layers.1.norm1'"):
            load_checkpoint(tqq)
        assert time.perf_counter() - t0 < 1.0
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: ShapeMismatch: missing tensor 'layers.1.norm1'\n")

    @pytest.fixture(scope="class")
    def roomy_model(self, model_file, tmp_path_factory):
        """The CLI model with room in its header, and a directory to write
        mutants to."""
        d = tmp_path_factory.mktemp("tqm1")
        save_model(load_model(model_file), d / "base.tqm")
        return with_header_room((d / "base.tqm").read_bytes()), d

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_model_file_loads_or_errors(self, roomy_model, capsys, data):
        """Every truncation, bit flip and header rewrite of a TQM1 file (its
        config, ``n_layers`` up to 2^31 among them, and its manifest entries)
        loads with every tensor finite or raises a QuantLabError, which
        ``quantlab drift`` prints as its one-line error with exit 1."""
        raw, d = roomy_model
        path = d / "m.tqm"
        path.write_bytes(mutate_container(raw, data, ("tensors",)))
        want = None
        try:
            model = load_model(path)
        except QuantLabError as e:
            want = f"error: {type(e).__name__}: {e}\n"
        else:
            assert all(np.isfinite(a).all() for a in model.tensors.values())
        rc = cli.main(["drift", "--model", str(path), "--plan", "16-16-16",
                       "--probe-len", "8", "--out", str(d / "d.csv")])
        err = capsys.readouterr().err
        if want is not None:
            assert (rc, err) == (1, want)
        else:
            assert (rc, err) == (0, "")

    def test_calibration_file_not_utf8(self, model_file, tmp_path, capsys):
        calib = tmp_path / "calib.txt"
        calib.write_bytes(b"1 2 3\n4 \xff 5\n")
        rc = cli.main(["drift", "--model", model_file, "--plan", "16-16-16",
                       "--calib", str(calib), "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: line 2: ") and err.count("\n") == 1

    def test_missing_model_file(self, tmp_path, capsys):
        rc = cli.main(["drift", "--model", str(tmp_path / "absent.tqm"),
                       "--plan", "16-16-16", "--out",
                       str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_empty_prompt(self, model_file, tmp_path, capsys):
        rc = cli.main(["generate", "--model", model_file, "--prompt", "",
                       "--out", str(tmp_path / "g.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ValueError: prompt")

    @pytest.mark.parametrize("argv, error", [
        (["--prompt", ""], "ValueError: prompt"),
        (["--max-new", "-1"], "ValueError: max_new"),
        (["--prompt", "0 16"], "TokenOutOfRange: token 16"),
        (["--temperature", "-1"], "ValueError: temperature"),
        (["--temperature", "nan"], "ValueError: temperature"),
        (["--temperature", "inf"], "ValueError: temperature"),
        (["--top-p", "0"], "ValueError: top_p"),
        (["--top-p", "7"], "ValueError: top_p"),
        (["--top-p", "nan"], "ValueError: top_p")],
        ids=["empty-prompt", "negative-max-new", "token-outside-vocab",
             "negative-temperature", "nan-temperature", "inf-temperature",
             "top-p-zero", "top-p-above-one", "top-p-nan"])
    def test_generate_checks_before_calibration(self, model_file, calib_file, tmp_path,
                                                capsys, monkeypatch, argv, error):
        def no_calibration(*args, **kwargs):
            raise AssertionError("prepare_runtime ran for a bad generate input")

        monkeypatch.setattr(cli, "prepare_runtime", no_calibration)
        out = tmp_path / "g.txt"
        rc = cli.main(["generate", "--model", model_file, "--plan", "4-16-16",
                       "--method", "gptq", "--calib", calib_file, *argv,
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["drift", "--plan", "16-16-16", "--probe-len", "0"], "probe token"),
        (["length-control", "--runs", "0"], "n_runs"),
        (["drift", "--plan", "4-16-16", "--method", "gptq", "--calib", "CALIB",
          "--calib-len", "-5"], "seq_len"),
        (["drift", "--plan", "4-16-16", "--method", "gptq", "--calib", "CALIB",
          "--calib-len", "0"], "seq_len"),
        (["generate", "--max-new", "-3"], "max_new"),
        (["calib", "--count", "0"], "count"),
        (["calib", "--calib-len", "0"], "seq_len"),
        (["drift", "--plan", "16-16-16", "--probe-len", "-3"], "--probe-len"),
        (["drift", "--plan", "16-16-16", "--seed", "-1"], "seed"),
        (["length-control", "--max-waits", "-1", "--mode", "off"], "max_waits"),
        (["stats", "--site", "layer0.attn_in", "--calib-len", "0"], "--calib-len"),
        (["drift", "--plan", "16-16-16", "--calib-len", "0"], "--calib-len"),
        (["generate", "--calib-len", "-5"], "--calib-len"),
        (["length-control", "--calib-len", "0"], "--calib-len"),
        (["quantize", "--plan", "4-16-16", "--calib-len", "0"], "--calib-len"),
    ], ids=["probe-len", "runs", "calib-len-negative", "calib-len-zero", "max-new",
            "count", "calib-seq-len", "probe-len-negative", "seed-negative",
            "max-waits-negative", "stats-calib-len-uncalibrated",
            "drift-calib-len-uncalibrated", "generate-calib-len-uncalibrated",
            "length-control-calib-len-uncalibrated",
            "quantize-calib-len-uncalibrated"])
    def test_count_below_range(self, model_file, calib_file, tmp_path, capsys,
                               argv, message):
        out = tmp_path / "out"
        argv = [calib_file if a == "CALIB" else a for a in argv]
        rc = cli.main([argv[0], "--model", model_file, *argv[1:], "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and message in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"runs": [{"plan": "32-16-16"}]},
        {"runs": [{"plan": "16-16-17"}]},
        {"runs": [{"plan": "4-16-16", "group_size": 0}]},
        {"probe_length": 8, "runs": [{"plan": "4-16-16"}]},
        {"runs": [{"plan": "4-16-16", "wmethod": "gptq"}]},
        {"runs": [{"plan": "4-16-16", "w_bits": 3}]},
        {"runs": ["4-16-16"]},
        {"runs": [{}]},
        {"runs": [{"plan": 4}]},
        {"runs": {"plan": "4-16-16"}},
        [1, 2],
        {"runs": [{"plan": "16-16-4", "k_bias_mode": "sometimes"}]},
        {"runs": [{"plan": "16-16-4", "kv_method": "kvquant_star", "k_stage": "mid"}]},
        {"runs": [{"plan": "4-16-16", "w_method": "awq", "awq_grid_step": 0}]},
        {"runs": [{"plan": "4-16-16", "w_method": "awq", "awq_grid_step": -0.1}]},
        {"runs": [{"plan": "4-4-16", "wa_method": "flatquant", "flat_steps": -1}]},
        {"runs": [{"plan": "8-8-16", "wa_method": "smoothquant", "smooth_alpha": 7}]},
        {"runs": [{"plan": "8-8-16", "wa_method": "smoothquant", "smooth_alpha": -3}]},
        {"runs": [{"plan": "4-4-16", "wa_method": "mxfp4", "w_method": "gptq"}]},
        {"runs": [{"plan": "8-8-16", "wa_method": "smoothquant", "w_method": "awq"}]},
        {"runs": [{"plan": "16-16-4", "k_stage": "post_rope"}]},
        {"runs": [{"plan": "16-16-4", "kv_method": "rotated_per_token",
                   "k_bias_mode": "post_bias"}]},
        {"schema_version": 99, "runs": [{"plan": "4-16-16"}]},
        {"schema_version": 0, "runs": [{"plan": "4-16-16"}]},
        {"schema_version": "1", "runs": [{"plan": "4-16-16"}]},
        {"schema_version": True, "runs": [{"plan": "4-16-16"}]},
    ], ids=["bits-32", "bits-17", "group-size-0", "unknown-top-level-key",
            "unknown-option", "bits-twice", "run-not-an-object", "run-without-plan",
            "plan-not-a-string", "runs-not-a-list", "top-level-not-an-object",
            "bad-k-bias-mode", "bad-k-stage", "awq-grid-step-zero",
            "awq-grid-step-negative", "flat-steps-negative", "smooth-alpha-7",
            "smooth-alpha-negative", "gptq-under-mxfp4", "awq-under-smoothquant",
            "k-stage-without-static-k", "k-bias-mode-without-static-k",
            "schema-version-99", "schema-version-0", "schema-version-string",
            "schema-version-bool"])
    def test_malformed_sweep_config(self, model_file, tmp_path, capsys, monkeypatch,
                                    config):
        """Rejected before any run's calibration."""
        def no_calibration(*args, **kwargs):
            raise AssertionError("a sweep ran for a malformed config")

        monkeypatch.setattr(harness, "run_sweep", no_calibration)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--model", model_file, "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("probe_len", "x"), ("probe_len", True), ("probe_len", 0), ("probe_len", -3),
        ("probe_len", 2.0), ("calib", True), ("calib", 7), ("calib", 0),
        ("calib", ""), ("calib", None), ("calib", ["calib.txt"]),
    ], ids=["probe-len-string", "probe-len-bool", "probe-len-zero",
            "probe-len-negative", "probe-len-float", "calib-bool", "calib-int",
            "calib-zero", "calib-empty", "calib-null", "calib-list"])
    def test_malformed_sweep_value(self, model_file, tmp_path, capsys, key, value):
        """Named in the message, so numpy's own ValueError for a negative
        size does not pass for the check."""
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({key: value, "runs": [
            {"plan": "4-16-16", "w_method": "gptq"}]}))
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--model", model_file, "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: sweep \"{key}\" ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--inject-k-bias", "0:99:5"],
        ["--inject-k-bias", "9:1:5"],
        ["--inject-k-bias", "0:-1:5"],
        ["--inject-k-bias=-1:0:5"],
        ["--inject-k-bias", "0:5:nan"],
        ["--inject-k-bias", "0:5:-inf"],
        ["--config", {**SMALL_CFG, "n_layer": 2}],
        ["--config", [1]],
        ["--config", {**SMALL_CFG, "vocab_size": 64.0}],
        ["--config", {**SMALL_CFG, "qkv_bias": 1}],
        ["--config", {**SMALL_CFG, "n_layers": True}],
        ["--config", {**SMALL_CFG, "n_layers": -2}],
        ["--config", {**SMALL_CFG, "d_model": 0, "n_heads": 0}],
        ["--config", {**SMALL_CFG, "ffn_mult": 0}],
        ["--config", {**SMALL_CFG, "max_seq_len": -5}],
        ["--config", {**SMALL_CFG, "d_model": 2, "head_dim": 1}],
        ["--config", {**SMALL_CFG, "rope_base": 0.0}],
        ["--config", {**SMALL_CFG, "rope_base": float("nan")}],
    ], ids=["channel-past-d-model", "layer-past-n-layers", "negative-channel",
            "negative-layer", "nan-magnitude", "infinite-magnitude",
            "unknown-config-key", "config-not-an-object", "float-vocab-size",
            "int-qkv-bias", "bool-n-layers", "negative-n-layers", "zero-heads",
            "zero-ffn-mult", "negative-max-seq-len", "head-dim-1", "zero-rope-base",
            "nan-rope-base"])
    def test_malformed_init_model(self, cfg_file, tmp_path, capsys, argv):
        if argv[0] == "--config":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(argv[1]))
            argv = ["--config", str(path)]
        else:
            argv = ["--config", cfg_file, *argv]
        out = tmp_path / "m.tqm"
        rc = cli.main(["init-model", *argv, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--plan", "32-16-16"], ["--plan", "16-16-17"], ["--plan", "1-16-16"],
        ["--plan", "12-16-16", "--method", "gptq", "--calib", "CALIB"],
        ["--plan", "4-16-16", "--group-size", "0"],
        ["--plan", "4-16-16", "--group-size", "-8"],
    ], ids=["bits-32", "bits-17", "bits-1", "bits-12-gptq", "group-size-0",
            "group-size-negative"])
    def test_plan_no_quantizer_takes(self, model_file, calib_file, tmp_path, capsys,
                                     monkeypatch, argv):
        """Rejected before the reference or a calibration capture runs."""
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward ran for a plan no quantizer takes")

        monkeypatch.setattr(harness, "run_drift", no_forward)
        argv = [calib_file if a == "CALIB" else a for a in argv]
        out = tmp_path / "d.csv"
        rc = cli.main(["drift", "--model", model_file, *argv, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["drift", "--model", "MODEL", "--plan", "4-16-16", "--probe-len", "abc"],
         "argument --probe-len: invalid int value: 'abc'"),
        (["drift", "--model", "MODEL"], "the following arguments are required: --plan"),
        (["calib", "--model", "MODEL", "--count", "8", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["length-control", "--model", "MODEL", "--mode", "sometimes"],
         "argument --mode: invalid choice: 'sometimes'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ], ids=["probe-len-not-an-int", "missing-required", "unknown-option",
            "bad-choice", "unknown-subcommand", "no-subcommand"])
    def test_usage_error_is_one_line(self, model_file, tmp_path, capsys, argv,
                                     message):
        """What argparse rejects is one UsageError line and exit 1, not a
        usage block and exit 2; no output is written."""
        out = tmp_path / "out"
        argv = [model_file if a == "MODEL" else a for a in argv]
        rc = cli.main(argv + (["--out", str(out)] if argv else []))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: UsageError: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["drift", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: quantlab") and captured.err == ""

    @pytest.mark.parametrize("method", ["bogus", "none"])
    def test_unknown_method(self, model_file, tmp_path, capsys, method):
        """``none`` names no method to apply; it is the absence of one."""
        out = tmp_path / "d.csv"
        rc = cli.main(["drift", "--model", model_file, "--plan", "4-16-16",
                       "--method", method, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: unknown method {method!r}")
        assert err.count("\n") == 1 and not out.exists()

    def test_bad_plan_string(self, model_file, tmp_path, capsys):
        rc = cli.main(["drift", "--model", model_file, "--plan", "four",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        assert "error: ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [0, 2, 7])
    def test_unsupported_format_version(self, model_file, tmp_path, capsys, version):
        """A TQM1 whose version byte is not FORMAT_VERSION is refused."""
        raw = bytearray(open(model_file, "rb").read())
        raw[4] = version
        bad, out = tmp_path / "bad.tqm", tmp_path / "d.csv"
        bad.write_bytes(bytes(raw))
        rc = cli.main(["drift", "--model", str(bad), "--plan", "16-16-16",
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: BadMagic: format version {version}")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("edit, error", [
        pytest.param(lambda h: h.pop("tensors"), "BadMagic",
                     id="missing-tensors"),
        pytest.param(lambda h: h["config"].update(
            qkv_biaz=h["config"].pop("qkv_bias")), "BadMagic",
                     id="unknown-config-key"),
        pytest.param(lambda h: h.update(config=[1]), "BadMagic",
                     id="config-not-a-dict"),
        pytest.param(_unread_dtypes_dropped(lambda h: h["config"].update(vocab_size=16.0)),
                     "BadMagic", id="float-vocab-size"),
        pytest.param(_unread_dtypes_dropped(lambda h: h["config"].update(max_seq_len=1e3)),
                     "BadMagic", id="float-max-seq-len"),
        pytest.param(_unread_dtypes_dropped(lambda h: h["config"].update(n_layers=True)),
                     "BadMagic", id="bool-n-layers"),
        pytest.param(_unread_dtypes_dropped(lambda h: h["config"].update(qkv_bias=1)),
                     "BadMagic", id="int-qkv-bias"),
        pytest.param(lambda h: h["config"].update(n_layers=0), "BadMagic",
                     id="zero-layers"),
        pytest.param(lambda h: h["config"].update(max_seq_len=-5), "BadMagic",
                     id="negative-max-seq-len"),
        pytest.param(lambda h: h["config"].update(ffn_mult=0), "BadMagic",
                     id="zero-ffn-mult"),
        pytest.param(lambda h: h["config"].update(rope_base=-1.0), "BadMagic",
                     id="negative-rope-base"),
        pytest.param(_unread_dtypes_dropped(lambda h: h["config"].update(
            rope_base=float("inf"))), "BadMagic", id="infinite-rope-base"),
        pytest.param(lambda h: h["tensors"][0].update(offset=-64),
                     "TruncatedFile", id="negative-offset"),
        pytest.param(lambda h: h["tensors"][0].update(shape=[-1]),
                     "ShapeMismatch", id="negative-dim"),
        pytest.param(lambda h: h.update(tensors=None), "BadMagic",
                     id="tensors-null"),
        pytest.param(lambda h: h.update(tensors="x"), "BadMagic",
                     id="tensors-string"),
        pytest.param(lambda h: h["tensors"].__setitem__(0, 1), "BadMagic",
                     id="entry-not-a-mapping"),
        pytest.param(_unread_dtypes_dropped(
            lambda h: h["tensors"][0].update(name=["embed"])), "BadMagic",
                     id="name-not-a-string"),
        pytest.param(_unread_dtypes_dropped(
            lambda h: h["tensors"][0].update(shape=[2**40, 2**40])),
                     "TruncatedFile", id="element-count-overflow"),
    ])
    def test_malformed_header(self, model_file, tmp_path, capsys, edit, error):
        bad = tmp_path / "bad.tqm"
        rewrite_header(model_file, bad, edit)
        rc = cli.main(["drift", "--model", str(bad), "--plan", "16-16-16",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert err.count("\n") == 1
