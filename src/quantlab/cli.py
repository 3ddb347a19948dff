"""Command-line driver.

Subcommands: init-model, quantize, drift, generate, length-control, calib,
stats, sweep. Exit code 0 on success; failures, a command line argparse
rejects among them (``UsageError``), print one machine-readable
``error: <Class>: <message>`` line on stderr and exit 1.
"""

import argparse
import json
import sys

from . import calibration, checkpoint, harness
from .errors import QuantLabError, UsageError
from .quantrun import KV_METHODS, W_METHODS, WA_METHODS, QuantPlan, prepare_runtime
from .rng import make_rng
from .toymodel import (
    ToyConfig,
    check_generate,
    generate,
    init_model,
    load_model,
    save_model,
)

CALIB_LEN = 64  # tokens per calibration window, unless --calib-len says otherwise


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _plan_from_args(args) -> QuantPlan:
    kwargs = {}
    if getattr(args, "method", None):
        if args.method in W_METHODS:
            kwargs["w_method"] = args.method
        elif args.method in WA_METHODS and args.method != "none":
            kwargs["wa_method"] = args.method
        elif args.method in KV_METHODS:
            kwargs["kv_method"] = args.method
        else:
            raise ValueError(f"unknown method {args.method!r}")
    if getattr(args, "group_size", None) is not None:
        kwargs["group_size"] = args.group_size
    return QuantPlan.from_bits_string(args.plan, **kwargs)


def _load_calib(path, seed: int, calib_len: int = CALIB_LEN):
    """Eight windows of ``calib_len`` tokens from a calibration file, cropped
    under ``seed``; None without a path."""
    if not path:
        return None
    cs = calibration.load_calibration(path, seq_len=calib_len, count=8,
                                      rng=make_rng(seed))
    return cs.sequences


def cmd_init_model(args):
    cfg_kwargs = {}
    if args.config:
        with open(args.config) as f:
            cfg_kwargs = json.load(f)
    try:
        cfg = ToyConfig.from_dict(cfg_kwargs)
    except TypeError as e:  # unknown or mistyped key, or not a mapping
        raise ValueError(f"bad --config {args.config}: {e}")
    injection = None
    if args.inject_k_bias:
        layer, channel, mag = args.inject_k_bias.split(":")
        injection = (int(layer), int(channel), float(mag))
    m = init_model(cfg, make_rng(args.seed), k_bias_outlier=injection)
    save_model(m, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_quantize(args):
    """prepare_runtime for a weight-only plan, then save the runtime as a
    TQQ1 checkpoint."""
    model = load_model(args.model)
    plan = checkpoint.check_plan(_plan_from_args(args))
    rt = prepare_runtime(model, plan, _load_calib(args.calib, args.seed, args.calib_len))
    for name, lin in rt.linears.items():
        if name in rt.proxy_losses:
            print(f"{name}: proxy_loss={rt.proxy_losses[name]:.6g}")
        else:
            print(f"{name}: quantized {lin.w.shape} at {plan.w_bits} bits")
    checkpoint.save_checkpoint(model, rt, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_drift(args):
    if args.probe_len < 1:
        raise ValueError(f"--probe-len must be at least 1 probe token, "
                         f"got {args.probe_len}")
    model = load_model(args.model)
    plan = _plan_from_args(args)
    rng = make_rng(args.seed)
    probe = list(rng.integers(0, model.config.vocab_size, size=args.probe_len))
    calib = _load_calib(args.calib, args.seed, args.calib_len)
    cfg = harness.ExperimentConfig(plan=plan, probe_tokens=[int(t) for t in probe],
                                   calib_sequences=calib, seed=args.seed)
    rep = harness.run_drift(model, cfg)
    harness.write_drift_csv(rep, args.out)
    print(f"final_disagreement={rep.final_disagreement} "
          f"first_divergence={rep.first_divergence}")
    print(f"wrote {args.out}")
    return 0


def cmd_generate(args):
    model = load_model(args.model)
    plan = _plan_from_args(args)
    rng = make_rng(args.seed)
    prompt = [int(t) for t in args.prompt.split()]
    check_generate(model.config, prompt, args.max_new, args.temperature, args.top_p,
                   rng)
    runtime = prepare_runtime(model, plan,
                              _load_calib(args.calib, args.seed, args.calib_len))
    seq = generate(model, prompt, max_new=args.max_new,
                   temperature=args.temperature, top_p=args.top_p, rng=rng,
                   runtime=runtime)
    line = " ".join(str(t) for t in seq)
    with open(args.out, "w") as f:
        f.write(line + "\n")
    print(line)
    return 0


def cmd_length_control(args):
    model = load_model(args.model)
    plan = _plan_from_args(args)
    lc = harness.LengthControl(mode=args.mode, budget=args.budget,
                               max_waits=args.max_waits)
    calib = _load_calib(args.calib, args.seed, args.calib_len)
    cfg = harness.ExperimentConfig(plan=plan, length_control=lc, seed=args.seed,
                                   n_runs=args.runs, calib_sequences=calib)
    rep = harness.run_length_control(model, cfg)
    with open(args.out, "w") as f:
        json.dump({"schema_version": harness.SCHEMA_VERSION,
                   "meta": rep.meta,
                   "thinking_tokens": rep.thinking_tokens,
                   "total_tokens": rep.total_tokens,
                   "mean_thinking": rep.mean_thinking,
                   "median_thinking": rep.median_thinking}, f, indent=2)
    print(f"mean_thinking={rep.mean_thinking:.2f}")
    print(f"wrote {args.out}")
    return 0


def cmd_calib(args):
    model = load_model(args.model)
    rng = make_rng(args.seed)
    prompts = [[0]]
    cs = calibration.self_generate(model, prompts, seq_len=args.calib_len,
                                   count=args.count, rng=rng)
    calibration.write_sequences(cs.sequences, args.out)
    print(f"wrote {args.out} ({cs.count} sequences, domain={cs.domain_tag})")
    return 0


def cmd_stats(args):
    model = load_model(args.model)
    seqs = _load_calib(args.calib, args.seed, args.calib_len)
    if seqs is None:
        rng = make_rng(args.seed)
        seqs = [[int(t) for t in rng.integers(0, model.config.vocab_size, size=64)]
                for _ in range(4)]
    stats = calibration.capture_channel_stats(model, calibration.CalibrationSet(seqs),
                                              [args.site])
    calibration.stats_to_csv(stats, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_sweep(args):
    model = load_model(args.model)
    with open(args.config) as f:
        spec = json.load(f)
    if not isinstance(spec, dict) or not isinstance(spec.get("runs", []), list):
        raise ValueError(f"sweep config must be an object whose \"runs\" is a "
                         f"list, got {spec!r}")
    unknown = set(spec) - {"runs", "probe_len", "calib", "schema_version"}
    if unknown:
        raise ValueError(f"sweep config has unknown keys {sorted(unknown)}")
    version = spec.get("schema_version", harness.SCHEMA_VERSION)
    if type(version) is not int or version != harness.SCHEMA_VERSION:
        raise ValueError(f"sweep \"schema_version\" must be {harness.SCHEMA_VERSION}, "
                         f"got {version!r}")
    probe_len, calib = spec.get("probe_len", 64), spec.get("calib")
    if type(probe_len) is not int or probe_len < 1:
        raise ValueError(f"sweep \"probe_len\" must be an int >= 1, got {probe_len!r}")
    if "calib" in spec and (type(calib) is not str or not calib):
        raise ValueError(f"sweep \"calib\" must be a non-empty path string, "
                         f"got {calib!r}")
    rng = make_rng(args.seed)
    probe = [int(t) for t in rng.integers(0, model.config.vocab_size, size=probe_len)]
    calib = _load_calib(calib, args.seed)
    cfgs = []
    for entry in spec.get("runs", []):
        if not isinstance(entry, dict) or "plan" not in entry:
            raise ValueError(f"each sweep run must be an object with a \"plan\", "
                             f"got {entry!r}")
        plan = QuantPlan.from_bits_string(
            entry["plan"], **{k: v for k, v in entry.items() if k != "plan"})
        cfgs.append(harness.ExperimentConfig(plan=plan, probe_tokens=probe,
                                             calib_sequences=calib, seed=args.seed))
    rows = harness.run_sweep(model, cfgs)
    if args.format == "json":
        harness.write_sweep_json(rows, args.out)
    else:
        harness.write_sweep_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2; its
    subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="quantlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-model", help="create a seeded toy model file")
    p.add_argument("--config", help="JSON file of ToyConfig overrides")
    p.add_argument("--inject-k-bias", help="layer:channel:magnitude")
    _add_common(p)
    p.set_defaults(fn=cmd_init_model)

    def model_plan(p, plan_required=True):
        p.add_argument("--model", required=True)
        p.add_argument("--plan", required=plan_required, default="16-16-16")
        p.add_argument("--method")
        p.add_argument("--group-size", type=int, dest="group_size")
        p.add_argument("--calib")
        p.add_argument("--calib-len", type=int, default=CALIB_LEN, dest="calib_len")

    p = sub.add_parser("quantize", help="write a quantized checkpoint")
    model_plan(p)
    _add_common(p)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("drift", help="teacher-forced drift report")
    model_plan(p)
    p.add_argument("--probe-len", type=int, default=128)
    _add_common(p)
    p.set_defaults(fn=cmd_drift)

    p = sub.add_parser("generate", help="sample a continuation")
    model_plan(p, plan_required=False)
    p.add_argument("--prompt", default="0")
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--temperature", type=float, default=0.6)
    p.add_argument("--top-p", type=float, default=0.95, dest="top_p")
    _add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("length-control", help="budget-forced generation lengths")
    model_plan(p, plan_required=False)
    p.add_argument("--mode", choices=["off", "suppress", "promote"],
                   default="suppress")
    p.add_argument("--budget", type=int, default=32)
    p.add_argument("--max-waits", type=int, default=8, dest="max_waits")
    p.add_argument("--runs", type=int, default=16)
    _add_common(p)
    p.set_defaults(fn=cmd_length_control)

    p = sub.add_parser("calib", help="self-generate calibration data")
    p.add_argument("--model", required=True)
    p.add_argument("--calib-len", type=int, default=CALIB_LEN, dest="calib_len")
    p.add_argument("--count", type=int, default=8)
    _add_common(p)
    p.set_defaults(fn=cmd_calib)

    p = sub.add_parser("stats", help="channel statistics CSV for one site")
    p.add_argument("--model", required=True)
    p.add_argument("--site", required=True)
    p.add_argument("--calib")
    p.add_argument("--calib-len", type=int, default=CALIB_LEN, dest="calib_len")
    _add_common(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("sweep", help="run a grid of plans from a JSON config")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "calib_len", CALIB_LEN) < 1:  # with or without --calib
            raise ValueError(f"--calib-len is the calibration seq_len and must be "
                             f"at least 1, got {args.calib_len}")
        return args.fn(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (QuantLabError, ValueError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
