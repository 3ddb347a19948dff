"""quantlab benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload drift --seed 1 --seconds 30 --trace 0

Runs in-process against the library under ``src/`` of the checkout that
holds this file, one op at a time on one thread, with BLAS pinned to one
thread. Prints every metric by name and unit, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the run times whole op cycles untraced for half the time, repeats the same
ops with every layer function wrapped, and reports the per-layer metrics, the
call tree with self times, and the tracing overhead.

Op latencies and set-up are the process's CPU seconds, rescaled to a fixed
host speed. With one thread of load, CPU time is wall time less the time the
process was descheduled. On a shared host the CPU itself also runs faster or
slower from one stretch of seconds to the next, so a fixed probe (pure
Python and small numpy, none of the library) is timed between ops and every
0.2 s during them. Each op's CPU time, less the probes it ran, is scaled by
the probe's nominal time over the mean of the probes from just before the op
to just after it. Raw CPU and wall time are kept in the record. The full record (run environment, every op's wall and
CPU time, tail latency, call tree) and the spans go under ``perfbench/out/``.

Exit code 1 when any op fails its output check, 2 when the library is missing.
"""

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BLAS_THREADS = 1
SETUP_REPS = 5
PROBE_NOMINAL_S = 0.006  # about one probe's CPU seconds on a quiet 2.1 GHz Xeon vCPU
PROBE_EVERY_S = 0.2
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _fail_setup(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    # before numpy loads: one BLAS thread, no sweep worker override
    os.environ.pop("QUANTLAB_THREADS", None)
    for v in _THREAD_VARS:
        os.environ[v] = str(BLAS_THREADS)
    if not (SRC / "quantlab" / "__init__.py").is_file():
        _fail_setup(f"no library at {SRC / 'quantlab'}")
    sys.path.insert(0, str(SRC))
    import quantlab
    if Path(quantlab.__file__).resolve().parent != (SRC / "quantlab").resolve():
        _fail_setup(f"imported quantlab from {quantlab.__file__}, not {SRC}")


# --- host speed ----------------------------------------------------------------


def probe() -> float:
    """CPU seconds of a fixed piece of work in the style of a decode step
    (small matrix-vector products, elementwise numpy and interpreter
    overhead) that calls nothing of the library, so no change to the library
    moves it."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((64, 64)) * 0.1
    c = process_time()
    x, acc = a[0].copy(), 0.0
    for i in range(2000):
        x = np.tanh(a @ x)
        acc += float(x[i & 63])
    return process_time() - c


class HostSpeed:
    """Times the probe between pieces of work and, from a timer, every
    ``PROBE_EVERY_S`` seconds during them, and rescales the CPU time of each
    piece to the probe's nominal speed.

    Probes are kept as (process CPU time at their start, CPU seconds they
    took). The timer's probes run in the main thread between bytecodes, so
    each one falls wholly inside or wholly outside a piece of work. The
    timer counts wall time: a CPU-time timer would make the kernel read the
    process's CPU clock at tick resolution (4 ms) while it is armed.
    """

    def __init__(self):
        self.start = []
        self.took = []
        self._busy = False

    def sample(self, *_):
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            c = process_time()
            self.took.append(probe())
            self.start.append(c)
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, c0: float, c1: float) -> float:
        """The CPU seconds from ``c0`` to ``c1`` less the probes run within,
        times the nominal probe time over the mean probe time from the last
        probe before ``c0`` to the first one after ``c1``."""
        lo = bisect.bisect_left(self.start, c0)
        hi = bisect.bisect_left(self.start, c1)
        own = c1 - c0 - sum(self.took[lo:hi])
        window = self.took[max(lo - 1, 0):hi + 1]
        return own * PROBE_NOMINAL_S / statistics.fmean(window)


# --- statistics -----------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); None when that is below p90, that is
    below 100 samples, where it would be no tail."""
    n = len(values)
    if n < 100:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def kind_p50(op_s, cycle_len: int) -> float:
    """Median over the op kinds of a cycle of each kind's median latency.

    Ops of different plans differ in cost by up to 30x, so the plain median
    of a mixed run sits on the boundary between two plans' samples and jumps
    with either plan's noise; this estimates the same p50 from within-plan
    medians instead.
    """
    return statistics.median(statistics.median(op_s[k::cycle_len])
                             for k in range(cycle_len))


def rates(op_s, op_tokens, cycle_len: int) -> tuple:
    """(ops per second, tokens per second) of the cycle's op mix, from
    per-kind medians: each kind of op contributes its median latency, and its
    mean token count at its median token rate. A stall in a few ops moves no
    median, where it would move a plain total-over-time rate."""
    cycle_s = cycle_tokens = token_s = 0.0
    for k in range(cycle_len):
        s, t = op_s[k::cycle_len], op_tokens[k::cycle_len]
        cycle_s += statistics.median(s)
        mean_tokens = statistics.fmean(t)
        cycle_tokens += mean_tokens
        token_s += mean_tokens / statistics.median(a / b for a, b in zip(t, s))
    return cycle_len / cycle_s, cycle_tokens / token_s


class Run:
    """What one pass of whole op cycles measured."""

    def __init__(self):
        self.op_s = []        # CPU seconds per op
        self.op_scaled_s = []  # the same less in-op probes, at nominal host speed
        self.op_wall_s = []
        self.op_tokens = []
        self.agree = []
        self.failed = 0
        self.messages = []
        self.cycles = 0
        self.wall = 0.0
        self.cpu = 0.0


def run_cycles(wl, state, seconds=None, cycles=None, tracer=None,
               host=None) -> Run:
    """Run whole cycles of ops: a fixed number of cycles, or as many as fit
    in ``seconds`` of wall time judging by the last cycle's length (at least
    one). With a ``HostSpeed``, probe it before the first op and after each,
    and report each op's host-scaled time as well."""
    run = Run()
    spans = []
    t0, cpu0 = perf_counter(), process_time()
    if host:
        host.sample()
    while True:
        c0 = perf_counter()
        for k in range(wl.cycle_len):
            i = run.cycles * wl.cycle_len + k
            t, c = perf_counter(), process_time()
            res = None
            try:
                if tracer is None:
                    res = wl.run_op(state, i)
                else:
                    with tracer.op_span(i, f"op.{wl.name}", wl.attrs(i)):
                        res = wl.run_op(state, i)
            except Exception:  # an op that raises counts as failed; go on
                run.messages.append(f"op {i} raised:\n{traceback.format_exc()}")
            c1 = process_time()
            run.op_s.append(c1 - c)
            run.op_wall_s.append(perf_counter() - t)
            spans.append((c, c1))
            if host:
                host.sample()
            run.op_tokens.append(0 if res is None else res.tokens)
            if res is None or res.failures:
                run.failed += 1
                run.messages += [] if res is None else res.failures
            elif res.agree is not None:
                run.agree.append(res.agree)
        run.cycles += 1
        now = perf_counter()
        if cycles is not None:
            if run.cycles >= cycles:
                break
        elif now - t0 + (now - c0) > seconds:
            break
    run.wall = perf_counter() - t0
    run.cpu = process_time() - cpu0
    if host:
        run.op_scaled_s = [host.scaled(a, b) for a, b in spans]
    return run


# --- run record -----------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout's git repository, read from ``.git`` directly;
    "unknown" when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "quantlab").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown"),
                 "threads": BLAS_THREADS,
                 "env": {v: os.environ.get(v) for v in _THREAD_VARS}},
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
    }


# --- reporting ------------------------------------------------------------------


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


def end_to_end(run: Run, cycle_len: int, setup_s: float, agree: list) -> dict:
    """The bounded end-to-end metrics (the ones BENCHMARK.json lists)."""
    ops_per_s, tokens_per_s = rates(run.op_scaled_s, run.op_tokens, cycle_len)
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "tokens_per_s": {"value": tokens_per_s, "unit": "tok/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB"},
        "top1_agree_pct": {"value": 100.0 * statistics.fmean(agree), "unit": "%"},
    }


def _report_end_to_end(run, wl, setup_s, agree, failed, attempted, record,
                       host) -> dict:
    metrics = end_to_end(run, wl.cycle_len, setup_s, agree)
    print(f"end-to-end ({len(run.op_s)} ops in {run.cycles} cycles, "
          f"{run.wall:.3f} s wall, {run.cpu:.3f} s CPU):")
    for k, v in metrics.items():
        _print_metric(k, v["value"], v["unit"])
    # printed and recorded, not bounded: across seeds these move with the
    # op mix and the sampled decode lengths more than a bound could allow
    p50 = kind_p50(run.op_s, wl.cycle_len)
    t = tail(run.op_s)
    record["op_p50"] = {"value_s": p50, "samples": len(run.op_s),
                        "kinds": wl.cycle_len}
    record["op_tail"] = None if t is None else {
        "value_s": t[0], "percentile": t[1], "samples": t[2]}
    _print_metric("op_p50_s", p50, "s", f"(median of {wl.cycle_len} per-kind "
                  f"medians, {len(run.op_s)} ops)")
    if t is None:
        print(f"  {'op_tail_s':<44} {'n/a':>14} s      "
              f"(needs 100 samples, has {len(run.op_s)})")
    else:
        _print_metric("op_tail_s", t[0], "s", f"(p{t[1]:.1f} of {t[2]} ops)")
    _print_metric("op_fail_pct", 100.0 * failed / attempted, "%",
                  f"({failed} failed of {attempted} attempted)")
    cpu_ops_per_s, cpu_tokens_per_s = rates(run.op_s, run.op_tokens, wl.cycle_len)
    _print_metric("cpu_ops_per_s", cpu_ops_per_s, "1/s",
                  "(as ops_per_s, raw CPU time, record only)")
    _print_metric("cpu_tokens_per_s", cpu_tokens_per_s, "tok/s",
                  "(as tokens_per_s, raw CPU time, record only)")
    _print_metric("wall_ops_per_s", len(run.op_s) / run.wall, "1/s",
                  "(ops over timed wall time, record only)")
    _print_metric("probe_p50_s", statistics.median(host.took), "s",
                  f"(nominal {PROBE_NOMINAL_S:g} s, {len(host.took)} probes)")
    record.update({"cpu_ops_per_s": cpu_ops_per_s,
                   "cpu_tokens_per_s": cpu_tokens_per_s})
    return metrics


def _report_traced(runs, tr, record, stem) -> dict:
    import layers
    import tracer as tracing
    spans = tr.arrays()
    self_s = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    values = layers.layer_metrics(tr.names, spans, self_s, tr.counters)
    untraced, traced = runs[0].wall, runs[1].wall
    values.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                   "trace.overhead_pct": 100.0 * (traced - untraced) / untraced})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in layers.per_layer_metrics()}
    print(f"per-layer ({len(runs[1].op_s)} traced ops, {len(tr.name_idx)} spans; "
          "span times are wall seconds):")
    for k, v in metrics.items():
        _print_metric(k, v["value"], v["unit"])
    tree = tracing.call_tree(tr.names, spans["name"], spans["parent"],
                             spans["end"] - spans["start"], self_s)
    total = sum(row[2] for row in tree if len(row[0]) == 1)
    print("call tree (inclusive s, self s, calls; paths above 0.5% of op time):")
    for path, calls, incl, own in tree:
        if incl >= 0.005 * total:
            print(f"  {'  ' * (len(path) - 1)}{path[-1]:<44} "
                  f"{incl:10.4f} {own:10.4f} {calls:9d}")
    table = layers.recent_table(tr.names, spans, tr.op_attrs)
    print("recent table (traced, wall):")
    for row in table:
        print("  " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float)
                               else f"{k}={v}" for k, v in row.items()))
    record.update({"call_tree": [{"path": list(p), "calls": c, "s": s, "self_s": o}
                                 for p, c, s, o in tree],
                   "recent_table": table,
                   "spans": f"{stem.name}.spans.npz"})
    tr.save(f"{stem}.spans.npz")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import layers  # these load numpy, so only after the BLAS pin
    import tracer as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail_setup(f"unknown workload {args.workload!r}; "
                    f"one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    import_s = process_time()  # CPU since process start: interpreter + imports

    # set-up, repeated; the last state is the one measured. Untraced runs
    # probe the host speed from here on; traced ones report wall time only.
    host = None if args.trace else HostSpeed()
    with host or contextlib.nullcontext():
        probe()  # warm-up
        if host:
            host.sample()
        setup_reps, setup_spans = [], []
        for _ in range(SETUP_REPS):
            c = process_time()
            state = wl.setup(args.seed)
            c1 = process_time()
            setup_reps.append(c1 - c)
            setup_spans.append((c, c1))
            if host:
                host.sample()
        if host:
            setup_s = (import_s * PROBE_NOMINAL_S / statistics.median(host.took)
                       + statistics.median(host.scaled(a, b) for a, b in setup_spans))
        else:
            setup_s = import_s + statistics.median(setup_reps)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        runs = [run_cycles(wl, state, seconds=args.seconds / (1 + args.trace),
                           host=host)]
    record = run_record(args)
    record.update({"import_s": import_s, "setup_reps_s": setup_reps})

    if args.trace:
        tr = tracing.Tracer(layers.TARGETS)
        with tr:
            runs.append(run_cycles(wl, state, cycles=runs[0].cycles, tracer=tr))
        leftover = tracing.leftover_wrappers()
        if leftover:
            runs[-1].failed += 1
            runs[-1].messages.append(f"wrappers left after tracing: {leftover}")
    agree = runs[0].agree + wl.finish(state)

    attempted = sum(len(r.op_s) for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for m in r.messages:
            print(f"FAILED: {m}")
    run = runs[0]
    record.update({"cycles": run.cycles, "timed_wall_s": run.wall,
                   "timed_cpu_s": run.cpu, "op_s": run.op_s,
                   "op_scaled_s": run.op_scaled_s,
                   "probe_s": host.took if host else [],
                   "op_wall_s": run.op_wall_s, "op_tokens": run.op_tokens,
                   "attempted": attempted, "failed": failed})

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = _report_traced(runs, tr, record, stem)
    else:
        metrics = _report_end_to_end(run, wl, setup_s, agree, failed, attempted,
                                     record, host)
    record["metrics"] = metrics
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k not in ("call_tree", "recent_table", "metrics",
                                               "op_s", "op_scaled_s", "op_wall_s",
                                               "op_tokens", "probe_s")}))
    ok = failed == 0
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
