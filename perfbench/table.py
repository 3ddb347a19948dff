"""Print the ROADMAP "Recent" timing table from traced benchmark runs.

    python3 perfbench/table.py [--seed 1] [--seconds 30]

Runs the traced ``drift`` and ``calibrate`` workloads one after the other
(``run.py --trace 1``), then prints, as a markdown table, µs per
``Session.step`` for the reference and for each quantized plan, and seconds
per ``prepare_runtime`` for each method. Figures are traced wall time, so
they include the tracing overhead each run reports.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    rows = ["| what | measured |", "| --- | --- |"]
    for workload in ("drift", "calibrate"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1"]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"table: {workload} run failed ({done.returncode})", file=sys.stderr)
            return 1
        record = json.loads(
            (HERE / "out" / f"{workload}-seed{args.seed}-trace1.json").read_text())
        overhead = record["metrics"]["trace.overhead_pct"]["value"]
        for r in record["recent_table"]:
            if r["what"] == "step" and r["caller"] in (
                    "toymodel.forward_reference", "quantrun.forward_quantized"):
                what = ("reference `Session.step`" if r["plan"] == "reference"
                        else f"quantized step, {r['plan']}")
                rows.append(f"| {what} ({workload}) | {r['us_per_token']:.0f} µs/token |")
            elif r["what"] == "prepare":
                rows.append(f"| `prepare_runtime`, {r['method']} ({workload}) | "
                            f"{r['s_per_call']:.4g} s |")
        rows.append(f"| tracing overhead ({workload}) | {overhead:.1f}% |")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
