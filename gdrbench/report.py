"""Steadiness and traced-run report for one workload.

Usage (from the repository root)::

    python3 gdrbench/report.py --workload hospital-loop --runs 10 --seconds 50

Runs ``run.py`` ``--runs`` times untraced, each with its own seed, and
prints for every end-to-end metric its unit, median, quartiles, extremes
and spread (interquartile range over median, the figure a bound must
cover).  Then one traced run prints each layer's self time, the
unattributed share of ``setup_s + run_s`` and the tracing overhead
(traced against untraced medians of ``setup_s`` and ``run_s``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from gdrbench.run import REFERENCE_KERNEL_S  # noqa: E402
from gdrbench.stats import summary  # noqa: E402
from gdrbench.workloads import ROOT  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "gdrbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        print(f"seed {seed}: {result['failed']} of {result['attempted']} sessions failed", file=sys.stderr)
    return info, result


def steadiness(runs: list[tuple[dict, dict]]) -> dict:
    values: dict[str, list] = {}
    units = {}
    for __, result in runs:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':<18} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} {'spread':>7}")
    table = {}
    for name, series in values.items():
        s = table[name] = summary(series)
        print(
            f"{name:<18} {units[name]:<6} {s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g}"
            f" {s['min']:>11.5g} {s['max']:>11.5g} {s['spread']:>7.3f}"
        )
    samples = [info["wait_samples"] for info, __ in runs]
    print(f"wait samples per run: {min(samples)}-{max(samples)}; inputs {runs[0][0]['inputs_sha256'][:16]}")
    return table


def traced(info: dict, result: dict, untraced: dict) -> None:
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # the traced sessions' times scaled like run.py scales them
    ref = REFERENCE_KERNEL_S
    setup = statistics.median(ref / cal * s for s, __, __, cal in info["raw_sessions"])
    run = statistics.median(ref / cal * r for __, __, r, cal in info["raw_sessions"])
    total = setup + run
    print(f"\ntraced run: setup_s {setup:.4f}  run_s {run:.4f}  ({info['sessions']} sessions)")
    layers = {k: v for k, v in metrics.items() if k.endswith("_s") and k not in ("other_s", "gdr.drain_s")}
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        if value:
            print(f"  {name:<26} {value:10.4f} s  {100 * value / total:6.2f}%")
    print(f"  {'unattributed (other_s)':<26} {metrics['other_s']:10.4f} s  {100 * metrics['other_s'] / total:6.2f}%")
    print(f"  gdr.drain_s (interval)     {metrics['gdr.drain_s']:10.4f} s")
    for name, value in (("setup_s", setup), ("run_s", run)):
        base = untraced[name]["median"]
        print(f"  tracing overhead on {name}: {100 * (value / base - 1):+.1f}% (untraced median {base:.4f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.runs)
    runs = [bench(args.workload, seed, args.seconds, 0) for seed in seeds]
    table = steadiness(runs)
    if not args.no_trace:
        traced(*bench(args.workload, args.first_seed, args.seconds, 1), table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
