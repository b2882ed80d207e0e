"""Run the tracked benchmark suites and record medians for cross-PR diffs.

Entry point::

    python benchmarks/run_bench.py [--suite micro|ml|scaling|scale|all] [-o PATH] [-k EXPR]

Each suite runs under ``pytest-benchmark`` and writes a flat
``benchmark name -> median seconds`` JSON next to this file — by
default ``benchmarks/BENCH_micro.json`` for the micro suite (hot-path
substrates), ``benchmarks/BENCH_ml.json`` for the committee substrate
(``bench_ml.py``, histogram forest vs exact-sort reference with a
recorded parity flag),
``benchmarks/BENCH_scaling.json`` for the table-size sweeps
(``bench_scaling.py``, no-learning + full GDR),
and ``benchmarks/BENCH_scale.json`` for the violation engine on the
synthetic 10^4–10^6-row instances (``bench_scale.py``, detect, what-if
and cold start from raw rows to the first ranked group) — so the
performance trajectory is visible across PRs with a one-line diff.
The end-to-end interactive loop, the learner drain and the journal are
timed by the repo benchmark, ``gdrbench/`` (``--trace 1`` splits a
session by layer, e.g. ``gdr.drain_s`` and ``journal.append_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

SUITES = {
    "micro": (BENCH_DIR / "bench_micro.py", BENCH_DIR / "BENCH_micro.json"),
    "ml": (BENCH_DIR / "bench_ml.py", BENCH_DIR / "BENCH_ml.json"),
    "scaling": (BENCH_DIR / "bench_scaling.py", BENCH_DIR / "BENCH_scaling.json"),
    "scale": (BENCH_DIR / "bench_scale.py", BENCH_DIR / "BENCH_scale.json"),
}

# backward-compatible alias: older callers import DEFAULT_OUTPUT
DEFAULT_OUTPUT = SUITES["micro"][1]


def run_suite(suite: str, selector: str | None = None) -> tuple[dict[str, float], int]:
    """Run one suite; return ``({benchmark name: median seconds}, exit code)``.

    A failing suite still returns whatever benchmarks completed
    (pytest-benchmark writes its JSON at session end even when some
    tests fail), so callers can record partial medians alongside the
    failure instead of losing the run.
    """
    bench_file, __ = SUITES[suite]
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench.json"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(bench_file),
            "--benchmark-only",
            "-q",
            f"--benchmark-json={raw_path}",
        ]
        if selector:
            command += ["-k", selector]
        result = subprocess.run(command, cwd=REPO_ROOT, env=env)
        try:
            data = json.loads(raw_path.read_text())
        except (OSError, json.JSONDecodeError):
            data = {"benchmarks": []}
    medians: dict[str, float] = {}
    for bench in sorted(data["benchmarks"], key=lambda b: b["name"]):
        medians[bench["name"]] = bench["stats"]["median"]
        # surface numeric extra_info (decision counts, cache hit and
        # eviction counters) flatly next to the medians so cache health
        # is diffable across PRs like the timings are
        for key, value in sorted(bench.get("extra_info", {}).items()):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                medians[f"{bench['name']}.{key}"] = value
    return medians, result.returncode


def run_micro_benchmarks(selector: str | None = None) -> dict[str, float]:
    """Back-compat wrapper: the micro suite; raises on failure."""
    medians, returncode = run_suite("micro", selector)
    if returncode != 0:
        raise SystemExit(returncode)
    return medians


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        default="micro",
        help="which benchmark suite to run (default: micro)",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=None,
        help="output JSON path (default: the suite's tracked BENCH file)",
    )
    parser.add_argument(
        "-k",
        dest="selector",
        default=None,
        help="pytest -k expression to run a benchmark subset",
    )
    args = parser.parse_args(argv)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if args.output is not None and len(suites) > 1:
        parser.error("--output cannot be combined with --suite all")
    failed: list[str] = []
    for suite in suites:
        default_output = SUITES[suite][1]
        output = args.output if args.output is not None else default_output
        medians, returncode = run_suite(suite, args.selector)
        if returncode != 0:
            # record the failure in the output (partial medians kept) and
            # keep going: one broken suite must not hide the others' data
            failed.append(suite)
            medians["suite.error"] = returncode
            print(f"suite {suite!r} FAILED (pytest exit {returncode}); "
                  f"recording partial medians", file=sys.stderr)
        if medians:
            width = max(len(name) for name in medians)
            for name, value in medians.items():
                if "." in name:  # extra_info counter, not a timing
                    print(f"{name:<{width}}  {value}")
                else:
                    print(f"{name:<{width}}  {value * 1e3:9.3f} ms")
        if args.selector and output == default_output:
            # a subset must not clobber the tracked full-run medians
            print(f"\nsubset run (-k): not overwriting {output}; pass -o to write")
            continue
        output.write_text(json.dumps(medians, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {output}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
