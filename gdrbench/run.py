"""Closed-loop benchmark of the GDR engine.

Usage (from the repository root)::

    python3 gdrbench/run.py --workload hospital-loop --seed 1 --seconds 30 --trace 0

One simulated user (closed loop, one client, zero think time) answers
each question from ground truth the moment it is asked.  Every repair
session runs in a fresh interpreter (``gdrbench/child.py``) with
``PYTHONHASHSEED`` set from ``--seed`` and the OpenMP/OpenBLAS/MKL pools
pinned to one thread.  Sessions are started one after another until
``--seconds`` have elapsed; times are the median over the run's
sessions, and question waits are pooled over all of them.  Where set-up
is a small part of a session, each full session is followed by short
probe sessions that stop at the first question, so ``setup_s`` and
``first_question_s`` are medians over more set-ups.

Workloads (sizes in ``workloads.py``):

* ``hospital-loop`` -- hospital, 2000 rows, full GDR, 300 labels, then
  the learner drain.  Read-heavy: Eq. 6 re-ranking (what-if probes and
  p~ predictions), learner refits and drain decisions.
* ``adult-writes`` -- adult, 2000 rows, full GDR, 200 labels, with the
  journal and auto-checkpoints on.  Every confirmed write triggers a
  large revisit, so the repair/constraints layers are driven by writes.
* ``coldstart-500k`` -- synthetic hospital, 5*10^5 rows, no learning,
  200 labels.  Ingest, encode, snapshot, detect and Algorithm 1
  generation over a working set far beyond the caches.  Not listed in
  ``BENCHMARK.json``: its loop lasts well under a second, too short for
  steady loop figures on a shared 2-vCPU host.  Run it by name when a
  change targets cold start.

Times are scaled to a fixed host speed.  On a shared host the same
session runs up to 1.8x slower for minutes at a time, and flips between
speeds within a second, so raw times from runs minutes apart are not
comparable.  Every full session therefore also times a fixed calibration
kernel (``child.calibrate``) before and after its measured regions, and
its times are multiplied by ``REFERENCE_KERNEL_S`` over its mean kernel
time (see ``rescale``).  The run's mean factor and every session's raw
times are printed on the context line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run (``tracing.py``).  Every session is
checked: the budget is respected, the Eq. 3 loss does not grow, and the
repair signature (trajectory + final rows) is identical across the
run's sessions; a session that raises or fails a check is counted as
failed.  The second-to-last line of output is a JSON object with the
run's context (input hash, sample counts, machine); the last line is
the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from gdrbench.stats import percentile  # noqa: E402
from gdrbench.workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, ensure_inputs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "first_question_s": "s",
    "run_s": "s",
    "wait_ms_p50": "ms",
    "wait_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "loss_at_budget": "loss",
    "precision": "ratio",
    "recall": "ratio",
}
#: Seconds one calibration kernel takes at the reference speed times are scaled to.
REFERENCE_KERNEL_S = 0.065
SESSION_TIMEOUT_S = 170
#: Medians need a few sessions even when one session outlasts ``--seconds``.
MIN_SESSIONS = 3


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED=str(seed % 2**32),
        PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_session(
    workload: str, inputs: Path, env: dict, trace: bool = False, quality: bool = False, probe: bool = False
) -> dict:
    """One fresh-interpreter session; any failure comes back as ``{"error": ...}``."""
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    cmd = [sys.executable, "-m", "gdrbench.child", workload, str(inputs), workdir]
    cmd += ["--trace"] * trace + ["--quality"] * quality + ["--probe"] * probe
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=SESSION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"session exceeded {SESSION_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if "error" in out:
        sys.stderr.write(proc.stderr)
    return out


def check(sessions: list[dict]) -> tuple[list[dict], int]:
    """The sessions that pass every check, and the number that failed."""
    good = []
    for out in sessions:
        if "error" in out:
            print(f"session failed: {out['error']}", file=sys.stderr)
        elif out["feedback_used"] > out["budget"]:
            print("session failed: label budget exceeded", file=sys.stderr)
        elif "quality" in out and out["quality"]["loss_at_budget"] > out["quality"]["initial_loss"]:
            print("session failed: Eq. 3 loss grew", file=sys.stderr)
        else:
            good.append(out)
    if good:
        majority, __ = Counter(out["signature"] for out in good).most_common(1)[0]
        if any(out["signature"] != majority for out in good):
            print("sessions failed: repair signatures differ", file=sys.stderr)
        good = [out for out in good if out["signature"] == majority]
    return good, len(sessions) - len(good)


def rescale(good: list[dict], probes: list[dict]) -> float:
    """Scale every time in place to the reference host speed; returns the run's mean factor.

    A full session is scaled by its own calibration, which follows a
    speed shift inside the run.  Probes skip calibration and take the
    mean over the full sessions.  Means, not medians, of kernel times:
    the host flips between speeds within a second, and a session's time
    follows the share of time spent slow.
    """
    factors = [REFERENCE_KERNEL_S / statistics.fmean(out["calibration_s"]) for out in good]
    for out, factor in zip(good, factors):
        for key in ("setup_s", "first_question_s", "run_s"):
            out[key] *= factor
        out["waits_ms"] = [factor * w for w in out["waits_ms"]]
        for key in out.get("trace", {}):
            if key.endswith("_s"):
                out["trace"][key] *= factor
    mean = statistics.fmean(factors)
    for out in probes:
        out["setup_s"] *= mean
        out["first_question_s"] *= mean
    return mean


def end_to_end(good: list[dict], probes: list[dict]) -> dict:
    median = lambda key, outs: statistics.median(out[key] for out in outs)  # noqa: E731
    waits = [w for out in good for w in out["waits_ms"]]
    values = {
        "setup_s": median("setup_s", good + probes),
        "first_question_s": median("first_question_s", good + probes),
        "run_s": median("run_s", good),
        "wait_ms_p50": statistics.median(waits),
        "wait_ms_p95": percentile(waits, 95),
        "peak_rss_mb": median("peak_rss_mb", good),
    }
    quality = next(out["quality"] for out in good if "quality" in out)
    for key in ("loss_at_budget", "precision", "recall"):
        values[key] = quality[key]
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}


def per_layer(good: list[dict]) -> dict:
    metrics = {}
    for key in good[0]["trace"]:
        unit = "s" if key.endswith("_s") else "ratio" if key.endswith("_rate") else "count"
        if key.endswith("bytes"):
            unit = "bytes"
        metrics[key] = {"value": statistics.median(out["trace"][key] for out in good), "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    env = child_env(args.seed)
    generated = subprocess.run(
        [sys.executable, "-m", "gdrbench.workloads", args.workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=SESSION_TIMEOUT_S,
    )
    if generated.returncode != 0:
        print(generated.stderr, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs, digest = ensure_inputs(workload)
    trace = bool(args.trace)
    sessions: list[dict] = []
    probes: list[dict] = []
    start = perf_counter()
    checking = 0.0  # the first session's untimed quality evaluation
    last = 0.0
    while len(sessions) < MIN_SESSIONS or perf_counter() - start - checking + last / 2 < args.seconds:
        began = perf_counter()
        out = run_session(args.workload, inputs, env, trace, quality=not sessions)
        sessions.append(out)
        for __ in range(0 if trace else workload.probes):
            probes.append(run_session(args.workload, inputs, env, probe=True))
        checking += out.get("quality_s", 0.0)
        last = perf_counter() - began - out.get("quality_s", 0.0)
    good, failed = check(sessions)
    if not any("quality" in out for out in good):
        good, failed = [], len(sessions)
    good_probes = [out for out in probes if "error" not in out]
    failed += len(probes) - len(good_probes)
    attempted = len(sessions) + len(probes)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": digest,
        "sessions": len(sessions),
        "probes": len(probes),
        "wait_samples": sum(len(out["waits_ms"]) for out in good),
        "signature": good[0]["signature"] if good else None,
        # unscaled setup_s, first_question_s, run_s and mean calibration
        # kernel time of each full session; setup_s, first_question_s of probes
        "raw_sessions": [
            [out["setup_s"], out["first_question_s"], out["run_s"], statistics.fmean(out["calibration_s"])]
            for out in good
        ],
        "raw_probes": [[out["setup_s"], out["first_question_s"]] for out in good_probes],
        "flush_policy": good[0]["flush_policy"] if good else None,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [load_start, os.getloadavg()],
        "python": platform.python_version(),
        "numpy": good[0]["numpy"] if good else None,
        "measured_s": perf_counter() - start,
    }
    metrics = {}
    if good:
        info["speed_factor"] = rescale(good, good_probes)
        metrics = per_layer(good) if trace else end_to_end(good, good_probes)
    print(json.dumps(info))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
