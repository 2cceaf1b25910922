#!/usr/bin/env python3
"""Benchmark of the tonaltension command chain.

    python3 perfbench/run.py --workload pipeline_small --seed 1 --seconds 20 --trace 0

Each run starts one fresh worker process (perfbench/worker.py), which
builds its inputs from --seed with ``synth`` and drives
``tonaltension.cli.main`` in process. With ``--trace 0`` it reports the
end-to-end metrics: ``setup_s`` (median of three set-ups), ``wall_s`` and
``cpu_s`` (medians over whole-chain repetitions; at least two run, more
while they fit in --seconds) and ``peak_rss_mb``; it also prints the
per-command times. With ``--trace 1`` the
worker runs the chain untraced and then traced and reports the per-layer
metrics. Every command's outputs are checked; the
counts of attempted and failed commands go into the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with
the machine, versions, per-file output digests and every sample is
written under perfbench/out/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0  # a run must exit within 180 s

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    # What users run. Training inside evaluate.run_cv is about 75 % of the
    # wall time; extraction about 1 %.
    "pipeline_small": {
        "pieces": 10, "length": 80, "rule": "t_cd-slow", "setup_extract": False,
        "chain": ["extract", "mi", "eval", "train", "sensitivity"],
        "eval_epochs": 5, "train_epochs": 20, "radius": 5},
    # About 3000 notes per piece; the quadratic scans in tension, features
    # and targets do nearly all the work. --rule none keeps tension_track
    # out of set-up.
    "extract_long": {
        "pieces": 6, "length": 1200, "rule": "none", "setup_extract": False,
        "chain": ["extract"], "eval_epochs": 0, "train_epochs": 0, "radius": 0},
    # One model on few long sequences (B=1, T~250): no fold axis to batch
    # over; sensitivity is O(F*T^2) in forward_batch.
    "fit_long": {
        "pieces": 4, "length": 250, "rule": "t_cd-slow", "setup_extract": True,
        "chain": ["train", "sensitivity"], "eval_epochs": 0, "train_epochs": 30,
        "radius": 5},
}

# Printed for the workloads whose chain runs the command.
COMMAND_METRICS = (("eval", "eval_s"), ("train", "train_s"),
                   ("sensitivity", "sensitivity_s"))


class BenchError(Exception):
    pass


def run_worker(mode: str, spec: dict, seed: int, seconds: float, work: Path,
               run_id: str, deadline: float) -> dict:
    result = work.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--spec", json.dumps(spec), "--seed", str(seed), "--seconds", str(seconds),
           "--work", str(work), "--result", str(result), "--run-id", run_id,
           "--spans", str(work.with_suffix(".spans.json"))]
    try:
        # the worker's output goes to stderr: stdout ends with our JSON line
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(result.read_text())


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def median_of(reps: list[dict], key) -> float:
    return statistics.median(key(r) for r in reps)


def end_to_end(res: dict):
    """(metrics, extra) as name -> (value, unit, samples). The per-command
    figures in ``extra`` apply only to workloads whose chain runs the
    command, so they are printed and recorded but are not part of the
    result's metrics."""
    setups, reps = res["setup_samples"], res["reps"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (median_of(reps, lambda r: r["wall_s"]), "s", len(reps)),
        "cpu_s": (median_of(reps, lambda r: r["cpu_s"]), "s", len(reps)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }
    extra = {}
    if "extract" in reps[0]["commands"]:
        extra["extract_frames_per_s"] = (median_of(
            reps, lambda r: r["commands"]["extract"]["frames"]
            / r["commands"]["extract"]["wall_s"]), "1/s", len(reps))
    for command, name in COMMAND_METRICS:
        if command in reps[0]["commands"]:
            extra[name] = (median_of(reps, lambda r: r["commands"][command]["wall_s"]),
                           "s", len(reps))
    return metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per run; at least two chains always run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "tonaltension" / "cli.py").is_file():
        print(f"error: no tonaltension sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{stamp}"
    work.mkdir()
    try:
        res = run_worker("trace" if args.trace else "measure", spec, args.seed,
                         args.seconds, work / "worker", stamp, deadline)
        if args.trace:
            shutil.move(work / "worker.spans.json", records / f"{stamp}.spans.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: (value, unit, 1)
                   for name, (value, unit) in res["trace"]["metrics"].items()}
        extra = {}
    else:
        metrics, extra = end_to_end(res)
    correct = res["failed"] == 0 and not res["problems"]
    record = {
        "workload": args.workload, "spec": spec, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(), "machine": platform.machine(),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "environment": res["environment"], "correct": correct,
        "attempted": res["attempted"], "failed": res["failed"],
        "problems": res["problems"], "combined_digest": res["combined_digest"],
        "output_sha256": res["digests"], "setup_samples": res.get("setup_samples"),
        "reps": res["reps"], "trace_check": res.get("trace"),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in {**metrics, **extra}.items()},
    }
    (records / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"  {name:34s} {shown} {unit:5s} n={n}")
    print(f"  failed_ops {res['failed']}/{res['attempted']}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    print(f"  output digest {res['combined_digest']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
