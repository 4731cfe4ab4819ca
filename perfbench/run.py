"""tdchan benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (or, with --workload all, each in turn) in fresh worker
processes that import tdchan from ./src, with BLAS and OpenMP pinned to one
thread so that the workload's own --threads is the only parallelism.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; set-up
time is the median over several fresh processes.  Times are calibrated
against a fixed reference kernel timed around every cell and after set-up
(see worker.py), because the machine's own speed drifts; the plain wall
times are printed beside them as wall_setup_s and wall_run_s.  With
--trace 1 a separate traced run prints the per-layer metrics.  Every run also gates
the outputs on the given seed and, at smoke size, on seed + 1.  The last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--smoke runs each workload at a size that takes seconds.  The exit code
is 0 once a result is printed, and 2 with no result when the benchmark
cannot run (no ./src/tdchan, a worker crash, or the time limit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # fresh set-up-only processes, on top of the measured one
TIME_LIMIT_S = 170.0  # per workload; the whole invocation must end within 180 s
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(SRC)
    env.pop("TDCHAN_THREADS", None)
    return env


def commit() -> str:
    """HEAD of the checkout's git metadata, or 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over src/, identifying the code measured when git is absent."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, opts, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(opts.seed)] + (["--smoke"] if opts.smoke else [])
    setups, wall_setups = [], []

    def add_setup(spawned: float, worker_report: dict) -> None:
        wall = worker_report["ready_at"] - spawned
        wall_setups.append(wall)
        setups.append(wall * worker_report["calibration"])

    def probe_setup(count: int) -> None:
        for _ in range(0 if opts.trace or opts.smoke else count):
            spawned = time.monotonic()
            probe = run_worker(common + ["--seconds", "0", "--setup-only"], deadline)
            add_setup(spawned, probe)

    # Probes on both sides of the measured run sample set-up time at two
    # moments, so one slow spell of the machine does not set the median.
    probe_setup(SETUP_PROBES // 2)
    spawned = time.monotonic()
    report = run_worker(common + ["--seconds", str(opts.seconds), "--trace", str(opts.trace)], deadline)
    add_setup(spawned, report)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = dict(report["metrics"])
    if not opts.trace:
        metrics["setup_s"] = statistics.median(setups)

    declared = spec["per_layer" if opts.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{name}: worker did not report {missing}")
    attempted, failed = report["attempted"], report["failed"]

    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        **report["versions"],
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    print("machine " + json.dumps(machine))
    print(f"workload {name} seed={opts.seed} seconds={opts.seconds} trace={opts.trace} "
          f"passes={report['passes']}" + (f" spans={report['spans']}" if "spans" in report else ""))
    for absent in report["absent"]:
        print(f"  absent: {absent} (not in this tdchan; its metrics read 0)")
    result_metrics = {}
    for m in declared:
        value = metrics[m["name"]]
        print(f"  {m['name']} = {value:.6g} {m['unit']}")
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if not opts.trace:
        print(f"  wall_setup_s = {statistics.median(wall_setups):.6g} s (uncalibrated setup_s)")
        print(f"  wall_run_s = {report['wall_run_s']:.6g} s (uncalibrated run_s)")
    print(f"  failed_share = {failed / attempted:.6g} share ({failed} of {attempted} cells)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run each workload at a size that takes seconds")
    opts = parser.parse_args(argv)

    if not (SRC / "tdchan" / "__init__.py").is_file():
        print(f"error: no tdchan sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload != "all" and opts.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]

    results = {}
    try:
        for name in names if opts.workload == "all" else [opts.workload]:
            results[name] = run_workload(name, opts, spec)
            if opts.workload == "all":
                print(json.dumps(results[name]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if opts.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        summary = results[opts.workload]
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
