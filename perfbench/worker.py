"""One workload in one fresh process: set up, measure, gate, report.

run.py starts this script with the thread pins and PYTHONPATH already set
and reads the JSON object it prints as its last line.  With --setup-only
it stops once the workload is ready to time, so run.py can sample set-up
time in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SECOND_SEED_OFFSET = 1  # the gate also runs, at smoke size, on seed + 1
# Median time of reference_kernel between cells on the machine the bounds
# were set on (2-vCPU VM, Python 3.11.7, numpy 2.4.6): calibrated times are
# seconds on that machine at its median speed.
REF_S = 0.0086

clock = time.perf_counter


def reference_kernel() -> float:
    """Fixed mix of interpreter arithmetic and small numpy calls.

    It resembles the cells' own mix and never touches tdchan, so its time
    tracks only the speed the machine gives this process at the moment.
    """
    a = np.linspace(0.1, 1.0, 8)
    acc = 0.0
    for i in range(1000):
        acc += float(np.sum(a * (i % 7)))
        for j in range(30):
            acc += j * 0.5
    return acc


class Tally:
    """Cell timings, items and gate outcomes of one measured phase.

    Each cell's wall time is also kept divided by the mean time of
    reference_kernel run just before and just after it.  On a shared
    machine whose speed drifts by tens of percent within a minute, that
    ratio moves only with the cell's own cost.
    """

    def __init__(self, cells: int):
        self.times: list[list[float]] = [[] for _ in range(cells)]
        self.ratios: list[list[float]] = [[] for _ in range(cells)]
        self.refs: list[float] = []
        self.items: dict[int, int] = {}
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def wall_s(self) -> float:
        """Wall time of one pass: the sum over cells of each median time."""
        return sum(statistics.median(t) for t in self.times if t)

    def run_s(self) -> float:
        """Calibrated time of one pass: REF_S times the sum over cells of
        each cell's median time in units of the reference kernel."""
        return REF_S * sum(statistics.median(r) for r in self.ratios if r)

    def items_per_s(self) -> float:
        """Items of one pass over run_s; cells that never passed count 0."""
        run_s = self.run_s()
        return sum(self.items.values()) / run_s if run_s else 0.0


def time_reference() -> float:
    start = clock()
    reference_kernel()
    return clock() - start


def run_one(workload, index: int, tally: Tally) -> None:
    tally.attempted += 1
    ref_before = time_reference()
    start = clock()
    try:
        result = workload.run_cell(workload.cells[index])
    except Exception:
        tally.failed += 1
        print(f"cell {workload.cells[index]!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return
    elapsed = clock() - start
    ref = 0.5 * (ref_before + time_reference())
    tally.refs.append(ref)
    tally.times[index].append(elapsed)
    tally.ratios[index].append(elapsed / ref)
    tally.items[index] = result.items
    error = result.error
    if error is None and tally.digests.setdefault(index, result.digest) != result.digest:
        error = f"cell {workload.cells[index]!r}: output digest differs between repetitions"
    if error is not None:
        tally.failed += 1
        print(f"gate failed: {error}", file=sys.stderr)


def measure(workload, seconds: float) -> Tally:
    """Repeat the workload's cells for about `seconds`, at least one pass.

    Stops at the first cell boundary after the deadline.
    """
    cells = len(workload.cells)
    tally = Tally(cells)
    deadline = clock() + seconds
    done = 0
    while True:
        run_one(workload, done % cells, tally)
        done += 1
        if done % cells == 0:
            tally.passes += 1
        if done >= cells and clock() >= deadline:
            return tally


def measure_traced(workload, seconds: float, layer_trace) -> tuple[Tally, Tally]:
    """Run each cell untraced, then traced, in whole passes.

    Pairing the two runs of a cell in time keeps a slow spell of the
    machine out of the tracing overhead.  Whole passes keep per-pass
    counts exact; another pass starts only if it should end by `seconds`.
    """
    cells = len(workload.cells)
    plain, traced = Tally(cells), Tally(cells)
    start = clock()
    while True:
        pass_start = clock()
        for index in range(cells):
            run_one(workload, index, plain)
            layer_trace.install()
            try:
                run_one(workload, index, traced)
            finally:
                layer_trace.restore()
        plain.passes += 1
        traced.passes += 1
        now = clock()
        if now + (now - pass_start) > start + seconds:
            return plain, traced


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import tdchan

    src = ROOT / "src"
    if not Path(tdchan.__file__).resolve().is_relative_to(src):
        print(f"error: imported tdchan from {tdchan.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warm_up()
    ready_at = time.monotonic()
    # Scales this process's set-up time to the reference machine, as run_s is.
    calibration = REF_S / statistics.median(time_reference() for _ in range(3))
    report = {"ready_at": ready_at, "calibration": calibration}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    absent: list[str] = []
    if args.trace:
        from layers import LayerTrace

        layer_trace = LayerTrace()
        plain, traced = measure_traced(workload, args.seconds, layer_trace)
        absent = layer_trace.tracer.absent
        metrics = layer_trace.metrics(
            traced.passes, traced.run_s() / plain.run_s() - 1.0, REF_S / statistics.median(traced.refs)
        )
        tallies = [traced, plain]
        report["spans"] = layer_trace.tracer.span_count()
    else:
        tally = measure(workload, args.seconds)
        metrics = {
            "run_s": tally.run_s(),
            "items_per_s": tally.items_per_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        tallies = [tally]
        report["wall_run_s"] = tally.wall_s()

    second = WORKLOADS[args.workload](args.seed + SECOND_SEED_OFFSET, smoke=True)
    tallies.append(measure(second, 0.0))

    report.update(
        attempted=sum(t.attempted for t in tallies),
        failed=sum(t.failed for t in tallies),
        passes=tallies[0].passes,
        metrics=metrics,
        absent=absent,
        versions=versions(),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
