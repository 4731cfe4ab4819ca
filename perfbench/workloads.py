"""The benchmark's workloads: inputs from a seed, cells of work, and the gate.

A workload is a fixed list of cells.  One pass runs every cell once; the
benchmark repeats passes with the same seed, so every repetition of a cell
must give the same output digest.  Each cell is checked by a gate that
looks at the output's meaning, never at frozen bytes, so a change of
sampler stream layout does not trip it.

Why these three workloads:

- scan-spectral runs the per-sample Python scans ``sympol`` and ``schur``
  through ``run_scan``.  Every sample calls ``secular_roots``,
  ``elem_sym``, ``phi_k`` or ``schur_defect``, so a batched spectrum or
  symmetric-polynomial kernel shows here.  ``threads=1``: the loop holds
  the interpreter lock, and a second thread only slows it.
- verify-polytope runs the ``verify`` CLI on the polytope kinds with two
  threads.  It exercises the rejection sampler, the vectorized
  elementary-symmetric tables, the thread pool and JSON output, and never
  calls ``secular_roots``: it is the bypass workload for spectrum work and
  the target workload for sampler work.
- additivity certifies two-copy additivity on a 9-point grid over the
  whole admissible t range for d = 3 and 4.  It calls the spectrum
  scalar-wise from Nelder-Mead iterates that reach simplex vertices
  (zero weights, coincident poles, t > 0), and the dense two-copy channel
  on Haar-random states.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass

import numpy as np

import tdchan
import tdchan.cli
import tdchan.entropy

GATE_TOL = 1e-9  # worst scan margin / defect allowed
GAP_TOL = 1e-6  # additivity gap allowed below zero
VERTEX_TOL = 1e-4  # distance of the simplex argmin from the nearest vertex


@dataclass(frozen=True)
class CellResult:
    items: int
    digest: str
    error: str | None  # None when the output passed the gate


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ScanSpectral:
    name = "scan-spectral"
    kinds = ("sympol", "schur")
    dims = (3, 4, 5)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.samples = 10 if smoke else 200
        self.cells = [(kind, d) for kind in self.kinds for d in self.dims]

    def warm_up(self) -> None:
        for kind in self.kinds:
            tdchan.run_scan(kind, [3], samples=2, seed=self.seed, threads=1)

    def run_cell(self, cell) -> CellResult:
        kind, d = cell
        reports = tdchan.run_scan(kind, [d], samples=self.samples, seed=self.seed, threads=1)
        rows = [r.as_dict() for r in reports]
        items = sum(r["samples"] for r in rows)
        error = None
        if len(rows) != 9 or any(r["samples"] != self.samples for r in rows):
            error = f"{kind} d={d}: expected 9 cells of {self.samples} samples"
        else:
            worst = min(r["worst_margin"] for r in rows)
            if worst < -GATE_TOL:
                error = f"{kind} d={d}: worst defect {-worst:.3e} > {GATE_TOL}"
        return CellResult(items, _digest(json.dumps(rows)), error)


class VerifyPolytope:
    name = "verify-polytope"
    kinds = ("main", "k0", "second-term", "extreme", "final-poly")
    dims = "3:6"
    # second-term has documented negative excursions, for d >= 5 only.
    excursion_kind, excursion_min_d = "second-term", 5

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.samples = 100 if smoke else 2000
        self.cells = list(self.kinds)

    def _verify(self, kind: str, dims: str, samples: int) -> tuple[int, str]:
        argv = ["verify", "--kind", kind, "--d", dims, "--samples", str(samples),
                "--seed", str(self.seed), "--threads", "2", "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tdchan.cli.main(argv)
        return code, out.getvalue()

    def warm_up(self) -> None:
        self._verify("main", "3", 10)

    def run_cell(self, kind) -> CellResult:
        code, text = self._verify(kind, self.dims, self.samples)
        digest = _digest(text)
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            return CellResult(0, digest, f"{kind}: output is not JSON ({exc})")
        items = sum(r["samples"] for r in rows)
        return CellResult(items, digest, self._gate(kind, code, rows))

    def _gate(self, kind: str, code: int, rows: list[dict]) -> str | None:
        if sorted({r["d"] for r in rows}) != [3, 4, 5, 6] or len(rows) != 36:
            return f"{kind}: expected 9 t values for each d in 3..6, got {len(rows)} rows"
        excursions = kind == self.excursion_kind
        for r in rows:
            if r["violations"] and not (excursions and r["d"] >= self.excursion_min_d):
                return f"{kind}: {r['violations']} violations at d={r['d']}, t={r['t_values']}"
            if not excursions and r["worst_margin"] is not None and r["worst_margin"] < -GATE_TOL:
                return f"{kind}: worst margin {r['worst_margin']} at d={r['d']}"
        expected = 1 if any(r["violations"] for r in rows) else 0
        if code != expected:
            return f"{kind}: exit code {code}, expected {expected}"
        return None


class Additivity:
    name = "additivity"
    dims = (3, 4)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        points = 3 if smoke else 9
        if smoke:
            self.config = tdchan.OptimizerConfig(restarts=2, n_random=8, seed=seed)
        else:
            self.config = tdchan.OptimizerConfig(restarts=20, n_random=120, seed=seed)
        self.cells = [
            (d, float(t)) for d in self.dims for t in np.linspace(-1.0 / (d - 1), 1.0 / (d + 1), points)
        ]
        self._argmin = None
        self._keep_argmin()

    def _keep_argmin(self) -> None:
        """Keep the simplex argmin that additivity_gap computes and drops.

        The gate needs it; catching it here saves a second minimization.
        If the package stops calling minimize_simplex_entropy through this
        name, run_cell falls back to calling it directly.
        """
        inner = getattr(tdchan.entropy, "minimize_simplex_entropy", None)
        if inner is None:
            return

        def minimize_and_keep(*args, **kwargs):
            value, lam = inner(*args, **kwargs)
            self._argmin = np.asarray(lam.values)
            return value, lam

        tdchan.entropy.minimize_simplex_entropy = minimize_and_keep

    def warm_up(self) -> None:
        cfg = tdchan.OptimizerConfig(restarts=1, n_random=2, seed=self.seed)
        tdchan.additivity_gap(tdchan.new_channel(3, -0.25), cfg)

    def run_cell(self, cell) -> CellResult:
        d, t = cell
        ch = tdchan.new_channel(d, t)
        self._argmin = None
        gap, min_simplex, min_random = tdchan.additivity_gap(ch, self.config)
        argmin = self._argmin
        if argmin is None:
            argmin = np.asarray(tdchan.minimize_simplex_entropy(ch, self.config)[1].values)
        vertex_dist = float(np.min(np.max(np.abs(argmin[None, :] - np.eye(d)), axis=1)))
        digest = _digest(json.dumps([gap, min_simplex, min_random, argmin.tolist()]))
        error = None
        if not gap >= -GAP_TOL:
            error = f"d={d} t={t}: gap {gap} < -{GAP_TOL}"
        elif vertex_dist > VERTEX_TOL:
            error = f"d={d} t={t}: argmin {argmin.tolist()} is {vertex_dist:.3e} from a vertex"
        return CellResult(1, digest, error)


WORKLOADS = {w.name: w for w in (ScanSpectral, VerifyPolytope, Additivity)}
