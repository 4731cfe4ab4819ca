"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and
runtime budget and reports a single pass/fail line through the
`criterion` fixture.  Sample loops are generated here, independently of
the library's own RNG plumbing, and the heavy oracles come from
tests/oracles.py.
"""

import math
import os
import time
from functools import lru_cache

import numpy as np
import pytest

import tdchan as td
from tdchan.cli import main as cli_main
from tdchan.verification import (
    extreme_point_defect,
    final_polynomial,
    run_scan,
)

from oracles import central_difference, dense_two_copy_spectrum

LN2 = math.log(2.0)
_THREADS = min(8, os.cpu_count() or 1)


def _structured_lambdas(d):
    out = [np.eye(d)[0], np.full(d, 1.0 / d)]
    if d >= 3:
        half = np.zeros(d)
        half[:2] = 0.5
        out.append(half)
    return out


@lru_cache(maxsize=1)
def _spectrum_samples():
    """(d, t, lam, closed spectrum, dense oracle spectrum, elapsed seconds).

    200 (t, lam) pairs per d in 2..6 spanning the whole admissible t
    range, with the endpoints and degenerate Schmidt vectors forced in.
    """
    rng = np.random.default_rng(20260814)
    rows = []
    t0 = time.monotonic()
    for d in range(2, 7):
        lo, hi = td.t_range(d)
        ts = [lo, hi, 0.0] + [float(rng.uniform(lo, hi)) for _ in range(197)]
        lams = _structured_lambdas(d)
        for i, t in enumerate(ts):
            lam = lams[i] if i < len(lams) else rng.dirichlet(np.ones(d))
            ch = td.new_channel(d, t)
            closed = td.full_spectrum(ch, td.SchmidtVector(lam))
            dense = dense_two_copy_spectrum(ch, lam)
            rows.append((d, t, lam, closed, dense))
    return rows, time.monotonic() - t0


def test_criterion_1_spectrum_oracle(criterion):
    rows, elapsed = _spectrum_samples()
    worst = 0.0
    for _, _, _, closed, dense in rows:
        worst = max(worst, float(np.max(np.abs(closed.all_eigenvalues() - dense))))
    ok = worst <= 1e-9 and elapsed < 30.0
    criterion(
        "criterion 1 (spectrum vs dense oracle)",
        ok,
        f"worst |delta| {worst:.2e} over {len(rows)} samples, d in 2..6, {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_sum_rules(criterion):
    rows, _ = _spectrum_samples()
    worst = 0.0
    for d, t, _, closed, _ in rows:
        c = (d - 1) * (1.0 - t * t) / d
        worst = max(worst, abs(float(np.sum(closed.offdiag)) - c))
        worst = max(worst, abs(float(np.sum(closed.secular)) - (1.0 - c)))
    ok = worst <= 1e-10
    criterion(
        "criterion 2 (sum rules)",
        ok,
        f"worst residual {worst:.2e} over {len(rows)} samples (tol 1e-10)",
    )


def test_criterion_3_additivity(criterion):
    t0 = time.monotonic()
    cfg = td.OptimizerConfig(restarts=20, n_random=120, seed=17)
    worst_gap = math.inf
    worst_dist = 0.0
    spot_h = spot_ms = None
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        for t in np.linspace(lo, hi, 9):
            ch = td.new_channel(d, float(t))
            gap, min_simplex, _ = td.additivity_gap(ch, cfg)
            _, arg = td.minimize_simplex_entropy(ch, cfg)
            dist = min(float(np.sum(np.abs(arg.values - np.eye(d)[i]))) for i in range(d))
            worst_gap = min(worst_gap, gap)
            worst_dist = max(worst_dist, dist)
            if d == 3 and abs(t + 0.5) < 1e-12:
                spot_h = td.min_entropy_closed_form(ch)
                spot_ms = min_simplex
    elapsed = time.monotonic() - t0
    ok = (
        worst_gap >= -1e-6
        and worst_dist < 1e-4
        and spot_h is not None
        and abs(spot_h - LN2) < 1e-6
        and abs(spot_ms - 2.0 * LN2) < 1e-6
        and elapsed < 300.0
    )
    criterion(
        "criterion 3 (additivity certificate)",
        ok,
        f"worst gap {worst_gap:.2e}, worst vertex distance {worst_dist:.2e}, "
        f"spot h={spot_h:.12f} min_simplex={spot_ms:.12f}, {elapsed:.1f}s (budget 300s)",
    )


def test_criterion_4_sympol_identity(criterion):
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(500):
        d = int(rng.choice([3, 4, 5]))
        t = float(rng.uniform(-1.0 / (d - 1), -1e-6))
        ch = td.new_channel(d, t)
        lam = td.SchmidtVector(rng.dirichlet(np.ones(d)))
        nu = td.lambda_to_nu(ch, lam)
        for k in range(d):
            scale = max(1.0, abs(td.phi_k(nu, k, ch)))
            worst = max(worst, td.sympol_defect(ch, lam, k) / scale)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    criterion(
        "criterion 4 (symmetric-polynomial identity)",
        ok,
        f"worst relative defect {worst:.2e} over 500 samples x all k, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_5_schur(criterion):
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    worst_defect = -math.inf
    for _ in range(10_000):
        d = int(rng.choice([3, 4, 5]))
        ch = td.new_channel(d, float(rng.uniform(-1.0 / (d - 1), -1e-6)))
        nu = td.lambda_to_nu(ch, td.SchmidtVector(rng.dirichlet(np.ones(d))))
        k = int(rng.integers(0, d))
        i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
        worst_defect = max(worst_defect, td.schur_defect(nu, k, i, j, ch))

    worst_drop = -math.inf
    for _ in range(500):
        d = int(rng.choice([3, 4, 5]))
        ch = td.new_channel(d, float(rng.uniform(-1.0 / (d - 1), -1e-6)))
        sharp = rng.dirichlet(np.ones(d))
        i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
        if sharp[i] < sharp[j]:
            i, j = j, i
        softened = td.t_transform(td.SchmidtVector(sharp), i, j, float(rng.uniform(0.0, 0.5)))
        s2_sharp = td.entropy_split(ch, td.SchmidtVector(sharp)).s2
        s2_soft = td.entropy_split(ch, softened).s2
        worst_drop = max(worst_drop, s2_sharp - s2_soft)
    elapsed = time.monotonic() - t0
    ok = worst_defect <= 1e-9 and worst_drop <= 1e-9 and elapsed < 60.0
    criterion(
        "criterion 5 (Schur criterion and S2 monotonicity)",
        ok,
        f"worst schur defect {worst_defect:.2e} over 10^4 samples, "
        f"worst S2 drop {worst_drop:.2e} over 500 pairs, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_6_master_inequality(criterion):
    t0 = time.monotonic()
    reports = run_scan("main", [3, 4, 5, 6], samples=100_000, seed=42, threads=_THREADS)
    elapsed = time.monotonic() - t0
    violations = sum(r.violations for r in reports)
    worst = min(r.worst_margin for r in reports if r.worst_margin is not None)
    grids_ok = all(r.t_values[0] <= 1.0 for r in reports) and len(reports) == 4 * 9
    ok = violations == 0 and worst >= -1e-9 and grids_ok and elapsed < 120.0
    criterion(
        "criterion 6 (master inequality scan)",
        ok,
        f"0 violations expected, saw {violations}; worst margin {worst:.2e} over "
        f"10^5 samples/cell + vertices, d in 3..6, 9-point grids, {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_7_k0_chain(criterion):
    t0 = time.monotonic()
    reports = run_scan("k0", [3, 4, 5, 6], samples=20_000, seed=42, threads=_THREADS)
    k0_violations = sum(r.violations for r in reports)

    worst_extreme = math.inf
    worst_poly = math.inf
    checked = skipped = 0
    for d in range(3, 11):
        for t in np.linspace(-1.0 / (d - 1), -1e-6, 101):
            v = extreme_point_defect(d, float(t))
            if v is None:
                skipped += 1
            else:
                checked += 1
                worst_extreme = min(worst_extreme, v)
            worst_poly = min(worst_poly, final_polynomial(d, float(t)))
    elapsed = time.monotonic() - t0
    ok = (
        k0_violations == 0
        and worst_extreme >= -1e-9
        and worst_poly > 0.0
        and elapsed < 10.0
    )
    criterion(
        "criterion 7 (k=0 chain)",
        ok,
        f"k0 violations {k0_violations}; extreme-point worst {worst_extreme:.2e} "
        f"({checked} points, {skipped} not applicable); final polynomial worst {worst_poly:.6f} > 0; "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_criterion_8_derivative_consistency(criterion):
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(200):
        d = int(rng.choice([3, 4, 5]))
        ch = td.new_channel(d, float(rng.uniform(-1.0 / (d - 1), -1e-6)))
        nu = td.lambda_to_nu(ch, td.SchmidtVector(rng.dirichlet(np.ones(d))))
        k = int(rng.integers(0, d))
        i = int(rng.integers(0, d))

        def fun(v):
            return td.phi_k(v, k, ch)

        num = central_difference(fun, nu.copy(), i)
        worst = max(worst, abs(td.partial_phi_k(nu, k, i, ch) - num))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    criterion(
        "criterion 8 (derivative consistency)",
        ok,
        f"worst |analytic - finite difference| {worst:.2e} over 200 samples, "
        f"{elapsed:.1f}s (budget 5s)",
    )


def test_criterion_9_determinism(criterion, capsys):
    argv = ["verify", "--kind", "all", "--d", "3:5", "--samples", "10000", "--seed", "42"]
    code1 = cli_main(argv + ["--threads", "1"])
    out1 = capsys.readouterr().out
    code2 = cli_main(argv + ["--threads", "8"])
    out2 = capsys.readouterr().out
    ok = out1 == out2 and len(out1) > 0 and code1 == code2
    criterion(
        "criterion 9 (determinism across thread counts)",
        ok,
        f"outputs byte-identical ({len(out1)} bytes, {out1.count(chr(10))} lines); "
        f"exit codes {code1}/{code2} equal (1 reflects the documented second-term "
        f"excursions at d=5, not nondeterminism)",
    )
