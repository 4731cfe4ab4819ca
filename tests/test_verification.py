import concurrent.futures
import threading
import time

import numpy as np
import pytest
from scipy import optimize, stats

import tdchan as td
from tdchan import verification
from tdchan.errors import (
    BadK,
    BadLength,
    BadSignPattern,
    BadT,
    ConfigError,
    NearZeroNu,
    OutOfRange,
)
from tdchan.sampling import philox_stream
from tdchan.verification import (
    SCAN_KINDS,
    VIOLATION_TOL,
    _cell_key,
    _margins_main,
    _polytope_batch,
    _rhs_coefficient,
    box_ratio,
    default_t_grid,
    extreme_point_defect,
    final_polynomial,
    first_term_value,
    k0_defect,
    main_inequality_lhs,
    polytope_vertices,
    run_scan,
    sample_polytope,
    second_term_value,
)

from oracles import elem_sym_brute, polytope_batch_rows


# ------------------------------------------------------------- scalar formulas


def test_box_ratio_and_coefficient():
    assert box_ratio(4, -1.0 / 3.0) == pytest.approx(-2.0)
    assert box_ratio(3, -0.5) == pytest.approx(-2.0)
    assert _rhs_coefficient(4, -1.0 / 3.0) == pytest.approx(0.0)
    # coefficient is <= 0 on the whole negative range
    for d in (3, 4, 6):
        for t in default_t_grid(d):
            assert _rhs_coefficient(d, float(t)) <= 1e-12


def test_main_inequality_frozen_values():
    # d=4, t=-1/3 puts the coefficient at 0, so only the first term remains
    assert main_inequality_lhs(np.array([1.0, 1.0]), 0, 4, -1.0 / 3.0) == pytest.approx(0.0)
    assert main_inequality_lhs(np.array([-1.0, 1.0]), 0, 4, -1.0 / 3.0) == pytest.approx(2.0)
    assert main_inequality_lhs(np.array([-1.0, 1.0]), 1, 4, -1.0 / 3.0) == pytest.approx(2.0)
    assert main_inequality_lhs(np.array([0.5, 0.75]), 0, 4, -1.0 / 3.0) == pytest.approx(0.5)
    assert main_inequality_lhs(np.array([0.5, 0.75]), 1, 4, -1.0 / 3.0) == pytest.approx(0.75)


def test_main_inequality_all_ones_reduces_to_rhs_term():
    from math import comb

    for d in (3, 4, 5):
        n = d - 2
        for t in (-0.9 / (d - 1), -0.2 / (d - 1)):
            coef = _rhs_coefficient(d, t)
            for k in range(n):
                lhs = main_inequality_lhs(np.ones(n), k, d, t)
                assert lhs == pytest.approx(-coef * comb(n, n - k), rel=1e-12, abs=1e-12)
                assert lhs >= -1e-12


def test_main_inequality_guards():
    with pytest.raises(ConfigError):
        main_inequality_lhs(np.array([]), 0, 2, -0.5)
    with pytest.raises(BadLength):
        main_inequality_lhs(np.array([1.0, 1.0, 1.0]), 0, 4, -0.25)
    with pytest.raises(BadK):
        main_inequality_lhs(np.array([1.0, 1.0]), 2, 4, -0.25)
    with pytest.raises(BadT):
        main_inequality_lhs(np.array([1.0, 1.0]), 0, 4, 0.1)
    with pytest.raises(BadT):
        main_inequality_lhs(np.array([1.0, 1.0]), 0, 4, -0.5)  # below -1/(d-1)


def test_first_and_second_term_frozen():
    assert first_term_value(np.array([-1.0, 1.0]), 0) == pytest.approx(2.0)
    assert second_term_value(np.array([-1.0, 1.0]), 1) == pytest.approx(0.0)
    assert second_term_value(np.array([-0.5, 0.9, 1.0]), 2) == pytest.approx(1.4)
    with pytest.raises(BadK):
        second_term_value(np.array([-1.0, 1.0]), 0)
    with pytest.raises(BadK):
        second_term_value(np.array([-1.0, 1.0]), 3)


def test_main_margin_routes_match_brute_force():
    # The one-row wrappers and the batched scan margin against explicit
    # combinations, on polytope samples and vertices for n = 1..6.
    for d in range(3, 9):
        n = d - 2
        for t in default_t_grid(d, 4)[:-1]:
            t = float(t)
            nu = np.vstack(
                [
                    _polytope_batch(philox_stream(d, 0), n, -box_ratio(d, t), 6).T,
                    polytope_vertices(d, t),
                ]
            )
            margins = _margins_main(nu.T.copy(), d, t)
            for k in range(n):
                for row, margin in zip(nu, margins[k]):
                    first = sum(
                        (1.0 - row[l]) * elem_sym_brute(np.delete(row, l), n - k - 1)
                        for l in range(n)
                    )
                    brute = first - _rhs_coefficient(d, t) * elem_sym_brute(row, n - k)
                    assert first_term_value(row, k) == pytest.approx(first, abs=1e-12)
                    assert main_inequality_lhs(row, k, d, t) == pytest.approx(brute, abs=1e-12)
                    assert margin == pytest.approx(brute, abs=1e-12)
    with pytest.raises(BadK):
        first_term_value(np.array([-1.0, 1.0]), 2)


@pytest.mark.parametrize("kind, vertices", [("main", True), ("main", False), ("second_term", False)])
def test_scan_cells_match_brute_force_margins_on_their_one_draw(monkeypatch, kind, vertices):
    # Every k of a cell is checked on the rows of the cell's one stream,
    # plus the vertices for main; the margins here are explicit sums of
    # products.  A vertex is often the worst point of main, so one run
    # leaves them out.  The steep t logs second-term excursions for d >= 5.
    if kind == "main" and not vertices:
        monkeypatch.setattr(verification, "polytope_vertices", lambda d, t: np.empty((0, d - 2)))
    seed, samples = 5, 50
    for d in range(3, 7):
        n = d - 2
        grid = default_t_grid(d, 4)[[0, 2]]
        reports = run_scan(kind, [d], t_grid=grid, samples=samples, seed=seed)
        for t_idx, (t, rep) in enumerate(zip(grid.tolist(), reports)):
            gen = philox_stream(seed, _cell_key(kind, d, t_idx))
            nu = _polytope_batch(gen, n, -box_ratio(d, t), samples).T
            if vertices:
                nu = np.vstack([nu, polytope_vertices(d, t)])
            if kind == "main":
                k_values = list(range(n))
                margins = [
                    sum((1.0 - row[l]) * elem_sym_brute(np.delete(row, l), n - k - 1) for l in range(n))
                    - _rhs_coefficient(d, t) * elem_sym_brute(row, n - k)
                    for row in nu
                    for k in k_values
                ]
            else:
                k_values = list(range(1, n + 1))
                margins = [elem_sym_brute(row, n - k) for row in nu for k in k_values]
            assert rep.k_values == k_values
            assert rep.samples == len(margins) == n * len(nu)
            assert rep.violations == sum(margin < -VIOLATION_TOL for margin in margins)
            assert rep.worst_margin == pytest.approx(min(margins), abs=1e-12)


def test_second_term_can_go_negative_on_feasible_points():
    # the standalone lower bound on s_{n-k} fails for n >= 3 at steep t:
    # this point is feasible (box floor -1, sum floor 1.0) yet s_2 < 0.
    # The full inequality is unharmed there because its second-term
    # coefficient vanishes at t = -1/(d-1) and the first term dominates
    # nearby, which the main scans confirm at scale.
    nu = np.array([-0.99, 1.0, 1.0])
    d, t = 5, -0.25
    assert 1.0 + box_ratio(d, t) == pytest.approx(-1.0)
    assert np.sum(nu) >= (nu.size + box_ratio(d, t)) - 1e-12
    assert second_term_value(nu, 1) == pytest.approx(-0.98)
    for k in range(3):
        assert main_inequality_lhs(nu, k, d, t) >= -1e-9
    for t2 in (-0.24, -0.2, -0.15):
        assert main_inequality_lhs(nu, 1, d, t2) >= -1e-9

    reports = run_scan("second_term", [5], samples=4000, seed=2)
    assert any(r.violations > 0 for r in reports)
    reports = run_scan("second_term", [3, 4], samples=4000, seed=2)
    assert all(r.violations == 0 for r in reports)


def test_k0_defect_frozen_and_guards():
    assert k0_defect(np.array([-1.0, 1.0]), 4, -1.0 / 3.0) == pytest.approx(2.0)
    assert k0_defect(np.array([-0.25, 0.5, 1.0]), 5, -0.25) == pytest.approx(4.0)
    with pytest.raises(BadSignPattern):
        k0_defect(np.array([0.5, 1.0]), 4, -1.0 / 3.0)  # no negative entry
    with pytest.raises(BadSignPattern):
        k0_defect(np.array([-0.5, -0.1, 1.0]), 5, -0.25)  # two negatives
    with pytest.raises(NearZeroNu):
        k0_defect(np.array([-1e-13, 1.0]), 4, -1.0 / 3.0)


def test_k0_defect_needs_n_entries():
    # k0_defect reads n = d - 2 entries, as main_inequality_lhs does.
    with pytest.raises(BadLength):
        k0_defect([-0.5, 0.5, 0.5, 0.5, 0.9], 4, -1.0 / 3.0)
    with pytest.raises(BadLength):
        k0_defect([-0.5], 4, -1.0 / 3.0)
    with pytest.raises(ConfigError):
        k0_defect([], 2, -0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polytope_routes_reject_non_finite_nu(bad):
    nu = np.array([-0.5, bad])
    with pytest.raises(OutOfRange):
        first_term_value(nu, 0)
    with pytest.raises(OutOfRange):
        second_term_value(nu, 1)
    with pytest.raises(OutOfRange):
        main_inequality_lhs(nu, 0, 4, -0.25)
    with pytest.raises(OutOfRange):
        k0_defect(nu, 4, -0.25)


def test_k0_cell_gives_each_sample_the_bits_of_k0_defect():
    # At the steepest t the corner radius is R - 1 = 1.  Up to d = 12,
    # where n = 10 terms would be added pairwise by a row-wise np.sum,
    # the scan and the scalar route add the reciprocals in one order.
    for d in range(3, 13):
        t = float(default_t_grid(d)[0])
        key = _cell_key("k0", d, 0)
        _, [margins] = verification._k0_cells([lambda: philox_stream(6, key)], d, [t], 40)
        nu = _polytope_batch(philox_stream(6, key), d - 2, -box_ratio(d, t), 40, corner_only=True).T
        want = [k0_defect(row, d, t) for row in nu if np.abs(row).min() > 1e-12]
        assert len(want) == len(margins) > 30
        assert np.array(want).tobytes() == margins.tobytes(), d


def test_extreme_point_defect():
    assert extreme_point_defect(4, -1.0 / 3.0) == pytest.approx(2.0)
    assert extreme_point_defect(3, -0.5) == pytest.approx(2.0)
    # box floor is nonnegative for t >= -1/(2d-1): nothing to check
    assert extreme_point_defect(4, -0.1) is None
    assert extreme_point_defect(5, -1.0 / 9.0) is None
    with pytest.raises(BadT):
        extreme_point_defect(4, 0.1)
    # nonnegative across the admissible range
    for d in range(3, 11):
        for t in np.linspace(-1.0 / (d - 1), -1e-6, 101):
            v = extreme_point_defect(d, float(t))
            assert v is None or v >= -1e-9


def test_final_polynomial():
    assert final_polynomial(3, -0.5) == pytest.approx(2.25)
    assert final_polynomial(4, -1.0 / 3.0) == pytest.approx(16.0 / 9.0)
    # 3x^2 + 3(1-t)x + (1-t)^2 with x = td has minimum (1-t)^2/4 > 0
    for d in range(3, 11):
        for t in np.linspace(-1.0 / (d - 1), -1e-6, 51):
            v = final_polynomial(d, float(t))
            assert v >= (1.0 - t) ** 2 / 4.0 - 1e-12
            assert v > 0.0


# ------------------------------------------------------------------- sampling


def test_sample_polytope_feasibility():
    rng = np.random.default_rng(401)
    for d, t in ((3, -0.5), (4, -1.0 / 3.0), (5, -0.05), (6, -0.2)):
        n = d - 2
        lower = 1.0 + box_ratio(d, t)
        floor = n + 2.0 * t * d / (1.0 - t)
        for _ in range(200):
            v = sample_polytope(d, t, rng)
            assert v.size == n
            assert np.all(v <= 1.0 + 1e-12)
            assert np.all(v >= lower - 1e-12)
            assert np.sum(v) >= floor - 1e-12
            assert int(np.sum(v < 0.0)) <= 1


def test_sample_polytope_deterministic():
    a = [sample_polytope(5, -0.25, np.random.default_rng(7)) for _ in range(1)]
    b = [sample_polytope(5, -0.25, np.random.default_rng(7)) for _ in range(1)]
    assert np.array_equal(a[0], b[0])
    with pytest.raises(ConfigError):
        sample_polytope(2, -0.5, np.random.default_rng(1))


def test_batch_polytope_feasibility_and_determinism():
    cases = [(5, -0.25, False), (5, -0.25, True), (6, -0.19, False), (4, -0.01, True)]
    for d in range(3, 9):
        cases += [(d, float(t), force) for t in default_t_grid(d) for force in (False, True)]
    for d, t, force in cases:
        n = d - 2
        ratio = box_ratio(d, t)
        lower = 1.0 + ratio
        gen_a = philox_stream(42, _cell_key("main", d, 0) + 2)
        gen_b = philox_stream(42, _cell_key("main", d, 0) + 2)
        rows_a = _polytope_batch(gen_a, n, -ratio, 512, force).T
        rows_b = _polytope_batch(gen_b, n, -ratio, 512, force).T
        assert np.array_equal(rows_a, rows_b)
        if force and lower >= 0.0:
            assert rows_a.shape == (0, n)  # the corner stratum is empty
            continue
        assert rows_a.shape == (512, n)
        assert np.all(rows_a <= 1.0 + 1e-12)
        assert np.all(rows_a >= lower - 1e-12)
        assert np.all(np.sum(rows_a, axis=1) >= n + ratio - 1e-12)
        assert np.all(np.sum(rows_a < 0.0, axis=1) <= 1)
        if force:
            assert np.all(np.sum(rows_a < 0.0, axis=1) == 1)


@pytest.mark.parametrize("count", [0, 1, 2000])
def test_polytope_batch_columns_have_the_row_major_bits(count):
    # The spacings are summed over the coordinate rows in order; a
    # row-wise np.sum adds its n + 1 < 8 terms in the same order, so up
    # to d = 8 every sample has the row-major sampler's bits, on both
    # strata (R > 1 at the steep end of the grid, R <= 1 at the flat end)
    # and with corner_only.  From d = 9 on np.sum adds pairwise, and the
    # samples move in the last bits only.
    for d in range(3, 13):
        n = d - 2
        for t_idx, t in enumerate(default_t_grid(d).tolist()):
            for corner_only in (False, True):
                key = _cell_key("main", d, t_idx)
                got = _polytope_batch(philox_stream(3, key), n, -box_ratio(d, t), count, corner_only)
                want = polytope_batch_rows(philox_stream(3, key), n, -box_ratio(d, t), count, corner_only)
                assert got.shape == want.shape[::-1]
                if d <= 8:
                    assert got.T.tobytes() == want.tobytes(), (d, t, corner_only)
                else:
                    assert np.max(np.abs(got.T - want), initial=0.0) <= 1e-15, (d, t, corner_only)


def _ks_pvalue(values, a, b):
    return stats.kstest(values, "beta", args=(a, b)).pvalue


def test_polytope_batch_strata_are_uniform():
    # With y = 1 - nu, a uniform point of the corner simplex e_pos + (R-1) Delta
    # has (sum y - 1)/(R - 1) ~ Beta(n, 1), and its offsets from e_pos,
    # normalized to sum 1, are uniform on the probability simplex, so each one
    # is Beta(1, n - 1).  The whole stratum has sum y / R ~ Beta(n, 1).
    d, t = 5, -0.125
    n = d - 2
    radius = -box_ratio(d, t)
    assert 1.0 < radius < 2.0
    gen = philox_stream(2024, _cell_key("k0", d, 0))
    y = 1.0 - _polytope_batch(gen, n, radius, 4000, corner_only=True).T
    pos = np.argmax(y, axis=1)
    assert np.all(y[np.arange(y.shape[0]), pos] >= 1.0)
    radial = (y.sum(axis=1) - 1.0) / (radius - 1.0)
    assert _ks_pvalue(radial, n, 1) > 0.01
    offsets = y.copy()
    offsets[np.arange(y.shape[0]), pos] -= 1.0
    direction = offsets / offsets.sum(axis=1, keepdims=True)
    assert _ks_pvalue(direction[:, 0], 1, n - 1) > 0.01
    assert np.all(np.abs(np.bincount(pos, minlength=n) / y.shape[0] - 1.0 / n) < 0.05)

    # each stratum has probability 1/2; the corners fill n ((R-1)/R)^n of the whole
    gen = philox_stream(2024, _cell_key("main", d, 0) + 1)
    y = 1.0 - _polytope_batch(gen, n, radius, 8000).T
    no_negative = 0.5 * (1.0 - n * ((radius - 1.0) / radius) ** n)
    assert abs(np.mean(y.max(axis=1) < 1.0) - no_negative) < 0.03
    gen = philox_stream(7, 1)
    y = 1.0 - _polytope_batch(gen, n, 0.9, 4000).T  # R < 1: only the whole stratum
    assert _ks_pvalue(y.sum(axis=1) / 0.9, n, 1) > 0.01
    assert _ks_pvalue(y[:, 0] / y.sum(axis=1), 1, n - 1) > 0.01


@pytest.mark.parametrize("n,count,force", [(1, 5, False), (3, 64, False), (6, 17, True)])
def test_polytope_batch_stream_advance(n, count, force):
    # each row reads exactly n + 3 doubles, whatever stratum it lands in
    gen = philox_stream(5, 77)
    _polytope_batch(gen, n, 1.5, count, force)
    fresh = philox_stream(5, 77).random(count * (n + 3) + 4)
    assert np.array_equal(gen.random(4), fresh[-4:])


def test_polytope_vertices_frozen():
    v = polytope_vertices(3, -0.5)
    assert sorted(map(tuple, v)) == [(-1.0,), (1.0,)]
    v = polytope_vertices(4, -1.0 / 3.0)
    assert sorted(map(tuple, v)) == [(-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    # shallow t: the sum plane cuts the box edges strictly inside
    v = polytope_vertices(4, -0.15)
    lo = 2.0 + box_ratio(4, -0.15) - 1.0
    assert sorted(map(tuple, np.round(v, 8))) == [
        (round(lo, 8), 1.0),
        (1.0, round(lo, 8)),
        (1.0, 1.0),
    ]
    # closed form for any n: ones(n) and 1 - R e_l
    v = polytope_vertices(7, -0.1)
    radius = 2.0 * 0.1 * 7 / 1.1
    assert np.array_equal(v[0], np.ones(5))
    assert np.allclose(v[1:], 1.0 - radius * np.eye(5), rtol=0.0, atol=1e-15)
    with pytest.raises(ConfigError):
        polytope_vertices(2, -0.5)


def test_polytope_vertices_feasible():
    for d in (3, 4, 5, 6):
        for t in default_t_grid(d, points=5):
            t = float(t)
            n = d - 2
            verts = polytope_vertices(d, t)
            lower = 1.0 + box_ratio(d, t)
            for v in verts:
                assert np.all(v <= 1.0 + 1e-9)
                assert np.all(v >= lower - 1e-9)
                assert np.sum(v) >= n + box_ratio(d, t) - 1e-9


@pytest.mark.parametrize("n", range(5, 9))
def test_polytope_vertices_closed_form_matches_linear_programs(n):
    # The minimum of a linear function over the polytope, given by its
    # inequalities {nu <= 1, nu >= 1 + ratio, sum nu >= n + ratio}, is
    # attained at a vertex, so it must equal the minimum over the list.
    d = n + 2
    rng = np.random.default_rng(n)
    for t in default_t_grid(d, points=4):
        ratio = box_ratio(d, float(t))
        verts = polytope_vertices(d, float(t))
        assert verts.shape == (n + 1, n)
        for _ in range(10):
            c = rng.standard_normal(n)
            lp = optimize.linprog(
                c,
                A_ub=-np.ones((1, n)),
                b_ub=[-(n + ratio)],
                bounds=[(1.0 + ratio, 1.0)] * n,
            )
            assert lp.status == 0
            assert lp.fun == pytest.approx(float(np.min(verts @ c)), abs=1e-9)


# ------------------------------------------------------------------- run_scan


def test_run_scan_reports_clean():
    for kind in SCAN_KINDS:
        reports = run_scan(kind, [3, 4], samples=200, seed=3)
        assert len(reports) == 2 * 9
        for rep in reports:
            assert rep.kind == kind
            assert rep.d in (3, 4)
            assert rep.violations == 0
            assert rep.seed == 3
            d = rep.as_dict()
            assert d["kind"] == kind and d["violations"] == 0


def test_run_scan_margins_nonnegative():
    reports = run_scan("main", [4], samples=500, seed=1)
    for rep in reports:
        assert rep.worst_margin is None or rep.worst_margin >= -1e-9


def _fan_out_always(monkeypatch):
    """Give every kind a fan-out width of 0, so that threads > 1 starts the pool even on small cells."""
    for kind, (least_d, margins, _) in list(verification._KINDS.items()):
        monkeypatch.setitem(verification._KINDS, kind, (least_d, margins, 0))


def _pools(monkeypatch):
    """Record the max_workers of every ThreadPoolExecutor a scan starts."""
    started = []
    executor = concurrent.futures.ThreadPoolExecutor

    class Recorded(executor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    return started


def test_run_scan_thread_determinism(monkeypatch):
    # A budget of 800 rows pairs the 400-sample cells: each d's 9 cells make
    # 5 batches, 15 in all, enough to fill 8 workers.
    _fan_out_always(monkeypatch)
    monkeypatch.setattr(verification, "_BATCH_ROWS", 800)
    started = _pools(monkeypatch)
    a = run_scan("main", [3, 4, 5], samples=400, seed=9, threads=1)
    b = run_scan("main", [3, 4, 5], samples=400, seed=9, threads=8)
    assert started == [8]
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra == rb


@pytest.mark.parametrize("kind", SCAN_KINDS)
def test_run_scan_reports_do_not_depend_on_the_thread_count(monkeypatch, kind):
    # A budget of 100 rows pairs the 50-sample cells: each d's 7 cells make
    # batches of 2, 2, 2 and 1, 8 batches in all, one task each.  2 and 3
    # workers share them, and 40 threads start one worker per batch.
    # These cells are too small to fan out on their own.  Every thread
    # count runs the same batches; pool tasks finish in any order, so the
    # batches compare as multisets.
    _fan_out_always(monkeypatch)
    monkeypatch.setattr(verification, "_BATCH_ROWS", 100)
    batches = _batch_ts(monkeypatch, kind)
    started = _pools(monkeypatch)
    grid = default_t_grid(4, 7)
    want = run_scan(kind, [3, 4], t_grid=grid, samples=50, seed=4, threads=1)
    want_batches = sorted(batches)
    assert len(want) == 14 and len(want_batches) == 8
    for threads in (2, 3, 40):
        batches.clear()
        assert run_scan(kind, [3, 4], t_grid=grid, samples=50, seed=4, threads=threads) == want
        assert sorted(batches) == want_batches
    assert started == [2, 3, 8]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_batch_that_raises_gives_the_reports_of_its_cells_run_alone(monkeypatch, threads):
    # The margins function fails on every batch of more than one cell, so
    # each batch runs again one cell at a time.
    least_d, margins, _ = verification._KINDS["main"]

    def alone_only(streams, d, ts, samples):
        if len(ts) > 1:
            raise RuntimeError("a batch of several cells")
        return margins(streams, d, ts, samples)

    grid = default_t_grid(4, 7)
    with monkeypatch.context() as alone:
        alone.setattr(verification, "_BATCH_ROWS", 1)
        want = run_scan("main", [3, 4], t_grid=grid, samples=50, seed=4)
    monkeypatch.setitem(verification._KINDS, "main", (least_d, alone_only, 0))
    started = _pools(monkeypatch)
    assert repr(run_scan("main", [3, 4], t_grid=grid, samples=50, seed=4, threads=threads)) == repr(want)
    assert started == ([] if threads == 1 else [2])


def test_a_scan_of_no_dimensions_starts_no_pool(monkeypatch):
    _fan_out_always(monkeypatch)
    started = _pools(monkeypatch)
    for kind in SCAN_KINDS:
        assert run_scan(kind, [], threads=2) == []
    assert started == []


def test_threads_is_an_upper_bound_on_the_workers(monkeypatch):
    # At 400 samples a batch holds the 5 cells of one d, 2000 rows: at
    # d = 5, 10000 wide.  That is below the fan-out width of main, which
    # then runs on the calling thread, and above that of sympol.
    want = {kind: run_scan(kind, [3, 4, 5], samples=400, seed=9, threads=1) for kind in ("main", "sympol")}

    def refused(*args, **kwargs):
        raise AssertionError("a pool was started")

    with monkeypatch.context() as patched:
        patched.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
        assert run_scan("main", [3, 4, 5], samples=400, seed=9, threads=2) == want["main"]
        with pytest.raises(AssertionError, match="a pool was started"):
            run_scan("sympol", [3, 4, 5], samples=400, seed=9, threads=2)
    started = _pools(monkeypatch)
    assert run_scan("sympol", [3, 4, 5], samples=400, seed=9, threads=2) == want["sympol"]
    assert started == [2]


@pytest.mark.parametrize("kind", ["main", "k0", "second_term", "schur", "sympol"])
def test_the_pool_starts_once_the_widest_batch_reaches_the_fan_out_width(monkeypatch, kind):
    # At samples >= _BATCH_ROWS / 2 every cell runs alone, so the two cells
    # of the largest d are the widest batches, samples x d wide; once they
    # reach the width, they are two wide batches, and the pool starts.
    width = verification._KINDS[kind][2]
    d = min(10, width // (verification._BATCH_ROWS // 2 + 1))
    grid = [-0.5 / (d - 1), -0.1 / (d - 1)]
    started = _pools(monkeypatch)
    for samples in (-(-width // d) - 1, -(-width // d)):
        assert samples > verification._BATCH_ROWS // 2
        run_scan(kind, [3, d], t_grid=grid, samples=samples, threads=2)
    assert started == [2]


def _threads_by_d(monkeypatch, kind, fan_out):
    """Set the kind's fan-out width; record the d, the cell count and the running thread of every batch.

    Also returns the most batches that ran at once.
    """
    least_d, margins, _ = verification._KINDS[kind]
    ran, busy, peak = [], [], [0]
    lock = threading.Lock()

    def recorded(streams, d, ts, samples):
        with lock:
            ran.append((d, len(ts), threading.get_ident()))
            busy.append(d)
            peak[0] = max(peak[0], len(busy))
        time.sleep(0.01)
        try:
            return margins(streams, d, ts, samples)
        finally:
            with lock:
                busy.pop()

    monkeypatch.setitem(verification._KINDS, kind, (least_d, recorded, fan_out))
    return ran, peak


def test_two_wide_batches_start_the_pool_for_every_batch(monkeypatch):
    # At 400 samples each d's 9 cells make batches of 5 and 4 cells, 2000
    # and 1600 rows.  At a width of 8000 the first batch of d = 4 (8000)
    # and both of d = 5 (10000 and 8000) are wide, so the pool starts with
    # min(threads, 6) workers and takes every batch; the calling thread
    # runs none, and no more than threads batches run at once.
    want = run_scan("main", [3, 4, 5], samples=400, seed=9, threads=1)
    ran, peak = _threads_by_d(monkeypatch, "main", 8000)
    started = _pools(monkeypatch)
    for threads in (2, 3, 40):
        ran.clear()
        peak[0] = 0
        assert run_scan("main", [3, 4, 5], samples=400, seed=9, threads=threads) == want
        assert sorted((d, cells) for d, cells, _ in ran) == [(3, 4), (3, 5), (4, 4), (4, 5), (5, 4), (5, 5)]
        assert threading.get_ident() not in {ident for _, _, ident in ran}
        assert 1 <= peak[0] <= threads
    assert started == [2, 3, 6]


def test_one_wide_batch_starts_no_pool(monkeypatch):
    # At a width of 10000 only the first batch of d = 5 is wide: with no
    # second wide batch to share the work, every batch runs in order on the
    # calling thread.
    want = run_scan("main", [3, 4, 5], samples=400, seed=9, threads=1)
    ran, peak = _threads_by_d(monkeypatch, "main", 10000)
    started = _pools(monkeypatch)
    assert run_scan("main", [3, 4, 5], samples=400, seed=9, threads=2) == want
    assert started == []
    assert [(d, cells) for d, cells, _ in ran] == [(3, 5), (3, 4), (4, 5), (4, 4), (5, 5), (5, 4)]
    assert {ident for _, _, ident in ran} == {threading.get_ident()}
    assert peak[0] == 1


def _batch_ts(monkeypatch, kind):
    """Record the ts list of every batch the kind's margins function gets."""
    least_d, margins, fan_out = verification._KINDS[kind]
    batches = []

    def recorded(streams, d, ts, samples):
        batches.append(list(ts))
        return margins(streams, d, ts, samples)

    monkeypatch.setitem(verification._KINDS, kind, (least_d, recorded, fan_out))
    return batches


@pytest.mark.parametrize("kind", SCAN_KINDS)
def test_batched_reports_have_the_bits_of_cells_run_alone(monkeypatch, kind):
    # Around the budget: 1 and 7 samples batch every cell of a d, half the
    # budget pairs them, and from budget - 1 up each cell runs alone.
    # repr tells -0.0 from 0.0, which == does not.
    budget = verification._BATCH_ROWS
    grid = default_t_grid(4, 3)
    batches = _batch_ts(monkeypatch, kind)
    for samples in (1, 7, budget // 2, budget - 1, budget, budget + 1):
        batches.clear()
        got = run_scan(kind, [3, 4], t_grid=grid, samples=samples, seed=8)
        assert [len(ts) for ts in batches] == ([3, 3] if samples < budget // 3 else [2, 1, 2, 1] if samples == budget // 2 else [1] * 6)
        with monkeypatch.context() as alone:
            alone.setattr(verification, "_BATCH_ROWS", 1)
            want = run_scan(kind, [3, 4], t_grid=grid, samples=samples, seed=8)
        assert repr(got) == repr(want), samples


def test_k0_batch_mixes_empty_and_sampled_cells(monkeypatch):
    # R = -2td/(1-t) falls from 2 to 0 along the default grid: the cells
    # with R <= 1 have no one-negative stratum, report no samples and
    # share one batch with cells whose filter keeps only some samples.
    batches = _batch_ts(monkeypatch, "k0")
    got = run_scan("k0", [4], samples=60, seed=2)
    assert [len(ts) for ts in batches] == [9]
    with monkeypatch.context() as alone:
        alone.setattr(verification, "_BATCH_ROWS", 1)
        assert repr(run_scan("k0", [4], samples=60, seed=2)) == repr(got)
    empty = [rep.samples == 0 and rep.worst_margin is None for rep in got]
    assert 0 < sum(empty) < 9
    assert all(0 < rep.samples <= 60 for rep, none in zip(got, empty) if not none)


def test_run_scan_takes_a_scalar_t_as_one_t():
    assert run_scan("main", 3, t_grid=-0.25, samples=20) == run_scan("main", [3], t_grid=[-0.25], samples=20)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d_values=[3.7]),
        dict(d_values=[3, np.float64(4.0)]),
        dict(samples=2.5),
        dict(samples="200"),
        dict(threads=-2),
        dict(threads=0),
        dict(threads=1.5),
        dict(t_grid=[[-0.25, -0.1]]),
        dict(seed=1.5),
        dict(seed="7"),
        dict(seed=None),
        dict(seed=-1),
        dict(seed=2**64),
        dict(d_values=[3, 256]),
        dict(t_grid=np.linspace(-0.5, -1e-6, 65537)),
    ],
)
def test_run_scan_rejects_malformed_arguments_before_any_cell(monkeypatch, kwargs):
    # A non-integer d or samples used to be truncated or to reach numpy,
    # threads < 1 used to run serially, and a 2-D grid reached _check_t.
    # seed=1.5 ran seed 1 and reported 1.5, and seed=None raised TypeError.
    # seed=-1 drew the samples of seed 2^64 - 1 and reported -1.  The
    # stream key holds d in 8 bits and the t index in 16: d = 256 shared
    # its keys with the next kind's d = 0, and t index 65536 with d + 1.
    opened = []
    monkeypatch.setattr(verification, "philox_stream", lambda *key: opened.append(key))
    args = dict(kind="main", d_values=[3], samples=10, threads=1) | kwargs
    with pytest.raises(ConfigError):
        run_scan(**args)
    assert opened == []


def test_run_scan_takes_every_seed_philox_keys_on():
    reports = run_scan("main", 3, t_grid=-0.25, samples=20, seed=2**64 - 1)
    assert reports[0].seed == 2**64 - 1
    assert reports != run_scan("main", 3, t_grid=-0.25, samples=20, seed=0)


class _EarlierCellFailed(Exception):
    pass


class _LaterCellFailed(Exception):
    pass


def test_the_stream_key_takes_every_d_and_t_index_run_scan_accepts():
    assert verification._cell_key("main", 255, 65535) < verification._cell_key("k0", 0, 0)
    grid = np.linspace(-1.0 / 254, -1e-6, 65536)
    assert len(run_scan("final_poly", [255], t_grid=grid, samples=1)) == 65536


@pytest.mark.parametrize("threads", [2, 3, 40])
def test_run_scan_raises_the_earliest_failing_cell(monkeypatch, threads):
    # Cell 4 of 18 in (d, t) order fails late, cell 8 at once.  In the
    # default budget both sit in the one batch of d = 3, which raises cell
    # 8's exception first; its cells then run one at a time.  At a budget
    # of 1 row each cell is a pool task of its own, and cell 8 fails first
    # in wall time.  Every thread count raises cell 4's exception.  A
    # fan-out width of 0 starts the pool on these one-value cells.
    cells = [(d, t) for d in (3, 4) for t in default_t_grid(d).tolist()]
    batches = []

    def margins(streams, d, ts, samples):
        indices = [cells.index((d, t)) for t in ts]
        batches.append(indices)
        if 8 in indices:
            raise _LaterCellFailed(8)
        if 4 in indices:
            time.sleep(0.05)
            raise _EarlierCellFailed(4)
        return [], [np.array([1.0]) for _ in ts]

    monkeypatch.setitem(verification._KINDS, "extreme", (2, margins, 0))
    started = _pools(monkeypatch)
    for count in (1, threads):
        with pytest.raises(_EarlierCellFailed):
            run_scan("extreme", [3, 4], samples=1, threads=count)
    assert batches[:6] == [list(range(9)), [0], [1], [2], [3], [4]]
    monkeypatch.setattr(verification, "_BATCH_ROWS", 1)
    for count in (1, threads):
        with pytest.raises(_EarlierCellFailed):
            run_scan("extreme", [3, 4], samples=1, threads=count)
    assert started == [2, min(threads, len(cells))]


def test_run_scan_custom_grid_and_guards():
    reports = run_scan("extreme", [5], t_grid=np.array([-0.25, -0.125]), samples=1)
    assert len(reports) == 2
    assert [r.t_values[0] for r in reports] == [-0.25, -0.125]
    with pytest.raises(ConfigError):
        run_scan("nope", [3])
    with pytest.raises(ConfigError):
        run_scan("main", [2])  # polytope kinds need d >= 3
    with pytest.raises(ConfigError):
        run_scan("main", [3], samples=0)


@pytest.mark.parametrize("kind", SCAN_KINDS)
@pytest.mark.parametrize("bad", [5.0, 0.0, -0.75, float("nan")])
def test_run_scan_checks_every_t_before_any_cell(monkeypatch, kind, bad):
    # d = 3 allows t in [-1/2, 0).  The bad point comes last, so a check
    # made per cell would open the streams of the good cells first.
    opened = []
    monkeypatch.setattr(verification, "philox_stream", lambda *key: opened.append(key))
    for d_values, grid, threads in (([3], [bad], 1), ([3], [-0.25, -0.1, bad], 1), ([4, 3], [-0.3, bad], 2)):
        with pytest.raises(BadT):
            run_scan(kind, d_values, t_grid=grid, samples=5, threads=threads)
    assert opened == []


def test_kinds_that_draw_nothing_open_no_stream(monkeypatch):
    opened = []
    monkeypatch.setattr(verification, "philox_stream", lambda *key: opened.append(key))
    for kind in ("extreme", "final_poly"):
        assert len(run_scan(kind, [2, 5], samples=3)) == 18
    assert opened == []


def test_run_scan_d2_allowed_for_nonpolytope():
    reports = run_scan("extreme", [2], samples=1, seed=0)
    assert len(reports) == 9
    for rep in reports:
        assert rep.violations == 0
