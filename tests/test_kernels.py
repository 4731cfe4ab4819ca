"""Property tests for the batched spectrum and symmetric-polynomial kernels.

Inputs come from hypothesis and force the degenerate cases: poles that
coincide or lie within rounding of each other, weights exactly zero or
down to 1e-30, and t at both endpoints and at zero.  The spectrum is
checked against a 50-digit mpmath oracle, and each batch row against the
single-vector call bit for bit; the s tables and the leave-one-out
downdate oracle against brute-force sums; the counting facts and the
Schur-main identity behind the two-term formulas, the last at 50
digits; each two-term formula against its evaluation on Python floats
bit for bit; the scan margins against the per-sample scalar route; and
phi_k, its partials and the Schur defect against the full-tensor route
and a 50-digit mpmath evaluation.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tdchan as td
from tdchan.errors import OutOfRange, SumMismatch
from tdchan.majorization import _elem_sym_table, _rhs_coefficient
from tdchan.sampling import _lambda_rows, philox_stream
from tdchan.spectrum import secular_roots_batch
from tdchan.verification import _margins_main, _schur_margins, _sympol_margins

from oracles import (
    elem_sym_brute,
    loo_elem_sym,
    mp_main_margin,
    mp_partial_phi,
    mp_phi,
    mp_schur_defect,
    mp_secular_block_roots,
    partial_phi_full_tensor,
    schur_defect_full_tensor,
)

ROOT_TOL = 1e-13
MARGIN_TOL = 1e-12
# Tiny weights.  A weight lam couples its row of the block by
# t^2 sqrt(lam), so 1e-30 moves a root by up to 1e-15, while 1e-20 and
# 1e-14 move one far past ROOT_TOL when dropped.
TINY = (0.0, 1e-30, 1e-20, 1e-14, 2e-14)


@st.composite
def t_values(draw, d):
    lo, hi = td.t_range(d)
    return draw(st.one_of(st.sampled_from([lo, hi, 0.0]), st.floats(lo, hi)))


@st.composite
def schmidt_rows(draw, d):
    """One Schmidt vector with forced tiny weights and a near-coincident pair.

    The pair differs by at most 1e-13 in lam, so its poles differ by at
    most 1e-13 |c2|: a near-repeated eigenvalue of the block.
    """
    bulk = draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    tiny = draw(st.lists(st.sampled_from((None,) + TINY), min_size=d, max_size=d))
    tiny[0] = None
    lam = np.array(bulk)
    free = np.array([x is None for x in tiny])
    fixed = np.array([0.0 if x is None else x for x in tiny])
    lam = np.where(free, lam / lam[free].sum() * (1.0 - fixed.sum()), fixed)
    gap = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1e-13)))
    if gap is not None and d >= 2 and free[1]:
        mid = 0.5 * (lam[0] + lam[1])
        lam[0], lam[1] = mid - 0.5 * gap, mid + 0.5 * gap
    order = draw(st.permutations(range(d)))
    return lam[list(order)]


@st.composite
def secular_cases(draw):
    d = draw(st.integers(2, 8))
    t = draw(t_values(d))
    rows = draw(st.lists(schmidt_rows(d), min_size=1, max_size=3))
    return d, t, np.array(rows)


# Near-vertex Schmidt vectors at t = -1/(d-1): the root between the two
# active poles sits at g = 0, where no relative error can hide behind
# the size of the root.
NEAR_VERTEX = 3.0517578106348256e-08


@settings(max_examples=200, deadline=None)
@given(secular_cases())
@example(case=(2, 1e-12, np.array([[2.0 / 3.0, 1.0 / 3.0]])))  # poles 3.3e-13 apart
@example(case=(3, -0.5, np.array([[1.0 - NEAR_VERTEX, NEAR_VERTEX, 0.0]])))
@example(case=(4, -1.0 / 3.0, np.array([[1.0 - NEAR_VERTEX, NEAR_VERTEX, 0.0, 0.0]])))
# Two small weights whose poles lie 4.7e-13 apart, with weights 120 times
# apart: solving them as one pole at their mean moves a root by 1.9e-13.
@example(case=(3, -0.5, np.array([[1.0, 9.4e-13, 7.7e-15]])))
def test_secular_batch_matches_scalar_and_mpmath(case):
    d, t, rows = case
    ch = td.new_channel(d, t)
    batch = secular_roots_batch(ch, rows)
    assert batch.shape == rows.shape
    for lam, got in zip(rows, batch):
        scalar = td.secular_roots(ch, lam)
        oracle = mp_secular_block_roots(t, lam)
        assert np.max(np.abs(got - scalar)) <= ROOT_TOL
        assert np.max(np.abs(got - oracle)) <= ROOT_TOL
        assert np.max(np.abs(scalar - oracle)) <= ROOT_TOL


@settings(max_examples=200, deadline=None)
@given(secular_cases())
def test_secular_batch_rows_match_single_calls_bit_for_bit(case):
    d, t, rows = case
    ch = td.new_channel(d, t)
    batch = secular_roots_batch(ch, rows)
    for i, lam in enumerate(rows):
        assert batch[i].tobytes() == td.secular_roots(ch, lam).tobytes()


def test_secular_log_uniform_weights_match_mpmath():
    # Weights spread over 30 decades put poles within rounding of each
    # other and weights far below any coupling that matters, in every mix.
    rng = np.random.default_rng(2024)
    for i in range(300):
        d = int(rng.integers(2, 7))
        lam = 10.0 ** rng.uniform(-30.0, 0.0, d)
        lam /= lam.sum()
        lo, hi = td.t_range(d)
        t = (lo, hi, 0.5 * lo, float(rng.uniform(lo, hi)))[i % 4]
        got = td.secular_roots(td.new_channel(d, t), lam)
        assert np.max(np.abs(got - mp_secular_block_roots(t, lam))) <= ROOT_TOL, (d, t, lam)


def test_secular_batch_forced_cases():
    """Endpoints, t = 0, zero weights, a weight of 1e-30, repeated poles."""
    for d in range(2, 9):
        lo, hi = td.t_range(d)
        rows = [np.full(d, 1.0 / d), np.eye(d)[0]]
        lam = np.arange(1.0, d + 1.0)
        lam /= lam.sum()
        rows.append(lam)
        tiny = lam.copy()
        tiny[0] = 1e-30
        tiny[1] += lam[0] - 1e-30
        rows.append(tiny)
        for t in (lo, hi, 0.0, 0.5 * lo):
            ch = td.new_channel(d, t)
            batch = secular_roots_batch(ch, np.array(rows))
            for lam, got in zip(rows, batch):
                assert np.max(np.abs(got - mp_secular_block_roots(t, lam))) <= ROOT_TOL, (d, t, lam)
                assert np.max(np.abs(got - td.secular_roots(ch, lam))) <= ROOT_TOL
            if t == 0.0:
                assert np.all(batch == 1.0 / d**2)


def _forced_rows(d):
    """Uniform (one d-fold pole), a vertex (zero weights), distinct weights,
    a weight of 1e-30, a weight whose root lies within a float of its pole,
    a repeated pair, and a near vertex."""
    lam = np.arange(1.0, d + 1.0)
    lam /= lam.sum()
    tiny = lam.copy()
    tiny[0] = 1e-30
    tiny[1] += lam[0] - 1e-30
    small = lam.copy()
    small[0] = 1e-20
    small[1] += lam[0] - 1e-20
    pair = lam.copy()
    pair[0] = pair[1] = 0.5 * (lam[0] + lam[1])
    near = np.zeros(d)
    near[0], near[1] = 1.0 - NEAR_VERTEX, NEAR_VERTEX
    return np.array([np.full(d, 1.0 / d), np.eye(d)[0], lam, tiny, small, pair, near])


# At t = -1/(d-1) these put a root at g = 0, where an absolute error
# cannot hide behind a large root.
ZERO_ROOT_CASES = [
    (2, -1.0, [0.1814920343498257, 0.8185079656501744]),
    (3, -0.5, [0.990661763599945, 0.009338236400054998, 0.0]),
    (3, -0.5, [0.9999999993168853, 6.477581292000623e-14, 6.830499001238157e-10]),
]


def test_secular_forced_rows_match_mpmath():
    cases = [
        (d, t, lam)
        for d in range(2, 9)
        for t in (*td.t_range(d), 1e-12, 0.5 * td.t_range(d)[0])
        for lam in _forced_rows(d)
    ]
    cases += [(d, t, np.array(lam)) for d, t, lam in ZERO_ROOT_CASES]
    for d, t, lam in cases:
        got = secular_roots_batch(td.new_channel(d, t), lam[None, :])[0]
        assert np.max(np.abs(got - mp_secular_block_roots(t, lam))) <= ROOT_TOL, (d, t, lam)


def test_secular_tiny_weight_at_degenerate_t():
    # At d = 3, t = -1/2 the top root of the block without the first
    # coordinate sits at c1 for every lam, so dropping a weight of 1e-14
    # would move a root by ~2e-8.
    ch = td.new_channel(3, -0.5)
    lam = np.array([1e-14, 0.6, 0.4 - 1e-14])
    oracle = mp_secular_block_roots(-0.5, lam)
    assert np.max(np.abs(td.secular_roots(ch, lam) - oracle)) <= ROOT_TOL
    assert np.max(np.abs(secular_roots_batch(ch, lam[None, :])[0] - oracle)) <= ROOT_TOL


def test_secular_poles_closer_than_1e_12_match_mpmath():
    # Two poles up to 1e-12 apart: the roots near them must resolve the
    # gap, not the block with both poles at their mean.
    d, t = 4, -0.3
    ch = td.new_channel(d, t)
    for pole_gap in (2e-13, 5e-13, 0.99e-12):
        dlam = pole_gap / abs(ch.c2)
        lam = np.array([0.3, 0.3 + dlam, 0.25, 0.15 - dlam])
        exact = mp_secular_block_roots(t, lam)
        for got in (td.secular_roots(ch, lam), secular_roots_batch(ch, lam[None, :])[0]):
            assert np.max(np.abs(got - exact)) <= ROOT_TOL


def test_secular_coincident_poles_with_unequal_weights_match_mpmath():
    # At t = 1e-12 the first four poles round to one float, though the
    # fourth weight lies 2e-10 from the others: a cluster of coincident
    # poles with unequal weights, solved with no warning.
    x = 0.056146028590429206
    lam = np.array([x, x, x, x + 2e-10, 0.012815791137555614, 0.7626000943007275])
    ch = td.new_channel(6, 1e-12)
    oracle = mp_secular_block_roots(1e-12, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.max(np.abs(td.secular_roots(ch, lam) - oracle)) <= ROOT_TOL
        assert np.max(np.abs(secular_roots_batch(ch, lam[None, :])[0] - oracle)) <= ROOT_TOL


UNMERGED_CLUSTERS = [
    (7, -1.0 / 6.0, [9.74510905e-14, 8.61077780e-25, 0.708932437, 5.84655862e-08,
                     2.99396693e-16, 8.41706055e-15, 0.291067505]),
    (8, -1.0 / 7.0, [7.91170697e-04, 4.65266116e-16, 7.81416307e-25, 2.38734736e-18,
                     0.999208817, 1.18996153e-08, 1.47034853e-24, 5.79637897e-24]),
]


@pytest.mark.parametrize("d, t, lam", UNMERGED_CLUSTERS)
def test_secular_unmerged_pole_clusters(d, t, lam):
    # Tiny weights leave poles a few floats apart, with the roots above
    # such a cluster 1e-7 to 1e-5 higher.
    lam = np.array(lam)
    lam[np.argmax(lam)] += 1.0 - lam.sum()
    ch = td.new_channel(d, t)
    oracle = mp_secular_block_roots(t, lam)
    assert np.max(np.abs(td.secular_roots(ch, lam) - oracle)) <= ROOT_TOL
    assert np.max(np.abs(secular_roots_batch(ch, lam[None, :])[0] - oracle)) <= ROOT_TOL


def test_secular_batch_validation():
    ch = td.new_channel(3, -0.25)
    with pytest.raises(OutOfRange):
        secular_roots_batch(ch, np.array([0.5, 0.3, 0.2]))
    with pytest.raises(OutOfRange):
        secular_roots_batch(ch, np.array([[0.5, 0.5]]))
    with pytest.raises(OutOfRange):
        secular_roots_batch(ch, np.array([[np.nan, 0.5, 0.5]]))
    with pytest.raises(OutOfRange):
        secular_roots_batch(ch, np.array([[1.1, -0.1, 0.0]]))
    with pytest.raises(SumMismatch):
        secular_roots_batch(ch, np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.3]]))
    assert secular_roots_batch(ch, np.empty((0, 3))).shape == (0, 3)


# --------------------------------------------------------- symmetric tables

unit_vectors = st.integers(1, 10).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
)


def _drop(values, *idx):
    return [x for m, x in enumerate(values) if m not in idx]


@settings(max_examples=200, deadline=None)
@given(unit_vectors)
def test_single_downdate_matches_brute(values):
    m = np.array(values)
    n = m.size
    table = _elem_sym_table(m)
    for q in range(n + 1):
        assert table[q] == pytest.approx(elem_sym_brute(values, q), abs=1e-12 * math.comb(n, q))
    loo = loo_elem_sym(m, table, n - 1)
    assert loo.shape == (n, n)
    for l, r in itertools.product(range(n), range(n)):
        ref = elem_sym_brute(_drop(values, l), r)
        assert loo[r, l] == pytest.approx(ref, abs=1e-12 * math.comb(n - 1, r))


@settings(max_examples=60, deadline=None)
@given(unit_vectors.filter(lambda v: len(v) >= 2))
def test_double_downdate_matches_brute(values):
    m = np.array(values)
    n = m.size
    loo = loo_elem_sym(m, _elem_sym_table(m), n - 1)
    loo2 = loo_elem_sym(m[:, None], loo, n - 2)
    assert loo2.shape == (n - 1, n, n)
    for i, l in itertools.permutations(range(n), 2):
        for r in range(n - 1):
            ref = elem_sym_brute(_drop(values, i, l), r)
            assert loo2[r, l, i] == pytest.approx(ref, abs=1e-12 * math.comb(n - 2, r))


def _hex(a):
    return [x.hex() for x in np.asarray(a, dtype=float).ravel().tolist()]


unit_batches = st.integers(1, 10).flatmap(
    lambda n: st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), min_size=1, max_size=6)
)


@settings(max_examples=150, deadline=None)
@given(unit_batches)
def test_symmetric_tables_give_each_row_its_one_row_bits(rows):
    # The s table and the main margins, for a batch and for each of its
    # rows alone.  Every table is degree-leading with the rows on its
    # last axis.
    m = np.array(rows)
    n = m.shape[1]
    d = n + 2
    t = -0.5 / (d - 1)
    cols = m.T.copy()
    table = _elem_sym_table(cols)
    margins = _margins_main(cols, d, t)
    assert table.shape == (n + 1, len(m)) and margins.shape == (n, len(m))
    for row, values in enumerate(m):
        alone = _elem_sym_table(values[:, None])
        assert _hex(alone) == _hex(table[:, row]) == _hex(_elem_sym_table(values))
        assert _hex(_margins_main(values[:, None], d, t)) == _hex(margins[:, row])


@settings(max_examples=150, deadline=None)
@given(unit_vectors)
def test_counting_facts_behind_the_two_term_formulas(values):
    # sum_l m_l s_{r-1}(m \ l) = r s_r(m) and sum_l s_{r-1}(m \ l) = (n - r + 1) s_{r-1}(m).
    m = np.array(values)
    n = m.size
    table = _elem_sym_table(m)
    loo = loo_elem_sym(m, table, n - 1)  # [r, l] = s_r(m \ l)
    for r in range(1, n + 1):
        tol = 1e-12 * n * math.comb(n, r)
        assert math.fsum(m * loo[r - 1]) == pytest.approx(r * table[r], abs=tol)
        assert math.fsum(loo[r - 1]) == pytest.approx((n - r + 1) * table[r - 1], abs=tol)


# ------------------------------------------------ partial-derivative kernel


@st.composite
def nu_batches(draw, max_rows=5):
    """(channel, (N, d) nu) with d = 3..8, t at either scan endpoint or inside,
    and Schmidt weights of which some are exactly zero."""
    d = draw(st.integers(3, 8))
    lo = -1.0 / (d - 1)
    t = draw(st.one_of(st.sampled_from([lo, -1e-6]), st.floats(lo, -1e-6)))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    row = st.lists(weight, min_size=d, max_size=d).filter(lambda w: sum(w) > 0.0)
    lams = np.array(draw(st.lists(row, min_size=1, max_size=max_rows)))
    ch = td.new_channel(d, t)
    return ch, 1.0 + ch.ratio * (lams / lams.sum(axis=1, keepdims=True))


def _schur_scale(ch, nu, i, j):
    """|c| |nu_i - nu_j| max(1, |coef|) per row: the scale of the Schur defect's rounding."""
    rows = np.arange(len(nu))
    coef = _rhs_coefficient(ch.d, ch.t)
    return abs(ch.t**2 / ch.c2) * np.abs(nu[rows, i] - nu[rows, j]) * max(1.0, abs(coef))


def _random_picks(rnd, d, count):
    k = [rnd.randrange(d) for _ in range(count)]
    i = [rnd.randrange(d) for _ in range(count)]
    j = [(a + 1 + rnd.randrange(d - 1)) % d for a in i]
    return np.array(k), np.array(i), np.array(j)


# The full-tensor oracle sums d - 1 leave-two-out terms per partial, and
# its rounding reaches 2.7e-14 of max(1, |partial|), and 2.4e-14 of the
# Schur scale, at d = 3..8; the two-term kernels round less.
ORACLE_TOL = 1e-13


@settings(max_examples=150, deadline=None)
@given(nu_batches(), st.randoms(use_true_random=False))
def test_partial_kernel_matches_full_tensor_route(batch, rnd):
    ch, nu = batch
    ref = partial_phi_full_tensor(nu, ch)
    got = td.partial_phi_k_batch(nu, ch)
    assert np.all(np.abs(got - ref) <= ORACLE_TOL * np.maximum(1.0, np.abs(ref)))
    k, i, j = _random_picks(rnd, ch.d, len(nu))
    got = td.schur_defect_batch(nu, k, i, j, ch)
    ref = schur_defect_full_tensor(nu, k, i, j, ch)
    assert np.all(np.abs(got - ref) <= ORACLE_TOL * _schur_scale(ch, nu, i, j))


@settings(max_examples=40, deadline=None)
@given(nu_batches(max_rows=1))
def test_partial_kernel_matches_mpmath_derivative(batch):
    ch, nu = batch
    got = td.partial_phi_k_batch(nu, ch)[0]
    for i, k in itertools.product(range(ch.d), range(ch.d)):
        ref = mp_partial_phi(ch.t, nu[0], k, i)
        assert abs(got[i, k] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_schur_defect_batch_allocates_no_full_leave_two_out_table():
    # The full-tensor route holds an (N, d, d, d - 1) leave-two-out table;
    # the Schur route holds one s table of d - 2 coordinates, so its peak
    # stays below one d x d table per row.
    d, count = 12, 500
    ch = td.new_channel(d, -0.5 / (d - 1))
    rng = np.random.default_rng(7)
    nu = 1.0 + ch.ratio * rng.dirichlet(np.ones(d), count)
    i = rng.integers(0, d, count)
    tracemalloc.start()
    try:
        td.schur_defect_batch(nu, rng.integers(0, d, count), i, (i + 1) % d, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count * d * d * nu.itemsize


# ------------------------------------------------ identities and mpmath

# phi_k within 1e-14 of max(1, |phi_k|) at 50 digits.  The Schur defect
# within SCHUR_MP_TOL of |c| |nu_i - nu_j| max(1, |coef|): the margin's
# two terms grow like (k + 1) C(d - 2, k + 1), about 60 at d = 8, and
# their rounding reaches 1.2e-14 of that scale there (4.2e-15 at d <= 6).
PHI_MP_TOL = 1e-14
SCHUR_MP_TOL = 3e-14


@settings(max_examples=40, deadline=None)
@given(nu_batches(max_rows=1), st.randoms(use_true_random=False))
def test_phi_and_schur_defect_match_mpmath(batch, rnd):
    ch, nu = batch
    d = ch.d
    phis = td.phi_k_batch(nu, ch)[0]
    for k in range(d):
        ref = mp_phi(ch.t, nu[0], k)
        assert abs(phis[k] - ref) <= PHI_MP_TOL * max(1.0, abs(ref))
    _, i, j = _random_picks(rnd, d, 1)
    got = td.schur_defect_batch(np.repeat(nu, d, axis=0), np.arange(d), i[0], j[0], ch)
    scale = _schur_scale(ch, nu, i, j)[0]
    for k in range(d):
        ref = mp_schur_defect(ch.t, nu[0], k, int(i[0]), int(j[0]))
        assert abs(got[k] - ref) <= SCHUR_MP_TOL * scale


SCHUR_POINTS = [
    (3, -0.5, [0.5, 0.3, 0.2]),
    (3, -0.5, [1.0, 0.0, 0.0]),
    (4, -1.0 / 3.0, [0.6, 0.4, 0.0, 0.0]),
    (5, -0.25, [0.1, 0.2, 0.0, 0.3, 0.4]),
    (5, -0.1, [0.35, 0.05, 0.25, 0.0, 0.35]),
    (7, -1.0 / 6.0, [0.3, 0.0, 0.1, 0.2, 0.0, 0.15, 0.25]),
    (8, -0.05, [0.2, 0.1, 0.0, 0.05, 0.25, 0.1, 0.3, 0.0]),
]


@pytest.mark.parametrize("d, t, lam", SCHUR_POINTS)
def test_schur_defect_is_the_main_margin_of_the_other_coordinates(d, t, lam):
    # schur_defect(nu, k, i, j) = c (nu_i - nu_j)^2 margin_k(nu \ {i, j}) with
    # n = d - 2, at 50 digits: the defect from the term-by-term partials,
    # the margin in the paper's leave-one-out form.  At k = d - 1 it is 0,
    # and at k = d - 2 it is -(1 + 2c)(nu_i - nu_j)^2.
    ch = td.new_channel(d, t)
    nu = 1.0 + ch.ratio * np.array(lam)
    with mpmath.workdps(50):
        tt = mpmath.mpf(t)
        c = tt**2 / (2 * tt * (1 - tt) / d)
        for i, j in itertools.permutations(range(d), 2):
            gap2 = (mpmath.mpf(nu[i]) - mpmath.mpf(nu[j])) ** 2
            rest = [x for m, x in enumerate(nu) if m not in (i, j)]
            for k in range(d):
                defect = mp_schur_defect(t, nu, k, i, j)
                assert abs(defect - c * gap2 * mp_main_margin(t, d, rest, k)) <= 1e-40 * max(1, gap2)
                got = td.schur_defect(nu, k, i, j, ch)
                assert abs(got - defect) <= SCHUR_MP_TOL * float(_schur_scale(ch, nu[None], i, j)[0])
            assert abs(mp_schur_defect(t, nu, d - 1, i, j)) <= 1e-40
            assert abs(mp_schur_defect(t, nu, d - 2, i, j) + (1 + 2 * c) * gap2) <= 1e-40


@settings(max_examples=100, deadline=None)
@given(nu_batches(), st.randoms(use_true_random=False))
def test_schur_defect_at_the_two_top_k(batch, rnd):
    # The padding s_{-1} = s_{-2} = 0: exactly 0 at k = d - 1, and
    # -(1 + 2c)(nu_i - nu_j)^2 at k = d - 2, up to the rounding of c coef.
    ch, nu = batch
    d = ch.d
    _, i, j = _random_picks(rnd, d, len(nu))
    assert np.all(td.schur_defect_batch(nu, d - 1, i, j, ch) == 0.0)
    gap = nu[np.arange(len(nu)), i] - nu[np.arange(len(nu)), j]
    c = ch.t**2 / ch.c2
    got = td.schur_defect_batch(nu, d - 2, i, j, ch)
    assert np.all(np.abs(got + (1.0 + 2.0 * c) * gap**2) <= 1e-14 * _schur_scale(ch, nu, i, j))


# ------------------------------------------------------------- scan margins


@st.composite
def scan_cells(draw):
    d = draw(st.integers(3, 6))
    t = draw(st.one_of(st.just(-1.0 / (d - 1)), st.floats(-1.0 / (d - 1), -1e-6)))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, t, seed


@settings(max_examples=40, deadline=None)
@given(scan_cells())
def test_sympol_margins_match_scalar_route(cell):
    d, t, seed = cell
    ch = td.new_channel(d, t)
    lams = _lambda_rows(philox_stream(seed, 0).random((25, d)))
    got = _sympol_margins(ch, lams)
    for lam, margin in zip(lams, got):
        sv = td.SchmidtVector(lam)
        gamma = td.scaled_secular_roots(ch, sv)
        nu = td.lambda_to_nu(ch, sv)
        worst = 0.0
        for k in range(d):
            lhs = td.elem_sym(gamma, d - k)
            rhs = td.phi_k(nu, k, ch)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        assert abs(margin + worst) <= MARGIN_TOL


@settings(max_examples=40, deadline=None)
@given(scan_cells())
def test_schur_margins_match_scalar_route(cell):
    d, t, seed = cell
    ch = td.new_channel(d, t)
    gen = philox_stream(seed, 0)
    lams = _lambda_rows(gen.random((25, d)))
    picks = gen.random((25, 3))
    got = _schur_margins(ch, lams, picks)
    for lam, pick, margin in zip(lams, picks, got):
        nu = td.lambda_to_nu(ch, td.SchmidtVector(lam))
        k = min(int(pick[0] * d), d - 1)
        a = min(int(pick[1] * d), d - 1)
        b = min(int(pick[2] * (d - 1)), d - 2)
        if b >= a:
            b += 1
        assert abs(margin + td.schur_defect(nu, k, a, b, ch)) <= MARGIN_TOL


@settings(max_examples=100, deadline=None)
@given(nu_batches(), st.randoms(use_true_random=False))
def test_two_term_formulas_match_python_floats_bit_for_bit(batch, rnd):
    # Each formula evaluated on Python floats, in the kernel's order, from
    # the s table of the coordinates it reads; and each row alone gets the
    # bits it gets in the batch.
    ch, nu = batch
    d, n = ch.d, ch.d - 2
    c = ch.t**2 / ch.c2
    coef = _rhs_coefficient(d, ch.t)
    k, i, j = _random_picks(rnd, d, len(nu))
    phis = td.phi_k_batch(nu, ch)
    partials = td.partial_phi_k_batch(nu, ch)
    defects = td.schur_defect_batch(nu, k, i, j, ch)
    margins = _margins_main(nu.T[:n].copy(), d, ch.t)
    for row, vec in enumerate(nu):
        s = _elem_sym_table(vec).tolist()
        for kk in range(d):
            m = d - kk
            assert phis[row, kk].hex() == ((1.0 + c * m) * s[m] - c * (kk + 1) * s[m - 1]).hex()
            for ii in range(d):
                rest = [0.0] + _elem_sym_table(np.delete(vec, ii)).tolist()  # rest[r + 1] = s_r(nu \ i)
                want = (1.0 + c * m) * rest[m] - c * (kk + 1) * rest[m - 1]
                assert partials[row, ii, kk].hex() == want.hex()
        w = _elem_sym_table(vec[:n]).tolist()
        for kk in range(n):
            want = (kk + 1) * w[n - kk - 1] - (n - kk + coef) * w[n - kk]
            assert margins[kk, row].hex() == want.hex()
            first = (kk + 1) * w[n - kk - 1] - (n - kk) * w[n - kk]
            assert td.first_term_value(vec[:n], kk).hex() == first.hex()
        a, b, kk = int(i[row]), int(j[row]), int(k[row])
        rest = [0.0, 0.0] + _elem_sym_table(np.delete(vec, [a, b])).tolist()  # rest[r + 2] = s_r
        gap = float(vec[a]) - float(vec[b])
        want = c * (gap * gap) * ((kk + 1) * rest[n - kk + 1] - (n - kk + coef) * rest[n - kk + 2])
        assert defects[row].hex() == want.hex()
        alone = nu[row : row + 1]
        assert _hex(td.phi_k_batch(alone, ch)) == _hex(phis[row])
        assert _hex(td.partial_phi_k_batch(alone, ch)) == _hex(partials[row])
        assert td.schur_defect_batch(alone, kk, a, b, ch)[0].hex() == defects[row].hex()


def test_phi_batches_match_wrappers():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 7):
        ch = td.new_channel(d, -0.5 / (d - 1))
        nu = 1.0 + ch.ratio * rng.dirichlet(np.ones(d), size=6)
        phis = td.phi_k_batch(nu, ch)
        partials = td.partial_phi_k_batch(nu, ch)
        assert phis.shape == (6, d) and partials.shape == (6, d, d)
        for row in range(6):
            vec = nu[row]
            for k in range(d):
                assert phis[row, k] == td.phi_k(vec, k, ch)
                for i in range(d):
                    assert partials[row, i, k] == td.partial_phi_k(vec, k, i, ch)
