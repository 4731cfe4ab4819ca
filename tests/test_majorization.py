import warnings

import numpy as np
import pytest

import tdchan as td
from tdchan.errors import (
    BadK,
    BadLength,
    LengthMismatch,
    OutOfRange,
    SumMismatch,
    ZeroT,
)

from oracles import central_difference, elem_sym_brute


def negative_t_channel(rng, d):
    t = float(rng.uniform(-1.0 / (d - 1), -1e-3))
    return td.new_channel(d, t)


# ------------------------------------------------------------------- nu change


def test_lambda_to_nu_frozen():
    ch = td.new_channel(3, -0.5)  # ratio -2
    nu = td.lambda_to_nu(ch, td.SchmidtVector(np.array([0.5, 0.3, 0.2])))
    assert ch.ratio == pytest.approx(-2.0)
    assert nu == pytest.approx([0.0, 0.4, 0.6])
    assert nu.size == 3


def test_lambda_to_nu_box_and_sum():
    rng = np.random.default_rng(301)
    for d in (2, 3, 5):
        for _ in range(10):
            ch = negative_t_channel(rng, d)
            lam = rng.dirichlet(np.ones(d))
            nu = td.lambda_to_nu(ch, lam)
            assert np.all(nu <= 1.0 + 1e-12)
            assert np.all(nu >= 1.0 + ch.ratio - 1e-12)
            assert np.sum(nu) == pytest.approx(d + ch.ratio, abs=1e-10)


def test_lambda_to_nu_t_zero_and_guards():
    nu = td.lambda_to_nu(td.new_channel(4, 0.0), td.SchmidtVector.uniform(4))
    assert nu == pytest.approx(np.ones(4))
    with pytest.raises(OutOfRange):
        td.lambda_to_nu(td.new_channel(3, 0.1), td.SchmidtVector.uniform(3))
    with pytest.raises(BadLength):
        td.lambda_to_nu(td.new_channel(3, -0.1), td.SchmidtVector.uniform(4))


def test_scaled_secular_roots_sum():
    # sum gamma_i = (1 - c) / c1 with c the off-diagonal mass
    rng = np.random.default_rng(307)
    for d in (2, 3, 4):
        ch = negative_t_channel(rng, d)
        lam = rng.dirichlet(np.ones(d))
        roots = td.scaled_secular_roots(ch, lam)
        assert roots.size == d
        c = (d - 1) * (1.0 - ch.t**2) / d
        assert np.sum(roots) == pytest.approx((1.0 - c) / ch.c1, rel=1e-10)


# ---------------------------------------------------------------- majorization


def test_majorizes_chain():
    assert td.majorizes([1.0, 0.0, 0.0], [0.5, 0.5, 0.0])
    assert td.majorizes([0.5, 0.5, 0.0], [1.0 / 3.0] * 3)
    assert not td.majorizes([0.5, 0.5, 0.0], [1.0, 0.0, 0.0])
    assert td.majorizes([0.2, 0.5, 0.3], [0.2, 0.5, 0.3])  # reflexive, unsorted ok


def test_majorizes_guards():
    with pytest.raises(LengthMismatch):
        td.majorizes([0.5, 0.5], [1.0, 0.0, 0.0])
    with pytest.raises(SumMismatch):
        td.majorizes([0.6, 0.6], [0.5, 0.5])


def test_t_transform_frozen():
    out = td.t_transform(td.SchmidtVector(np.array([0.7, 0.1, 0.2])), 0, 1, 0.25)
    assert out.values == pytest.approx([0.55, 0.25, 0.2])


def test_t_transform_majorization_property():
    rng = np.random.default_rng(311)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        lam = rng.dirichlet(np.ones(d))
        i, j = rng.choice(d, size=2, replace=False)
        if lam[i] < lam[j]:
            i, j = j, i
        eps = float(rng.uniform(0.0, 0.5))
        out = td.t_transform(td.SchmidtVector(lam), int(i), int(j), eps)
        assert td.majorizes(lam, out.values)
        assert np.sum(out.values) == pytest.approx(1.0, abs=1e-12)


def test_t_transform_guards():
    lam = td.SchmidtVector(np.array([0.6, 0.4]))
    with pytest.raises(IndexError):
        td.t_transform(lam, 0, 0, 0.1)
    with pytest.raises(IndexError):
        td.t_transform(lam, 0, 5, 0.1)
    with pytest.raises(OutOfRange):
        td.t_transform(lam, 0, 1, 0.6)
    with pytest.raises(OutOfRange):
        td.t_transform(lam, 1, 0, 0.1)  # lam_1 < lam_0


# ---------------------------------------------------- symmetric polynomials


def test_elem_sym_frozen():
    assert td.elem_sym([1.0, 2.0, 3.0], 0) == 1.0
    assert td.elem_sym([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)
    assert td.elem_sym([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)
    assert td.elem_sym([1.0, 2.0, 3.0], 3) == pytest.approx(6.0)
    assert td.elem_sym([-1.0, 1.0, 1.0], 3) == pytest.approx(-1.0)
    assert td.elem_sym([1.0, 2.0], 3) == 0.0
    assert td.elem_sym([1.0, 2.0], -1) == 0.0


def test_elem_sym_matches_brute():
    rng = np.random.default_rng(313)
    for n in (1, 2, 4, 7):
        v = rng.uniform(-1.0, 1.0, size=n)
        for q in range(n + 1):
            assert td.elem_sym(v, q) == pytest.approx(elem_sym_brute(v, q), abs=1e-12)


def test_phi_k_frozen():
    # d=3, t=-1/2, lam=(1,0,0): nu=(-1,1,1); phi_1 = s_2(nu) + coef terms
    ch = td.new_channel(3, -0.5)
    nu = td.lambda_to_nu(ch, td.SchmidtVector.vertex(3, 0))
    assert nu == pytest.approx([-1.0, 1.0, 1.0])
    # secular roots there are {1, 1, 0}, so s_3 = 0, s_2 = 1, s_1 = 2
    assert td.phi_k(nu, 0, ch) == pytest.approx(0.0, abs=1e-12)
    assert td.phi_k(nu, 1, ch) == pytest.approx(1.0, abs=1e-12)
    assert td.phi_k(nu, 2, ch) == pytest.approx(2.0, abs=1e-12)
    # all-ones nu (t -> 0 limit is excluded, use lam = uniform): nu_a = 1 + ratio/d
    gamma = td.scaled_secular_roots(ch, td.SchmidtVector.uniform(3))
    for k in range(3):
        assert td.elem_sym(gamma, 3 - k) == pytest.approx(
            td.phi_k(td.lambda_to_nu(ch, td.SchmidtVector.uniform(3)), k, ch), rel=1e-10
        )


def test_phi_k_guards():
    ch = td.new_channel(3, -0.5)
    nu = td.lambda_to_nu(ch, td.SchmidtVector.uniform(3))
    with pytest.raises(BadK):
        td.phi_k(nu, 3, ch)
    with pytest.raises(BadK):
        td.phi_k(nu, -1, ch)
    with pytest.raises(BadLength):
        td.phi_k(np.ones(4), 1, ch)
    with pytest.raises(ZeroT):
        td.phi_k(np.ones(3), 1, td.new_channel(3, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scalar_phi_routes_reject_non_finite_nu(bad):
    ch = td.new_channel(3, -0.5)
    nu = np.array([-1.0, bad, 1.0])
    with pytest.raises(OutOfRange):
        td.phi_k(nu, 1, ch)
    with pytest.raises(OutOfRange):
        td.partial_phi_k(nu, 1, 0, ch)
    with pytest.raises(OutOfRange):
        td.schur_defect(nu, 1, 0, 2, ch)


# The batch routes raise what the scalar routes raise, for any bad row.
BATCH_NU = np.array([[-1.0, 1.0, 1.0], [0.0, 0.4, 0.6]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_phi_routes_reject_non_finite_nu(bad):
    ch = td.new_channel(3, -0.5)
    nu = BATCH_NU.copy()
    nu[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            td.phi_k_batch(nu, ch)
        with pytest.raises(OutOfRange):
            td.partial_phi_k_batch(nu, ch)
        with pytest.raises(OutOfRange):
            td.schur_defect_batch(nu, [1, 1], [0, 0], [2, 2], ch)


def test_schur_defect_batch_rejects_indices_outside_range():
    # A negative index would wrap to a valid coordinate.
    ch = td.new_channel(3, -0.5)
    with pytest.raises(IndexError):
        td.schur_defect_batch(BATCH_NU[:1], [1], [-1], [0], ch)
    with pytest.raises(IndexError):
        td.schur_defect_batch(BATCH_NU, [1, 1], [0, 0], [2, -1], ch)
    with pytest.raises(IndexError):
        td.schur_defect_batch(BATCH_NU, [1, 1], [0, 3], [2, 2], ch)


def test_schur_defect_batch_rejects_equal_indices():
    ch = td.new_channel(3, -0.5)
    with pytest.raises(IndexError):
        td.schur_defect_batch(BATCH_NU, [1, 1], [0, 1], [2, 1], ch)


def test_schur_defect_batch_rejects_k_outside_range():
    ch = td.new_channel(3, -0.5)
    for k in (3, -1):
        with pytest.raises(BadK):
            td.schur_defect_batch(BATCH_NU, [1, k], [0, 0], [2, 2], ch)


def test_schur_defect_batch_rejects_non_integer_and_misshapen_indices():
    ch = td.new_channel(3, -0.5)
    with pytest.raises(IndexError):
        td.schur_defect_batch(BATCH_NU, [1, 1], [0.0, 0.0], [2, 2], ch)
    with pytest.raises(BadLength):
        td.schur_defect_batch(BATCH_NU, [1, 1, 1], [0, 0], [2, 2], ch)


def test_schur_defect_batch_takes_scalar_indices_for_every_row():
    ch = td.new_channel(3, -0.5)
    got = td.schur_defect_batch(BATCH_NU, 1, 0, 2, ch)
    assert got.tolist() == [td.schur_defect(row, 1, 0, 2, ch) for row in BATCH_NU]


def test_scalar_phi_routes_take_plain_sequences():
    ch = td.new_channel(3, -0.5)
    nu = [-1.0, 1.0, 1.0]
    assert td.phi_k(nu, 1, ch) == td.phi_k(np.array(nu), 1, ch) == td.phi_k_batch([nu], ch)[0, 1]
    assert td.partial_phi_k(nu, 1, 0, ch) == td.partial_phi_k_batch([nu], ch)[0, 0, 1]


def test_sympol_identity_random():
    rng = np.random.default_rng(317)
    for d in (3, 4, 5):
        for _ in range(20):
            ch = negative_t_channel(rng, d)
            lam = td.SchmidtVector(rng.dirichlet(np.ones(d)))
            for k in range(d):
                assert td.sympol_defect(ch, lam, k) < 1e-9 * max(
                    1.0, abs(td.phi_k(td.lambda_to_nu(ch, lam), k, ch))
                )


def test_partial_phi_k_frozen_all_ones():
    # at nu = (1,...,1) only the first term survives: (1 + t^2/c2) C(d-1, d-1-k)
    ch = td.new_channel(3, -0.5)
    nu = np.ones(3)
    coef = 1.0 + ch.t**2 / ch.c2
    from math import comb

    for k in range(3):
        assert td.partial_phi_k(nu, k, 0, ch) == pytest.approx(coef * comb(2, 2 - k), abs=1e-12)


def test_partial_phi_k_matches_central_difference():
    rng = np.random.default_rng(331)
    for d in (3, 4, 5):
        for _ in range(10):
            ch = negative_t_channel(rng, d)
            nu = td.lambda_to_nu(ch, td.SchmidtVector(rng.dirichlet(np.ones(d))))
            k = int(rng.integers(0, d))
            i = int(rng.integers(0, d))

            def fun(v):
                return td.phi_k(v, k, ch)

            num = central_difference(fun, nu.copy(), i)
            assert td.partial_phi_k(nu, k, i, ch) == pytest.approx(num, abs=1e-6)


def test_partial_phi_k_guards():
    ch = td.new_channel(3, -0.5)
    nu = td.lambda_to_nu(ch, td.SchmidtVector.uniform(3))
    with pytest.raises(IndexError):
        td.partial_phi_k(nu, 1, 3, ch)


def test_schur_defect_frozen_and_random():
    ch = td.new_channel(3, -0.5)
    nu = np.array([-1.0, 1.0, 1.0])
    assert td.schur_defect(nu, 1, 1, 2, ch) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(IndexError):
        td.schur_defect(nu, 1, 1, 1, ch)

    rng = np.random.default_rng(337)
    for d in (3, 4, 5):
        for _ in range(40):
            c = negative_t_channel(rng, d)
            v = td.lambda_to_nu(c, td.SchmidtVector(rng.dirichlet(np.ones(d))))
            k = int(rng.integers(0, d))
            i, j = rng.choice(d, size=2, replace=False)
            assert td.schur_defect(v, k, int(i), int(j), c) <= 1e-9


def test_secular_entropy_schur_concave_on_transform_pairs():
    # lam majorizes its T-transform image; S2 may only go up along the order
    rng = np.random.default_rng(347)
    for _ in range(60):
        d = int(rng.integers(3, 6))
        ch = negative_t_channel(rng, d)
        lam = rng.dirichlet(np.ones(d))
        i, j = rng.choice(d, size=2, replace=False)
        if lam[i] < lam[j]:
            i, j = j, i
        softer = td.t_transform(td.SchmidtVector(lam), int(i), int(j), float(rng.uniform(0, 0.5)))
        s2_hi = td.entropy_split(ch, td.SchmidtVector(lam)).s2
        s2_lo = td.entropy_split(ch, softer).s2
        assert s2_hi <= s2_lo + 1e-9
