import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tdchan as td
from tdchan.errors import OutOfRange, SumMismatch
from tdchan.spectrum import SCHMIDT_SUM_TOL, _as_schmidt, _check_schmidt_rows

from oracles import (
    dense_two_copy_spectrum,
    kraus_two_copy_output,
    mp_secular_block_roots,
    schmidt_state,
    sigma12_loops,
)

ROOT_TOL = 1e-13


def random_inputs(rng, d, negative_only=False):
    lo, hi = td.t_range(d)
    if negative_only:
        hi = -1e-6
    t = float(rng.uniform(lo, hi))
    lam = rng.dirichlet(np.ones(d))
    return t, lam


# ---------------------------------------------------------------- SchmidtVector


def test_schmidt_vector_builders():
    u = td.SchmidtVector.uniform(4)
    assert u.values == pytest.approx(np.full(4, 0.25))
    v = td.SchmidtVector.vertex(3, 1)
    assert v.values == pytest.approx([0.0, 1.0, 0.0])
    assert v.d == 3


def test_schmidt_vector_validation():
    with pytest.raises(OutOfRange):
        td.SchmidtVector(np.array([1.1, -0.1]))
    with pytest.raises(SumMismatch):
        td.SchmidtVector(np.array([0.5, 0.4]))
    with pytest.raises(OutOfRange):
        td.SchmidtVector(np.array([1.0]))


def test_schmidt_vector_rejects_non_finite():
    for bad in ([np.nan, np.nan], [np.inf, 0.0], [0.5, 0.5, np.nan], [-np.inf, np.inf]):
        with pytest.raises(OutOfRange):
            td.SchmidtVector(np.array(bad))


@st.composite
def schmidt_lists(draw):
    """(d, t, list): a Schmidt vector of d, d - 1 or d + 1 floats, often spoiled.

    Spoilers: a NaN or infinite entry, a negative entry, one entry moved
    by about SCHMIDT_SUM_TOL, and a few ulps on one entry.
    """
    d = draw(st.integers(2, 5))
    lo, hi = td.t_range(d)
    t = draw(st.sampled_from([lo, 0.5 * lo, 0.0, hi]))
    n = draw(st.sampled_from([d, d, d, d - 1, d + 1]))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = math.fsum(raw)
    v = [x / total for x in raw] if total > 0.0 else [1.0] + [0.0] * (n - 1)
    i = draw(st.integers(0, n - 1))
    spoil = draw(st.sampled_from(["none", "off", "off", "non-finite", "negative"]))
    if spoil == "off":
        v[i] += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.9, 1.1)) * SCHMIDT_SUM_TOL
    elif spoil == "non-finite":
        v[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif spoil == "negative":
        v[i] = -draw(st.floats(5e-324, 1.0))
    for _ in range(draw(st.integers(0, 3))):
        v[i] = math.nextafter(v[i], draw(st.sampled_from([-math.inf, math.inf])))
    return d, t, v


def _raises(fn):
    """The class of the exception fn raises, or None."""
    try:
        fn()
    except Exception as exc:
        return type(exc)
    return None


# Sums of 1 + SCHMIDT_SUM_TOL - a few ulps, which the check accepts, and
# 1 + SCHMIDT_SUM_TOL + 1 ulp, which it rejects.
@example(schmidt=(3, -0.25, [0.25, 0.25, float.fromhex("0x1.000000000232ep-1")]))
@example(schmidt=(3, -0.25, [0.25, 0.25, float.fromhex("0x1.000000000232fp-1")]))
@settings(max_examples=200, deadline=None)
@given(schmidt=schmidt_lists())
def test_entropy_of_a_list_is_the_entropy_of_its_schmidt_vector(schmidt):
    # simplex_output_entropy and entropy_split take a plain list, check it
    # as a SchmidtVector checks it, and give it the SchmidtVector's bits.
    d, t, v = schmidt
    ch = td.new_channel(d, t)
    got = _raises(lambda: td.simplex_output_entropy(ch, v))
    assert got is _raises(lambda: _as_schmidt(ch, np.array(v)))
    assert got is _raises(lambda: td.entropy_split(ch, v))
    if len(v) == d:
        assert got is _raises(lambda: _check_schmidt_rows(np.array([v])))
    if got is None:
        # Bit for bit: float.hex tells every bit apart.
        value = td.simplex_output_entropy(ch, v).hex()
        assert value == td.simplex_output_entropy(ch, td.SchmidtVector(v)).hex()
        assert value == td.entropy_split(ch, v).s_total.hex()
        assert value == td.entropy_split(ch, td.SchmidtVector(v)).s_total.hex()


# ---------------------------------------------------------------------- sigma12


def test_sigma12_is_valid_state_and_matches_kraus():
    rng = np.random.default_rng(101)
    for d in (2, 3, 4):
        for _ in range(10):
            t, lam = random_inputs(rng, d)
            ch = td.new_channel(d, t)
            sig = td.sigma12(ch, td.SchmidtVector(lam))
            assert sig.dim == d * d
            ref = kraus_two_copy_output(ch, schmidt_state(lam))
            assert np.max(np.abs(sig.mat - ref)) < 1e-10


def test_sigma12_matches_the_double_loop_fill_byte_for_byte():
    rng = np.random.default_rng(103)
    for d in range(2, 7):
        lo, hi = td.t_range(d)
        rows = [rng.dirichlet(np.ones(d)), np.eye(d)[d - 1], np.full(d, 1.0 / d)]
        zero = rng.dirichlet(np.ones(d))
        zero[::2] = 0.0
        rows.append(zero / zero.sum())
        for lam in rows:
            for t in (lo, hi, 0.5 * lo, float(rng.uniform(lo, hi))):
                ch = td.new_channel(d, t)
                got = td.sigma12(ch, td.SchmidtVector(lam)).mat
                want = np.asarray(sigma12_loops(ch, lam), dtype=complex)
                assert got.tobytes() == want.tobytes(), (d, t, lam)


def test_sigma12_product_structure_at_vertex():
    # a vertex Schmidt vector is a product input, so the output factorizes
    ch = td.new_channel(3, -0.4)
    sig = td.sigma12(ch, td.SchmidtVector.vertex(3, 2))
    one = td.apply(ch, td.pure_state(np.eye(3)[2]))
    assert np.max(np.abs(sig.mat - np.kron(one.mat, one.mat))) < 1e-12


# ----------------------------------------------------------------- off-diagonal


def test_offdiag_frozen_example():
    ch = td.new_channel(3, -0.5)
    lam = np.array([1.0, 0.0, 0.0])
    vals = td.offdiag_eigenvalues(ch, lam)
    assert len(vals) == 6
    got = sorted(g for _, _, g in vals)
    # c1 = 1/4, c2 = -1/2: pairs touching index 0 give 0, the (1,2) pair 1/4
    assert got == pytest.approx([0.0, 0.0, 0.0, 0.0, 0.25, 0.25], abs=1e-15)


def test_offdiag_at_t_zero():
    ch = td.new_channel(3, 0.0)
    vals = td.offdiag_eigenvalues(ch, np.array([0.2, 0.3, 0.5]))
    for _, _, g in vals:
        assert g == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_offdiag_pair_order_and_formula():
    rng = np.random.default_rng(103)
    for d in (2, 3, 5):
        t, lam = random_inputs(rng, d)
        ch = td.new_channel(d, t)
        vals = td.offdiag_eigenvalues(ch, lam)
        pairs = [(a, b) for a, b, _ in vals]
        assert pairs == [(a, b) for a in range(d) for b in range(d) if a != b]
        for a, b, g in vals:
            assert g == pytest.approx(ch.c1 + 0.5 * ch.c2 * (lam[a] + lam[b]), abs=1e-15)


# ---------------------------------------------------------------- secular roots


def test_secular_frozen_examples():
    roots = td.secular_roots(td.new_channel(3, -0.5), np.array([1.0, 0.0, 0.0]))
    assert np.sort(roots)[::-1] == pytest.approx([0.25, 0.25, 0.0], abs=1e-12)

    roots = td.secular_roots(td.new_channel(3, -0.5), np.full(3, 1.0 / 3.0))
    assert np.sort(roots)[::-1] == pytest.approx([1.0 / 3.0, 1.0 / 12.0, 1.0 / 12.0], abs=1e-12)

    roots = td.secular_roots(td.new_channel(2, -1.0), np.array([0.5, 0.5]))
    assert np.sort(roots)[::-1] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_secular_roots_at_t_zero_are_uniform():
    roots = td.secular_roots(td.new_channel(4, 0.0), np.array([0.4, 0.3, 0.2, 0.1]))
    assert roots == pytest.approx(np.full(4, 1.0 / 16.0), abs=1e-16)


def test_secular_random_inputs_match_mpmath():
    rng = np.random.default_rng(107)
    for d in (2, 3, 4, 5, 6):
        for _ in range(25):
            t, lam = random_inputs(rng, d)
            ch = td.new_channel(d, t)
            got = np.sort(td.secular_roots(ch, lam))[::-1]
            ref = mp_secular_block_roots(t, lam)
            assert np.max(np.abs(got - ref)) <= ROOT_TOL


def test_secular_degenerate_and_sparse_lambda():
    # repeated entries give repeated poles, zeros give roots at c1
    cases = [
        (3, -0.5, [0.5, 0.5, 0.0]),
        (4, -0.3, [0.25, 0.25, 0.25, 0.25]),
        (4, -1.0 / 3.0, [0.5, 0.5, 0.0, 0.0]),
        (5, -0.2, [1.0, 0.0, 0.0, 0.0, 0.0]),
        (5, -0.25, [0.4, 0.4, 0.1, 0.1, 0.0]),
        (6, -0.1, [0.3, 0.3, 0.3, 0.1, 0.0, 0.0]),
    ]
    for d, t, lam in cases:
        ch = td.new_channel(d, t)
        lam = np.asarray(lam, dtype=float)
        got = np.sort(td.secular_roots(ch, lam))[::-1]
        ref = mp_secular_block_roots(t, lam)
        assert np.max(np.abs(got - ref)) <= ROOT_TOL, (d, t, lam)


def test_secular_positive_t():
    rng = np.random.default_rng(109)
    for d in (2, 3, 4):
        _, lam = random_inputs(rng, d)
        t = float(rng.uniform(1e-3, td.t_range(d)[1]))
        ch = td.new_channel(d, t)
        got = np.sort(td.secular_roots(ch, lam))[::-1]
        assert np.max(np.abs(got - mp_secular_block_roots(t, lam))) <= ROOT_TOL


# ---------------------------------------------------------------- full spectrum


def test_full_spectrum_fields_and_sum_rules():
    rng = np.random.default_rng(113)
    for d in (2, 3, 4, 5):
        for _ in range(15):
            t, lam = random_inputs(rng, d)
            ch = td.new_channel(d, t)
            spec = td.full_spectrum(ch, td.SchmidtVector(lam))
            assert spec.d == d and spec.t == t
            assert len(spec.offdiag) == d * (d - 1)
            assert spec.secular.size == d
            c = (d - 1) * (1.0 - t * t) / d
            assert spec.offdiag_sum == pytest.approx(c, abs=1e-12)
            assert np.sum(spec.offdiag) == pytest.approx(c, abs=1e-10)
            assert np.sum(spec.secular) == pytest.approx(1.0 - c, abs=1e-10)
            allv = spec.all_eigenvalues()
            assert allv.size == d * d
            assert np.all(np.diff(allv) <= 1e-15)
            assert np.sum(allv) == pytest.approx(1.0, abs=1e-10)
            assert np.min(allv) > -1e-10


def test_full_spectrum_matches_dense_oracle():
    rng = np.random.default_rng(127)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(10):
            t, lam = random_inputs(rng, d)
            ch = td.new_channel(d, t)
            got = td.full_spectrum(ch, td.SchmidtVector(lam)).all_eigenvalues()
            ref = dense_two_copy_spectrum(ch, lam)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-9


def test_full_spectrum_maximally_entangled_extreme():
    # d=2, t=-1: the output of the doubled channel is again a pure state
    spec = td.full_spectrum(td.new_channel(2, -1.0), td.SchmidtVector.uniform(2))
    assert spec.all_eigenvalues() == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)
    assert spec.offdiag_sum == pytest.approx(0.0, abs=1e-15)


def test_spectrum_entropy_consistency():
    # spectral entropy equals the matrix entropy of sigma12
    rng = np.random.default_rng(131)
    for d in (2, 3, 4):
        t, lam = random_inputs(rng, d)
        ch = td.new_channel(d, t)
        sv = td.SchmidtVector(lam)
        s_spec = td.entropy_of(td.full_spectrum(ch, sv).all_eigenvalues())
        s_mat = td.von_neumann_entropy(td.sigma12(ch, sv))
        assert s_spec == pytest.approx(s_mat, abs=1e-9)
        assert s_spec <= 2.0 * math.log(d) + 1e-12
