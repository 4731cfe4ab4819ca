import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tdchan as td
from tdchan import entropy
from tdchan.entropy import (
    _DENSE_CHECK_STATES,
    _TAG_HAAR,
    _TAG_SIMPLEX,
    _TAG_UNIT,
    ENTROPY_CLAMP,
    EIGENVALUE_FLOOR,
    _random_state_entropies,
)
from tdchan.errors import ConfigError, CovarianceMismatch, NotPSD, OutOfRange
from tdchan.sampling import haar_states, philox_stream
from tdchan.spectrum import _check_schmidt_rows
from tdchan.verification import SCAN_KINDS, _cell_key

from oracles import (
    covariance_trace_distances_kron,
    dense_two_copy_spectrum,
    entropy_brute,
    entropy_loop,
    fannes_audenaert,
    kraus_two_copy_output,
    mp_entropy,
    mp_secular_block_roots,
    mp_two_copy_entropy,
    schmidt_state,
    simplex_lattice_full,
    simplex_projection_bisect,
    simplex_projection_sort,
)

LN2 = math.log(2.0)


def test_entropy_of_basics():
    assert td.entropy_of(np.array([1.0, 0.0])) == 0.0
    assert td.entropy_of(np.array([0.5, 0.5])) == pytest.approx(LN2, abs=1e-15)
    # tiny negatives from eigensolvers are tolerated and contribute nothing
    assert td.entropy_of(np.array([1.0, -1e-12])) == 0.0
    assert td.entropy_of(np.array([1.0, 1e-16])) == 0.0
    with pytest.raises(NotPSD):
        td.entropy_of(np.array([1.0, -1e-9]))


def test_entropy_of_matches_brute():
    rng = np.random.default_rng(211)
    for n in (2, 5, 9):
        for _ in range(20):
            p = rng.dirichlet(np.ones(n))
            assert td.entropy_of(p) == pytest.approx(entropy_brute(p), abs=1e-12)


# Entries at the clamp, at 1 and at the floor, a step either side of
# each, and zeros of either sign; then floats of any size in [0, 1] and
# in a range that reaches past 1 and below the floor.
EDGE_ENTRIES = [
    0.0,
    -0.0,
    ENTROPY_CLAMP,
    math.nextafter(ENTROPY_CLAMP, 0.0),
    math.nextafter(ENTROPY_CLAMP, 1.0),
    2.0 * ENTROPY_CLAMP,
    1.0,
    1.0 + 2.0**-52,
    1.0 - 2.0**-53,
    EIGENVALUE_FLOOR,
    math.nextafter(EIGENVALUE_FLOOR, -math.inf),
    -1e-12,
]
ENTRIES = st.one_of(st.sampled_from(EDGE_ENTRIES), st.floats(0.0, 1.0), st.floats(-2e-10, 1.5))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_entropy_rows_is_the_sequential_loop_bit_for_bit(data):
    width = data.draw(st.integers(0, 9))
    rows = data.draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width), min_size=1, max_size=5))
    p = np.array(rows, dtype=float).reshape(len(rows), width)
    if (p < EIGENVALUE_FLOOR).any():
        with pytest.raises(NotPSD):
            entropy._entropy_rows(p)
        return
    want = [bits(entropy_loop(row, ENTROPY_CLAMP)) for row in rows]
    assert bits(entropy._entropy_rows(p).tolist()) == want
    assert [bits(td.entropy_of(row)) for row in rows] == want


def test_entropy_rows_takes_its_logarithms_from_np_log_of_each_row():
    # One np.log call over the whole batch gives each entry the bits that
    # np.log of its row alone gives it; rows of 8 or more terms would also
    # tell a row-wise np.sum from the in-order subtraction.
    p = np.random.default_rng(257).uniform(size=(1000, 100))
    want = [bits(entropy_loop(row, ENTROPY_CLAMP)) for row in p.tolist()]
    assert bits(entropy._entropy_rows(p).tolist()) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entropy_rows_rejects_non_finite_entries(bad):
    # A NaN or infinite entry anywhere raises OutOfRange, also beside an
    # entry that alone would raise NotPSD; it never counts as a one.
    rng = np.random.default_rng(269)
    for _ in range(30):
        p = rng.dirichlet(np.ones(int(rng.integers(1, 8))), size=int(rng.integers(1, 5)))
        if rng.random() < 0.3:
            p[rng.integers(len(p)), rng.integers(p.shape[1])] = -1e-9
        p[rng.integers(len(p)), rng.integers(p.shape[1])] = bad
        with pytest.raises(OutOfRange, match="must be finite"):
            entropy._entropy_rows(p)
        with pytest.raises(OutOfRange, match="must be finite"):
            td.entropy_of(p.ravel())
    for row in ([bad, 0.5], [0.5, bad], [bad]):
        with pytest.raises(OutOfRange):
            td.entropy_of(row)


def test_von_neumann_entropy():
    rho = td.DensityMatrix(np.diag([0.5, 0.25, 0.25]))
    assert td.von_neumann_entropy(rho) == pytest.approx(1.5 * LN2, abs=1e-12)


def test_entropy_split_frozen_vertex():
    rep = td.entropy_split(td.new_channel(3, -0.5), td.SchmidtVector.vertex(3, 0))
    assert rep.s1 == pytest.approx(LN2, abs=1e-12)
    assert rep.s2 == pytest.approx(LN2, abs=1e-12)
    assert rep.s_total == pytest.approx(2.0 * LN2, abs=1e-12)
    assert rep.c == pytest.approx(0.5, abs=1e-15)


def test_entropy_split_frozen_uniform():
    # spectrum {1/3, 1/12 x 8}: S = (1/3) ln 3 + (2/3) ln 12
    rep = td.entropy_split(td.new_channel(3, -0.5), td.SchmidtVector.uniform(3))
    assert rep.s_total == pytest.approx(math.log(3.0) / 3.0 + 2.0 * math.log(12.0) / 3.0, abs=1e-12)
    assert rep.c == pytest.approx(0.5, abs=1e-15)


def test_entropy_split_sum_and_normalized_form():
    rng = np.random.default_rng(223)
    for d in (2, 3, 4, 5):
        lo, hi = td.t_range(d)
        for _ in range(10):
            t = float(rng.uniform(lo, hi))
            ch = td.new_channel(d, t)
            lam = td.SchmidtVector(rng.dirichlet(np.ones(d)))
            rep = td.entropy_split(ch, lam)
            assert rep.s_total == pytest.approx(rep.s1 + rep.s2, abs=1e-12)
            spec = td.full_spectrum(ch, lam)
            c = rep.c
            if c > 1e-12:
                # s1 = -c ln c + c H(gamma / c)
                h1 = entropy_brute(np.asarray(spec.offdiag) / c)
                assert rep.s1 == pytest.approx(-c * math.log(c) + c * h1, abs=1e-10)
            onec = 1.0 - c
            h2 = entropy_brute(np.clip(spec.secular, 0.0, None) / onec)
            assert rep.s2 == pytest.approx(-onec * math.log(onec) + onec * h2, abs=1e-10)


def test_entropy_split_degenerate_edge():
    # d=2, t=-1: off-diagonal mass vanishes entirely
    rep = td.entropy_split(td.new_channel(2, -1.0), td.SchmidtVector.uniform(2))
    assert rep.c == pytest.approx(0.0, abs=1e-15)
    assert rep.s1 == 0.0
    assert rep.s_total == pytest.approx(0.0, abs=1e-12)


def test_entropy_split_is_nonnegative_at_the_t_endpoints():
    # A root that rounds to 1 + 2**-52 once added -p ln p < 0 here:
    # d = 2, t = -1 on the uniform vector gave s_total = -2.2e-16.
    # Inputs: uniform on the first k coordinates, from a vertex (k = 1)
    # through the faces to the uniform vector (k = d).
    for d in (2, 3, 4, 5, 6):
        for t in td.t_range(d):
            ch = td.new_channel(d, t)
            for k in range(1, d + 1):
                rep = td.entropy_split(ch, [1.0 / k] * k + [0.0] * (d - k))
                assert min(rep.s_total, rep.s1, rep.s2) >= 0.0, (d, t, k, rep)


def test_entropy_of_ignores_entries_rounded_past_one():
    assert td.entropy_of(np.array([1.0 + 2.0**-52, 0.0])) == 0.0
    assert td.entropy_of(np.array([1.0 + 2.0**-52, 0.5])) == -0.5 * math.log(0.5)


def test_min_entropy_closed_form_frozen():
    assert td.min_entropy_closed_form(td.new_channel(3, -0.5)) == pytest.approx(LN2, abs=1e-15)
    assert td.min_entropy_closed_form(td.new_channel(2, -1.0)) == 0.0
    assert td.min_entropy_closed_form(td.new_channel(4, 0.0)) == pytest.approx(math.log(4.0), abs=1e-15)
    # {1/2, 1/4, 1/4} at the positive endpoint for d=3
    assert td.min_entropy_closed_form(td.new_channel(3, 0.25)) == pytest.approx(1.5 * LN2, abs=1e-12)


def test_min_entropy_closed_form_is_single_copy_output_entropy():
    # every pure input has the same output spectrum, so any state will do
    rng = np.random.default_rng(227)
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, hi):
            ch = td.new_channel(d, float(t))
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            out = td.apply(ch, td.pure_state(v))
            assert td.von_neumann_entropy(out) == pytest.approx(
                td.min_entropy_closed_form(ch), abs=1e-9
            )


def test_min_output_entropy_matches_closed_form():
    # The vectors are the Haar-random rows of haar_states on one stream.
    cfg = td.OptimizerConfig(restarts=8, seed=5)
    for d, t in ((2, -1.0), (3, -0.5), (3, 0.25), (4, -0.2)):
        ch = td.new_channel(d, t)
        best, arg = td.min_output_entropy(ch, cfg)
        assert best == pytest.approx(td.min_entropy_closed_form(ch), abs=1e-9)
        assert np.linalg.norm(arg) == pytest.approx(1.0, abs=1e-12)
        assert arg.tolist() in haar_states(8, d, philox_stream(5, _TAG_UNIT)).tolist()


def test_project_to_simplex():
    assert simplex_projection_sort(np.array([1.5, 0.5])) == pytest.approx([1.0, 0.0])
    assert simplex_projection_sort(np.array([0.2, 0.2])) == pytest.approx([0.5, 0.5])
    out = simplex_projection_sort(np.array([-1.0, 0.0, 3.0]))
    assert out == pytest.approx([0.0, 0.0, 1.0])
    rng = np.random.default_rng(229)
    for _ in range(25):
        x = rng.normal(size=6) * 3.0
        p = simplex_projection_sort(x)
        assert np.all(p >= -1e-15)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


def test_sort_projection_matches_the_bisection_projection():
    rng = np.random.default_rng(233)
    for d in (2, 3, 5, 8):
        for scale in (0.1, 1.0, 100.0):
            x = (rng.normal(size=d) * scale).tolist()
            p = simplex_projection_sort(x)
            # Both find theta to rounding at the scale of x.
            tol = 8.0 * np.finfo(float).eps * max(1.0, float(np.abs(x).max()))
            assert p == pytest.approx(simplex_projection_bisect(x), abs=tol)


def objective_cases():
    """(d, lam): random, near-vertex, vertex and uniform Schmidt vectors."""
    rng = np.random.default_rng(239)
    for d in (2, 3, 4, 5):
        for _ in range(3):
            yield d, rng.dirichlet(np.ones(d))
        for tiny in (1e-12, 1e-16, 1e-20, 1e-30):
            lam = np.full(d, tiny) * rng.uniform(0.5, 1.0, size=d)
            lam[rng.integers(d)] = 0.0
            lam[0] = 1.0 - lam[1:].sum()
            yield d, lam
        yield d, np.eye(d)[d - 1]
        yield d, np.full(d, 1.0 / d)


def test_simplex_output_entropy_matches_the_kraus_route():
    for d, lam in objective_cases():
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
            ch = td.new_channel(d, t)
            got = td.simplex_output_entropy(ch, td.SchmidtVector(lam))
            want = entropy_brute(dense_two_copy_spectrum(ch, lam))
            assert got == pytest.approx(want, abs=1e-12), (d, t, lam.tolist())
            assert bits(got) == bits(td.entropy_split(ch, lam).s_total), (d, t, lam.tolist())


def test_minimize_simplex_entropy_finds_vertex():
    ch = td.new_channel(3, -0.5)
    val, arg = td.minimize_simplex_entropy(ch, td.OptimizerConfig(restarts=10, seed=1))
    assert val == pytest.approx(2.0 * LN2, abs=1e-9)
    dists = [np.sum(np.abs(arg.values - np.eye(3)[i])) for i in range(3)]
    assert min(dists) < 1e-4


def test_minimize_simplex_entropy_flat_landscape():
    # t = 0 sends everything to I/d^2; all inputs tie and a vertex is reported
    ch = td.new_channel(3, 0.0)
    val, arg = td.minimize_simplex_entropy(ch, td.OptimizerConfig(restarts=4, seed=2))
    assert val == pytest.approx(2.0 * math.log(3.0), abs=1e-12)
    assert sorted(arg.values) == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


def test_additivity_gap_frozen_point():
    cfg = td.OptimizerConfig(restarts=8, n_random=60, seed=7)
    gap, min_simplex, min_random = td.additivity_gap(td.new_channel(3, -0.5), cfg)
    assert min_simplex == pytest.approx(2.0 * LN2, abs=1e-6)
    assert min_random >= min_simplex - 1e-9
    assert gap >= -1e-6


def test_additivity_gap_deterministic():
    cfg = td.OptimizerConfig(restarts=5, n_random=30, seed=11)
    ch = td.new_channel(2, -0.7)
    a = td.additivity_gap(ch, cfg)
    b = td.additivity_gap(ch, cfg)
    assert a == b


def test_random_states_never_beat_double_closed_form():
    # haar samples upper-bound the minimum; they must stay above 2h
    cfg = td.OptimizerConfig(restarts=3, n_random=80, seed=13)
    for d, t in ((2, -1.0), (3, -0.5), (4, 0.2)):
        ch = td.new_channel(d, t)
        gap, _, min_random = td.additivity_gap(ch, cfg)
        assert min_random - 2.0 * td.min_entropy_closed_form(ch) >= -1e-9
        assert gap >= -1e-6


def test_random_state_entropy_matches_the_kraus_route():
    # n_random past the dense-checked states and not a multiple of their
    # count; 0 still draws one state.
    # State r is row r of one (count, 2, d^2) normal block from the cell's
    # stream: its real part, then its imaginary part.
    for d, t, n_random in ((2, -1.0, 0), (3, -0.3, _DENSE_CHECK_STATES + 5), (4, 0.15, 2 * _DENSE_CHECK_STATES)):
        ch = td.new_channel(d, t)
        cfg = td.OptimizerConfig(restarts=0, n_random=n_random, seed=19)
        g = philox_stream(19, _TAG_HAAR).standard_normal((max(n_random, 1), 2, d * d))
        states = [v / np.linalg.norm(v) for v in g[:, 0] + 1j * g[:, 1]]
        want = np.array([entropy_brute(np.linalg.eigvalsh(kraus_two_copy_output(ch, v))) for v in states])
        got = _random_state_entropies(ch, cfg)
        # Every evaluated state matches the Kraus route; a pruned state (+inf)
        # lies above the least entropy by more than half the pruning margin.
        evaluated = np.isfinite(got)
        assert np.max(np.abs(got[evaluated] - want[evaluated])) <= 1e-12
        assert (want[~evaluated] > want.min() + entropy._prune_margin(d) / 2).all()
        assert td.additivity_gap(ch, cfg)[2] == pytest.approx(min(want), abs=1e-12)


def all_rows_values(ch, rows):
    """S1 + S2 of every row from one _split_rows call: the evaluation that pruning must match."""
    s1, s2 = entropy._split_rows(ch, rows)
    return s1 + s2


def test_n_random_k_takes_the_first_k_states_of_any_larger_n_random():
    # The first k states, and so their weights, are those of any larger
    # n_random.  Which states are pruned depends on the batch, so the
    # entropies are compared where they are evaluated, against an
    # evaluation of every state of the larger sample.
    ch = td.new_channel(3, -0.2)
    count = 2 * _DENSE_CHECK_STATES + 3
    weights = entropy._haar_sample(7, 3, count)
    every = all_rows_values(ch, weights)
    for k in (0, 1, 5, _DENSE_CHECK_STATES, _DENSE_CHECK_STATES + 1, count):
        cfg = td.OptimizerConfig(restarts=0, n_random=k, seed=7)
        first = every[: max(k, 1)]
        assert bits(entropy._haar_sample(7, 3, max(k, 1)).tolist()) == bits(weights[: max(k, 1)].tolist()), k
        got = _random_state_entropies(ch, cfg)
        evaluated = np.isfinite(got)
        assert bits(got[evaluated].tolist()) == bits(first[evaluated].tolist()), k
        assert bits(td.additivity_gap(ch, cfg)[2]) == bits(float(first.min())), k


def local_unitary(d, rng):
    """A random d x d unitary: the Q of the QR of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def covariance_states(d, rng):
    """Pure states on d x d: Gaussian, product, and Schmidt vectors with a weight of 1e-20, locally rotated."""
    states = [rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d) for _ in range(3)]
    tiny = np.full(d, 1.0 / (d - 1)) * (1.0 - 1e-20)
    tiny[-1] = 1e-20
    for lam in (np.eye(d)[0], tiny, rng.dirichlet(np.ones(d))):
        states.append(np.kron(local_unitary(d, rng), local_unitary(d, rng)) @ schmidt_state(lam))
    return np.array([v / np.linalg.norm(v) for v in states])


def test_schmidt_route_matches_the_kraus_oracle():
    # Unitary covariance: any pure input has the two-copy output entropy of
    # its Schmidt weights, which the Haar leg takes from eigvalsh(M M^H).
    rng = np.random.default_rng(241)
    for d in (2, 3, 4, 5, 6):
        psi = covariance_states(d, rng)
        weights = entropy._schmidt_weights(psi, d)
        _check_schmidt_rows(weights)
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
            ch = td.new_channel(d, t)
            s1, s2 = entropy._split_rows(ch, weights)
            want = [entropy_brute(np.linalg.eigvalsh(kraus_two_copy_output(ch, v))) for v in psi]
            assert np.max(np.abs(s1 + s2 - want)) <= 1e-12, (d, t)


def test_schmidt_weights_of_product_and_near_product_states():
    rng = np.random.default_rng(251)
    for d in (2, 3, 4, 5, 6):
        weights = entropy._schmidt_weights(covariance_states(d, rng), d)
        assert np.all(np.diff(weights, axis=1) <= 0.0)
        assert weights[3] == pytest.approx(np.eye(d)[0], abs=1e-15)
        assert weights[4, :-1] == pytest.approx(np.full(d - 1, 1.0 / (d - 1)), abs=1e-14)
        assert 0.0 <= weights[4, -1] <= 1e-14


def test_every_additivity_gap_runs_the_dense_check(monkeypatch, cold_haar_cache):
    # A sample's build checks the first min(n_random, _DENSE_CHECK_STATES)
    # states of the stream at their weights, whatever their count, over the
    # whole t range.  A warm cell checks nothing again: the one cached
    # sample passed that check, which holds at its t too.
    checks = count_calls(monkeypatch, "_check_covariance")
    for n_random in (0, 5, _DENSE_CHECK_STATES, 3 * _DENSE_CHECK_STATES + 1):
        checks.clear()
        cfg = td.OptimizerConfig(restarts=1, n_random=n_random)
        td.additivity_gap(td.new_channel(3, -0.4), cfg)
        count = max(n_random, 1)
        k = min(count, _DENSE_CHECK_STATES)
        assert [(states.shape, lam.shape) for states, lam in checks] == [((k, 9), (k, 3))], n_random
        states, lam = checks[0]
        assert np.array_equal(states, haar_states(count, 9, philox_stream(0, _TAG_HAAR))[:k])
        assert np.array_equal(lam, entropy._haar_sample(0, 3, count)[:k])
        for t in (0.1, 0.0, td.t_range(3)[0]):
            td.additivity_gap(td.new_channel(3, t), cfg)
        assert len(checks) == 1, n_random


def scaled_states(monkeypatch, e):
    """Feed the covariance check each state scaled by sqrt(1 + e), which scales its two-copy output by 1 + e.

    The scale reaches conj(psi) and the norm of every checked state, but
    not w: it rests on the weights and on the singular vectors, which a
    scale leaves as they are.
    """
    plain = entropy._reconstruction_bounds
    monkeypatch.setattr(entropy, "_reconstruction_bounds", lambda states, lam: plain(np.sqrt(1.0 + e) * states, lam))


def test_the_dense_check_holds_the_closed_form_to_its_tolerance(monkeypatch, cold_haar_cache):
    # Scaling each state by sqrt(1 + e) moves conj(psi) about e / 2 from w
    # and its norm about e / 2 from 1, so the bound is about e: past
    # _residual_tol(4), about 3.3e-12, at e = 1e-8, well inside it at
    # e = 1e-13.  The check runs when a sample is built, so the fault is
    # in place before a cold build.
    ch = td.new_channel(4, -0.2)
    cfg = td.OptimizerConfig(restarts=1, n_random=3)
    want = td.additivity_gap(ch, cfg)
    for e, fails in ((1e-8, True), (1e-13, False)):
        with monkeypatch.context() as m:
            scaled_states(m, e)
            entropy._haar_sample.cache_clear()
            if fails:
                with pytest.raises(CovarianceMismatch, match="differ by") as raised:
                    td.additivity_gap(ch, cfg)
                assert not isinstance(raised.value, td.TdchanError)
            else:
                assert td.additivity_gap(ch, cfg) == want


def test_the_dense_check_catches_a_shifted_cached_weight(monkeypatch, cold_haar_cache):
    # The known positive on the closed-form side: the dense route is
    # untouched, and one weight of one checked state moves by 1e-9 on its
    # way into _check_covariance, which forms w from it.
    cfg = td.OptimizerConfig(restarts=1, n_random=5, seed=3)
    ch = td.new_channel(4, -0.2)
    td.additivity_gap(ch, cfg)
    plain = entropy._check_covariance

    def shifted(states, weights):
        weights = weights.copy()
        weights[2, 1] += 1e-9
        return plain(states, weights)

    with monkeypatch.context() as m, pytest.raises(CovarianceMismatch, match="differ by"):
        m.setattr(entropy, "_check_covariance", shifted)
        entropy._haar_sample.cache_clear()
        td.additivity_gap(ch, cfg)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 64, 255])
def test_a_weight_shift_of_1e_9_raises_at_every_d(d):
    # The first 4 states of a Haar sample pass, far inside the tolerance;
    # with one weight of one state moved by 1e-9, w moves by at least
    # 5e-10 and its norm by 5e-10, far past it, up to the largest d a scan
    # accepts.
    psi = haar_states(4, d * d, philox_stream(0, _TAG_HAAR))
    weights = entropy._schmidt_weights(psi, d)
    assert entropy._reconstruction_bounds(psi, weights).max() <= entropy._residual_tol(d) / 100
    weights[2, 1] += 1e-9
    with pytest.raises(CovarianceMismatch, match="worst checked state 2,"):
        entropy._check_covariance(psi, weights)


@pytest.mark.parametrize("factor, entry", [("u", (2, 1, 1)), ("vh", (2, 3, 0)), ("w", (2, 5))])
def test_the_dense_check_catches_a_shifted_cached_factor(monkeypatch, factor, entry):
    # The known positives on the reference side, w = conj(U) diag(sqrt(lam))
    # V^T: one entry of U or of V^H as the SVD returns it moves by 1e-9, or
    # U moves so that one entry of w moves by 1e-9, the dense route and the
    # weights untouched.  The unshifted states pass.
    psi = haar_states(5, 16, philox_stream(3, _TAG_HAAR))
    weights = entropy._schmidt_weights(psi, 4)
    entropy._check_covariance(psi, weights)
    plain = np.linalg.svd

    def moved(a):
        u, s, vh = plain(a)
        if factor == "w":
            # Row i of w moves by conj(delta) diag(sqrt(lam)) conj(V^H), so
            # delta = 1e-9 conj(V^H[:, j]) / sqrt(lam) moves entry j alone.
            state, (i, j) = entry[0], divmod(entry[1], 4)
            u[state, i] += 1e-9 * vh[state, :, j].conj() / s[state]
        else:
            {"u": u, "vh": vh}[factor][entry] += 1e-9
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", moved)
    with pytest.raises(CovarianceMismatch, match=r"differ by .* \(trace distance\)"):
        entropy._check_covariance(psi, weights)


def test_the_dense_check_catches_a_fault_in_w_at_a_cell_at_t_0(monkeypatch, cold_haar_cache):
    # At t = 0 every two-copy output is I / d^2, so a check at the cell's
    # own t could not see a fault in the reference.  The bound has no t in
    # it: with w scaled by 1 + 1e-6 (the weights by its square) a cell at
    # t = 0 alone raises.
    plain = entropy._reconstruction_bounds
    monkeypatch.setattr(entropy, "_reconstruction_bounds", lambda states, lam: plain(states, (1.0 + 1e-6) ** 2 * lam))
    with pytest.raises(CovarianceMismatch, match="differ by"):
        td.additivity_gap(td.new_channel(3, 0.0), td.OptimizerConfig(restarts=1, n_random=5, seed=3))


def test_the_dense_check_passes_where_the_schmidt_bases_are_not_unique():
    # Tied Schmidt weights leave the SVD free to rotate the bases within
    # their span; whatever bases it returns must pass, as must Gaussian
    # states, over the whole t range.  Weights near 0 are left out:
    # eigvalsh(M M^H) finds a zero weight only to about 1e-17, and w sees
    # its square root (up to 4e-9 on product states).
    rng = np.random.default_rng(257)
    for d in (2, 3, 4, 5, 6):
        tie = rng.dirichlet(np.ones(d))
        tie[1] = tie[0]
        states = [rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d) for _ in range(3)]
        for lam in (np.full(d, 1.0 / d), tie / tie.sum()):
            states.append(np.kron(local_unitary(d, rng), local_unitary(d, rng)) @ schmidt_state(lam))
        psi = np.array([v / np.linalg.norm(v) for v in states])
        entropy._check_covariance(psi, entropy._schmidt_weights(psi, d))


def checked_states(d, rng):
    """16 unit states on d x d: 10 Haar, 3 Gaussian and 3 locally rotated Schmidt states with tied weights."""
    haar = haar_states(10, d * d, philox_stream(d, _TAG_HAAR))
    gaussian = rng.standard_normal((3, d * d)) + 1j * rng.standard_normal((3, d * d))
    tie = rng.dirichlet(np.ones(d))
    tie[1] = tie[0]
    rest = np.full(d, 0.4 / (d - 1))  # one weight apart, the other d - 1 tied
    rest[0] = 0.6
    tied = [
        np.kron(local_unitary(d, rng), local_unitary(d, rng)) @ schmidt_state(lam)
        for lam in (np.full(d, 1.0 / d), tie / tie.sum(), rest)
    ]
    psi = np.vstack([haar, gaussian, tied])
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def perturbed_states(psi, weights):
    """checked_states off their weights: 0-5 scaled by 1 + 1e-3 at the weights of the state before them, 6-15 with weights moved.

    States 6-10 have their largest weight moved by +1e-6, and are scaled
    by 1 - 1e-7, so that | ||psi|| - 1 | counts; 11-15 have it moved by
    -1e-9.  Of each five, the first, third and fifth give the step back
    from their second weight, so their sum stays 1, and the other two do
    not.
    """
    states, lam = psi.copy(), weights.copy()
    states[:6] *= 1.0 + 1e-3
    states[6:11] *= 1.0 - 1e-7
    lam[:6] = np.roll(weights, 1, axis=0)[:6]
    for rows, step in ((slice(6, 11), 1e-6), (slice(11, 16), -1e-9)):
        lam[rows, 0] += step
        lam[rows, 1][::2] -= step
    return states, lam


def test_the_tolerance_is_the_largest_trace_distance_the_entropy_promise_allows():
    # At the tolerance the Fannes-Audenaert bound on C^(d^2) is at most
    # _COVARIANCE_TOL, up to the rounding of its float evaluation, and a
    # step of 1e-9 relative past it is not.
    for d in (2, 3, 4, 8, 16, 24, 64, 128, 255):
        tol, promise = entropy._residual_tol(d), entropy._COVARIANCE_TOL
        assert 2.5e-12 < tol < 3.6e-12, d
        assert fannes_audenaert(tol, d * d) <= promise * (1.0 + 1e-14) < fannes_audenaert(tol * (1.0 + 1e-9), d * d), d


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 16])
def test_covariance_residuals_match_the_kronecker_oracle(d):
    # The library's bound B comes from one reconstruction norm per state
    # and has no t in it; the oracle rotates the dense output of
    # apply_two_copies into the Schmidt bases with an explicit Kronecker K
    # and takes the trace norm of its residual against sigma12 at the
    # weights scaled to sum 1.  On Haar and Gaussian states, and on locally
    # rotated Schmidt states with tied weights, which leave the SVD free to
    # rotate within a tie, B is rounding noise far below the tolerance,
    # the oracle stays below B within rounding at both ends of the t range,
    # halfway to each and at 0, and the entropies agree to
    # _COVARIANCE_TOL.  Noise that small would hide a wrong bound, so the
    # states also go in scaled and at the weights of the state before
    # them, or with a weight moved by 1e-6 or 1e-9 (perturbed_states):
    # there the oracle stays below B within 1e-9 relative, and the
    # entropies within the Fannes-Audenaert bound of the oracle's
    # distance.
    psi = checked_states(d, np.random.default_rng(269 + d))
    assert len(psi) == _DENSE_CHECK_STATES
    weights = entropy._schmidt_weights(psi, d)
    clean = entropy._reconstruction_bounds(psi, weights)
    assert clean.max() <= entropy._residual_tol(d) / 500, (d, clean.max())
    states, lam = perturbed_states(psi, weights)
    bounds = entropy._reconstruction_bounds(states, lam)
    assert bounds[6:11].min() > 1e-7 and bounds[11:].min() > 1e-10
    lo, hi = td.t_range(d)
    for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
        ch = td.new_channel(d, t)
        for rows, row_weights, bound, slack in ((psi, weights, clean, 5e-16), (states, lam, bounds, 1e-9 * bounds + 5e-16)):
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            outputs = td.apply_two_copies(ch, unit[:, :, None] * unit.conj()[:, None, :])
            distances = covariance_trace_distances_kron(ch, unit, row_weights, outputs)
            assert np.all(distances <= bound + slack), (d, t, (distances - bound).max())
            s1, s2 = entropy._split_rows(ch, row_weights / row_weights.sum(axis=1, keepdims=True))
            gaps = np.abs([entropy_brute(np.linalg.eigvalsh(out)) for out in outputs] - (s1 + s2))
            if rows is psi:
                assert gaps.max() <= entropy._COVARIANCE_TOL, (d, t, gaps.max())
            limits = [fannes_audenaert(distance, d * d) + 1e-13 for distance in distances]
            assert np.all(gaps <= limits), (d, t)


def test_the_covariance_bound_is_sharp_at_d_2_and_t_minus_1():
    # At d = 2 and t = -1 the channel maps rho to I - rho^T, which is
    # sigma_y rho sigma_y: a unitary channel, which keeps trace distance.
    # With a weight moved from one Schmidt coefficient to the other, w has
    # norm 1 and psi - phi is tiny, so sqrt(1 - c^2) and ||x - w|| agree to
    # second order, and the oracle's distance is the bound within 1e-9.
    d, ch = 2, td.new_channel(2, -1.0)
    psi = checked_states(d, np.random.default_rng(271))
    weights = entropy._schmidt_weights(psi, d)
    lam = weights + np.array([1e-6, -1e-6])
    bounds = entropy._reconstruction_bounds(psi, lam)
    outputs = td.apply_two_copies(ch, psi[:, :, None] * psi.conj()[:, None, :])
    distances = covariance_trace_distances_kron(ch, psi, lam, outputs)
    assert bounds.min() > 1e-7
    assert np.all(np.abs(distances - bounds) <= 1e-9 * bounds), (distances / bounds - 1.0).tolist()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 16])
def test_gram_residuals_match_the_direct_dense_residuals(d):
    # The direct route, in the computational basis with no K: phi-hat, the
    # Schmidt reconstruction at the weights of the Gram matrices M M^H,
    # is built with np.kron from each state's own SVD, and the two-copy
    # outputs of psi-hat and phi-hat come from apply_two_copies.  Their
    # trace distance, on a 41-point grid over the whole t range plus 0 and
    # +-1e-7, stays at or below that of the inputs (contraction), which
    # stays at or below the library's bound, each within rounding on the
    # checked states and within 1e-9 relative on perturbed_states.  At
    # d = 2 and t = -1 the channel is unitary, so there the outputs are as
    # far apart as the inputs.  Each grid point costs 32 eigensolves of
    # the d^2 x d^2 residual, so d = 16 takes every eighth point of the
    # grid, both ends included.
    psi = checked_states(d, np.random.default_rng(271 + d))
    weights = entropy._schmidt_weights(psi, d)
    lo, hi = td.t_range(d)
    grid = np.linspace(lo, hi, 41).tolist()[:: 8 if d == 16 else 1]
    grid = sorted({*grid, -1e-7, 0.0, 1e-7})
    assert grid[0] == lo and grid[-1] == hi

    def trace_distances(a, b):
        return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=1)

    for states, lam, relative in ((psi, weights, 0.0), (*perturbed_states(psi, weights), 1e-9)):
        bounds = entropy._reconstruction_bounds(states, lam)
        unit = states / np.linalg.norm(states, axis=1, keepdims=True)
        phi = []
        for state, row in zip(unit, lam):
            u, _, vh = np.linalg.svd(state.reshape(d, d))
            phi.append(np.kron(u, vh.T) @ schmidt_state(row / row.sum()))
        phi = np.array(phi)
        inputs = [v[:, :, None] * v.conj()[:, None, :] for v in (unit, phi)]
        before = trace_distances(*inputs)
        assert np.all(before <= bounds * (1.0 + relative) + 5e-16), (d, (before - bounds).max())
        for t in grid:
            ch = td.new_channel(d, t)
            after = trace_distances(*(td.apply_two_copies(ch, x) for x in inputs))
            assert np.all(after <= before * (1.0 + relative) + 5e-16), (d, t, (after - before).max())
            if d == 2 and t == -1.0 and relative:
                assert np.all(np.abs(after - before) <= 1e-9 * before + 5e-16), (after / before - 1.0).tolist()


def test_a_mismatch_names_the_worst_state_and_its_least_schmidt_weight():
    # State 2 has a Schmidt weight of 1e-20, which eigvalsh(M M^H) resolves
    # only to about 1e-17: w sees its square root, and the bound is far past
    # the tolerance.  The message gives the bound, the tolerance, d, and
    # names the state and its least weight; it names no t, since the bound
    # holds over the whole t range.
    d = 3
    rng = np.random.default_rng(7)
    psi = haar_states(4, d * d, philox_stream(5, _TAG_HAAR))
    lam = np.full(d, (1.0 - 1e-20) / (d - 1))
    lam[-1] = 1e-20
    psi[2] = np.kron(local_unitary(d, rng), local_unitary(d, rng)) @ schmidt_state(lam)
    weights = entropy._schmidt_weights(psi, d)
    assert weights[2].min() < 1e-9
    with pytest.raises(CovarianceMismatch) as raised:
        entropy._check_covariance(psi, weights)
    bound = entropy._reconstruction_bounds(psi, weights)[2]
    assert str(raised.value) == (
        f"dense and closed-form two-copy outputs differ by up to {bound:.3e} > {entropy._residual_tol(d):.3e}"
        f" (trace distance) at d=3 over its t range; worst checked state 2,"
        f" least Schmidt weight {weights[2].min():.3e}"
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 16])
def test_sigma12_at_the_checked_weights_has_the_split_rows_entropy(d):
    # The dense check compares the dense output with sigma12 at the cached
    # weights, not spectra; this is the other link, sigma12's spectrum
    # against the closed form, on the same states.  DensityMatrix keeps the
    # eigenvalues of its PSD check, so each matrix is diagonalized once.
    weights = entropy._haar_sample.__wrapped__(0, d, _DENSE_CHECK_STATES)
    for t in np.linspace(*td.t_range(d), 9).tolist():
        ch = td.new_channel(d, t)
        s1, s2 = entropy._split_rows(ch, weights)
        dense = [td.entropy_of(td.sigma12(ch, td.SchmidtVector(w)).eigenvalues) for w in weights]
        assert np.max(np.abs(np.array(dense) - (s1 + s2))) <= 1e-12, (d, t)


@pytest.fixture
def cold_haar_cache():
    """An empty _haar_sample cache, emptied again after the test."""
    entropy._haar_sample.cache_clear()
    yield
    entropy._haar_sample.cache_clear()


def count_calls(monkeypatch, name):
    """Replace entropy.<name> by a wrapper that records its calls; returns the list of their arguments."""
    plain, calls = getattr(entropy, name), []

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(entropy, name, counted)
    return calls


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_a_t_grid_builds_its_haar_sample_once_and_gets_the_cold_bits(monkeypatch, cold_haar_cache, d):
    # The grid holds both ends of the t range and t = 0.  Warm, one Haar
    # sample serves every t; cleared before every call, each t builds its
    # own.  Both give the same bits.
    lo, hi = td.t_range(d)
    grid = sorted({*np.linspace(lo, hi, 9).tolist(), 0.0})
    assert grid[0] == lo and grid[-1] == hi
    cfg = td.OptimizerConfig(restarts=2, n_random=_DENSE_CHECK_STATES + 3, seed=37)
    states = count_calls(monkeypatch, "haar_states")
    weights = count_calls(monkeypatch, "_schmidt_weights")
    warm = [bits(td.additivity_gap(td.new_channel(d, t), cfg)) for t in grid]
    assert len(states) == len(weights) == 1
    cold = []
    for t in grid:
        entropy._haar_sample.cache_clear()
        cold.append(bits(td.additivity_gap(td.new_channel(d, t), cfg)))
    assert len(states) == len(weights) == 1 + len(grid)
    assert warm == cold


def test_haar_samples_are_keyed_by_seed_d_and_count_and_read_only(monkeypatch, cold_haar_cache):
    states = count_calls(monkeypatch, "haar_states")
    cfg = td.OptimizerConfig(restarts=0, n_random=5, seed=11)
    td.additivity_gap(td.new_channel(3, -0.2), cfg)
    td.additivity_gap(td.new_channel(3, 0.1), cfg)
    assert [args[:2] for args in states] == [(5, 9)]
    for d, other in (
        (3, td.OptimizerConfig(restarts=0, n_random=5, seed=12)),
        (4, cfg),
        (3, td.OptimizerConfig(restarts=0, n_random=6, seed=11)),
    ):
        td.additivity_gap(td.new_channel(d, -0.2), other)
    assert len(states) == 4
    # n_random = 0 and 1 both draw one state, the same one.
    td.additivity_gap(td.new_channel(3, -0.2), td.OptimizerConfig(n_random=0, seed=11))
    td.additivity_gap(td.new_channel(3, 0.2), td.OptimizerConfig(n_random=1, seed=11))
    assert len(states) == 5
    info = entropy._haar_sample.cache_info()
    assert info.maxsize == info.currsize == 1

    checks = count_calls(monkeypatch, "_check_covariance")
    for count in (1, _DENSE_CHECK_STATES + 4):
        entropy._haar_sample.cache_clear()
        weights = entropy._haar_sample(11, 3, count)
        k = min(count, _DENSE_CHECK_STATES)
        assert weights.shape == (count, 3)
        psi = haar_states(count, 9, philox_stream(11, _TAG_HAAR))
        assert bits(weights.tolist()) == bits(entropy._schmidt_weights(psi, 3).tolist())
        # The build checks the first k states at their weights, and each
        # lies within rounding of its Schmidt reconstruction, conj(w).
        dense, lam = checks[-1]
        assert np.array_equal(dense, psi[:k]) and np.array_equal(lam, weights[:k])
        assert entropy._reconstruction_bounds(dense, lam).max() <= 1e-14
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0, 0] = 0.5
        with pytest.raises(ValueError):
            weights *= 2.0
    assert len(checks) == 2


def test_a_warm_haar_sample_still_runs_the_dense_check(monkeypatch, cold_haar_cache):
    # The check runs when a sample is built, over the whole t range, and
    # lru_cache keeps no sample whose build raised.  So a fault present at
    # the build shows at the first cell and at every later t of the grid,
    # each of which builds the sample again.
    cfg = td.OptimizerConfig(restarts=1, n_random=5, seed=3)
    scaled_states(monkeypatch, 1e-6)
    lo, hi = td.t_range(3)
    grid = [-0.4, lo, 0.5 * lo, -1e-7, 0.0, 0.1, hi]
    for t in grid:
        with pytest.raises(CovarianceMismatch, match="differ by"):
            td.additivity_gap(td.new_channel(3, t), cfg)
    info = entropy._haar_sample.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(grid), 0, 0)


def test_a_key_whose_check_fails_raises_again_and_builds_clean_once_mended(monkeypatch, cold_haar_cache):
    # A failed build leaves the cached entry of another key in place, raises
    # again on a second call with its key, and builds clean, with the bits
    # of a run that never saw the fault, once the fault is gone.
    cfg, other = td.OptimizerConfig(restarts=1, n_random=5, seed=3), td.OptimizerConfig(restarts=1, n_random=5, seed=4)
    ch = td.new_channel(3, -0.25)
    want = bits(td.additivity_gap(ch, cfg))
    entropy._haar_sample.cache_clear()
    kept = bits(td.additivity_gap(ch, other))
    with monkeypatch.context() as m:
        scaled_states(m, 1e-6)
        for _ in range(2):
            with pytest.raises(CovarianceMismatch, match="differ by"):
                td.additivity_gap(ch, cfg)
        assert bits(td.additivity_gap(ch, other)) == kept
    info = entropy._haar_sample.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 1, 1)
    assert bits(td.additivity_gap(ch, cfg)) == want
    assert entropy._haar_sample.cache_info().misses == 4


def test_a_dense_fault_after_the_build_shows_at_the_next_build(monkeypatch, cold_haar_cache):
    # What the one build per key gives up: w is formed only when a sample
    # is built and checked, so a fault introduced into it afterwards passes
    # every warm cell and raises once the sample is built again.
    plain = entropy._reconstruction_bounds
    cfg = td.OptimizerConfig(restarts=1, n_random=5, seed=3)
    want = td.additivity_gap(td.new_channel(3, 0.1), cfg)
    td.additivity_gap(td.new_channel(3, -0.4), cfg)

    def scaled(states, lam):
        return plain(states, (1.0 + 1e-6) ** 2 * lam)

    monkeypatch.setattr(entropy, "_reconstruction_bounds", scaled)
    assert td.additivity_gap(td.new_channel(3, 0.1), cfg) == want
    entropy._haar_sample.cache_clear()
    with pytest.raises(CovarianceMismatch, match="differ by"):
        td.additivity_gap(td.new_channel(3, 0.1), cfg)


def test_optimizer_config_rejects_negative_counts():
    for kwargs in ({"restarts": -1}, {"n_random": -1}, {"restarts": -5, "n_random": -3}):
        with pytest.raises(ConfigError):
            td.OptimizerConfig(**kwargs)
    td.OptimizerConfig(restarts=0, n_random=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(restarts=2.5),
        dict(restarts=np.float64(3.0)),
        dict(n_random=2.5),
        dict(n_random="20"),
        dict(seed=1.5),
        dict(seed="7"),
        dict(seed=None),
    ],
)
def test_optimizer_config_rejects_non_integers(kwargs):
    # restarts=2.5 and n_random=2.5 used to fail later inside numpy, and
    # seed=1.5 silently ran seed 1.
    with pytest.raises(ConfigError, match="must be an integer"):
        td.OptimizerConfig(**kwargs)
    td.OptimizerConfig(restarts=np.int64(3), n_random=np.int32(5), seed=np.uint8(7))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_optimizer_config_rejects_seeds_outside_the_philox_range(seed):
    # The streams reduce a seed mod 2^64: seed=-1 drew the samples of
    # 2^64 - 1 and reported -1.
    with pytest.raises(ConfigError, match="seed must be in"):
        td.OptimizerConfig(seed=seed)
    assert td.OptimizerConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_entropy_keys_never_open_a_scan_cells_stream():
    # No entropy key has a low byte of 0, and every scan key has, over all
    # kinds, d = 2..64 and every 16-bit t index.
    tags = [_TAG_SIMPLEX, _TAG_HAAR, _TAG_UNIT]
    assert len(set(tags)) == 3 and all(tag & 0xFF for tag in tags)
    t_idx = np.arange(65536, dtype=np.int64)
    for kind in SCAN_KINDS:
        for d in range(2, 65):
            assert not (_cell_key(kind, d, t_idx) & 0xFF).any(), (kind, d)


# ------------------------------------------------- the simplex probe


def bits(value):
    """Floats, nested in lists and tuples, as their hex form (-0.0 != 0.0)."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return float(value).hex() if isinstance(value, float) else value


def split_bits(split):
    """The (S1, S2) arrays of a _split_rows call as hex pairs, one per row."""
    return bits([list(pair) for pair in zip(*(s.tolist() for s in split))])


def schmidt_lists(d, data):
    """A Schmidt vector as a list of d floats, with zeros of either sign."""
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
    zeros = data.draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=d, max_size=d))
    weights = [w if z is None else 0.0 for w, z in zip(weights, zeros)]
    total = math.fsum(weights)
    lam = [w / total for w in weights] if total > 0.0 else [1.0] + [0.0] * (d - 1)
    return [z if z is not None and v == 0.0 else v for v, z in zip(lam, zeros)]


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 6),
    end=st.sampled_from(["lo", "zero", "hi"]),
    data=st.data(),
)
def test_negative_zero_entries_give_the_same_bits(d, end, data):
    # -0.0 and 0.0 are the same Schmidt weight and must give the same bits.
    lo, hi = td.t_range(d)
    ch = td.new_channel(d, {"lo": lo, "zero": 0.0, "hi": hi}[end])
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d))
    zeros = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
    weights = [0.0 if z else w for w, z in zip(weights, zeros)]
    total = math.fsum(weights)
    lam = [w / total for w in weights] if total > 0.0 else [1.0] + [0.0] * (d - 1)
    signed = [-0.0 if v == 0.0 else v for v in lam]
    assert bits(td.simplex_output_entropy(ch, signed)) == bits(td.simplex_output_entropy(ch, lam))


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 6),
    end=st.sampled_from(["lo", "zero", "hi"]),
    count=st.integers(1, 8),
    data=st.data(),
)
def test_split_rows_gives_each_row_its_one_row_bits(d, end, count, data):
    lo, hi = td.t_range(d)
    ch = td.new_channel(d, {"lo": lo, "zero": 0.0, "hi": hi}[end])
    lams = [schmidt_lists(d, data) for _ in range(count)]
    assert split_bits(entropy._split_rows(ch, lams)) == [split_bits(entropy._split_rows(ch, [lam]))[0] for lam in lams]


def probe_calls(monkeypatch, ch, cfg, values=None):
    """(result, rows of each _pair_entropies call) of one minimize_simplex_entropy.

    Every row of the probe reaches _pair_entropies, pruned or not.
    values, if given, maps the rows and their S1 array to the array the
    probe is handed instead, which its bounds then see as its values do.
    """
    plain, calls = entropy._pair_entropies, []

    def record(ch, rows):
        calls.append(np.asarray(rows).tolist())
        s1 = plain(ch, rows)
        return s1 if values is None else values(rows, s1)

    with monkeypatch.context() as m:
        m.setattr(entropy, "_pair_entropies", record)
        result = td.minimize_simplex_entropy(ch, cfg)
    return result, calls


# Partitions of m into at most d parts: one row per permutation orbit.
ORBIT_ROWS = {2: 250, 3: 91, 4: 34, 5: 18, 6: 11, 8: 5, 10: 3}


@pytest.mark.parametrize("d, m", [(2, 499), (3, 30), (4, 12), (5, 8), (6, 6), (8, 4), (10, 3)])
def test_simplex_lattice_is_the_finest_that_fits_the_budget(d, m):
    full = simplex_lattice_full(d, entropy._LATTICE_ROWS)
    assert len(full) == math.comb(m + d - 1, d - 1) <= entropy._LATTICE_ROWS < math.comb(m + d, d - 1)
    lattice = entropy._simplex_lattice(d)
    assert len(lattice) == ORBIT_ROWS[d]
    k = np.rint(lattice * m).astype(int)
    assert np.array_equal(lattice, k / m)
    assert (k >= 0).all() and (k.sum(axis=1) == m).all()
    # Nonincreasing and distinct: one row per orbit, and no orbit twice.
    assert (np.diff(k, axis=1) <= 0).all()
    assert len({tuple(row) for row in k.tolist()}) == len(k)
    # The permutations of the rows are every composition of m and, since
    # the rows are compositions, nothing else: sorting each composition
    # in descending order gives a row, and every row is reached.
    compositions = np.rint(full * m).astype(int).tolist()
    assert {tuple(sorted(row, reverse=True)) for row in compositions} == {tuple(row) for row in k.tolist()}


def test_simplex_lattice_is_built_once_per_d_and_read_only():
    for d in (2, 3, 5):
        lattice = entropy._simplex_lattice(d)
        assert entropy._simplex_lattice(d) is lattice
        with pytest.raises(ValueError):
            lattice[0, 0] = 0.5
        with pytest.raises(ValueError):
            lattice *= 2.0


def test_two_copy_entropy_is_the_same_on_every_permutation_of_a_row():
    # Permuting the Schmidt weights is a product unitary on the input, so
    # S1 + S2 may move by rounding only, zero and tied weights included.
    rng = np.random.default_rng(263)
    for d in (2, 3, 4, 5):
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, -1e-9, 1e-9, 0.5 * hi, hi, float(rng.uniform(lo, hi))):
            ch = td.new_channel(d, t)
            for case in range(6):
                # A zero weight, a tie, or both, wherever d leaves room.
                zero = case % 3 != 1
                tie = case % 3 != 0 and not (zero and d == 2)
                row = rng.dirichlet(np.ones(d))
                if zero:
                    row[d - 1] = 0.0
                if tie:
                    row[0] = row[1]
                row /= row.sum()
                perms = np.array(list(itertools.permutations(row)))
                _check_schmidt_rows(perms)
                s1, s2 = entropy._split_rows(ch, perms)
                total = s1 + s2
                assert np.ptp(total) <= 4e-15, (d, t, row.tolist(), np.ptp(total))


def orbit_probe_cells():
    # The benchmark's additivity cells (restarts 20, a 9-point grid over
    # the t range at d = 3 and 4) on two seeds, then d = 2..10.
    for seed in (5, 11):
        cfg = td.OptimizerConfig(restarts=20, n_random=120, seed=seed)
        for d in (3, 4):
            for t in np.linspace(-1.0 / (d - 1), 1.0 / (d + 1), 9).tolist():
                yield td.new_channel(d, t), cfg
    cfg = td.OptimizerConfig(restarts=20, seed=0)
    for d in range(2, 11):
        for t in np.linspace(*td.t_range(d), 9).tolist() + [-1e-6, 1e-6, -1e-9, 1e-9, -1e-7, 3e-8]:
            yield td.new_channel(d, t), cfg


@pytest.fixture
def cold_probe_cache():
    """An empty _probe_rows cache, emptied again after the test."""
    entropy._probe_rows.cache_clear()
    yield
    entropy._probe_rows.cache_clear()


def full_lattice_with_one_vertex(d):
    """Every row of the full lattice but the vertices, after the one vertex e_1."""
    full = simplex_lattice_full(d, entropy._LATTICE_ROWS)
    return np.vstack([np.eye(d)[:1], full[full.max(axis=1) < 1.0]])


def test_probe_on_orbits_gives_the_full_lattice_probe(monkeypatch, cold_probe_cache):
    # Wherever |t| >= 1e-6 the orbit rows give the minimum and argmin of
    # every lattice row bit for bit.  Nearer t = 0 the entropy is flat to
    # rounding and the minimum may move by a few ulp, the argmin not.
    # At t = 0 itself every row has the same value, bit for bit.  Both
    # probes hold the vertex orbit as e_1 in row 0, whose argument is
    # test_every_vertex_has_the_closed_form_and_e_1_is_never_pruned.  Each
    # call builds its rows afresh, so the full lattice is used where it
    # is patched in.
    for ch, cfg in orbit_probe_cells():
        entropy._probe_rows.cache_clear()
        val, arg = td.minimize_simplex_entropy(ch, cfg)
        with monkeypatch.context() as m:
            m.setattr(entropy, "_simplex_lattice", full_lattice_with_one_vertex)
            entropy._probe_rows.cache_clear()
            want_val, want_arg = td.minimize_simplex_entropy(ch, cfg)
        assert bits(arg.values.tolist()) == bits(want_arg.values.tolist()), (ch.d, ch.t)
        if abs(ch.t) >= 1e-6 or ch.t == 0.0:
            assert bits(val) == bits(want_val), (ch.d, ch.t)
        else:
            assert abs(val - want_val) <= 4e-15, (ch.d, ch.t)


@pytest.mark.parametrize("restarts", [0, 7])
def test_probe_is_one_batch_of_vertices_barycenter_draws_and_lattice(monkeypatch, restarts):
    # The lattice, whose first row is the vertex e_1 and stands for every
    # vertex, then the barycenter and the draws.
    d = 4
    cfg = td.OptimizerConfig(restarts=restarts, seed=3)
    _, calls = probe_calls(monkeypatch, td.new_channel(d, -0.2), cfg)
    # Drawn one row at a time: normalized exponential spacings of d
    # doubles, summed in order.
    gen = philox_stream(3, _TAG_SIMPLEX)
    draws = []
    for _ in range(restarts):
        spacings = (-np.log1p(-gen.random(d))).tolist()
        total = spacings[0]
        for x in spacings[1:]:
            total += x
        draws.append([x / total for x in spacings])
    lattice = entropy._simplex_lattice(d).tolist()
    assert lattice[0] == np.eye(d)[0].tolist()
    assert calls == [lattice + [[1.0 / d] * d] + draws]


def test_probe_takes_the_first_k_random_rows_of_any_larger_restarts(monkeypatch):
    ch = td.new_channel(5, -0.1)
    first = len(entropy._simplex_lattice(5)) + 1
    _, [every] = probe_calls(monkeypatch, ch, td.OptimizerConfig(restarts=12, seed=29))
    for k in (0, 1, 4, 11):
        _, [rows] = probe_calls(monkeypatch, ch, td.OptimizerConfig(restarts=k, seed=29))
        assert len(rows) == first + k
        assert bits(rows[first:]) == bits(every[first : first + k]), k


@pytest.mark.parametrize("row", ["barycenter", "draw", "lattice"])
def test_interior_row_that_beats_every_vertex_is_the_argmin(monkeypatch, row):
    # One interior row is handed a value below the vertex e_1, row 0, which
    # stands for every vertex.  By more than 1e-12 it is the argmin; by
    # less, e_1 is reported, with the row's lower value.  The value is
    # handed in through the row's S1, which its bounds see too, so the row
    # is not pruned.  e_1 is evaluated wherever its floor does not clear the
    # batch's ceiling, up to 1e-3 below it here; at 0.1 below it is pruned,
    # since a row provably lies below it, and that row is the argmin.
    d = 3
    ch = td.new_channel(d, -0.3)
    cfg = td.OptimizerConfig(restarts=4, seed=9)
    lattice = entropy._simplex_lattice(d)
    index = {
        "barycenter": len(lattice),
        "draw": len(lattice) + 1,
        "lattice": int(np.flatnonzero((lattice > 0).all(axis=1))[0]),
    }[row]
    vertex = td.simplex_output_entropy(ch, np.eye(d)[0].tolist())
    s2 = td.entropy_split(ch, entropy._probe_rows(cfg.seed, d, cfg.restarts)[index].tolist()).s2
    plain, kernel_rows = entropy._secular_block_roots, []

    def recording(ch, rows):
        kernel_rows.append(rows.tolist())
        return plain(ch, rows)

    monkeypatch.setattr(entropy, "_secular_block_roots", recording)
    for below, vertex_evaluated, vertex_wins in (
        (0.1, False, False),
        (1e-3, True, False),
        (1e-9, True, False),
        (1e-13, True, True),
    ):
        lowered = (vertex - below - s2) + s2
        assert abs(lowered - (vertex - below)) <= 1e-15

        def values(rows, s1):
            s1[index] = vertex - below - s2
            return s1

        (val, arg), [rows] = probe_calls(monkeypatch, ch, cfg, values)
        assert min(rows[index]) > 0.0 and rows[0] == np.eye(d)[0].tolist()
        assert (rows[0] in kernel_rows[-1]) == vertex_evaluated and rows[index] in kernel_rows[-1]
        assert bits(val) == bits(lowered)
        if vertex_wins:
            assert arg.values.tolist() == np.eye(d)[0].tolist()
        else:
            assert arg.values.tolist() == rows[index]


def test_probe_propagates_not_psd(monkeypatch):
    # The fault sits on the last row the kernel is handed, an evaluated
    # one: a pruned row's roots are never computed, so a fault there would
    # go unseen.
    plain = entropy._secular_block_roots

    def negative_root(ch, rows):
        roots = plain(ch, rows)
        roots[-1, -1] = -1e-9
        return roots

    monkeypatch.setattr(entropy, "_secular_block_roots", negative_root)
    with pytest.raises(NotPSD):
        td.minimize_simplex_entropy(td.new_channel(3, -0.25), td.OptimizerConfig(restarts=2))


def test_probe_checks_every_row(monkeypatch, cold_probe_cache):
    def off_simplex(u):
        d = u.shape[1]
        return np.tile([1.5] + [-0.5 / (d - 1)] * (d - 1), (len(u), 1))

    monkeypatch.setattr(entropy, "_lambda_rows", off_simplex)
    with pytest.raises(OutOfRange):
        td.minimize_simplex_entropy(td.new_channel(3, -0.25), td.OptimizerConfig(restarts=1))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_a_t_grid_builds_its_probe_rows_once_and_gets_the_cold_bits(monkeypatch, cold_probe_cache, d):
    # The grid holds both ends of the t range and t = 0.  Warm, one set of
    # probe rows serves every t; cleared before every call, each t builds
    # its own.  Both give the same value and argmin, bit for bit.
    lo, hi = td.t_range(d)
    grid = sorted({*np.linspace(lo, hi, 9).tolist(), 0.0})
    assert grid[0] == lo and grid[-1] == hi
    cfg = td.OptimizerConfig(restarts=7, seed=43)
    draws = count_calls(monkeypatch, "_lambda_rows")

    def probe(t):
        val, arg = td.minimize_simplex_entropy(td.new_channel(d, t), cfg)
        return bits([val, arg.values.tolist()])

    warm = [probe(t) for t in grid]
    assert len(draws) == 1
    cold = []
    for t in grid:
        entropy._probe_rows.cache_clear()
        cold.append(probe(t))
    assert len(draws) == 1 + len(grid)
    assert warm == cold


def test_probe_rows_are_keyed_by_seed_d_and_restarts_and_read_only(monkeypatch, cold_probe_cache):
    draws = count_calls(monkeypatch, "_lambda_rows")
    cfg = td.OptimizerConfig(restarts=4, seed=11)
    td.minimize_simplex_entropy(td.new_channel(3, -0.2), cfg)
    td.minimize_simplex_entropy(td.new_channel(3, 0.1), cfg)
    assert [args[0].shape for args in draws] == [(4, 3)]
    # n_random is no part of the key.
    td.minimize_simplex_entropy(td.new_channel(3, 0.2), td.OptimizerConfig(restarts=4, n_random=9, seed=11))
    assert len(draws) == 1
    for d, other in (
        (3, td.OptimizerConfig(restarts=4, seed=12)),
        (4, cfg),
        (3, td.OptimizerConfig(restarts=5, seed=11)),
    ):
        td.minimize_simplex_entropy(td.new_channel(d, -0.2), other)
    assert len(draws) == 4
    info = entropy._probe_rows.cache_info()
    assert info.maxsize == info.currsize == 1

    rows = entropy._probe_rows(11, 3, 4)
    assert rows.shape == (len(entropy._simplex_lattice(3)) + 1 + 4, 3)
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0.5
    with pytest.raises(ValueError):
        rows *= 2.0


def test_the_probe_argmin_is_a_writeable_copy(cold_probe_cache):
    # Writing into a returned argmin must not reach the shared rows: the
    # next call gives the same bits, and its argmin is a new array.
    cfg = td.OptimizerConfig(restarts=3, seed=5)
    for d, t in ((3, -0.3), (4, 0.1), (2, 0.0)):
        ch = td.new_channel(d, t)
        val, arg = td.minimize_simplex_entropy(ch, cfg)
        want = bits([val, arg.values.tolist()])
        assert arg.values.flags.writeable
        arg.values[:] = -1.0
        again_val, again = td.minimize_simplex_entropy(ch, cfg)
        assert bits([again_val, again.values.tolist()]) == want
        assert not np.shares_memory(again.values, arg.values)
        assert not np.shares_memory(again.values, entropy._probe_rows(cfg.seed, d, cfg.restarts))


def retained_bytes(arrays):
    """Bytes that arrays keep alive: the buffer of each array's owner, followed through .base, counted once."""
    owners = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values())


@pytest.mark.parametrize("d, probe_bytes, haar_bytes", [(3, 3_408, 4_800), (24, 10_176, 38_400)])
def test_cache_entries_keep_only_rows_and_weights(cold_probe_cache, cold_haar_cache, d, probe_bytes, haar_bytes):
    # At the default restarts = 50 and n_random = 200: d doubles per probe
    # row and d doubles of weights per state.  The covariance check keeps
    # nothing.
    restarts, count = 50, 200
    rows = entropy._probe_rows(0, d, restarts)
    assert retained_bytes([rows]) == (len(entropy._simplex_lattice(d)) + 1 + restarts) * d * 8 == probe_bytes
    assert retained_bytes([entropy._haar_sample(0, d, count)]) == count * d * 8 == haar_bytes


def test_pair_index_is_built_once_per_d_and_read_only():
    for d in (2, 3, 5):
        a, b = entropy._pair_index(d)
        assert entropy._pair_index(d)[0] is a
        want_a, want_b = np.tril_indices(d, -1)
        assert a.tolist() == want_a.tolist() and b.tolist() == want_b.tolist()
        for index in (a, b):
            with pytest.raises(ValueError):
                index[0] = 1


def test_probe_returns_the_best_vertex_bit_for_bit():
    # The minimum over the whole probe is the exact value of the vertex
    # e_1, in bits, at the argmin e_1; every other vertex agrees with it to
    # rounding.
    cfg = td.OptimizerConfig(restarts=20, seed=17)
    eps = np.finfo(float).eps
    for d in (2, 3, 4, 5, 6):
        for t in np.linspace(*td.t_range(d), 9).tolist():
            ch = td.new_channel(d, t)
            val, arg = td.minimize_simplex_entropy(ch, cfg)
            vertex = [td.simplex_output_entropy(ch, np.eye(d)[a].tolist()) for a in range(d)]
            assert bits(val) == bits(vertex[0]), (d, t)
            assert arg.values.tolist() == np.eye(d)[0].tolist(), (d, t)
            assert max(vertex) - min(vertex) <= 16 * d * eps * max(val, 1.0), (d, t)


def search_cases():
    for d in (2, 3, 4, 5):
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
            yield td.new_channel(d, t)


def test_probe_gives_the_value_and_argmin_of_a_call_per_row(monkeypatch):
    # The probe's one batch against a fresh simplex_output_entropy call
    # per row, with the tie rule applied here: the same value and argmin.
    cfg = td.OptimizerConfig(restarts=3, seed=23)
    for ch in search_cases():
        (val, arg), [rows] = probe_calls(monkeypatch, ch, cfg)
        values = [td.simplex_output_entropy(ch, row) for row in rows]
        best = min(values)
        want = rows[0 if values[0] <= best + 1e-12 else values.index(best)]
        assert bits(val) == bits(best), (ch.d, ch.t)
        assert bits(arg.values.tolist()) == bits(want), (ch.d, ch.t)


def test_probe_gives_each_row_the_bits_of_a_one_row_split(monkeypatch):
    # Every evaluated row of the batch, lattice and barycenter and draws,
    # gets the S1 + S2 bits of a one-row _split_rows call.  The vertex e_1
    # is evaluated; a pruned row (+inf) lies above the least value by more
    # than half the pruning margin.
    cfg = td.OptimizerConfig(restarts=3, seed=41)
    plain, evaluations = entropy._row_entropies, []

    def record(ch, rows):
        evaluations.append((ch, rows, plain(ch, rows)))
        return evaluations[-1][2]

    monkeypatch.setattr(entropy, "_row_entropies", record)
    for ch in search_cases():
        td.minimize_simplex_entropy(ch, cfg)
    assert len(evaluations) == len(list(search_cases()))
    for ch, rows, batch in evaluations:
        alone = np.array([all_rows_values(ch, [row])[0] for row in rows])
        evaluated = np.isfinite(batch)
        assert evaluated[0], (ch.d, ch.t)
        assert bits(batch[evaluated].tolist()) == bits(alone[evaluated].tolist()), (ch.d, ch.t)
        assert (alone[~evaluated] > alone.min() + entropy._prune_margin(ch.d) / 2).all(), (ch.d, ch.t)


def test_probe_makes_one_secular_kernel_call(monkeypatch):
    # One secular-roots kernel call per probe, over the rows that can still
    # hold the minimum at once, the vertex e_1 first; at t = 0 that is
    # every row, and at the lower end of the t range fewer.
    plain, calls = entropy._secular_block_roots, []

    def counted(ch, rows):
        calls.append(rows.tolist())
        return plain(ch, rows)

    monkeypatch.setattr(entropy, "_secular_block_roots", counted)
    cfg = td.OptimizerConfig(restarts=20)
    every = entropy._probe_rows(cfg.seed, 4, cfg.restarts).tolist()
    for t, pruned in ((td.t_range(4)[0], True), (0.0, False)):
        calls.clear()
        td.minimize_simplex_entropy(td.new_channel(4, t), cfg)
        [rows] = calls
        assert rows[0] == np.eye(4)[0].tolist()
        assert all(row in every for row in rows)
        assert (len(rows) < len(every)) == pruned, t


def test_probe_after_a_failed_evaluation_gives_the_clean_result(monkeypatch):
    # A probe whose evaluation fails raises, and the next probe evaluates
    # every row again and returns the result of a clean run.
    ch = td.new_channel(3, -0.25)
    cfg = td.OptimizerConfig(restarts=3, seed=37)
    plain = entropy._pair_entropies
    rows, fail = [], []

    def fails_when_asked(ch, lams):
        rows.extend(tuple(lam) for lam in lams)
        if fail:
            fail.clear()
            raise NotPSD("this evaluation fails")
        return plain(ch, lams)

    monkeypatch.setattr(entropy, "_pair_entropies", fails_when_asked)
    want = td.minimize_simplex_entropy(ch, cfg)
    clean = rows[:]
    rows.clear()
    fail.append(True)
    with pytest.raises(NotPSD):
        td.minimize_simplex_entropy(ch, cfg)
    failed = rows[:]
    rows.clear()
    got = td.minimize_simplex_entropy(ch, cfg)
    assert failed == clean
    assert rows == clean
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1].values.tolist()) == bits(want[1].values.tolist())


def test_probe_keeps_no_state_between_calls(monkeypatch):
    # A, then B at the same d, against B alone.  The probes share their
    # vertices and lattice, so values kept across calls would show, in
    # the result or in the rows B evaluates.
    cfg = td.OptimizerConfig(restarts=3, seed=31)
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        a, b = td.new_channel(d, lo), td.new_channel(d, 0.5 * hi)
        want, want_rows = probe_calls(monkeypatch, b, cfg)
        td.minimize_simplex_entropy(a, cfg)
        got, got_rows = probe_calls(monkeypatch, b, cfg)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1].values.tolist()) == bits(want[1].values.tolist())
        assert got_rows == want_rows


# ------------------------------------------ entropy bounds and pruning


def bound_rows(d, rng):
    """Schmidt rows of every kind the evaluator sees, vertices and Haar weights included.

    Up to d = 8: two vertices, the barycenter, every lattice row that is
    not a vertex (zero weights from d = 3 on, repeated weights from d = 2),
    Dirichlet rows with weights down to 1e-30, and two Haar states' weights.
    Past d = 8: a vertex and two Haar states' weights.
    """
    rows = [np.eye(d)[0], np.eye(d)[d - 1]]
    if d <= 8:
        rows.append(np.full(d, 1.0 / d))
        rows += [row for row in entropy._simplex_lattice(d) if row.max() < 1.0]
        for tiny in (1e-12, 1e-20, 1e-30):
            row = rng.dirichlet(np.ones(d))
            row[-1] = tiny
            rows.append(row / row.sum())
    else:
        rows = rows[:1]
    rows += list(entropy._schmidt_weights(haar_states(2, d * d, rng), d))
    rows = np.array(rows)
    _check_schmidt_rows(rows)
    return rows


def secular_bounds(ch, rows):
    """(floor, ceiling) of each row's S2, from the moments of its secular block; two (N,) arrays."""
    trace, frobenius = entropy._secular_block_moments(ch, rows)
    ceiling = [entropy._coincidence_ceiling(trace, f, rows.shape[1]) for f in frobenius.tolist()]
    return entropy._renyi_floor(trace, frobenius), np.array(ceiling)


def bound_ts(d):
    """Both ends of the t range, +-1e-9, 0 and the inside of a 5-point grid."""
    lo, hi = td.t_range(d)
    return [lo, hi, -1e-9, 1e-9, 0.0] + np.linspace(lo, hi, 5)[1:-1].tolist()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 24])
def test_secular_entropy_bounds_bracket_the_entropy(d):
    # The computed S2 lies within half the pruning margin of its bounds,
    # and the 50-digit S2 of the same row within 1e-12: the bounds are true
    # bounds, not only bounds up to the margin.  S1 is the same array in
    # S and in both bounds, so S2 carries the whole comparison.
    rng = np.random.default_rng(1000 + d)
    rows = bound_rows(d, rng)
    half = entropy._prune_margin(d) / 2
    for t in bound_ts(d):
        ch = td.new_channel(d, t)
        floor, ceiling = secular_bounds(ch, rows)
        _, s2 = entropy._split_rows(ch, rows)
        assert (floor <= ceiling + 1e-15).all(), (d, t)
        assert (floor - half <= s2).all() and (s2 <= ceiling + half).all(), (d, t)
        for row, low, high in zip(rows, floor, ceiling):
            with mpmath.workdps(50):
                exact = float(mp_entropy(mp_secular_block_roots(t, row)))
            assert low - 1e-12 <= exact <= high + 1e-12, (d, t, row.tolist(), low, exact, high)


def test_the_bounds_are_the_entropy_where_the_roots_take_their_form():
    # A vertex's secular roots are ((1 + (d-1) t) / d)^2 and d - 1 times
    # c1.  For t >= 0 the first is the largest, the ceiling's own form; at
    # t = -1/(d-1) it is 0, so the roots are flat on their support, the
    # floor's; at t = 0 every block is c1 I and the two bounds meet.
    for d in (2, 3, 5, 8, 16):
        lo, hi = td.t_range(d)
        for t, sharp in ((lo, 0), (0.0, 0), (0.0, 1), (0.5 * hi, 1), (hi, 1)):
            ch = td.new_channel(d, t)
            bounds = secular_bounds(ch, np.eye(d))
            _, s2 = entropy._split_rows(ch, np.eye(d))
            assert np.max(np.abs(bounds[sharp] - s2)) <= 1e-14, (d, t, sharp)
        floor, ceiling = secular_bounds(td.new_channel(d, 0.0), np.full((1, d), 1.0 / d))
        assert abs(floor[0] - ceiling[0]) <= 1e-15, d


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
    mass=st.floats(1e-3, 1.0),
    shape=st.sampled_from(["any", "one large", "flat on a support"]),
)
@example(weights=[0.0, 5e-324], mass=0.5, shape="any")
def test_coincidence_bounds_bracket_the_entropy_of_any_distribution(weights, mass, shape):
    # No channel: any g >= 0 with sum M and sum of squares F has
    # M ln(M / F) <= -sum g ln g <= the index-of-coincidence ceiling.  At
    # (a, b, ..., b), a >= b, the ceiling is the entropy itself, and on
    # equal weights over a support the floor is.
    d = len(weights)
    if shape == "one large":
        weights = [max(weights)] + [min(weights)] * (d - 1)
    elif shape == "flat on a support":
        weights = [1.0 if w >= 0.5 else 0.0 for w in weights]
    total = math.fsum(weights)
    assume(total > 0.0)
    # Normalise before scaling: mass * w underflows to 0 for a subnormal
    # w, while w / total is in [0, 1] and its largest entry is >= 1/d.
    g = np.array([mass * (w / total) for w in weights])
    trace, frobenius = float(g.sum()), float(g @ g)
    floor = float(entropy._renyi_floor(trace, frobenius))
    ceiling = entropy._coincidence_ceiling(trace, frobenius, d)
    with mpmath.workdps(50):
        exact = float(mp_entropy([mpmath.mpf(x) for x in g]))
    assert floor - 1e-12 <= exact <= ceiling + 1e-12, (g.tolist(), floor, exact, ceiling)
    if shape == "one large":
        assert ceiling == pytest.approx(exact, abs=1e-12)
    if shape == "flat on a support":
        assert floor == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize(
    "d, seed, restarts, n_random",
    [(3, 1, 20, 120), (3, 17, 20, 120), (4, 1, 20, 120), (4, 17, 20, 120), (8, 0, 2000, 5000), (16, 0, 500, 2000)],
)
def test_the_batch_ceiling_keeps_the_rows_of_the_least_ceiling(d, seed, restarts, n_random):
    # The evaluator prunes against S1 + ceiling of the row with the least
    # S1 + floor, which is never below the least S1 + ceiling of the batch,
    # so it keeps at least the rows that the least ceiling keeps.  On the
    # batches of the perfbench additivity workload and of the CI runs at
    # d = 8 and 16 it keeps exactly those.
    lo, hi = td.t_range(d)
    for t in np.linspace(lo, hi, 9):
        ch = td.new_channel(d, t)
        for rows in entropy._probe_rows(seed, d, restarts), entropy._haar_sample(seed, d, n_random):
            s1 = entropy._pair_entropies(ch, rows)
            floor, ceiling = secular_bounds(ch, rows)
            want = s1 + floor <= (s1 + ceiling).min() + entropy._prune_margin(d)
            assert np.isfinite(entropy._row_entropies(ch, rows)).tolist() == want.tolist(), (t, len(rows))


def test_the_pruning_margin_covers_the_rounding_count_at_every_d():
    # Twice the count of _prune_margin's docstring, at 30 digits: the S2
    # shift of a row sum off by SCHMIDT_SUM_TOL, the eigvalsh error of
    # d roots of d eps each and the 0 ln 0 clamp.  The margin is 1e-9
    # wherever that covers it, up to d = 241, and the count past that.
    eta = lambda x: -x * mpmath.log(x)
    with mpmath.workdps(30):
        eps, clamp, shift = mpmath.mpf(2) ** -52, mpmath.mpf(ENTROPY_CLAMP), mpmath.mpf("3e-12")
        for d in range(2, 1025):
            count = shift * mpmath.log(d / shift) + d * eta(d * eps) + d * eta(clamp)
            margin = entropy._prune_margin(d)
            assert margin >= 2 * count * (1 - mpmath.mpf("1e-14")), d
            if d <= 241:
                assert margin == 1e-9, d
            else:
                assert 2 * count > mpmath.mpf("1e-9") and margin == pytest.approx(float(2 * count), rel=1e-14), d


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 64])
def test_every_vertex_has_the_closed_form_and_e_1_is_never_pruned(d):
    # The d vertices are one permutation orbit, so the probe holds only
    # e_1, row 0.  Over the 9-point grid, t = 0 and +-1e-9: every vertex's
    # entropy, from one _split_rows call with the bits of
    # simplex_output_entropy, is 2h within 16 d eps max(2h, 1), and the
    # evaluator never prunes e_1, on the probe rows of the benchmark's
    # seeds and more.
    eps = np.finfo(float).eps
    vertices = np.array([td.SchmidtVector.vertex(d, a).values for a in range(d)])
    for t in np.linspace(*td.t_range(d), 9).tolist() + [0.0, -1e-9, 1e-9]:
        ch = td.new_channel(d, t)
        two_h = 2.0 * td.min_entropy_closed_form(ch)
        off = all_rows_values(ch, vertices) - two_h
        assert np.abs(off).max() <= 16 * d * eps * max(two_h, 1.0), (d, t, off.tolist())
        for seed, restarts in ((0, 0), (1, 20), (17, 20), (3, 200)):
            rows = entropy._probe_rows(seed, d, restarts)
            assert rows[0].tolist() == np.eye(d)[0].tolist()
            assert math.isfinite(entropy._row_entropies(ch, rows)[0]), (d, t, seed, restarts)


@pytest.mark.parametrize("d", [242, 300])
def test_pruning_keeps_the_bits_of_an_evaluation_of_every_row_past_d_241(monkeypatch, d):
    # Where _prune_margin grows past 1e-9, the pruned probe and Haar leg
    # still give the bits of an evaluation of every row, and so do they
    # with the margin held at 1e-9: pruning decides only which rows get
    # +inf.  restarts 5 and n_random 20, as CI runs d = 300.
    cfg = td.OptimizerConfig(restarts=5, n_random=20, seed=0)
    lo, hi = td.t_range(d)
    for t in (lo, -1e-9, 0.0, hi):
        ch = td.new_channel(d, t)
        want_val, want_arg = all_rows_probe(ch, cfg)
        min_random = float(all_rows_values(ch, entropy._haar_sample(0, d, 20)).min())
        want = bits([want_val, want_arg, min_random])
        val, arg = td.minimize_simplex_entropy(ch, cfg)
        assert bits([val, arg.values.tolist(), float(_random_state_entropies(ch, cfg).min())]) == want, t
        with monkeypatch.context() as m:
            m.setattr(entropy, "_prune_margin", lambda d: entropy._PRUNE_MARGIN)
            val, arg = td.minimize_simplex_entropy(ch, cfg)
            assert bits([val, arg.values.tolist(), float(_random_state_entropies(ch, cfg).min())]) == want, t


def all_rows_probe(ch, cfg):
    """(value, argmin row) of the probe with every row evaluated by one _split_rows call, then the argmin rule."""
    rows = entropy._probe_rows(cfg.seed, ch.d, cfg.restarts)
    values = all_rows_values(ch, rows)
    best = int(np.argmin(values))
    argmin = 0 if values[0] <= values[best] + 1e-12 else best
    return float(values[best]), rows[argmin].tolist()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_pruning_keeps_the_bits_of_an_evaluation_of_every_row(d):
    # The pruned probe and additivity_gap against an evaluation of every
    # probe row and every Haar state, as float hex, over a 9-point grid
    # with both ends of the t range and t = 0.  restarts and n_random each
    # take 0, 3, 20 and 500.
    lo, hi = td.t_range(d)
    grid = sorted({*np.linspace(lo, hi, 8).tolist(), 0.0})
    assert grid[0] == lo and grid[-1] == hi and 0.0 in grid
    for seed in (0, 17):
        for restarts, n_random in ((0, 500), (3, 20), (20, 3), (500, 0)):
            cfg = td.OptimizerConfig(restarts=restarts, n_random=n_random, seed=seed)
            for t in grid:
                ch = td.new_channel(d, t)
                val, arg = td.minimize_simplex_entropy(ch, cfg)
                want_val, want_arg = all_rows_probe(ch, cfg)
                assert bits([val, arg.values.tolist()]) == bits([want_val, want_arg]), (seed, cfg, t)
                weights = entropy._haar_sample(seed, d, max(n_random, 1))
                min_random = float(all_rows_values(ch, weights).min())
                gap = min(want_val, min_random) - 2.0 * td.min_entropy_closed_form(ch)
                assert bits(list(td.additivity_gap(ch, cfg))) == bits([gap, want_val, min_random]), (seed, cfg, t)


# ------------------------------------------ concavity on the Schmidt simplex


def chord_cells():
    """(d, t): 9-point grids over [lo, hi], plus 0.999 lo, 0.999 hi and +-1e-9."""
    for d in (2, 3, 4, 5, 6, 8):
        lo, hi = td.t_range(d)
        for t in np.linspace(lo, hi, 9).tolist() + [0.999 * lo, 0.999 * hi, -1e-9, 1e-9]:
            yield d, t


def test_two_copy_entropy_is_concave_on_the_schmidt_simplex():
    # Chord slacks S(w a + (1-w) b) - w S(a) - (1-w) S(b) with endpoints
    # from Dirichlet(alpha): alpha = 1 fills the simplex, and small alpha
    # puts a and b near its faces.  Concavity is what puts the minimum of
    # S at a vertex, so it is what minimize_simplex_entropy's probe rests
    # on.  Every float slack is rounding-sized at worst, and the worst
    # chord, recomputed at 50 digits from the same a, b and w, is not
    # negative beyond that precision.
    rng = np.random.default_rng(251)
    chords = 100
    worst = (math.inf, None)
    for d, t in chord_cells():
        ch = td.new_channel(d, t)
        for alpha in (1.0, 0.2, 0.05):
            a = rng.dirichlet(np.full(d, alpha), size=chords)
            b = rng.dirichlet(np.full(d, alpha), size=chords)
            w = rng.uniform(size=chords)
            rows = np.vstack([a, b, w[:, None] * a + (1.0 - w[:, None]) * b])
            _check_schmidt_rows(rows)
            s1, s2 = entropy._split_rows(ch, rows.tolist())
            s = (s1 + s2).reshape(3, chords)
            slack = s[2] - w * s[0] - (1.0 - w) * s[1]
            i = int(np.argmin(slack))
            if slack[i] < worst[0]:
                worst = (float(slack[i]), (t, a[i].tolist(), b[i].tolist(), float(w[i]), float(s[2, i])))
    slack, (t, a, b, w, s_mid) = worst
    assert slack >= -1e-13, worst
    with mpmath.workdps(50):
        wm = mpmath.mpf(w)
        mid = [wm * mpmath.mpf(x) + (1 - wm) * mpmath.mpf(y) for x, y in zip(a, b)]
        exact_mid = mp_two_copy_entropy(t, mid)
        exact = exact_mid - wm * mp_two_copy_entropy(t, a) - (1 - wm) * mp_two_copy_entropy(t, b)
        assert exact >= mpmath.mpf("-1e-40"), (exact, worst)
    # The oracle evaluates the same function as _split_rows.
    assert abs(float(exact_mid) - s_mid) <= 1e-12, (exact_mid, worst)
