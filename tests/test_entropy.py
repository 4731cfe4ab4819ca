import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdchan as td
from tdchan import entropy
from tdchan.entropy import (
    _HAAR_STACK,
    _TAG_HAAR,
    _project,
    _random_state_entropy,
    _schmidt_of,
    project_to_simplex,
)
from tdchan.errors import ConfigError, NotPSD
from tdchan.sampling import haar_state, rng_stream

from oracles import (
    dense_two_copy_spectrum,
    entropy_brute,
    kraus_two_copy_output,
    simplex_projection_bisect,
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
    cfg = td.OptimizerConfig(restarts=8, seed=5)
    for d, t in ((2, -1.0), (3, -0.5), (3, 0.25), (4, -0.2)):
        ch = td.new_channel(d, t)
        best, arg = td.min_output_entropy(ch, cfg)
        assert best == pytest.approx(td.min_entropy_closed_form(ch), abs=1e-9)
        assert np.linalg.norm(arg) == pytest.approx(1.0, abs=1e-12)


def test_project_to_simplex():
    assert project_to_simplex(np.array([1.5, 0.5])) == pytest.approx([1.0, 0.0])
    assert project_to_simplex(np.array([0.2, 0.2])) == pytest.approx([0.5, 0.5])
    out = project_to_simplex(np.array([-1.0, 0.0, 3.0]))
    assert out == pytest.approx([0.0, 0.0, 1.0])
    rng = np.random.default_rng(229)
    for _ in range(25):
        x = rng.normal(size=6) * 3.0
        p = project_to_simplex(x)
        assert np.all(p >= -1e-15)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)


def test_float_projection_is_project_to_simplex():
    rng = np.random.default_rng(233)
    for d in (2, 3, 5, 8):
        for scale in (0.1, 1.0, 100.0):
            x = (rng.normal(size=d) * scale).tolist()
            p = _project(x)
            assert p == project_to_simplex(np.array(x)).tolist()
            # Both find theta to rounding at the scale of x.
            tol = 8.0 * np.finfo(float).eps * max(1.0, float(np.abs(x).max()))
            assert p == pytest.approx(simplex_projection_bisect(x), abs=tol)
            # The optimizer's map from its d-1 free coordinates.
            free = x[:-1]
            full = np.append(free, 1.0 - np.sum(free))
            assert _schmidt_of(free) == pytest.approx(project_to_simplex(full).tolist(), abs=tol)


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
    # n_random past one stack and not a multiple of it; 0 still draws one state.
    for d, t, n_random in ((2, -1.0, 0), (3, -0.3, _HAAR_STACK + 5), (4, 0.15, 2 * _HAAR_STACK)):
        ch = td.new_channel(d, t)
        cfg = td.OptimizerConfig(n_random=n_random, seed=19)
        states = [haar_state(d * d, rng_stream(19, _TAG_HAAR, r)) for r in range(max(n_random, 1))]
        want = min(entropy_brute(np.linalg.eigvalsh(kraus_two_copy_output(ch, v))) for v in states)
        assert _random_state_entropy(ch, cfg) == pytest.approx(want, abs=1e-12)


def test_optimizer_config_rejects_negative_counts():
    for kwargs in ({"restarts": -1}, {"n_random": -1}, {"restarts": -5, "n_random": -3}):
        with pytest.raises(ConfigError):
            td.OptimizerConfig(**kwargs)
    td.OptimizerConfig(restarts=0, n_random=0)


def test_optimizer_config_rejects_non_finite_tol():
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            td.OptimizerConfig(tol=tol)
    td.OptimizerConfig(tol=-1e-18)


# ------------------------------------------------- the lockstep search


def bits(value):
    """Floats, nested in lists and tuples, as their hex form (-0.0 != 0.0)."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return float(value).hex() if isinstance(value, float) else value


def unmemoized(ch):
    return lambda x: entropy.simplex_output_entropy(ch, _schmidt_of(x))


def memoized(ch):
    """unmemoized(ch) with its values kept by projected vector."""
    values = {}

    def fun(x):
        key = tuple(_schmidt_of(x))
        if key not in values:
            values[key] = entropy.simplex_output_entropy(ch, list(key))
        return values[key]

    return fun


def search_cases():
    for d in (2, 3, 4, 5):
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
            yield td.new_channel(d, t)


def exit_cases():
    for d in (2, 3, 4, 5, 6):
        lo, hi = td.t_range(d)
        for t in (lo, 0.9 * lo, 0.5 * lo, 0.0, 0.1 * hi, 0.5 * hi, hi):
            yield td.new_channel(d, t)


def recorded_starts(monkeypatch, cfg, channels):
    """(ch, fun, x0, options, result) for every start of every search.

    Each start is recorded at the _nelder_mead_steps generator it runs
    on; fun is memoized(ch), one per search, to rerun starts on.
    """
    steps = entropy._nelder_mead_steps
    runs = []
    for ch in channels:

        def record(x0, *options, ch=ch, fun=memoized(ch)):
            result = yield from steps(x0, *options)
            runs.append((ch, fun, list(x0), options, result))
            return result

        with monkeypatch.context() as m:
            m.setattr(entropy, "_nelder_mead_steps", record)
            td.minimize_simplex_entropy(ch, cfg)
    return runs


def test_memoized_objective_gives_the_unmemoized_search(monkeypatch):
    # Every start of minimize_simplex_entropy, on the search's shared
    # values, against the same start on a fresh evaluation per call.
    cfg = td.OptimizerConfig(restarts=3, seed=23)
    runs = recorded_starts(monkeypatch, cfg, search_cases())
    assert len(runs) == sum(cfg.restarts + ch.d + 1 for ch in search_cases())
    for ch, _, x0, options, result in runs:
        assert bits(result) == bits(entropy._nelder_mead(unmemoized(ch), x0, *options)), (ch.d, ch.t, x0)


def test_lockstep_search_gives_each_start_its_run_alone(monkeypatch):
    # The starts run side by side, and each round's new vectors are
    # evaluated in one batch; every start must still return the x, value
    # and evaluation count of its run alone on an unmemoized objective.
    cfg = td.OptimizerConfig(restarts=3, seed=41)
    runs = recorded_starts(monkeypatch, cfg, exit_cases())
    assert len(runs) == sum(cfg.restarts + ch.d + 1 for ch in exit_cases())
    for ch, _, x0, options, result in runs:
        assert options[-1] is entropy._one_vertex_cone
        assert bits(result) == bits(entropy._nelder_mead(unmemoized(ch), x0, *options)), (ch.d, ch.t, x0)


def projected_and_evaluated(monkeypatch, ch, cfg):
    """The projected vectors a search asks for, and the rows it evaluates.

    Rows are listed one per row of each _split_rows call, in order; the
    last ch.d are the exact vertex evaluations.
    """
    steps, plain = entropy._nelder_mead_steps, entropy._split_rows
    projected, evaluated = set(), []

    def record(x0, *options):
        run, value = steps(x0, *options), None
        while True:
            try:
                x = run.send(value)
            except StopIteration as done:
                return done.value
            projected.add(tuple(_schmidt_of(x)))
            value = yield x

    def counted(ch, lams):
        evaluated.extend(tuple(lam) for lam in lams)
        return plain(ch, lams)

    with monkeypatch.context() as m:
        m.setattr(entropy, "_nelder_mead_steps", record)
        m.setattr(entropy, "_split_rows", counted)
        td.minimize_simplex_entropy(ch, cfg)
    return projected, evaluated


def test_memoized_objective_evaluates_each_projected_vector_once(monkeypatch):
    cfg = td.OptimizerConfig(restarts=3, seed=29)
    for ch in search_cases():
        projected, evaluated = projected_and_evaluated(monkeypatch, ch, cfg)
        # The d exact vertex evaluations at the end stay one-row calls.
        searched = evaluated[: -ch.d]
        assert len(searched) == len(set(searched)) == len(projected)
        assert set(searched) == projected
        assert evaluated[-ch.d:] == [tuple(np.eye(ch.d)[a]) for a in range(ch.d)]


def test_lockstep_rounds_batch_the_kernel_calls(monkeypatch):
    # One eigvalsh call per round, not per distinct vector.  Each
    # distinct projected vector is one row, and the d exact vertex
    # evaluations add one one-row call each.
    ch = td.new_channel(4, td.t_range(4)[0])
    plain, calls = entropy._secular_block_roots, []

    def counted(ch, rows):
        calls.append(len(rows))
        return plain(ch, rows)

    monkeypatch.setattr(entropy, "_secular_block_roots", counted)
    td.minimize_simplex_entropy(ch, td.OptimizerConfig(restarts=20))
    distinct = sum(calls) - ch.d
    assert calls[-ch.d:] == [1] * ch.d
    assert 3 * len(calls) < distinct


def test_memoized_objective_keeps_no_failed_evaluation(monkeypatch):
    # A search whose first evaluation fails raises, and the next search
    # evaluates every vector again, the failed ones included.
    ch = td.new_channel(3, -0.25)
    cfg = td.OptimizerConfig(restarts=3, seed=37)
    plain = entropy._split_rows
    rows, fail = [], []

    def fails_when_asked(ch, lams):
        rows.extend(tuple(lam) for lam in lams)
        if fail:
            fail.clear()
            raise NotPSD("this evaluation fails")
        return plain(ch, lams)

    monkeypatch.setattr(entropy, "_split_rows", fails_when_asked)
    want = td.minimize_simplex_entropy(ch, cfg)
    clean = rows[:]
    rows.clear()
    fail.append(True)
    with pytest.raises(NotPSD):
        td.minimize_simplex_entropy(ch, cfg)
    failed = rows[:]
    rows.clear()
    got = td.minimize_simplex_entropy(ch, cfg)
    assert 0 < len(failed) < len(clean)
    assert failed == clean[: len(failed)]
    assert rows == clean
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1].values.tolist()) == bits(want[1].values.tolist())


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
    # The search's tuple keys equate -0.0 and 0.0; so must the objective.
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
    assert bits(entropy._split_rows(ch, lams)) == [bits(entropy._split_rows(ch, [lam])[0]) for lam in lams]


def test_memo_keeps_no_state_between_searches(monkeypatch):
    # A, then B at the same d, against B alone.  The searches share
    # vertices, so values kept across calls would show, in the result or
    # in the rows B evaluates.
    cfg = td.OptimizerConfig(restarts=3, seed=31)
    for d in (2, 3, 4):
        lo, hi = td.t_range(d)
        a, b = td.new_channel(d, lo), td.new_channel(d, 0.5 * hi)
        want = td.minimize_simplex_entropy(b, cfg)
        _, want_rows = projected_and_evaluated(monkeypatch, b, cfg)
        td.minimize_simplex_entropy(a, cfg)
        got = td.minimize_simplex_entropy(b, cfg)
        _, got_rows = projected_and_evaluated(monkeypatch, b, cfg)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1].values.tolist()) == bits(want[1].values.tolist())
        assert got_rows == want_rows


# ------------------------------------------- the early exit of each start


@pytest.mark.parametrize("seed", [41, 43, 47])
def test_early_exit_returns_the_full_run(monkeypatch, seed):
    # Every start, with the exit, against the same start run to the end:
    # the same x and value bits (so the same projected vector), and never
    # more evaluations.
    cfg = td.OptimizerConfig(restarts=3, seed=seed)
    runs = recorded_starts(monkeypatch, cfg, exit_cases())
    assert len(runs) == sum(cfg.restarts + ch.d + 1 for ch in exit_cases())
    stopped = 0
    for _, fun, x0, options, (x, val, nfev) in runs:
        assert options[-1] is entropy._one_vertex_cone
        x_full, val_full, nfev_full = entropy._nelder_mead(fun, x0, *options[:-1])
        assert bits([x, val]) == bits([x_full, val_full]), x0
        assert nfev <= nfev_full
        stopped += nfev < nfev_full
    assert stopped > 0


def test_early_exit_halves_the_evaluations(monkeypatch):
    ch = td.new_channel(4, td.t_range(4)[0])
    runs = recorded_starts(monkeypatch, td.OptimizerConfig(restarts=20, seed=5), [ch])
    with_exit = sum(result[2] for *_, result in runs)
    full = sum(entropy._nelder_mead(fun, x0, *options[:-1])[2] for _, fun, x0, options, _ in runs)
    assert 2 * with_exit <= full


# Hand-built simplices at d = 3, where y(x) = (x0, x1, 1 - x0 - x1) and
# the cone of e_1 is x0 - 1 > x1 and 2 x0 + x1 > 2.  The reflection is
# xr = 2 xbar - sim[-1] with xbar = (sim[0] + sim[1]) / 2.
DEEP = [[3.0, 0.0], [3.1, 0.1], [3.2, -0.1]]
# sim[0] projects onto e_1 but lies only 1e-10 inside the cone, and
# delta = 2**-30 (1 + 4) is 4.7e-9; the other points and xr are deep.
AT_THE_EDGE = [[2.0, 1.0 - 1e-10], [4.0, 0.0], [3.0, 0.0]]
# Every vertex is inside; the reflection (1.0, 1.7) is not.
REFLECTION_OUT = [[2.0, 0.9], [2.0, 0.8], [3.0, 0.0]]
# Deep in the cone of e_3, which K must follow from sim[0].
DEEP_E3 = [[-2.0, 0.0], [-2.1, 0.1], [-2.2, -0.1]]


def reflection(sim):
    xbar = [(a + b) / 2 for a, b in zip(sim[0], sim[1])]
    return [2 * b - w for b, w in zip(xbar, sim[-1])]


def test_cone_predicate_on_hand_built_simplices():
    e1, e3 = [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    for sim in (DEEP, AT_THE_EDGE, REFLECTION_OUT):
        assert [_schmidt_of(x) for x in sim] == [e1] * 3
    assert [_schmidt_of(x) for x in DEEP_E3 + [reflection(DEEP_E3)]] == [e3] * 4
    assert _schmidt_of(reflection(DEEP)) == _schmidt_of(reflection(AT_THE_EDGE)) == e1
    assert _schmidt_of(reflection(REFLECTION_OUT)) != e1
    assert entropy._one_vertex_cone(DEEP, reflection(DEEP))
    assert entropy._one_vertex_cone(DEEP_E3, reflection(DEEP_E3))
    assert not entropy._one_vertex_cone(AT_THE_EDGE, reflection(AT_THE_EDGE))
    assert not entropy._one_vertex_cone(REFLECTION_OUT, reflection(REFLECTION_OUT))
