"""The list-based Nelder-Mead port against scipy's, bit for bit.

scipy is the oracle here only; the package itself does not import it.
Every comparison asserts equal x, equal value and equal evaluation count,
with no tolerance.  The port is compared without its stop predicate,
the early exit minimize_simplex_entropy adds; that exit is checked
against the port's full run.  _nelder_mead drives the port's generator,
_nelder_mead_steps, with one function, so these tests check the loop
that the lockstep search runs too.

numpy's default argsort is stable on small arrays on some CPUs and not on
others (its AVX-512 sorting networks may reorder ties), so scipy's
tie order depends on the machine.  The port keeps tied vertices in
order; the oracle runs with np.argsort pinned to the stable kind, the
order scipy has wherever numpy's sort is stable.
"""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import tdchan as td
from tdchan import entropy


@pytest.fixture
def stable_argsort(monkeypatch):
    monkeypatch.setattr(np, "argsort", functools.partial(np.argsort, kind="stable"))


def scipy_nelder_mead(fun, x0, xatol, fatol, maxfev, callback=None):
    res = minimize(
        lambda x: fun(x.tolist()),
        np.array(x0, dtype=float),
        method="Nelder-Mead",
        options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev},
        callback=callback,
    )
    return res.x.tolist(), float(res.fun), res.nfev


def assert_same_run(fun, x0, xatol, fatol, maxfev):
    x, val, nfev = entropy._nelder_mead(fun, list(x0), xatol, fatol, maxfev)
    assert (x, val, nfev) == scipy_nelder_mead(fun, x0, xatol, fatol, maxfev)
    return nfev


def test_nelder_mead_matches_scipy_on_the_optimizer_starts(stable_argsort, monkeypatch):
    # Every start minimize_simplex_entropy makes (Dirichlet draws, the
    # vertices, the barycenter), with its own options, recorded at the
    # generator each start runs on.  The port without the early-exit
    # predicate is scipy's run; with it, the run returns the same x and
    # value with no more evaluations.  The objective is memoized per
    # start, so scipy's run replays the port's evaluations instead of
    # repeating them.
    steps = entropy._nelder_mead_steps
    runs = []

    def record(x0, *options):
        result = yield from steps(x0, *options)
        runs.append((list(x0), options, result))
        return result

    cfg = td.OptimizerConfig(restarts=2, seed=3)
    for d in (2, 3, 4, 5):
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
            ch = td.new_channel(d, t)
            runs.clear()
            with monkeypatch.context() as m:
                m.setattr(entropy, "_nelder_mead_steps", record)
                td.minimize_simplex_entropy(ch, cfg)
            assert len(runs) == cfg.restarts + d + 1
            for x0, options, (x, val, nfev) in runs:
                *options, stop = options
                assert stop is entropy._one_vertex_cone
                cache = {}

                def memo(x):
                    key = tuple(x)
                    if key not in cache:
                        cache[key] = entropy.simplex_output_entropy(ch, entropy._schmidt_of(x))
                    return cache[key]

                full = entropy._nelder_mead(memo, x0, *options)
                assert full == scipy_nelder_mead(memo, x0, *options), (d, t, x0)
                x_full, val_full, nfev_full = full
                assert [v.hex() for v in x + [val]] == [v.hex() for v in x_full + [val_full]]
                assert nfev <= nfev_full


def rosenbrock(x):
    return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x, x[1:]))


@pytest.mark.parametrize("x0", [[-1.2, 1.0], [0.0, 0.0, 0.0], [-1.2, 0.0, 1.0, 0.5]])
def test_nelder_mead_matches_scipy_on_rosenbrock(stable_argsort, x0):
    nfev = assert_same_run(rosenbrock, x0, 1e-8, 1e-8, 5000)
    assert nfev < 5000  # converged, not capped


def evaluation_kinds(fun, x0, maxfev):
    """The step each of scipy's evaluations belongs to, in order.

    scipy calls back after every iteration; an iteration of one
    evaluation is a reflection, of two an expansion when the reflection
    beat the best vertex and a contraction otherwise, and of n + 2 a
    contraction followed by an n-point shrink.
    """
    values, ends = [], []

    def recorded(x):
        values.append(fun(x))
        return values[-1]

    def callback(intermediate_result):
        ends.append((len(values), intermediate_result.fun))

    scipy_nelder_mead(recorded, x0, 1e-8, 1e-8, maxfev, callback)
    n = len(x0)
    kinds = ["initial"] * (n + 1)
    start, best = n + 1, min(values[: n + 1])
    for end, new_best in ends:
        count = end - start
        if count == 1:
            kinds.append("reflect")
        elif count == 2:
            kinds += ["reflect", "expand" if values[start] < best else "contract"]
        else:
            assert count == n + 2
            kinds += ["reflect", "contract"] + ["shrink"] * n
        start, best = end, new_best
    return kinds


def wavy(x):
    return math.sin(3.0 * x[0]) * math.cos(2.0 * x[1]) + 0.1 * (x[0] ** 2 + x[2] ** 2)


def test_nelder_mead_matches_scipy_when_maxfev_stops_it(stable_argsort):
    x0 = [0.4, 0.3, 0.0]
    kinds = evaluation_kinds(wavy, x0, 5000)
    # A cap of k refuses evaluation k (0-based): inside the initial
    # simplex, at an expansion, and at the second point of a shrink.
    caps = list(range(1, len(x0) + 1))
    caps.append(kinds.index("expand"))
    first_shrink = kinds.index("shrink")
    assert kinds[first_shrink + 1] == "shrink"
    caps.append(first_shrink + 1)
    for cap in caps:
        assert assert_same_run(wavy, x0, 1e-8, 1e-8, cap) == cap
