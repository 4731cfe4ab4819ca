"""The simplex probe against scipy's Nelder-Mead descent.

scipy is the oracle here only; the package itself does not import it.
minimize_simplex_entropy probes a fixed batch of rows instead of
descending.  A descent from each of its starts (the uniform draws,
the vertices and the barycenter) on the projected objective must end
at the probe's minimum, to 1e-12: no start descends below it.
"""

import math

import numpy as np
from scipy.optimize import minimize

import tdchan as td
from tdchan.entropy import _TAG_SIMPLEX
from tdchan.sampling import _lambda_rows, philox_stream

from oracles import simplex_projection_sort


def scipy_descent(ch, lam0):
    """scipy's Nelder-Mead over the first d - 1 Schmidt weights, projected."""

    def fun(x):
        x = x.tolist()
        return td.simplex_output_entropy(ch, simplex_projection_sort(x + [1.0 - math.fsum(x)]))

    res = minimize(
        fun,
        np.array(lam0[:-1]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-10, "maxfev": 2000},
    )
    return float(res.fun)


def test_probe_matches_scipy_descents_from_its_starts():
    cfg = td.OptimizerConfig(restarts=2, seed=3)
    for d in (2, 3, 4, 5):
        lo, hi = td.t_range(d)
        for t in (lo, 0.5 * lo, 0.0, 0.5 * hi, hi):
            ch = td.new_channel(d, t)
            probe, _ = td.minimize_simplex_entropy(ch, cfg)
            starts = _lambda_rows(philox_stream(cfg.seed, _TAG_SIMPLEX).random((cfg.restarts, d))).tolist()
            starts += np.eye(d).tolist() + [[1.0 / d] * d]
            for lam0 in starts:
                descent = scipy_descent(ch, lam0)
                assert abs(descent - probe) <= 1e-12, (d, t, lam0, descent - probe)
