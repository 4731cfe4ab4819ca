"""Numerical verification scans for the polytope inequality chain.

For n = d - 2 and t < 0 the transformed coordinates nu live in the
polytope

    nu_l <= 1  for all l,      sum_l nu_l >= n + 2td/(1-t),

on which at most one coordinate can be negative.  The central inequality
(margin reported by the "main" scan) is, for 0 <= k <= n-1,

    sum_l (1 - nu_l) s_{n-k-1}(nu \\ l)
        - [2 (1 + t(d-1)) / (t d)] s_{n-k}(nu)  >=  0.

Supporting scans cover the sign of the subtracted term s_{n-k}(nu) for
1 <= k <= n (negative excursions exist for n >= 3; see
second_term_value), the k = 0 reciprocal form

    sum_l (1 - nu_l) / nu_l  <=  2 (1 + t(d-1)) / (t d)

on the one-negative stratum, its worst extreme point, the strictly
positive quadratic 3(td)^2 + 3(1-t)(td) + (1-t)^2, the secular
symmetric-polynomial identity, and the Schur criterion.

Determinism: every scan cell draws from a counter-based Philox stream
keyed by (seed, kind, d, t index, k), and each sample's values occupy
fixed positions in that stream, so reports are identical across runs and
across any thread count.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadK,
    BadLength,
    BadSignPattern,
    BadT,
    ConfigError,
    NearZeroNu,
)
from .channel import Channel, new_channel
from .majorization import (
    NuVector,
    _elem_sym_table,
    _loo_elem_sym,
    elem_sym,
    phi_k_batch,
    schur_defect_batch,
)
from .sampling import exponentials_from_uniforms, philox_stream
from .spectrum import secular_roots_batch

VIOLATION_TOL = 1e-9  # a margin below -1e-9 counts as a violation
NEAR_ZERO_NU = 1e-12
REJECTION_CAP = 10_000  # scalar sampler bound before the jitter fallback
BATCH_ROUNDS_CAP = 64  # vectorized engine bound (see decisions notes)

SCAN_KINDS = ("main", "k0", "second_term", "extreme", "final_poly", "sympol", "schur")
_NEEDS_POLYTOPE = ("main", "k0", "second_term")


def box_ratio(d: int, t: float) -> float:
    """2td/(1-t): the lower box bound for nu is 1 + this ratio."""
    return 2.0 * t * d / (1.0 - t)


def _rhs_coefficient(d: int, t: float) -> float:
    return 2.0 * (1.0 + t * (d - 1)) / (t * d)


def _check_t(d: int, t: float) -> None:
    if not (-1.0 / (d - 1) <= t < 0.0):
        raise BadT(f"t={t} outside [-1/(d-1), 0) for d={d}")


def first_term_value(nu, k: int) -> float:
    """sum_l (1 - nu_l) s_{n-k-1}(nu \\ l); nonnegative already under
    the weaker constraint sum nu >= n - 2."""
    v = np.asarray(nu, dtype=float).reshape(-1)
    n = v.size
    total = 0.0
    for l in range(n):
        rest = np.delete(v, l)
        total += (1.0 - v[l]) * elem_sym(rest, n - k - 1)
    return total


def main_inequality_lhs(nu, k: int, d: int, t: float) -> float:
    """Margin of the central inequality at one point; >= 0 expected."""
    if d < 3:
        raise ConfigError(f"need d >= 3 (n = d - 2 >= 1), got d={d}")
    v = np.asarray(nu, dtype=float).reshape(-1)
    n = d - 2
    if v.size != n:
        raise BadLength(f"nu has length {v.size}, expected n = d - 2 = {n}")
    if not (0 <= k <= n - 1):
        raise BadK(f"k={k} outside [0, {n - 1}]")
    _check_t(d, t)
    return first_term_value(v, k) - _rhs_coefficient(d, t) * elem_sym(v, n - k)


def second_term_value(nu, k: int) -> float:
    """s_{n-k}(nu) for 1 <= k <= n.

    Nonnegative on the polytope for n <= 2 (there s_{n-k} is 1 or the
    constrained sum).  For n >= 3 it can dip below zero on the
    one-negative stratum at steep t, e.g. s_2(-0.99, 1, 1) = -0.98 at
    d=5, t=-1/4; scans of this kind are expected to log violations
    there.  The full inequality is unaffected: its second-term
    coefficient vanishes at t = -1/(d-1) and the first term dominates
    nearby, which the "main" scans check directly.
    """
    v = np.asarray(nu, dtype=float).reshape(-1)
    n = v.size
    if not (1 <= k <= n):
        raise BadK(f"k={k} outside [1, {n}]")
    return elem_sym(v, n - k)


def k0_defect(nu, d: int, t: float) -> float:
    """Slack of the reciprocal inequality on the one-negative stratum.

    Returns rhs - sum (1 - nu_l)/nu_l, which should be >= 0.
    """
    _check_t(d, t)
    v = np.asarray(nu, dtype=float).reshape(-1)
    if np.min(np.abs(v)) <= NEAR_ZERO_NU:
        raise NearZeroNu(f"coordinate too close to zero: {v}")
    if int(np.sum(v < 0.0)) != 1:
        raise BadSignPattern(f"expected exactly one negative coordinate in {v}")
    return _rhs_coefficient(d, t) - float(np.sum((1.0 - v) / v))


def extreme_point_defect(d: int, t: float) -> float | None:
    """k = 0 slack at the worst extreme point, or None when inapplicable.

    The candidate coordinate is nu1 = 2(1+t(d-1))/(1-t) - 1, the box
    floor; when it is nonnegative the one-negative stratum is empty and
    there is nothing to check.
    """
    _check_t(d, t)
    nu1 = 2.0 * (1.0 + t * (d - 1)) / (1.0 - t) - 1.0
    if nu1 >= 0.0:
        return None
    lhs = 1.0 / nu1 - 1.0  # 1/nu1 + 1/nu2 - 2 with nu2 = 1
    return _rhs_coefficient(d, t) - lhs


def final_polynomial(d: int, t: float) -> float:
    """3(td)^2 + 3(1-t)(td) + (1-t)^2; strictly positive for t < 1."""
    x = t * d
    return 3.0 * x * x + 3.0 * (1.0 - t) * x + (1.0 - t) ** 2


# ---------------------------------------------------------------------------
# Polytope sampling
# ---------------------------------------------------------------------------


def sample_polytope(n: int, d: int, t: float, rng: np.random.Generator) -> NuVector:
    """One stratified sample from the nu polytope.

    With probability 1/2 all coordinates are nonnegative; otherwise one
    chosen coordinate is drawn negative (when the box floor allows it).
    Rejection on the sum constraint is capped at 10^4 tries, after which
    a jittered feasible point near the all-ones vertex is constructed
    from the same stream.
    """
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    _check_t(d, t)
    ratio = box_ratio(d, t)
    lower = 1.0 + ratio
    bound = n + ratio
    negative_possible = lower < 0.0
    use_negative = negative_possible and rng.random() >= 0.5
    pos = int(rng.random() * n) if use_negative else 0
    pos = min(pos, n - 1)
    low_a = max(lower, 0.0)
    for _ in range(REJECTION_CAP):
        if use_negative:
            x = rng.random(n)
            x[pos] = lower * (1.0 - rng.random())
        else:
            x = low_a + rng.random(n) * (1.0 - low_a)
        if float(np.sum(x)) >= bound:
            return NuVector(x, ratio)
    # Jitter off the all-ones vertex; always feasible by construction.
    if use_negative:
        xneg = lower * (1.0 - rng.random())
        budget = xneg - lower
        u = rng.random(n)
        deltas = u / max(float(np.sum(u)), 1e-300) * (rng.random() * budget)
        x = 1.0 - deltas
        x[pos] = xneg
    else:
        u = rng.random(n)
        deltas = u / max(float(np.sum(u)), 1e-300) * (rng.random() * (-ratio))
        x = 1.0 - deltas
    return NuVector(x, ratio)


def _batch_polytope(
    gen: np.random.Generator,
    n: int,
    ratio: float,
    count: int,
    force_negative: bool = False,
) -> np.ndarray:
    """Vectorized stratified sampler; same strata as sample_polytope.

    Stream layout is fixed up front (header block, fallback block, then
    one block per rejection round) so each row is a pure function of its
    position in the Philox stream.  Rounds are generated lazily but their
    positions never move; the round cap trades the scalar sampler's 10^4
    rejections for a bounded number of vectorized rounds.
    """
    lower = 1.0 + ratio
    bound = n + ratio
    low_a = max(lower, 0.0)
    header = gen.random((count, 2))
    fallback = gen.random((count, n + 2))
    if force_negative:
        if lower >= 0.0:
            return np.empty((0, n))
        strat_b = np.ones(count, dtype=bool)
    else:
        strat_b = (header[:, 0] >= 0.5) & (lower < 0.0)
    pos = np.minimum((header[:, 1] * n).astype(int), n - 1)
    rows = np.arange(count)

    out = np.empty((count, n))
    accepted = np.zeros(count, dtype=bool)
    for _ in range(BATCH_ROUNDS_CAP):
        if bool(np.all(accepted)):
            break
        block = gen.random((count, n))
        cand = low_a + block * (1.0 - low_a)
        if bool(np.any(strat_b)):
            cand[strat_b] = block[strat_b]
            cand[strat_b, pos[strat_b]] = lower * (1.0 - block[strat_b, pos[strat_b]])
        newly = ~accepted & (cand.sum(axis=1) >= bound)
        out[newly] = cand[newly]
        accepted |= newly

    pending = ~accepted
    if bool(np.any(pending)):
        u = fallback[:, :n]
        scale = np.maximum(u.sum(axis=1), 1e-300)
        xneg = lower * (1.0 - fallback[:, n])
        budget = np.where(strat_b, xneg - lower, -ratio)
        deltas = u / scale[:, None] * (fallback[:, n + 1] * budget)[:, None]
        cand = 1.0 - deltas
        if bool(np.any(strat_b)):
            cand[strat_b, pos[strat_b]] = xneg[strat_b]
        out[pending] = cand[pending]
    return out


def polytope_vertices(n: int, d: int, t: float) -> np.ndarray:
    """Exact vertex enumeration of the nu polytope for n <= 4.

    Vertices are the box corners {floor, 1}^n satisfying the sum
    constraint plus the points where the sum hyperplane crosses a box
    edge.
    """
    if n < 1 or n > 4:
        raise ConfigError(f"vertex enumeration supports 1 <= n <= 4, got {n}")
    _check_t(d, t)
    ratio = box_ratio(d, t)
    lower = 1.0 + ratio
    bound = n + ratio
    points: list[np.ndarray] = []

    for bits in range(2**n):
        corner = np.array([(lower if (bits >> i) & 1 else 1.0) for i in range(n)])
        if corner.sum() >= bound - 1e-12:
            points.append(corner)
    for free in range(n):
        for bits in range(2 ** (n - 1)):
            corner = np.empty(n)
            others = [i for i in range(n) if i != free]
            for m, i in enumerate(others):
                corner[i] = lower if (bits >> m) & 1 else 1.0
            val = bound - corner[others].sum() if n > 1 else bound
            if lower - 1e-12 <= val <= 1.0 + 1e-12:
                corner[free] = min(max(val, lower), 1.0)
                points.append(corner)

    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - q)) < 1e-10 for q in kept):
            kept.append(p)
    return np.array(kept)


# ---------------------------------------------------------------------------
# Scan engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Aggregated margins for one (kind, d, t) cell group."""

    kind: str
    d: int
    t_values: list[float]
    k_values: list[int]
    samples: int
    violations: int
    worst_margin: float | None
    seed: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "t_values": list(self.t_values),
            "k_values": list(self.k_values),
            "samples": self.samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "seed": self.seed,
        }


def default_t_grid(d: int, points: int = 9) -> np.ndarray:
    """points values from -1/(d-1) to -1e-6 inclusive."""
    if points < 2:
        raise ConfigError("need at least 2 grid points")
    return np.linspace(-1.0 / (d - 1), -1e-6, points)


def _cell_key(kind: str, d: int, t_idx: int, k: int) -> int:
    kind_idx = SCAN_KINDS.index(kind)
    return ((kind_idx * 256 + d) * 65536 + t_idx) * 256 + (k + 1)


def _margins_main(nu: np.ndarray, k: int, d: int, t: float) -> np.ndarray:
    n = nu.shape[1]
    table = _elem_sym_table(nu)
    loo = _loo_elem_sym(nu, table, n - k - 1)[..., -1]
    first = ((1.0 - nu) * loo).sum(axis=1)
    return first - _rhs_coefficient(d, t) * table[:, n - k]


def _lambda_batch(gen: np.random.Generator, d: int, count: int) -> np.ndarray:
    expo = exponentials_from_uniforms(gen.random((count, d)))
    total = np.maximum(expo.sum(axis=1), 1e-300)
    return expo / total[:, None]


def _sympol_margins(ch: Channel, lams: np.ndarray) -> np.ndarray:
    """Minus the worst relative defect over k of s_{d-k}(gamma) = phi_k(nu), per row."""
    d = ch.d
    gamma = secular_roots_batch(ch, lams) / ch.c1
    lhs = _elem_sym_table(gamma)[:, d - np.arange(d)]
    rhs = phi_k_batch(1.0 + ch.ratio * lams, ch)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return -np.max(np.abs(lhs - rhs) / scale, axis=1)


def _schur_margins(ch: Channel, lams: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Minus the Schur defect at one (k, a, b) per row, drawn from picks in [0, 1)^3."""
    d = ch.d
    k = np.minimum((picks[:, 0] * d).astype(int), d - 1)
    a = np.minimum((picks[:, 1] * d).astype(int), d - 1)
    b = np.minimum((picks[:, 2] * (d - 1)).astype(int), d - 2)
    b += b >= a
    return -schur_defect_batch(1.0 + ch.ratio * lams, k, a, b, ch)


def _scan_cell_group(kind: str, d: int, t: float, t_idx: int, samples: int, seed: int):
    """Margins for one (kind, d, t) across its k values.

    Returns (k_values, margin_count, violations, worst_margin).
    """
    n = d - 2
    if kind in ("main", "k0", "second_term", "sympol", "schur"):
        _check_t(d, t)
    ratio = box_ratio(d, t)
    margins_all: list[np.ndarray] = []
    k_values: list[int] = []

    if kind == "main":
        vertices = polytope_vertices(n, d, t) if n <= 4 else np.empty((0, n))
        for k in range(n):
            gen = philox_stream(seed, _cell_key(kind, d, t_idx, k))
            nu = _batch_polytope(gen, n, ratio, samples)
            margins = _margins_main(nu, k, d, t)
            if vertices.size:
                margins = np.concatenate([margins, _margins_main(vertices, k, d, t)])
            margins_all.append(margins)
            k_values.append(k)
    elif kind == "second_term":
        for k in range(1, n + 1):
            gen = philox_stream(seed, _cell_key(kind, d, t_idx, k))
            nu = _batch_polytope(gen, n, ratio, samples)
            table = _elem_sym_table(nu)
            margins_all.append(table[:, n - k].copy())
            k_values.append(k)
    elif kind == "k0":
        gen = philox_stream(seed, _cell_key(kind, d, t_idx, -1))
        nu = _batch_polytope(gen, n, ratio, samples, force_negative=True)
        k_values.append(0)
        if nu.shape[0]:
            neg_count = (nu < 0.0).sum(axis=1)
            valid = (neg_count == 1) & (np.abs(nu).min(axis=1) > NEAR_ZERO_NU)
            nu = nu[valid]
            if nu.shape[0]:
                vals = _rhs_coefficient(d, t) - ((1.0 - nu) / nu).sum(axis=1)
                margins_all.append(vals)
    elif kind == "extreme":
        value = extreme_point_defect(d, t)
        if value is not None:
            margins_all.append(np.array([value]))
    elif kind == "final_poly":
        margins_all.append(np.array([final_polynomial(d, t)]))
    elif kind == "sympol":
        gen = philox_stream(seed, _cell_key(kind, d, t_idx, -1))
        k_values.extend(range(d))
        margins_all.append(_sympol_margins(new_channel(d, t), _lambda_batch(gen, d, samples)))
    elif kind == "schur":
        gen = philox_stream(seed, _cell_key(kind, d, t_idx, -1))
        lams = _lambda_batch(gen, d, samples)
        picks = gen.random((samples, 3))
        k_values.extend(range(d))
        margins_all.append(_schur_margins(new_channel(d, t), lams, picks))
    else:
        raise ConfigError(f"unknown scan kind {kind!r}")

    if margins_all:
        merged = np.concatenate(margins_all)
        count = int(merged.size)
        violations = int(np.sum(merged < -VIOLATION_TOL))
        worst = float(np.min(merged)) if count else None
    else:
        count, violations, worst = 0, 0, None
    return k_values, count, violations, worst


def run_scan(
    kind: str,
    d_values,
    t_grid=None,
    samples: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> list[ScanReport]:
    """Scan one kind over dimensions and a t grid; one report per (d, t).

    The default grid has 9 points spanning [-1/(d-1), -1e-6].  Reports
    come back in (d, t) order regardless of the thread count, and their
    contents are independent of it as well.
    """
    if kind not in SCAN_KINDS:
        raise ConfigError(f"kind must be one of {SCAN_KINDS}, got {kind!r}")
    d_list = [int(d) for d in (d_values if np.iterable(d_values) else [d_values])]
    for d in d_list:
        if d < 2:
            raise ConfigError(f"need d >= 2, got {d}")
        if kind in _NEEDS_POLYTOPE + ("sympol", "schur") and d < 3:
            raise ConfigError(f"kind {kind!r} needs d >= 3, got {d}")
    if samples < 1:
        raise ConfigError("need samples >= 1")

    jobs = []
    for d in d_list:
        grid = np.asarray(t_grid, dtype=float) if t_grid is not None else default_t_grid(d)
        for t_idx, t in enumerate(grid):
            jobs.append((d, float(t), t_idx))

    def one(job):
        d, t, t_idx = job
        k_values, count, violations, worst = _scan_cell_group(
            kind, d, t, t_idx, samples, seed
        )
        return ScanReport(
            kind=kind,
            d=d,
            t_values=[t],
            k_values=k_values,
            samples=count,
            violations=violations,
            worst_margin=worst,
            seed=seed,
        )

    if threads and threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, jobs))
    return [one(job) for job in jobs]
