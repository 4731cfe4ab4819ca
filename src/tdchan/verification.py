"""Numerical verification scans for the polytope inequality chain.

For n = d - 2 and t < 0 the transformed coordinates nu live in the
polytope

    nu_l <= 1  for all l,      sum_l nu_l >= n + 2td/(1-t).

With y = 1 - nu and R = -2td/(1-t), which lies in (0, 2] on the range
t in [-1/(d-1), 0), this is exactly the simplex {y >= 0, sum y <= R}
with vertices 0 and R e_l; the box floor nu_l >= 1 - R follows from the
sum.  At most one coordinate can be negative, and the one-negative part
is the union of the corner simplices {y_pos >= 1} = e_pos + (R-1) Delta,
non-empty only for R > 1.  The polytope kinds sample two strata exactly
by normalized exponential spacings (Devroye 1986, Non-Uniform Random
Variate Generation, ch. V): the whole simplex, and a corner simplex.

The central inequality (margin reported by the "main" scan) is, for
0 <= k <= n-1,

    sum_l (1 - nu_l) s_{n-k-1}(nu \\ l)
        - [2 (1 + t(d-1)) / (t d)] s_{n-k}(nu)  >=  0.

Since sum_l s_{r-1}(nu \\ l) = (n - r + 1) s_{r-1}(nu) and
sum_l nu_l s_{r-1}(nu \\ l) = r s_r(nu), its left side is
(k + 1) s_{n-k-1}(nu) - (n - k + coef) s_{n-k}(nu), two terms of one s
table.  The Schur criterion is this margin again, at the d - 2
coordinates of nu \\ {i, j} (see tdchan.majorization).

Supporting scans cover the sign of the subtracted term s_{n-k}(nu) for
1 <= k <= n (negative excursions exist for n >= 3; see
second_term_value), the k = 0 reciprocal form

    sum_l (1 - nu_l) / nu_l  <=  2 (1 + t(d-1)) / (t d)

on the one-negative stratum, its worst extreme point, the strictly
positive quadratic 3(td)^2 + 3(1-t)(td) + (1-t)^2, the secular
symmetric-polynomial identity, and the Schur criterion.

Scan kinds: _KINDS maps each kind to the least d it accepts, to its
margins(streams, d, ts, samples) -> (k_values, segments) for a batch of
cells of one d, and to its fan-out width (see Threads); SCAN_KINDS
lists its keys.  run_scan checks every argument before any cell runs;
_scan_batch turns each cell's segment of margins into its
ScanReport.  The order of _KINDS must not change: a kind's index in it
is part of every stream key, so a reordering would change the bytes of
every report.

Batches: a batch is a run of cells of one d, of at most _BATCH_ROWS
rows (samples) in all; a cell of as many samples or more runs alone.
Each cell opens its own stream and draws its block, in its own order
and layout, straight into its rows of one batch array.  Everything after
the draw runs once over all rows of the batch, with the t-dependent
constants as per-row arrays (ChannelRows for the sympol and schur
kinds), and a cell's report comes from its own segment of columns.  A
segment can be empty (k0 with R <= 1) or shortened by the k0 filter.

Layout: _polytope_cols returns nu coordinate-leading, as (n, N)
columns: row l holds coordinate l of every sample.  It transposes the
(N, n + 3) block of Philox doubles once and normalizes the exponential
spacings by one in-order sum over the coordinate rows, so every later
step is one contiguous operation over all samples.  The "main" and
"second_term" kinds hand those columns to the degree-leading
symmetric-polynomial tables as they are, and "k0" adds its reciprocal
terms over them in coordinate order, as k0_defect does.  The "sympol"
and "schur" kinds read their Schmidt vectors as a transposed view of
the same normalizer.

Determinism: every scan cell draws from one counter-based Philox stream
keyed by (seed, kind, d, t index), and each sample reads a fixed number
of consecutive doubles from it (n + 3 for a polytope sample).  Every
step after the draw works per row: elementwise ufuncs, eigvalsh one
matrix at a time, and reductions per column.  So reports are identical
across runs, batch sizes and thread counts.  All k of a cell share its
samples: "main" and "second_term" evaluate every k on one draw, from
one s table.  "extreme" and "final_poly" draw nothing and open no
stream.

Threads: run_scan cuts its (d, t) jobs into batches once, in order, and
the batches do not depend on threads.  A batch is wide when its rows x d
reach the kind's fan-out width in _KINDS.  Below that width, a batch is a
run of numpy calls too short to release the interpreter lock for long,
and a second thread mostly waits for it.  threads is an upper bound:
worker threads start only when two batches or more are wide, since one
wide batch has nothing to share its time with; otherwise every batch runs
in order on the calling thread.  When it fans out, min(threads, batches)
workers take one batch per task, and the results are read in batch
order.  A batch that raises runs again one cell at a time, so every
thread count raises the exception of the earliest failing cell in (d, t)
order.
"""

from __future__ import annotations

import concurrent.futures
import functools
import math
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
from .channel import Channel, ChannelRows, _whole, by_row, new_channel
from .majorization import (
    _elem_sym_table,
    _finite_nu,
    _main_margins,
    _phi_terms,
    _rhs_coefficient,
    _schur_defects,
    elem_sym,
)
from .sampling import _check_seed, _lambda_rows, _simplex_cols, philox_stream
from .spectrum import _secular_block_roots

VIOLATION_TOL = 1e-9  # a margin below -1e-9 counts as a violation
NEAR_ZERO_NU = 1e-12


def box_ratio(d: int, t: float) -> float:
    """2td/(1-t): the lower box bound for nu is 1 + this ratio."""
    return 2.0 * t * d / (1.0 - t)


def _check_t(d: int, t: float) -> None:
    if not (-1.0 / (d - 1) <= t < 0.0):
        raise BadT(f"t={t} outside [-1/(d-1), 0) for d={d}")


def _polytope_n(d: int) -> int:
    """n = d - 2, the length of a point of the nu polytope; ConfigError for d < 3."""
    if d < 3:
        raise ConfigError(f"need d >= 3 (n = d - 2 >= 1), got d={d}")
    return d - 2


def _polytope_point(nu, d: int) -> np.ndarray:
    """nu as a finite 1-D array of n = d - 2 entries."""
    v = _finite_nu(nu)
    n = _polytope_n(d)
    if v.size != n:
        raise BadLength(f"nu has length {v.size}, expected n = d - 2 = {n}")
    return v


def first_term_value(nu, k: int) -> float:
    """sum_l (1 - nu_l) s_{n-k-1}(nu \\ l) for 0 <= k <= n-1; nonnegative
    already under the weaker constraint sum nu >= n - 2.

    Computed as (k + 1) s_{n-k-1}(nu) - (n - k) s_{n-k}(nu), the main
    margin with coef = 0.
    """
    v = _finite_nu(nu)
    n = v.size
    if not (0 <= k <= n - 1):
        raise BadK(f"k={k} outside [0, {n - 1}]")
    s = _elem_sym_table(v)
    return float(_main_margins(s[n - k - 1], s[n - k], k, n, 0.0))


def main_inequality_lhs(nu, k: int, d: int, t: float) -> float:
    """Margin of the central inequality at one point; >= 0 expected."""
    v = _polytope_point(nu, d)
    n = v.size
    if not (0 <= k <= n - 1):
        raise BadK(f"k={k} outside [0, {n - 1}]")
    _check_t(d, t)
    return float(_margins_main(v[:, None], d, t)[k, 0])


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
    v = _finite_nu(nu)
    n = v.size
    if not (1 <= k <= n):
        raise BadK(f"k={k} outside [1, {n}]")
    return elem_sym(v, n - k)


def k0_defect(nu, d: int, t: float) -> float:
    """Slack of the reciprocal inequality on the one-negative stratum.

    Returns rhs - sum (1 - nu_l)/nu_l, which should be >= 0.  nu has
    n = d - 2 entries, as in main_inequality_lhs.
    """
    _check_t(d, t)
    v = _polytope_point(nu, d)
    if np.min(np.abs(v)) <= NEAR_ZERO_NU:
        raise NearZeroNu(f"coordinate too close to zero: {v}")
    if int(np.sum(v < 0.0)) != 1:
        raise BadSignPattern(f"expected exactly one negative coordinate in {v}")
    return float(_k0_slacks(v[:, None], d, t)[0])


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


def _polytope_batch(
    gen: np.random.Generator, n: int, radius: float, count: int, corner_only: bool = False
) -> np.ndarray:
    """count exact samples of the nu polytope whose simplex has radius R, as (n, count) columns.

    Every sample reads n + 3 consecutive stream doubles: a stratum
    double, a position double, then n + 1 uniforms for w.  The corner
    stratum y = (R - 1) w + e_pos is drawn when the stratum double is
    >= 1/2 and R > 1, or always with corner_only (which returns no
    samples when R <= 1); otherwise the whole-polytope stratum y = R w.
    Returns nu = 1 - y, coordinate-leading: row l holds coordinate l of
    every sample.
    """
    if corner_only and radius <= 1.0:
        return np.empty((n, 0))
    return _polytope_cols(gen.random((count, n + 3)), n, radius, corner_only)


def _polytope_cols(block: np.ndarray, n: int, radius, corner_only: bool = False) -> np.ndarray:
    """The nu of _polytope_batch for every row of an (N, n + 3) block of stream doubles, as (n, N) columns.

    radius is a scalar or one radius per row.  The block is transposed
    once, and every later step is elementwise over the columns.
    """
    block = block.T.copy()
    w = _simplex_cols(block[2:])[:n]
    corner = corner_only | ((block[0] >= 0.5) & (radius > 1.0))
    scale = np.where(corner, radius - 1.0, radius)
    nu = 1.0 - scale * w
    cols = np.flatnonzero(corner)
    pos = np.minimum((block[1, cols] * n).astype(int), n - 1)
    nu[pos, cols] = -scale[cols] * w[pos, cols]  # 1 - y_pos without cancellation
    return nu


def sample_polytope(d: int, t: float, rng: np.random.Generator) -> np.ndarray:
    """One exact stratified sample from the nu polytope of (d, t): n = d - 2 entries.

    With probability 1/2, when the one-negative part is non-empty, the
    sample is uniform on a uniformly chosen corner simplex (one negative
    coordinate); otherwise it is uniform on the whole polytope.  Reads
    n + 3 doubles from rng.
    """
    n = _polytope_n(d)
    _check_t(d, t)
    return _polytope_batch(rng, n, -box_ratio(d, t), 1)[:, 0]


def polytope_vertices(d: int, t: float) -> np.ndarray:
    """The n + 1 vertices of the nu polytope of (d, t), n = d - 2: ones(n) and
    1 - R e_l, i.e. y = 0 and y = R e_l; (n + 1, n)."""
    n = _polytope_n(d)
    _check_t(d, t)
    return np.vstack([np.ones(n), 1.0 + box_ratio(d, t) * np.eye(n)])


# ---------------------------------------------------------------------------
# Scan engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Aggregated margins for one (kind, d, t) cell, over all its k."""

    kind: str
    d: int
    t_values: list[float]
    k_values: list[int]
    samples: int
    violations: int
    worst_margin: float | None
    seed: int

    def as_dict(self) -> dict:
        return dict(vars(self))


def default_t_grid(d: int, points: int = 9) -> np.ndarray:
    """points values from -1/(d-1) to -1e-6 inclusive."""
    if points < 2:
        raise ConfigError("need at least 2 grid points")
    return np.linspace(-1.0 / (d - 1), -1e-6, points)


def _check_t_points(size: int) -> None:
    """Raise ConfigError for a t grid of more than 65536 points, which _cell_key cannot tell apart."""
    if size > 65536:
        raise ConfigError(f"t_grid may hold at most 65536 points, got {size}")


def _cell_key(kind: str, d: int, t_idx: int) -> int:
    """The Philox key of one cell.

    From the high bits down: the kind's index in SCAN_KINDS, d in 8 bits,
    t_idx in 16 bits, and a zero byte.  run_scan keeps d <= 255 and
    t_idx < 65536, so no two cells of a scan share a key.
    """
    kind_idx = SCAN_KINDS.index(kind)
    return ((kind_idx * 256 + d) * 65536 + t_idx) * 256


def _margins_main(cols: np.ndarray, d: int, t) -> np.ndarray:
    """main_inequality_lhs for every column of a coordinate-leading (n, N) nu and every k; [k, column].

    margin_k = (k + 1) s_{n-k-1} - (n - k + coef) s_{n-k}, from two slices
    of one s table.  t is a scalar or one t per column.
    """
    n = cols.shape[0]
    s = _elem_sym_table(cols)
    return _main_margins(s[n - 1 :: -1], s[n:0:-1], np.arange(n)[:, None], n, _rhs_coefficient(d, t))


def _k0_slacks(cols: np.ndarray, d: int, t) -> np.ndarray:
    """k0_defect for every column of a coordinate-leading (n, N) nu, unchecked; (N,).

    t is a scalar or one t per column.  The reciprocal terms are added in
    coordinate order, first to last, which a row-wise np.sum also does
    for n < 8.
    """
    total = (1.0 - cols[0]) / cols[0]
    for row in cols[1:]:
        total = total + (1.0 - row) / row
    return _rhs_coefficient(d, t) - total


def _sympol_margins(ch: Channel | ChannelRows, lams: np.ndarray) -> np.ndarray:
    """Minus the worst relative defect over k of s_{d-k}(gamma) = phi_k(nu), per row."""
    d = ch.d
    gamma = _secular_block_roots(ch, lams) / by_row(ch.c1, 2)
    lhs = _elem_sym_table(gamma.T.copy())[d:0:-1]  # [k, row]
    rhs = _phi_terms(_elem_sym_table((1.0 + by_row(ch.ratio, 2) * lams).T.copy()), ch)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return -np.max(np.abs(lhs - rhs) / scale, axis=0)


def _schur_margins(ch: Channel | ChannelRows, lams: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Minus the Schur defect at one (k, a, b) per row, drawn from picks in [0, 1)^3."""
    d = ch.d
    k = np.minimum((picks[:, 0] * d).astype(int), d - 1)
    a = np.minimum((picks[:, 1] * d).astype(int), d - 1)
    b = np.minimum((picks[:, 2] * (d - 1)).astype(int), d - 2)
    b += b >= a
    return -_schur_defects(1.0 + by_row(ch.ratio, 2) * lams, k, a, b, ch)


# margins(streams, d, ts, samples) -> (k_values, segments) of a batch of
# cells of one d, per kind: streams[c]() opens the Philox stream of the
# cell at t = ts[c], and segments[c] holds its margins, with its columns on
# the last axis.


def _draw(streams, counts: list[int], *widths: int) -> list[np.ndarray]:
    """Each cell's stream doubles, drawn straight into its rows of one (sum(counts), width) array per width.

    Cell c opens streams[c] and fills its counts[c] rows of each array in
    turn, the order and layout of its own gen.random((count, width))
    calls.  A cell of no rows opens no stream.
    """
    blocks = [np.empty((sum(counts), width)) for width in widths]
    lo = 0
    for stream, count in zip(streams, counts):
        if count:
            gen = stream()
            for block in blocks:
                gen.random(out=block[lo : lo + count])
        lo += count
    return blocks


def _segments(margins: np.ndarray, counts: list[int]) -> list[np.ndarray]:
    """margins split into consecutive segments of counts[c] columns, as views."""
    return [margins] if len(counts) == 1 else np.split(margins, np.cumsum(counts)[:-1], axis=-1)


def _by_cell(values: list, counts: list[int]):
    """One value per cell, repeated over its counts[c] columns; a batch of one cell keeps its scalar."""
    return values[0] if len(values) == 1 else np.repeat(values, counts)


def _channels(d: int, ts: list[float], counts: list[int]) -> Channel | ChannelRows:
    """The validated channel of each cell, repeated over its counts[c] rows; a batch of one keeps its Channel."""
    channels = [new_channel(d, t) for t in ts]
    return channels[0] if len(channels) == 1 else ChannelRows.repeat(channels, counts)


def _polytope_cells(streams, d: int, ts: list[float], samples: int, corner_only: bool = False):
    """The samples of every cell, side by side as (n, N) columns, and the count of each cell.

    A corner-only cell whose simplex radius is at most 1 has no samples.
    """
    n = d - 2
    radius = [-box_ratio(d, t) for t in ts]
    counts = [0 if corner_only and r <= 1.0 else samples for r in radius]
    if not any(counts):
        return np.empty((n, 0)), counts
    [block] = _draw(streams, counts, n + 3)
    return _polytope_cols(block, n, _by_cell(radius, counts), corner_only), counts


def _main_cells(streams, d, ts, samples):
    # Each cell's segment holds its samples, then the vertices of its polytope.
    nu, counts = _polytope_cells(streams, d, ts, samples)
    vertices = [polytope_vertices(d, t).T for t in ts]
    cols = np.hstack([part for cell, ends in zip(_segments(nu, counts), vertices) for part in (cell, ends)])
    sizes = [count + ends.shape[1] for count, ends in zip(counts, vertices)]
    return list(range(d - 2)), _segments(_margins_main(cols, d, _by_cell(ts, sizes)), sizes)


def _k0_cells(streams, d, ts, samples):
    nu, counts = _polytope_cells(streams, d, ts, samples, corner_only=True)
    keep = ((nu < 0.0).sum(axis=0) == 1) & (np.abs(nu).min(axis=0) > NEAR_ZERO_NU)
    kept = [np.count_nonzero(cell) for cell in _segments(keep, counts)]
    return [0], _segments(_k0_slacks(nu[:, keep], d, _by_cell(ts, kept)), kept)


def _second_term_cells(streams, d, ts, samples):
    # Column n - k of the s table holds s_{n-k}, the margin of k = 1..n.
    n = d - 2
    nu, counts = _polytope_cells(streams, d, ts, samples)
    return list(range(1, n + 1)), _segments(_elem_sym_table(nu)[:n], counts)


def _extreme_cells(streams, d, ts, samples):
    values = [extreme_point_defect(d, t) for t in ts]
    return [], [np.array([] if value is None else [value]) for value in values]


def _final_poly_cells(streams, d, ts, samples):
    return [], [np.array([final_polynomial(d, t)]) for t in ts]


def _sympol_cells(streams, d, ts, samples):
    counts = [samples] * len(ts)
    ch = _channels(d, ts, counts)
    return list(range(d)), _segments(_sympol_margins(ch, _lambda_rows(*_draw(streams, counts, d))), counts)


def _schur_cells(streams, d, ts, samples):
    counts = [samples] * len(ts)
    ch = _channels(d, ts, counts)
    u, picks = _draw(streams, counts, d, 3)
    return list(range(d)), _segments(_schur_margins(ch, _lambda_rows(u), picks), counts)


# A second worker thread pays only once a batch's numpy calls are long.
# Measured: the median time of run_scan on 2 threads over its time on 1,
# 15-25 alternated runs each, on a 2-vCPU VM with BLAS on one thread
# (Python 3.11, numpy 2.4).  The width is that of the widest batch, its
# rows x d.
#
#   kind         d     samples  width  2 threads / 1
#   main         3:6   2000     12000  1.60
#   k0           3:6   2000     12000  1.70
#   second_term  3:6   2000     12000  1.56
#   schur        3:6   2000     12000  1.28
#   main         8     2000     16000  1.18
#   k0           8     2000     16000  1.57
#   second_term  8     2000     16000  1.02
#   schur        8     2000     16000  0.83
#   main         3:10  200      18000  1.81 (most batches far narrower)
#   main         9     2000     18000  0.93
#   k0           9     2000     18000  1.01
#   main         10    2000     20000  0.81-0.86
#   second_term  10    2000     20000  0.96
#   k0           10    2000     20000  0.91
#   main         3:6   4000     24000  0.94
#   schur        3:6   4000     24000  0.74
#   schur        6:12  2000     24000  0.78
#   main         3:6   8000     48000  0.63
#   sympol       3:5   50       2250   1.44
#   sympol       3:5   100      4500   1.47
#   sympol       3     500      6000   1.00-1.03
#   sympol       3     1000     6000   0.82
#   sympol       3:5   200      9000   0.96-0.99
#   sympol       3:5   500      10000  0.75
#   extreme      3:6   1        -      2.33
#
# The elementwise kinds cross over near 18000; sympol, whose batch is
# mostly one eigvalsh call with the lock released, near 6000.  extreme
# and final_poly compute one value per cell and never pay.
_ELEMENTWISE_FAN_OUT = 20000
_EIGVALSH_FAN_OUT = 6000

# kind -> (least d, margins, fan-out width).  The order is part of every
# stream key.
_KINDS = {
    "main": (3, _main_cells, _ELEMENTWISE_FAN_OUT),
    "k0": (3, _k0_cells, _ELEMENTWISE_FAN_OUT),
    "second_term": (3, _second_term_cells, _ELEMENTWISE_FAN_OUT),
    "extreme": (2, _extreme_cells, math.inf),
    "final_poly": (2, _final_poly_cells, math.inf),
    "sympol": (3, _sympol_cells, _EIGVALSH_FAN_OUT),
    "schur": (3, _schur_cells, _ELEMENTWISE_FAN_OUT),
}
SCAN_KINDS = tuple(_KINDS)

# The most rows (samples) one batch of cells holds.  The time per row of
# every kind falls steeply with the rows per call up to about 2000 and then
# flattens; the sympol kind, whose eigvalsh dominates, gains nothing more.
# A larger budget also raises the peak memory of a scan.
_BATCH_ROWS = 2048


def _scan_batch(kind: str, jobs: list, samples: int, seed: int) -> list[ScanReport]:
    """The reports of (d, t, t_idx) jobs of one d, run as one batch; each from its own segment."""
    d = jobs[0][0]
    streams = [functools.partial(philox_stream, seed, _cell_key(kind, d, t_idx)) for _, _, t_idx in jobs]
    ts = [t for _, t, _ in jobs]
    k_values, segments = _KINDS[kind][1](streams, d, ts, samples)
    return [
        ScanReport(
            kind=kind,
            d=d,
            t_values=[t],
            k_values=list(k_values),
            samples=int(margins.size),
            violations=int(np.count_nonzero(margins < -VIOLATION_TOL)),
            worst_margin=float(margins.min()) if margins.size else None,
            seed=seed,
        )
        for t, margins in zip(ts, segments)
    ]


def _batches(jobs: list, size: int) -> list[list]:
    """jobs cut, in order, into runs of consecutive jobs of one d, at most size jobs each."""
    batches = []
    for job in jobs:
        if batches and len(batches[-1]) < size and batches[-1][0][0] == job[0]:
            batches[-1].append(job)
        else:
            batches.append([job])
    return batches


def _run_batch(kind: str, samples: int, seed: int, batch: list) -> list[ScanReport]:
    """The reports of one batch.

    A batch of several cells that raises runs again one cell at a time:
    that raises the exception of its first failing cell, or gives the
    cells' reports when none fails alone.
    """
    try:
        return _scan_batch(kind, batch, samples, seed)
    except Exception:
        if len(batch) == 1:
            raise
    return [report for job in batch for report in _scan_batch(kind, [job], samples, seed)]


def run_scan(
    kind: str, d_values, t_grid=None, samples: int = 1000, seed: int = 0, threads: int = 1
) -> list[ScanReport]:
    """Scan one kind over dimensions and a t grid; one report per (d, t), in (d, t) order.

    d_values and t_grid may each be one value or a sequence.  The default
    grid has 9 points spanning [-1/(d-1), -1e-6].  The kind, every d (at
    most 255), every t of the grid (at most 65536 points), samples, seed
    (an integer in [0, 2^64)) and threads are checked before any cell
    runs.  threads is an upper bound on the worker threads; the batches,
    the reports and the exception a failing cell raises do not depend on
    it (see Batches and Threads above).
    """
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {SCAN_KINDS}, got {kind!r}")
    least_d = _KINDS[kind][0]
    d_list = [_whole(d, "d") for d in (d_values if np.iterable(d_values) else [d_values])]
    for d in d_list:
        if not least_d <= d <= 255:
            raise ConfigError(f"kind {kind!r} needs {least_d} <= d <= 255, got {d}")
    samples, seed, threads = _whole(samples, "samples"), _check_seed(seed), _whole(threads, "threads")
    if samples < 1:
        raise ConfigError("need samples >= 1")
    if threads < 1:
        raise ConfigError(f"need threads >= 1, got {threads}")

    if t_grid is not None:
        t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
        if t_grid.ndim > 1:
            raise ConfigError(f"t_grid must be one t or a 1-D grid, got shape {t_grid.shape}")
        _check_t_points(t_grid.size)

    jobs = []
    for d in d_list:
        grid = t_grid if t_grid is not None else default_t_grid(d)
        for t_idx, t in enumerate(grid.tolist()):
            _check_t(d, t)
            jobs.append((d, t, t_idx))

    batches = _batches(jobs, max(1, _BATCH_ROWS // samples))
    wide = sum(len(batch) * samples * batch[0][0] >= _KINDS[kind][2] for batch in batches)
    workers = min(threads, len(batches)) if wide >= 2 else 1
    run = functools.partial(_run_batch, kind, samples, seed)
    if workers <= 1:
        return [report for reports in map(run, batches) for report in reports]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return [report for reports in pool.map(run, batches) for report in reports]
