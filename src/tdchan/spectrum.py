"""Closed-form spectrum of the two-copy output on Schmidt-diagonal inputs.

For an input pure state with Schmidt coefficients lam on the doubled
system, the output of Phi (x) Phi splits into two eigenvalue families:

* d(d-1) "off-diagonal" eigenvalues, one per ordered pair (a, b) with
  a != b:

      gamma_ab = c1 + (c2 / 2) (lam_a + lam_b),

* d "secular" eigenvalues from the block on span{|aa>}: that block is
  diag(c1 + c2 lam) + t^2 sqrt(lam) sqrt(lam)^T, a diagonal plus
  rank-one matrix, so its eigenvalues are the roots g of

      1 + sum_a t^2 lam_a / (c1 + c2 lam_a - g) = 0

  together with the deflated values for zero-weight coordinates.

The off-diagonal family always carries total mass
(d-1)(1-t^2)/d regardless of lam; the secular family carries the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import Channel, DensityMatrix, check_finite
from .errors import ConvergenceFailure, OutOfRange, SumMismatch

SCHMIDT_SUM_TOL = 1e-12
# lam at or below this contributes a deflated root at c1.  Deflation drops
# the couplings t^2 sqrt(lam_a lam_b), which moves a root by up to
# sqrt(lam_a) when a reduced root sits at c1 (d = 3, t = -1/2), so the
# bound is sqrt(1e-30) = 1e-15.
ZERO_WEIGHT_TOL = 1e-30
# Consecutive poles merge when they lie within POLE_MERGE_TOL and their
# weights lam within LAM_MERGE_TOL.  Merging moves a root by at most half
# the pole gap (Weyl).  The lam condition keeps small |t|, where
# c2 = 2 t (1-t) / d shrinks every pole gap, from merging unrelated weights.
POLE_MERGE_TOL = 1e-12
LAM_MERGE_TOL = 1e-10
BISECT_REL_TOL = 1e-14
BISECT_MAX_ITER = 200


def _check_schmidt_rows(rows: np.ndarray) -> None:
    """Each row finite, nonnegative and summing to one."""
    if rows.size == 0:
        return
    low = rows.min()
    # False for NaN.  Past it no entry is negative, so the sums raise no
    # floating-point warning, and an infinite entry fails the sum test.
    if low >= 0.0:
        sums = rows.sum(axis=1)
        off = np.abs(sums - 1.0)
        if off.max() <= SCHMIDT_SUM_TOL:
            return
    check_finite(rows, "Schmidt coefficients")
    if low < 0.0:
        raise OutOfRange(f"negative Schmidt coefficient {low}")
    raise SumMismatch(f"coefficients sum to {sums[off.argmax()]}, expected 1")


@dataclass(frozen=True)
class SchmidtVector:
    """Schmidt coefficients: nonnegative, summing to one."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).reshape(-1)
        object.__setattr__(self, "values", v)
        if v.size < 2:
            raise OutOfRange("need at least two Schmidt coefficients")
        _check_schmidt_rows(v[None, :])

    @property
    def d(self) -> int:
        return self.values.size

    @staticmethod
    def uniform(d: int) -> "SchmidtVector":
        return SchmidtVector(np.full(d, 1.0 / d))

    @staticmethod
    def vertex(d: int, alpha: int = 0) -> "SchmidtVector":
        v = np.zeros(d)
        v[alpha] = 1.0
        return SchmidtVector(v)


@dataclass(frozen=True)
class Spectrum:
    """Both eigenvalue families plus the constants they were built from."""

    d: int
    t: float
    c1: float
    c2: float
    offdiag_pairs: list[tuple[int, int]]
    offdiag: np.ndarray
    secular: np.ndarray
    offdiag_sum: float = field(init=False)

    def __post_init__(self) -> None:
        # Analytic off-diagonal mass; lam-independent.
        object.__setattr__(
            self, "offdiag_sum", (self.d - 1) * (1.0 - self.t**2) / self.d
        )

    def all_eigenvalues(self) -> np.ndarray:
        """Concatenated families, sorted descending."""
        return np.sort(np.concatenate([self.offdiag, self.secular]))[::-1]


def _as_schmidt(ch: Channel, lam) -> SchmidtVector:
    """Coerce array-likes through the validated wrapper, then check length."""
    if not isinstance(lam, SchmidtVector):
        lam = SchmidtVector(np.asarray(lam, dtype=float))
    if lam.d != ch.d:
        raise OutOfRange(f"Schmidt vector has length {lam.d}, channel has d={ch.d}")
    return lam


def sigma12(ch: Channel, lam: "SchmidtVector | np.ndarray") -> DensityMatrix:
    """Materialize the two-copy output as a dense d^2 x d^2 density matrix.

    Diagonal entries c1 + (c2/2)(lam_a + lam_b) on |ab>, plus the
    t^2 sqrt(lam_a lam_b) coherences between |aa> and |bb>.
    """
    lam = _as_schmidt(ch, lam)
    d = ch.d
    v = lam.values
    m = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            m[a * d + b, a * d + b] = ch.c1 + 0.5 * ch.c2 * (v[a] + v[b])
    root = np.sqrt(v)
    for a in range(d):
        for b in range(d):
            m[a * d + a, b * d + b] += ch.t**2 * root[a] * root[b]
    return DensityMatrix(m)


def offdiag_eigenvalues(ch: Channel, lam: "SchmidtVector | np.ndarray") -> list[tuple[int, int, float]]:
    """The (a, b, gamma_ab) family over ordered pairs a != b, lexicographic."""
    lam = _as_schmidt(ch, lam)
    v = lam.values
    out = []
    for a in range(ch.d):
        for b in range(ch.d):
            if a == b:
                continue
            out.append((a, b, ch.c1 + 0.5 * ch.c2 * (v[a] + v[b])))
    return out


def _secular_value(g: float, poles: list[float], weights: list[float]) -> float:
    """f(g) = 1 + sum w / (p - g); strictly increasing between poles."""
    acc = 1.0
    for p, w in zip(poles, weights):
        acc += w / (p - g)
    return acc


def _bisect_root(a: float, b: float, poles: list[float], weights: list[float]) -> float:
    """Root of the secular function in (a, b), where f(a+) < 0 < f(b-).

    Plain bisection; the interval endpoints themselves are never
    evaluated (they may be poles).
    """
    lo, hi = a, b
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid  # interval exhausted at float resolution
        if hi - lo <= BISECT_REL_TOL * max(abs(lo), abs(hi)) + 1e-30:
            return mid
        if _secular_value(mid, poles, weights) < 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceFailure(
        f"secular bisection did not converge in {BISECT_MAX_ITER} iterations"
    )


def secular_roots(ch: Channel, lam: "SchmidtVector | np.ndarray") -> np.ndarray:
    """All d eigenvalues of the diagonal-plus-rank-one block, descending.

    Strategy: coordinates with negligible weight deflate to exact roots at
    c1; remaining poles c1 + c2 lam_a are sorted and merged when both
    the poles and the weights are close (a merged pole of multiplicity m
    keeps m-1 exact roots);
    one root is bracketed between consecutive distinct poles and one above
    the largest pole, each found by bisection.

    This is the per-vector path, for callers that hold one vector at a
    time (the entropy optimizer).  Scans that hold many vectors use
    secular_roots_batch, whose numpy set-up costs more than this whole
    loop for a single vector.  The two share only the tolerance constants.
    """
    lam = _as_schmidt(ch, lam)
    d, t = ch.d, ch.t
    if t == 0.0:
        # Constant output: every eigenvalue is 1/d^2.
        return np.full(d, 1.0 / d**2)
    v = lam.values
    roots: list[float] = []
    active = v[v > ZERO_WEIGHT_TOL]
    roots.extend([ch.c1] * (d - active.size))
    order = np.argsort(ch.c1 + ch.c2 * active, kind="stable")
    sorted_poles = (ch.c1 + ch.c2 * active)[order]
    sorted_lam = active[order]

    # Merge near-coincident poles, accumulating their weight t^2 sum(lam).
    poles: list[float] = []
    weights: list[float] = []
    i = 0
    while i < sorted_poles.size:
        j = i
        while (
            j + 1 < sorted_poles.size
            and sorted_poles[j + 1] - sorted_poles[j] <= POLE_MERGE_TOL
            and abs(sorted_lam[j + 1] - sorted_lam[j]) <= LAM_MERGE_TOL
        ):
            j += 1
        group = sorted_poles[i : j + 1]
        pole = float(np.mean(group))
        weights.append(float(t * t * np.sum(sorted_lam[i : j + 1])))
        poles.append(pole)
        roots.extend([pole] * (j - i))  # multiplicity m leaves m-1 roots here
        i = j + 1

    if poles:
        for i in range(len(poles) - 1):
            roots.append(_bisect_root(poles[i], poles[i + 1], poles, weights))
        # Extreme root above the top pole, within total weight of it.
        top = poles[-1]
        width = max(sum(weights), 1e-300)
        # Strictly above the top pole even when t^2 underflows the weights.
        hi = max(top + width * (1.0 + 1e-9), float(np.nextafter(top, np.inf)))
        for _ in range(BISECT_MAX_ITER):
            if _secular_value(hi, poles, weights) >= 0.0:
                break
            width *= 2.0
            hi = top + width
        else:
            raise ConvergenceFailure("no sign change found above the top pole")
        roots.append(_bisect_root(top, hi, poles, weights))

    out = np.array(sorted(roots, reverse=True), dtype=float)
    return out


def _as_schmidt_rows(ch: Channel, lams) -> np.ndarray:
    rows = np.asarray(lams, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != ch.d:
        raise OutOfRange(f"Schmidt rows have shape {rows.shape}, expected (N, {ch.d})")
    _check_schmidt_rows(rows)
    return rows


def secular_roots_batch(ch: Channel, lams) -> np.ndarray:
    """secular_roots for every row of an (N, d) array; (N, d), rows descending.

    The same deflation, pole merging and interlacing brackets as
    secular_roots, as array masks:

    * a weight at or below ZERO_WEIGHT_TOL gives the exact root c1;
    * consecutive sorted poles within POLE_MERGE_TOL, whose weights lie
      within LAM_MERGE_TOL, become one pole at the group mean with
      weight t^2 sum(lam), and leave m-1 roots there;
    * the remaining roots are bisected all at once, one bracket per
      slot, with the scalar path's stopping rule.  Slots without a
      bracket are frozen at zero width, and their poles are kept out of
      the secular sum, so no iterate divides by zero.

    This is the path for scans, which hold many vectors.  A single
    vector is faster through secular_roots: the array set-up here costs
    more than that scalar loop, so the optimizer keeps the scalar path.
    """
    rows = _as_schmidt_rows(ch, lams)
    count, d = rows.shape
    t = ch.t
    if t == 0.0:
        return np.full((count, d), 1.0 / d**2)

    # Deflated coordinates sort to the front, active poles follow ascending.
    active = rows > ZERO_WEIGHT_TOL
    poles = ch.c1 + ch.c2 * rows
    order = np.argsort(np.where(active, poles, -np.inf), axis=1, kind="stable")
    p = np.take_along_axis(poles, order, axis=1)
    lam = np.take_along_axis(rows, order, axis=1)
    act = np.take_along_axis(active, order, axis=1)

    # Merge groups: running sums of pole, lam and group size left to
    # right, then the group mean copied right to left.
    joins = (
        act[:, 1:]
        & act[:, :-1]
        & (np.diff(p, axis=1) <= POLE_MERGE_TOL)
        & (np.abs(np.diff(lam, axis=1)) <= LAM_MERGE_TOL)
    )
    acc = np.stack([p, lam, np.ones((count, d))])
    for j in range(1, d):
        acc[:, :, j] += np.where(joins[:, j - 1], acc[:, :, j - 1], 0.0)
    psum, lsum, size = acc
    last = act & np.concatenate([~joins, np.ones((count, 1), dtype=bool)], axis=1)
    mean = psum / size
    for j in range(d - 2, -1, -1):
        mean[:, j] = np.where(joins[:, j], mean[:, j + 1], mean[:, j])

    # One bracket per group, at the group's last column; compact them to
    # the front so slot s < K brackets (pole_s, pole_{s+1}) or the top.
    slot = np.argsort(~last, axis=1, kind="stable")
    bisect = np.take_along_axis(last, slot, axis=1)
    pole = np.take_along_axis(np.where(last, mean, np.inf), slot, axis=1)
    weight = np.take_along_axis(np.where(last, t * t * lsum, 0.0), slot, axis=1)
    fixed = np.take_along_axis(np.where(act, mean, ch.c1), slot, axis=1)
    top = np.max(np.where(last, mean, -np.inf), axis=1)
    width = np.maximum(weight.sum(axis=1), 1e-300)
    top_hi = np.nextafter(top + width * (1.0 + 1e-9), np.inf)
    next_pole = np.concatenate([pole[:, 1:], np.full((count, 1), np.inf)], axis=1)
    lo = np.where(bisect, pole, fixed)
    hi = np.where(bisect, np.where(np.isfinite(next_pole), next_pole, top_hi[:, None]), fixed)

    live = bisect.copy()
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        done = live & (
            (mid <= lo)
            | (mid >= hi)
            | (hi - lo <= BISECT_REL_TOL * np.maximum(np.abs(lo), np.abs(hi)) + 1e-30)
        )
        lo = np.where(done, mid, lo)
        hi = np.where(done, mid, hi)
        live &= ~done
        if not np.any(live):
            break
        # Slots off the bisection evaluate at top_hi, above every pole.
        g = np.where(live, mid, top_hi[:, None])
        f = 1.0 + np.sum(weight[:, None, :] / (pole[:, None, :] - g[:, :, None]), axis=2)
        below = f < 0.0
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)
    else:
        raise ConvergenceFailure(
            f"secular bisection did not converge in {BISECT_MAX_ITER} iterations"
        )
    return np.sort(0.5 * (lo + hi), axis=1)[:, ::-1]


def full_spectrum(ch: Channel, lam: "SchmidtVector | np.ndarray") -> Spectrum:
    """Both families as a Spectrum record."""
    triples = offdiag_eigenvalues(ch, lam)
    return Spectrum(
        d=ch.d,
        t=ch.t,
        c1=ch.c1,
        c2=ch.c2,
        offdiag_pairs=[(a, b) for a, b, _ in triples],
        offdiag=np.array([g for _, _, g in triples]),
        secular=secular_roots(ch, lam),
    )
