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

  Each root is bracketed between consecutive poles, or above the top
  pole, and found by a safeguarded rational iteration (see _secular_root)
  in a few evaluations of the secular function.

The off-diagonal family always carries total mass
(d-1)(1-t^2)/d regardless of lam; the secular family carries the rest.
"""

from __future__ import annotations

import math
import sys
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
SECULAR_REL_TOL = 1e-14
SECULAR_MAX_ITER = 200
# The secular iteration stops once |f| is within ROUNDING of its size
# 1 + |psi| + |phi|, the scale of its rounding error: there the sign of f
# is noise.  A root at g = 0 (t = -1/(d-1)) needs this test, since the
# relative step test cannot fire there.
ROUNDING = 8.0 * sys.float_info.epsilon
# The rational step falls back to bisection when neither the bracket nor
# the step has halved in this many steps.
STALL_STEPS = 3


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


def _schmidt_list(ch: Channel, lam) -> list[float]:
    """lam as a list of ch.d floats, validated as _as_schmidt validates it.

    This is the check on every iterate of the entropy optimizer, on floats
    and without a SchmidtVector.  A list of ch.d Python floats in [0, 1]
    whose fsum lies within SCHMIDT_SUM_TOL - d eps of one is returned as
    it is; _check_schmidt_rows accepts it too, since any order of summing
    d nonnegative entries that total about one is off the exact sum by
    less than d eps / 2.  Anything else, including a list near the edge
    of the tolerance, goes through _as_schmidt, which accepts it or
    raises the error a SchmidtVector raises.
    """
    if (
        type(lam) is list
        and len(lam) == ch.d
        and all(type(x) is float and 0.0 <= x <= 1.0 for x in lam)
        and abs(math.fsum(lam) - 1.0) <= SCHMIDT_SUM_TOL - ch.d * sys.float_info.epsilon
    ):
        return lam
    return _as_schmidt(ch, lam).values.tolist()


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


def _pair_values(ch: Channel, v: np.ndarray) -> np.ndarray:
    """gamma_ab = c1 + (c2/2)(lam_a + lam_b) over ordered pairs a != b, lexicographic."""
    d = v.size
    pair = ch.c1 + 0.5 * ch.c2 * (v[:, None] + v[None, :])
    # Past the first entry, the diagonal of the flattened d x d array is
    # every (d+1)-th entry; dropping that column keeps row-major order.
    return pair.ravel()[1:].reshape(d - 1, d + 1)[:, :d].ravel()


def offdiag_eigenvalues(ch: Channel, lam: "SchmidtVector | np.ndarray") -> list[tuple[int, int, float]]:
    """The (a, b, gamma_ab) family over ordered pairs a != b, lexicographic."""
    lam = _as_schmidt(ch, lam)
    pairs = [(a, b) for a in range(ch.d) for b in range(ch.d) if a != b]
    return [(a, b, g) for (a, b), g in zip(pairs, _pair_values(ch, lam.values))]


def _secular_terms(g: float, lower, upper) -> tuple[float, float, float, float]:
    """psi(g), phi(g), psi'(g) and phi'(g); f = 1 + psi + phi.

    lower holds the (pole, weight) pairs below g, which make up psi; upper
    the pairs above g, which make up phi.
    """
    psi = dpsi = 0.0
    for p, w in lower:
        r = 1.0 / (p - g)
        psi += w * r
        dpsi += w * r * r
    phi = dphi = 0.0
    for p, w in upper:
        r = 1.0 / (p - g)
        phi += w * r
        dphi += w * r * r
    return psi, phi, dpsi, dphi


def _middle_root(f: float, g: float, p: float, q: float, dpsi: float, dphi: float, at_p: bool) -> float:
    """Root of the middle-way model of f between the poles p < q, fitted at g.

    The model c + s/(p - x) + S/(q - x) matches f, psi' and phi' at g, so
    s = (p - g)^2 psi' and S = (q - g)^2 phi'.  Its root is solved as an
    offset y from the pole nearer the root, p when at_p and q otherwise,
    so a root within rounding of that pole comes out as the pole itself.
    NaN when the model has no root between the poles.
    """
    dp, dq = p - g, q - g
    s, big_s = dp * dp * dpsi, dq * dq * dphi
    c = f - dp * dpsi - dq * dphi
    # With the other pole at offset e, y solves c y^2 - a y + b = 0, and
    # the root between the poles is the stable one of the two.
    e, near = (q - p, s) if at_p else (p - q, big_s)
    a = c * e + s + big_s
    b = near * e
    disc = math.sqrt(abs(a * a - 4.0 * b * c))
    if a > 0.0:
        y = 2.0 * b / (a + disc)
    elif c != 0.0:
        y = (a - disc) / (2.0 * c)
    else:
        return math.nan
    return (p if at_p else q) + y


def _top_root(g: float, top: float, w: float, psi: float, dpsi: float) -> float:
    """Root above the top pole of the model fitted at g.

    The top pole's own term w/(top - x) is kept exactly; psi, the sum over
    every lower pole, is replaced by the one pole sigma/(P - x) that
    matches psi and psi' at g (Bunch, Nielsen and Sorensen 1978).  The
    free pole P follows the weight of the lower poles wherever it sits,
    which a pole fixed at a bracket end cannot do when the top poles carry
    tiny weights.  The root is solved as an offset y above the top pole.
    """
    if dpsi <= 0.0:
        return top + w  # no lower poles: the model is f itself
    e = (g - top) + psi / dpsi  # P - top < 0
    sigma = psi * psi / dpsi
    # 1 + sigma/(e - y) - w/y = 0, i.e. y^2 - a y + w e = 0 with w e <= 0.
    a = e + sigma + w
    disc = math.sqrt(abs(a * a - 4.0 * w * e))
    return top + ((a + disc) / 2.0 if a >= 0.0 else 2.0 * w * e / (a - disc))


def _secular_root(i: int, lo: float, hi: float, poles: list[float], weights: list[float]) -> float:
    """Root of the secular function in (lo, hi), where f(lo+) < 0 < f(hi-).

    The bracket lies between poles[i] and poles[i + 1], or above the top
    pole poles[i].  Safeguarded rational iteration: between two poles the
    "middle way" of LAPACK dlaed4 (R.-C. Li, Solving secular equations
    stably and efficiently, 1993, see _middle_root), above the top pole
    _top_root.  The bracket follows the sign of f.  A model root that
    rounds onto a bracket end moves to the next float inside.  The step
    falls back to bisection when the model root leaves the bracket, or
    when neither the bracket nor the step has halved in STALL_STEPS steps
    (iterates that close in from one side never halve the bracket).
    Converged when f is zero to rounding, the bracket or the step is
    within SECULAR_REL_TOL, or the bracket has collapsed at float
    resolution; tested before the safeguard, so a converged iterate is
    never bisected away.  The bracket ends themselves are never evaluated
    (they may be poles).
    """
    k = len(poles)
    split = i + 1 if i + 1 < k else k - 1  # the top pole's term stays apart
    lower = list(zip(poles[:split], weights[:split]))
    upper = list(zip(poles[split:], weights[split:]))
    p = poles[i]
    q = poles[i + 1] if i + 1 < k else math.inf
    g = 0.5 * (lo + hi)
    ref, prev_step, stalled = hi - lo, math.inf, 0
    for _ in range(SECULAR_MAX_ITER):
        if g <= lo or g >= hi:
            return g  # bracket collapsed at float resolution
        psi, phi, dpsi, dphi = _secular_terms(g, lower, upper)
        f = 1.0 + psi + phi
        if f < 0.0:
            lo = g
        else:
            hi = g
        if (
            abs(f) <= ROUNDING * (1.0 + phi - psi)
            or hi - lo <= SECULAR_REL_TOL * max(abs(lo), abs(hi)) + 1e-30
        ):
            return g
        if i + 1 < k:
            # After the first step the bracket lies in one half of (p, q).
            x = _middle_root(f, g, p, q, dpsi, dphi, lo + hi <= p + q)
        else:
            x = _top_root(g, p, weights[-1], psi, dpsi)
        # A step is trusted only inside the distance to the nearest pole,
        # over which f can change by as much as its own size.
        step = abs(x - g)
        if step <= SECULAR_REL_TOL * abs(g) + 1e-30 and step <= min(g - p, q - g):
            return x
        if hi - lo <= 0.5 * ref or step <= 0.5 * prev_step:
            ref, stalled = hi - lo, 0
        else:
            stalled += 1
        prev_step = step
        if stalled >= STALL_STEPS or not lo <= x <= hi:
            g, stalled = 0.5 * (lo + hi), 0
        elif x == lo or x == hi:
            g = math.nextafter(x, hi if x == lo else lo)
        else:
            g = x
    raise ConvergenceFailure(
        f"secular iteration did not converge in {SECULAR_MAX_ITER} steps"
    )


def _secular_values(ch: Channel, values: list[float]) -> list[float]:
    """The d eigenvalues of the diagonal-plus-rank-one block, in no order.

    values is a validated Schmidt vector as a list of floats.  Strategy:
    coordinates with negligible weight deflate to exact roots at c1;
    remaining poles c1 + c2 lam_a are sorted and merged when both the
    poles and the weights are close (a merged pole of multiplicity m
    keeps m-1 exact roots); one root is bracketed between consecutive
    distinct poles and one above the largest pole, each found by the
    rational iteration of _secular_root.

    This is the per-vector path, on Python floats, for callers that hold
    one vector at a time: the entropy optimizer calls it straight from
    its list-level objective, with no array in between.  Scans that hold
    many vectors use secular_roots_batch, whose numpy set-up costs more
    than this whole loop for a single vector.  The two run the same
    iteration and stopping rule.
    """
    d, t, c1, c2 = ch.d, ch.t, ch.c1, ch.c2
    if t == 0.0:
        # Constant output: every eigenvalue is 1/d^2.
        return [1.0 / d**2] * d
    active = [x for x in values if x > ZERO_WEIGHT_TOL]
    roots = [c1] * (d - len(active))
    pairs = sorted(((c1 + c2 * x, x) for x in active), key=lambda pair: pair[0])

    # Merge near-coincident poles, accumulating their weight t^2 sum(lam).
    poles: list[float] = []
    weights: list[float] = []
    i = 0
    while i < len(pairs):
        j = i
        while (
            j + 1 < len(pairs)
            and pairs[j + 1][0] - pairs[j][0] <= POLE_MERGE_TOL
            and abs(pairs[j + 1][1] - pairs[j][1]) <= LAM_MERGE_TOL
        ):
            j += 1
        if j == i:
            pole, mass = pairs[i]
        else:
            group = pairs[i : j + 1]
            # Clamped: a rounded mean past the group's ends could reorder
            # the poles, and an iterate could then land on one.
            pole = min(max(sum(p for p, _ in group) / len(group), group[0][0]), group[-1][0])
            mass = sum(x for _, x in group)
            roots.extend([pole] * (j - i))  # multiplicity m leaves m-1 roots here
        poles.append(pole)
        weights.append(t * t * mass)
        i = j + 1

    if poles:
        # Above the top pole by more than the total weight, where f > 0,
        # and strictly above it even when t^2 underflows the weights.
        top = poles[-1]
        top_hi = math.nextafter(top + max(sum(weights), 1e-300) * (1.0 + 1e-9), math.inf)
        for i in range(len(poles)):
            hi = poles[i + 1] if i + 1 < len(poles) else top_hi
            roots.append(_secular_root(i, poles[i], hi, poles, weights))
    return roots


def secular_roots(ch: Channel, lam: "SchmidtVector | np.ndarray") -> np.ndarray:
    """All d eigenvalues of the diagonal-plus-rank-one block, descending.

    The validated array form of _secular_values.
    """
    lam = _as_schmidt(ch, lam)
    return np.array(sorted(_secular_values(ch, lam.values.tolist()), reverse=True), dtype=float)


def _as_schmidt_rows(ch: Channel, lams) -> np.ndarray:
    rows = np.asarray(lams, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != ch.d:
        raise OutOfRange(f"Schmidt rows have shape {rows.shape}, expected (N, {ch.d})")
    _check_schmidt_rows(rows)
    return rows


def _secular_terms_batch(g: np.ndarray, pole: np.ndarray, weight: np.ndarray, lower: np.ndarray):
    """_secular_terms for M brackets at once: psi, phi, psi', phi', each (M,).

    Row m evaluates at g[m] with the poles and weights of its vector,
    pole[m] and weight[m] (padded with inf and 0); lower[m] marks the
    poles that make up psi.
    """
    r = 1.0 / (pole - g[:, None])
    term = weight * r
    dterm = term * r
    upper = ~lower
    return (
        np.sum(term, axis=1, where=lower),
        np.sum(term, axis=1, where=upper),
        np.sum(dterm, axis=1, where=lower),
        np.sum(dterm, axis=1, where=upper),
    )


def _model_root_batch(f, g, p, q, psi, dpsi, dphi, at_p, top, w_top):
    """_middle_root, or _top_root where top, for M brackets at once."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dp, dq = p - g, q - g
        s, big_s = dp * dp * dpsi, dq * dq * dphi
        c = f - dp * dpsi - dq * dphi
        e = np.where(at_p, q - p, p - q)
        a = c * e + s + big_s
        b = np.where(at_p, s, big_s) * e
        disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
        y = np.where(a > 0.0, 2.0 * b / (a + disc), np.where(c != 0.0, (a - disc) / (2.0 * c), np.nan))
        middle = np.where(at_p, p, q) + y

        e = (g - p) + psi / dpsi
        a = e + psi * psi / dpsi + w_top
        disc = np.sqrt(np.abs(a * a - 4.0 * w_top * e))
        y = np.where(a >= 0.0, 0.5 * (a + disc), 2.0 * w_top * e / (a - disc))
        upper = p + np.where(dpsi > 0.0, y, w_top)
        return np.where(top, upper, middle)


def secular_roots_batch(ch: Channel, lams) -> np.ndarray:
    """secular_roots for every row of an (N, d) array; (N, d), rows descending.

    The same deflation, pole merging and interlacing brackets as
    _secular_values, as array masks:

    * a weight at or below ZERO_WEIGHT_TOL gives the exact root c1;
    * consecutive sorted poles within POLE_MERGE_TOL, whose weights lie
      within LAM_MERGE_TOL, become one pole at the group mean with
      weight t^2 sum(lam), and leave m-1 roots there;
    * the remaining roots are found all at once, one bracket per group,
      by the safeguarded rational iteration and stopping rule of
      _secular_root.  Only those brackets are iterated; the padding
      poles (inf, with weight 0) add nothing to the secular sum.

    This is the path for scans, which hold many vectors.  A single
    vector is faster through _secular_values: the array set-up here
    costs more than that loop on floats, so the optimizer's list-level
    objective calls the list helper, and secular_roots wraps it.
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
    # Clamped to the group's first and last pole, as in _secular_values.
    first = np.take_along_axis(p, np.arange(d) - size.astype(int) + 1, axis=1)
    mean = np.clip(psum / size, first, p)
    for j in range(d - 2, -1, -1):
        mean[:, j] = np.where(joins[:, j], mean[:, j + 1], mean[:, j])

    # One bracket per group, at the group's last column; compact them to
    # the front so slot s < K brackets (pole_s, pole_{s+1}) or the top.
    slot = np.argsort(~last, axis=1, kind="stable")
    solve = np.take_along_axis(last, slot, axis=1)
    pole = np.take_along_axis(np.where(last, mean, np.inf), slot, axis=1)
    weight = np.take_along_axis(np.where(last, t * t * lsum, 0.0), slot, axis=1)
    fixed = np.take_along_axis(np.where(act, mean, ch.c1), slot, axis=1)
    top = np.max(np.where(last, mean, -np.inf), axis=1)
    width = np.maximum(weight.sum(axis=1), 1e-300)
    top_hi = np.nextafter(top + width * (1.0 + 1e-9), np.inf)
    next_pole = np.concatenate([pole[:, 1:], np.full((count, 1), np.inf)], axis=1)
    is_top = np.isinf(next_pole)
    hi = np.where(is_top, top_hi[:, None], next_pole)
    mid = 0.5 * (pole + hi)
    # A bracket already collapsed at float resolution keeps its midpoint.
    root = np.where(solve, mid, fixed)

    # The M brackets to iterate, one per row of these arrays.  Rows leave
    # the arrays as they converge, so each step costs only what is live.
    rows_of, slot_of = np.nonzero(solve & (pole < mid) & (mid < hi))
    at = np.arange(rows_of.size)
    pole_m, weight_m = pole[rows_of], weight[rows_of]
    is_top = is_top[rows_of, slot_of]
    # The top pole's term stays out of psi for the top root, as in _secular_root.
    lower = np.arange(d) < np.where(is_top, slot_of, slot_of + 1)[:, None]
    w_top = np.where(is_top, weight[rows_of, slot_of], 0.0)
    p, q = pole[rows_of, slot_of], next_pole[rows_of, slot_of]
    lo, hi, g = p, hi[rows_of, slot_of], mid[rows_of, slot_of]
    ref, prev_step = hi - lo, np.full(at.size, np.inf)
    stalled = np.zeros(at.size, dtype=int)
    found = np.empty(at.size)
    for _ in range(SECULAR_MAX_ITER):
        if at.size == 0:
            break
        psi, phi, dpsi, dphi = _secular_terms_batch(g, pole_m, weight_m, lower)
        f = 1.0 + psi + phi
        below = f < 0.0
        lo = np.where(below, g, lo)
        hi = np.where(below, hi, g)
        x = _model_root_batch(f, g, p, q, psi, dpsi, dphi, lo + hi <= p + q, is_top, w_top)
        step = np.abs(x - g)
        done = (np.abs(f) <= ROUNDING * (1.0 + phi - psi)) | (
            hi - lo <= SECULAR_REL_TOL * np.maximum(np.abs(lo), np.abs(hi)) + 1e-30
        )
        close = (
            ~done
            & (step <= SECULAR_REL_TOL * np.abs(g) + 1e-30)
            & (step <= np.minimum(g - p, q - g))
        )
        progress = (hi - lo <= 0.5 * ref) | (step <= 0.5 * prev_step)
        ref = np.where(progress, hi - lo, ref)
        stalled = np.where(progress, 0, stalled + 1)
        prev_step = step
        fallback = (stalled >= STALL_STEPS) | ~((lo <= x) & (x <= hi))
        stalled = np.where(fallback, 0, stalled)
        on_end = (x == lo) | (x == hi)
        nxt = np.where(
            fallback,
            0.5 * (lo + hi),
            np.where(on_end, np.nextafter(x, np.where(x == lo, hi, lo)), x),
        )
        collapsed = (nxt <= lo) | (nxt >= hi)
        finished = done | close | collapsed
        found[at[finished]] = np.where(done, g, np.where(close, x, nxt))[finished]
        keep = ~finished
        g = nxt[keep]
        at, pole_m, weight_m, lower, w_top, is_top = (
            v[keep] for v in (at, pole_m, weight_m, lower, w_top, is_top)
        )
        p, q, lo, hi, ref, prev_step, stalled = (
            v[keep] for v in (p, q, lo, hi, ref, prev_step, stalled)
        )
    else:
        raise ConvergenceFailure(
            f"secular iteration did not converge in {SECULAR_MAX_ITER} steps"
        )
    root[rows_of, slot_of] = found
    return np.sort(root, axis=1)[:, ::-1]


def full_spectrum(ch: Channel, lam: "SchmidtVector | np.ndarray") -> Spectrum:
    """Both families as a Spectrum record."""
    lam = _as_schmidt(ch, lam)
    d = ch.d
    return Spectrum(
        d=d,
        t=ch.t,
        c1=ch.c1,
        c2=ch.c2,
        offdiag_pairs=[(a, b) for a in range(d) for b in range(d) if a != b],
        offdiag=_pair_values(ch, lam.values),
        secular=secular_roots(ch, lam),
    )
