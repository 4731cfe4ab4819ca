"""Independent reference routes used to check the closed-form code paths.

Everything here is deliberately naive: dense matrices, brute-force sums,
finite differences.  None of it calls the closed-form spectrum, entropy or
symmetric-polynomial implementations under test.
"""

from __future__ import annotations

import itertools
import math

import mpmath
import numpy as np

from tdchan.channel import Channel, channel_kraus


def schmidt_state(lam: np.ndarray) -> np.ndarray:
    """|psi> = sum_a sqrt(lam_a) |aa> on the doubled system."""
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    psi = np.zeros(d * d)
    for a in range(d):
        psi[a * d + a] = np.sqrt(lam[a])
    return psi


def apply_defining_formula(ch: Channel, mat: np.ndarray) -> np.ndarray:
    """The defining map t mu^T + (1-t) tr(mu) I / d, written out."""
    return ch.t * mat.T + (1.0 - ch.t) * np.trace(mat) * np.eye(ch.d) / ch.d


def kraus_two_copy_output(ch: Channel, state: np.ndarray) -> np.ndarray:
    """(Phi x Phi)(|state><state|) via explicit Kraus sums, one tensor factor at a time.

    Phi x Phi = (Phi x id)(id x Phi): the Kraus sum of K x I applied to the
    Kraus sum of I x K, which is O(K) products instead of O(K^2).
    """
    rho = np.outer(state, np.conj(state))
    ops = channel_kraus(ch)
    eye = np.eye(ch.d)
    for lift in (lambda k: np.kron(eye, k), lambda k: np.kron(k, eye)):
        out = np.zeros_like(rho, dtype=complex)
        for k in ops:
            big = lift(k)
            out += big @ rho @ big.conj().T
        rho = out
    return rho


def dense_two_copy_spectrum(ch: Channel, lam: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of the Kraus-route two-copy output."""
    sigma = kraus_two_copy_output(ch, schmidt_state(lam))
    return np.sort(np.linalg.eigvalsh(sigma))[::-1]


def entropy_brute(values: np.ndarray, clamp: float = 1e-15) -> float:
    """-sum p ln p with the 0 ln 0 := 0 convention."""
    total = 0.0
    for p in np.asarray(values, dtype=float):
        if p > clamp:
            total -= p * np.log(p)
    return total


def entropy_loop(values, clamp: float) -> float:
    """-sum p ln p by a Python loop over the entries, in order.

    Each entry in (clamp, 1) subtracts p * math.log(p) from a total that
    starts at 0.0; every other entry adds nothing.
    """
    total = 0.0
    for p in values:
        if clamp < p < 1.0:
            total -= p * math.log(p)
    return total


def simplex_projection_sort(x) -> np.ndarray:
    """Euclidean projection onto the probability simplex, sort-based.

    theta is (sum of the i largest entries - 1) / i for the largest i at
    which the i-th largest entry still exceeds it.  The result is
    renormalized, since the projection can leave its sum a few ulp off 1.
    """
    x = np.asarray(x, dtype=float).ravel().tolist()
    css = theta = 0.0
    for i, u in enumerate(sorted(x, reverse=True), 1):
        css += u
        if u - (css - 1.0) / i > 0.0:
            theta = (css - 1.0) / i
    lam = [max(v - theta, 0.0) for v in x]
    total = math.fsum(lam)
    return np.array([v / total for v in lam])


def simplex_projection_bisect(x) -> np.ndarray:
    """Euclidean projection onto the probability simplex by bisection.

    The projection is max(x - theta, 0) for the theta at which it sums to
    one; that sum falls as theta rises, so theta is bisected in
    [min(x) - 1, max(x)] until the bracket stops shrinking.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = float(x.min()) - 1.0, float(x.max())
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.maximum(x - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(x - mid, 0.0)


def elem_sym_brute(values, q: int) -> float:
    """Elementary symmetric polynomial by explicit combinations."""
    values = list(values)
    if q < 0 or q > len(values):
        return 0.0
    if q == 0:
        return 1.0
    return float(sum(np.prod(c) for c in itertools.combinations(values, q)))


def central_difference(f, x: np.ndarray, i: int, step: float = 1e-6) -> float:
    """Central finite difference of f along coordinate i."""
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[i] += step
    xm[i] -= step
    return (f(xp) - f(xm)) / (2.0 * step)


def mp_block_roots(t, lam) -> list:
    """Eigenvalues (descending) of the diagonal-plus-rank-one block, as mpf.

    The block diag(c1 + c2 lam) + t^2 sqrt(lam) sqrt(lam)^T is built from
    t and lam (floats or mpf, taken exactly) in mpmath arithmetic at the
    working precision and diagonalized by mpmath's Jacobi solver, so this
    route shares nothing with LAPACK, whose eigvalsh the library's
    secular roots come from.
    """
    d = len(lam)
    tt = mpmath.mpf(t)
    lam = [mpmath.mpf(x) for x in lam]
    c1 = (1 - tt) ** 2 / d**2
    c2 = 2 * tt * (1 - tt) / d
    root = [mpmath.sqrt(x) for x in lam]
    block = mpmath.matrix(d, d)
    for a in range(d):
        for b in range(d):
            block[a, b] = tt**2 * root[a] * root[b]
        block[a, a] += c1 + c2 * lam[a]
    values = mpmath.eigsy(block, eigvals_only=True)
    return sorted((values[i] for i in range(d)), reverse=True)


def mp_secular_block_roots(t: float, lam, dps: int = 50) -> np.ndarray:
    """mp_block_roots of float lam at dps digits, rounded to floats."""
    with mpmath.workdps(dps):
        return np.array([float(g) for g in mp_block_roots(t, [float(x) for x in lam])])


def mp_entropy(values):
    """-sum p ln p in mpmath; entries at or below 0 contribute 0.

    A root that is exactly 0 comes out of the Jacobi solver as a
    rounding-sized number of either sign, whose p ln p is far below the
    working precision's resolution of the sum.
    """
    return -mpmath.fsum(p * mpmath.log(p) for p in values if p > 0)


def mp_two_copy_entropy(t, lam):
    """S1 + S2 of the two-copy output at the working precision.

    S1 sums the ordered pairs a != b of gamma_ab = c1 + (c2/2)(lam_a +
    lam_b) from their defining formula; S2 is the entropy of
    mp_block_roots.  t and lam are taken exactly.
    """
    d = len(lam)
    tt = mpmath.mpf(t)
    lam = [mpmath.mpf(x) for x in lam]
    c1 = (1 - tt) ** 2 / d**2
    c2 = 2 * tt * (1 - tt) / d
    gamma = [c1 + c2 / 2 * (lam[a] + lam[b]) for a in range(d) for b in range(d) if a != b]
    return mp_entropy(gamma) + mp_entropy(mp_block_roots(tt, lam))
