"""Independent reference routes used to check the closed-form code paths.

Everything here is deliberately naive: dense matrices, brute-force sums,
finite differences.  None of it calls the closed-form spectrum, entropy or
symmetric-polynomial implementations under test.
"""

from __future__ import annotations

import itertools
import json
import math

import mpmath
import numpy as np

from tdchan.channel import Channel, channel_kraus


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-normalized diagonal."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix G G* / tr(G G*) with Gaussian G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


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


def sigma12_loops(ch: Channel, lam) -> np.ndarray:
    """The dense two-copy output of a Schmidt input, filled entry by entry in two double loops.

    c1 + (c2/2)(lam_a + lam_b) on the diagonal entry of |ab>, then
    t^2 sqrt(lam_a) sqrt(lam_b) added between |aa> and |bb>.
    """
    v = np.asarray(lam, dtype=float)
    d = ch.d
    m = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            m[a * d + b, a * d + b] = ch.c1 + 0.5 * ch.c2 * (v[a] + v[b])
    root = np.sqrt(v)
    for a in range(d):
        for b in range(d):
            m[a * d + a, b * d + b] += ch.t**2 * root[a] * root[b]
    return m


def covariance_trace_distances_kron(ch: Channel, states, weights, outputs) -> np.ndarray:
    """(1/2) ||K^H out K - sigma12(lam / sum lam)||_1 for each state, with K = conj(U) (x) V built by np.kron.

    Each state psi, read as the d x d matrix M = U S V^H (np.linalg.svd
    of that state alone), is conj(K) applied to sum_a s_a |aa>.  The
    channel maps W mu W^H to conj(W) Phi(mu) W^T, so out, the same row of
    outputs and the dense output of psi / ||psi||, rotated into the
    Schmidt bases, must be sigma12 at the same row lam of weights scaled
    to sum 1, filled in by sigma12_loops.  The trace norm of the
    Hermitian difference is the sum of the absolute values of its
    eigenvalues.
    """
    d = ch.d
    distances = []
    for psi, lam, out in zip(states, weights, outputs):
        u, _, vh = np.linalg.svd(np.asarray(psi).reshape(d, d))
        k = np.kron(u.conj(), vh.conj().T)
        residual = k.conj().T @ out @ k - sigma12_loops(ch, lam / np.sum(lam))
        distances.append(0.5 * np.abs(np.linalg.eigvalsh(residual)).sum())
    return np.array(distances)


def fannes_audenaert(trace: float, dim: int) -> float:
    """T ln(D - 1) - T ln T - (1 - T) ln(1 - T): the largest entropy difference of two states on C^D at trace distance T <= 1.

    Audenaert's sharp form (J. Phys. A 40, 8127 (2007)) of the bound of
    Fannes (1973), in mpmath at 40 digits, rounded once; 0 ln 0 counts as
    0.
    """
    with mpmath.workdps(40):
        t = mpmath.mpf(trace)
        binary = -sum(p * mpmath.log(p) for p in (t, 1 - t) if p > 0)
        return float(t * mpmath.log(dim - 1) + binary)


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

    Each entry in (clamp, 1) subtracts p * ln p from a total that starts
    at 0.0, with ln p from one np.log call on the row; every other entry
    adds nothing.
    """
    values = [float(p) for p in values]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.array(values, dtype=float)).tolist()
    total = 0.0
    for p, log_p in zip(values, logs):
        if clamp < p < 1.0:
            total -= p * log_p
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


def simplex_lattice_full(d: int, budget: int) -> np.ndarray:
    """Every row k / m, k in N^d with sum k = m, of the finest lattice that fits budget.

    m is the largest resolution whose C(m + d - 1, d - 1) rows number at
    most budget, and at least 1.  The rows come from the stars-and-bars
    positions, in their lexicographic order: every composition of m, with
    no two rows equal.
    """
    m = 1
    while math.comb(m + d, d - 1) <= budget:
        m += 1
    bars = np.array(list(itertools.combinations(range(m + d - 1), d - 1)))
    return (np.diff(bars, axis=1, prepend=-1, append=m + d - 1) - 1) / m


def elem_sym_brute(values, q: int) -> float:
    """Elementary symmetric polynomial by explicit combinations."""
    values = list(values)
    if q < 0 or q > len(values):
        return 0.0
    if q == 0:
        return 1.0
    return float(sum(np.prod(c) for c in itertools.combinations(values, q)))


def loo_elem_sym(cols: np.ndarray, table: np.ndarray, q: int) -> np.ndarray:
    """s_0..s_q without coordinate l, for each row l of cols; a new [r, l, ...] array.

    The downdate recurrence b_r(l) = s_r - m_l b_{r-1}(l), stable for
    |m_l| <= 1.  cols is coordinate-leading, (n, ...), and table holds
    s_0..s_q of the full vector, degree-leading, so that table[r]
    broadcasts against cols.  Applied to a leave-one-out table [r, i, ...]
    with cols[:, None] it gives s_r(m \\ {i, l}) as [r, l, i, ...].
    """
    b = np.empty((q + 1,) + np.broadcast_shapes(cols.shape, (1,) + table.shape[1:]))
    b[0] = 1.0
    for r in range(1, q + 1):
        b[r] = table[r] - cols * b[r - 1]
    return b


def partial_phi_full_tensor(nu, ch: Channel) -> np.ndarray:
    """d phi_k / d nu_i for every row, i and k; (N, d, d) indexed [row, i, k].

    The full-tensor route: the s table and the leave-one-out table of
    every coordinate, then a leave-two-out table over every pair,
    (N, d, d, d - 1), masked where l == i and summed over l in
    coordinate order.  The recurrences are written out here, on
    row-leading arrays, with no call into the package.
    """
    nu = np.asarray(nu, dtype=float)
    count, d = nu.shape
    coef = ch.t**2 / ch.c2
    table = np.zeros((d + 1, count))
    table[0] = 1.0
    for c in range(d):
        table[1 : c + 2] += nu[:, c] * table[: c + 1]
    loo = np.empty((count, d, d))  # [row, i, r] = s_r(nu \ i)
    loo[:, :, 0] = 1.0
    for r in range(1, d):
        loo[:, :, r] = table[r][:, None] - nu * loo[:, :, r - 1]
    loo2 = np.empty((count, d, d, d - 1))  # [row, i, l, r] = s_r(nu \ {i, l})
    loo2[..., 0] = 1.0
    for r in range(1, d - 1):
        loo2[..., r] = loo[:, :, r][:, :, None] - nu[:, None, :] * loo2[..., r - 1]
    terms = np.where(
        ~np.eye(d, dtype=bool)[None, :, :, None], (nu[:, None, :] - 1.0)[..., None] * loo2, 0.0
    )
    inner = terms[:, :, 0]
    for l in range(1, d):
        inner = inner + terms[:, :, l]
    # s_{d-2-k} vanishes at k = d - 1: pad r = -1 with a zero column.
    inner = np.concatenate([np.zeros((count, d, 1)), inner], axis=2)
    k = np.arange(d)
    return (1.0 + coef) * loo[:, :, d - 1 - k] + coef * inner[:, :, d - 1 - k]


def schur_defect_full_tensor(nu, k, i, j, ch: Channel) -> np.ndarray:
    """(nu_i - nu_j)(d phi_k/d nu_i - d phi_k/d nu_j) per row, from partial_phi_full_tensor."""
    nu = np.asarray(nu, dtype=float)
    rows = np.arange(nu.shape[0])
    partial = partial_phi_full_tensor(nu, ch)
    return (nu[rows, i] - nu[rows, j]) * (partial[rows, i, k] - partial[rows, j, k])


def mp_elem_sym(values, q: int):
    """s_q of mpf values by explicit combinations; 0 outside [0, len(values)]."""
    if q < 0 or q > len(values):
        return mpmath.mpf(0)
    return mpmath.fsum(mpmath.fprod(c) for c in itertools.combinations(values, q))


def _mp_phi_setup(t, nu):
    """(c, nu) as mpf at the working precision: c = t^2/c2 with c2 = 2t(1-t)/d formed in mpmath."""
    tt = mpmath.mpf(t)
    return tt**2 / (2 * tt * (1 - tt) / len(nu)), [mpmath.mpf(float(x)) for x in nu]


def _without(values, *drop):
    return [x for m, x in enumerate(values) if m not in drop]


def mp_phi(t: float, nu, k: int, dps: int = 50) -> float:
    """phi_k(nu) = s_{d-k}(nu) + c sum_l s_{d-1-k}(nu \\ l)(nu_l - 1) at dps digits, term by term."""
    d = len(nu)
    with mpmath.workdps(dps):
        coef, v = _mp_phi_setup(t, nu)
        inner = mpmath.fsum((v[l] - 1) * mp_elem_sym(_without(v, l), d - 1 - k) for l in range(d))
        return float(mp_elem_sym(v, d - k) + coef * inner)


def _mp_partial(coef, v, k: int, i: int):
    """d phi_k / d nu_i as an mpf: phi_k differentiated term by term."""
    d = len(v)
    total = mp_elem_sym(_without(v, i), d - k - 1)
    for l in range(d):
        if l == i:  # d/d nu_i of (nu_i - 1) s_{d-1-k}(nu \ i)
            total += coef * mp_elem_sym(_without(v, i), d - 1 - k)
        else:  # (nu_l - 1) d/d nu_i s_{d-1-k}(nu \ l)
            total += coef * (v[l] - 1) * mp_elem_sym(_without(v, l, i), d - 2 - k)
    return total


def mp_partial_phi(t: float, nu, k: int, i: int, dps: int = 50) -> float:
    """d phi_k / d nu_i at dps digits, by differentiating phi_k term by term.

    phi_k = s_{d-k}(nu) + (t^2/c2) sum_l s_{d-1-k}(nu \\ l)(nu_l - 1), and
    d s_r / d nu_i = s_{r-1}(nu \\ i): no downdate recurrence is involved.
    t and nu are taken exactly, and c2 = 2t(1-t)/d is formed in mpmath.
    """
    with mpmath.workdps(dps):
        return float(_mp_partial(*_mp_phi_setup(t, nu), k, i))


def mp_schur_defect(t: float, nu, k: int, i: int, j: int, dps: int = 50):
    """(nu_i - nu_j)(d phi_k/d nu_i - d phi_k/d nu_j) as an mpf, from the term-by-term partials."""
    with mpmath.workdps(dps):
        coef, v = _mp_phi_setup(t, nu)
        return (v[i] - v[j]) * (_mp_partial(coef, v, k, i) - _mp_partial(coef, v, k, j))


def mp_main_margin(t: float, d: int, nu, k: int, dps: int = 50):
    """sum_l (1 - nu_l) s_{n-k-1}(nu \\ l) - coef s_{n-k}(nu) as an mpf, for n = len(nu).

    The main inequality as the paper writes it, with coef = 2(1 + t(d-1))/(td)
    formed in mpmath; k may run past n - 1, where s of a negative degree is 0.
    """
    n = len(nu)
    with mpmath.workdps(dps):
        tt = mpmath.mpf(t)
        v = [mpmath.mpf(float(x)) for x in nu]
        coef = 2 * (1 + tt * (d - 1)) / (tt * d)
        first = mpmath.fsum((1 - v[l]) * mp_elem_sym(_without(v, l), n - k - 1) for l in range(n))
        return first - coef * mp_elem_sym(v, n - k)


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


def polytope_batch_rows(
    gen: np.random.Generator, n: int, radius: float, count: int, corner_only: bool = False
) -> np.ndarray:
    """The row-major polytope sampler: count samples as (count, n) rows.

    Reads the same n + 3 doubles per sample as verification._polytope_batch
    and normalizes each row of exponential spacings by a row-wise np.sum.
    """
    if corner_only and radius <= 1.0:
        return np.empty((0, n))
    block = gen.random((count, n + 3))
    expo = -np.log1p(-block[:, 2:])
    w = (expo / np.maximum(expo.sum(axis=1), 1e-300)[:, None])[:, :n]
    corner = corner_only | ((block[:, 0] >= 0.5) & (radius > 1.0))
    scale = np.where(corner, radius - 1.0, radius)
    nu = 1.0 - scale[:, None] * w
    rows = np.flatnonzero(corner)
    pos = np.minimum((block[rows, 1] * n).astype(int), n - 1)
    nu[rows, pos] = -scale[rows] * w[rows, pos]
    return nu


def to_json_recursive(obj) -> str:
    """JSON text with 17-significant-digit floats, by isinstance checks in one recursion."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return "NaN" if obj != obj else format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {to_json_recursive(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(to_json_recursive(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")
