"""Output entropies of the channel and its two-copy products.

The two-copy output entropy on Schmidt-diagonal inputs splits into the
off-diagonal part S1 = -sum gamma ln gamma and the secular part
S2 = -sum g ln g.  Because the off-diagonal mass c = (d-1)(1-t^2)/d does
not depend on the Schmidt coefficients, each part is an entropy of a
normalized distribution plus a constant:

    S1 = c H(gamma/c) - c ln c,
    S2 = (1-c) H(g/(1-c)) - (1-c) ln(1-c).

The minimum output entropy of a single copy has the closed form

    h = -(t + (1-t)/d) ln(t + (1-t)/d) - (d-1) ((1-t)/d) ln((1-t)/d)

since every pure input produces the same output spectrum.  Additivity of
the two-copy minimum is checked numerically: a probe of the Schmidt
simplex plus Haar-random bipartite pure states, both compared against 2h.

Natural logarithms throughout; CLI handles base conversion on output.

The probe evaluates the two-copy entropy on a fixed batch of Schmidt
vectors: the d vertices, the barycenter, cfg.restarts uniform draws and
one nonincreasing row per permutation orbit of the finest simplex
lattice {k / m} whose C(m + d - 1, d - 1) rows fit _LATTICE_ROWS.  The
channel is unitarily covariant, Phi(U mu U^H) = conj(U) Phi(mu) U^T.
Permuting the Schmidt weights is the product unitary P x P on the
input, which conjugates the two-copy output by a unitary, so every
permutation of a row has the same output spectrum and one row stands
for its orbit (_simplex_lattice gives the row counts).  So _LATTICE_ROWS
sets m, the full lattice's budget, not the number of rows probed.  The rows of
one orbit agree to rounding, not bit for bit: wherever |t| >= 1e-6 the
probe gives the minimum and argmin of the full lattice bit for bit, but
near t = 0, where the entropy is flat to rounding, the minimum may move
by a few ulp (by at most 1.8e-15, at |t| <= 1e-9, on 702 cells
compared).  The tests find the entropy concave on the simplex (chord
slacks over the whole t range, the worst one at 50 digits), so its
minimum sits at a vertex, where it equals 2h; the other rows are
evidence that no interior point beats it.  The whole batch goes through _split_rows: S1
takes the pair values of every row as one array, and S2 the roots of
every row from one spectrum._secular_block_roots call, the kernel behind
secular_roots and secular_roots_batch.  A row gets the same bits there
as alone, so the vertex values are those of simplex_output_entropy.

The Haar-random states of a cell are the rows of one standard-normal
block from one stream.  The channel is unitarily covariant, so the
two-copy output of a pure input has the spectrum of the Schmidt-diagonal
input with the same Schmidt weights.  The weights of every state come
from one batched eigvalsh of M M^H, with M the state as a d x d matrix,
and their entropies from one _split_rows call, as the probe's do.

Only the t-dependent work runs per cell.  Three read-only caches hold
the rest, each built on first use: _probe_rows keeps the probe's rows
for the last (seed, d, restarts), _haar_sample, for the last
(seed, d, n_random), the weights of every state and the covariance
check's Gram matrices of the first _DENSE_CHECK_STATES states, and
_pair_index the pair table of S1 for each d.  Their docstrings give what
each entry holds.  The covariance check holds the reduction to the
Schmidt weights on the checked states.  Each state's two-copy output
minus the reference K sigma12(lam) K^H at its cached weights is a
residual E(t) = t^2 R2 + t(1-t) R1 + (1-t)^2 R0 whose coefficients do
not depend on t.  A sample's build reads them off the state's d x d
matrix and the factors of the reference, in O(d^3) per state, and keeps
their 3 x 3 Gram matrix; each cell reads ||E(t)||_F from it in O(k)
(_covariance_residuals gives the coefficients).  What is given up:
apply_two_copies does not run at run time.  The coefficients restate its
formula, so a fault in apply_two_copies itself is never seen here, and
a fault in the check's inputs introduced after a key is built shows only
at the next build.  The tests tie the coefficients to apply_two_copies
at eleven t (test_gram_residuals_match_the_direct_dense_residuals)
and to an independent Kronecker oracle
(test_covariance_residuals_match_the_kronecker_oracle).  A residual
above _residual_tol(d), which by the Fannes-Audenaert bound keeps the
dense and closed-form entropies within _COVARIANCE_TOL, raises
CovarianceMismatch, which is no TdchanError, since then the library and
not its input is at fault.  No d^2 x d^2 eigvalsh runs; the tests check
the spectrum of sigma12 against _split_rows instead.

Every entropy in the module, of a vector or of each row of an array,
comes from one reduction, _entropy_rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import Channel, DensityMatrix, _whole, check_finite
from .errors import ConfigError, CovarianceMismatch, NotPSD
from .sampling import _check_seed, _lambda_rows, haar_states, philox_stream
from .spectrum import SchmidtVector, _as_schmidt, _check_schmidt_rows, _secular_block_roots

ENTROPY_CLAMP = 1e-15  # eigenvalues at or below this contribute 0 ln 0 := 0
EIGENVALUE_FLOOR = -1e-10
# Row budget of the full simplex lattice, which sets its resolution m;
# minimize_simplex_entropy probes one row per permutation orbit of it.
_LATTICE_ROWS = 500
# Haar-random states per sample whose two-copy output is checked against
# K sigma12 K^H, and the largest |S_dense - S_closed| its residual
# tolerance allows.
_DENSE_CHECK_STATES = 16
_COVARIANCE_TOL = 1e-10

# The Philox cell keys of the three sample families.  A scan cell's key
# has a low byte of 0, so these never open a scan cell's stream.
_TAG_SIMPLEX = 1
_TAG_HAAR = 2
_TAG_UNIT = 3


@dataclass(frozen=True)
class OptimizerConfig:
    """Sample counts and seed of the entropy probes.

    The class name and the field name restarts are kept for API
    compatibility: no optimizer runs and nothing restarts.  restarts
    sizes two unrelated samples: the random simplex rows of
    minimize_simplex_entropy, probed besides the vertices, the barycenter
    and one row per permutation orbit of the lattice, and the random unit
    vectors of min_output_entropy.
    n_random counts the Haar-random states of additivity_gap, whose
    entropies come from their Schmidt weights, and of which the first
    _DENSE_CHECK_STATES are also checked against the two-copy output at
    every t.  Nothing that does not depend on t is rebuilt per t: the
    probe rows are built once per (seed, d, restarts) and the states,
    their weights and the Gram matrices of the covariance check once per
    (seed, d, n_random); the last entry of each stays alive after the
    call returns (see _probe_rows and _haar_sample for its size).  All
    three must be integers, the seed in [0, 2^64), and neither count may
    be negative;
    0 draws no random simplex row, but still one unit vector and one
    Haar-random state.
    """

    restarts: int = 50
    n_random: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "n_random"):
            _whole(getattr(self, name), name)
        _check_seed(self.seed)
        if self.restarts < 0:
            raise ConfigError(f"restarts must be >= 0, got {self.restarts}")
        if self.n_random < 0:
            raise ConfigError(f"n_random must be >= 0, got {self.n_random}")


@dataclass(frozen=True)
class EntropyReport:
    s_total: float
    s1: float
    s2: float
    c: float


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """-sum p ln p of each row of a 2-D array; (N,).

    Entries at or below ENTROPY_CLAMP count as exact zeros and entries
    at or above 1 as exact ones, so both contribute 0: a root that rounds
    to 1 + 2**-52 would otherwise add -p ln p < 0 and make an entropy
    negative.  A NaN or infinite entry raises OutOfRange, and a finite
    entry below EIGENVALUE_FLOOR NotPSD.  Two reductions, a minimum and
    a maximum, pass a valid array; only a failure builds a mask, to name
    the first entry below the floor.

    Each row's terms are subtracted from 0 column by column, in order, so
    a row gets the same bits alone as in a batch of any height; a
    row-wise np.sum of 8 or more terms would not.
    """
    if p.size and not (p.min() >= EIGENVALUE_FLOOR and p.max() < math.inf):
        check_finite(p, "entropy input entries")
        raise NotPSD(f"entropy of a vector with entry {p[p < EIGENVALUE_FLOOR][0]}")
    q = np.where((p > ENTROPY_CLAMP) & (p < 1.0), p, 1.0)
    terms = q * np.log(q)
    total = np.zeros(len(p))
    for column in terms.T:
        total -= column
    return total


def entropy_of(values: np.ndarray) -> float:
    """Shannon entropy -sum p ln p of a nonnegative vector.

    Entries at or below the clamp threshold are treated as exact zeros,
    and entries at or above 1 as exact ones, so both contribute 0.
    Entries below -1e-10 indicate a genuinely non-PSD input and raise
    NotPSD; a NaN or infinite entry raises OutOfRange.
    """
    return float(_entropy_rows(np.asarray(values, dtype=float).reshape(1, -1))[0])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr rho ln rho, from the eigenvalues that rho's PSD check computed."""
    return entropy_of(rho.eigenvalues)


@functools.cache
def _pair_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(d, -1): the unordered pairs (a, b), a > b, that S1 sums; built once per d, read-only."""
    pairs = np.tril_indices(d, -1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _split_rows(ch: Channel, lams) -> tuple[np.ndarray, np.ndarray]:
    """(S1, S2) arrays of the two-copy output, one entry per row of lams, validated Schmidt vectors.

    Built from the two families directly, with no Spectrum record.
    gamma_ab is symmetric in (a, b), so S1 sums the unordered pairs
    (1, 0), (2, 0), (2, 1), ... and doubles.  S2 sums the secular roots
    in descending order.  The roots of all rows come from one
    _secular_block_roots call, and each row gets the same bits as a
    one-row call.
    """
    rows = np.asarray(lams, dtype=float)
    a, b = _pair_index(rows.shape[1])
    s1 = 2.0 * _entropy_rows(ch.c1 + 0.5 * ch.c2 * (rows[:, a] + rows[:, b]))
    s2 = _entropy_rows(_secular_block_roots(ch, rows))
    return s1, s2


def entropy_split(ch: Channel, lam: "SchmidtVector | list[float]") -> EntropyReport:
    """S1, S2 and their sum for the two-copy output, from the closed form."""
    s1, s2 = _split_rows(ch, _as_schmidt(ch, lam).values[None, :])
    s1, s2 = float(s1[0]), float(s2[0])
    c = (ch.d - 1) * (1.0 - ch.t**2) / ch.d
    return EntropyReport(s_total=s1 + s2, s1=s1, s2=s2, c=c)


def simplex_output_entropy(ch: Channel, lam: "SchmidtVector | list[float]") -> float:
    """Two-copy output entropy of the Schmidt-diagonal input lam.

    lam may be a plain list of d floats, checked as a SchmidtVector
    checks it; it is entropy_split(ch, lam).s_total, which has the bits
    of the batched probe of minimize_simplex_entropy.
    """
    return entropy_split(ch, lam).s_total


def min_entropy_closed_form(ch: Channel) -> float:
    """Single-copy minimum output entropy, exact.

    Any pure input maps to spectrum {t + (1-t)/d, (1-t)/d x (d-1)}, so the
    minimum over states is this spectrum's entropy.
    """
    big = ch.t + (1.0 - ch.t) / ch.d
    small = (1.0 - ch.t) / ch.d
    return entropy_of(np.array([big] + [small] * (ch.d - 1)))


def min_output_entropy(ch: Channel, cfg: OptimizerConfig = OptimizerConfig()) -> tuple[float, np.ndarray]:
    """Numerical minimum of S(Phi(|psi><psi|)) over pure states.

    Samples max(cfg.restarts, 1) Haar-random unit vectors, the rows of
    haar_states on one stream.  One eigvalsh call and one _entropy_rows
    call cover every vector.  Returns (best value, first vector that
    attains it); the closed form is the certificate it is checked against
    in the test suite.
    """
    v = haar_states(max(cfg.restarts, 1), ch.d, philox_stream(cfg.seed, _TAG_UNIT))
    out = ch.t * (v.conj()[:, :, None] * v[:, None, :]) + (1.0 - ch.t) * np.eye(ch.d) / ch.d
    values = _entropy_rows(np.linalg.eigvalsh(out))
    best = int(np.argmin(values))
    return float(values[best]), v[best]


@functools.cache
def _simplex_lattice(d: int) -> np.ndarray:
    """One nonincreasing row k / m per permutation orbit of the lattice {k / m : k in N^d, sum k = m}.

    m is the largest resolution whose full lattice, C(m + d - 1, d - 1)
    rows, numbers at most _LATTICE_ROWS, and at least 1, where the rows
    are the vertices: m = 499, 30, 12, 8, 6, 4 and 3 at d = 2, 3, 4, 5,
    6, 8 and 10.  The two-copy entropy is the same on every permutation
    of a Schmidt vector, so only the partitions of m into at most d parts
    are built: 250, 91, 34, 18, 11, 5 and 3 rows at those d.  Each part
    is at most the one before it and at least the rest's share of the
    slots left, so every branch of the recursion ends in a row.  Rows
    come in descending lexicographic order, (m, 0, ..., 0) first.  Built
    once per d and returned read-only.
    """
    m = 1
    while math.comb(m + d, d - 1) <= _LATTICE_ROWS:
        m += 1
    rows: list[list[int]] = []

    def extend(prefix: list[int], rest: int, cap: int) -> None:
        slots = d - len(prefix)
        if slots == 1:
            rows.append(prefix + [rest])
            return
        for k in range(min(cap, rest), -(-rest // slots) - 1, -1):
            extend(prefix + [k], rest - k, k)

    extend([], m, m)
    lattice = np.array(rows, dtype=float) / m
    lattice.flags.writeable = False
    return lattice


@functools.lru_cache(maxsize=1)
def _probe_rows(seed: int, d: int, restarts: int) -> np.ndarray:
    """The rows minimize_simplex_entropy probes at (seed, d, restarts); (N, d), read-only.

    The d vertices, the barycenter, restarts uniform-simplex draws from
    the _TAG_SIMPLEX stream of seed and _simplex_lattice(d), in that
    order, checked by _check_schmidt_rows.  None of it depends on t, so
    a t grid at one key builds them once.  The one cached entry stays
    alive until a call with another key replaces it: d doubles per row,
    for d + 1 + restarts + len(_simplex_lattice(d)) rows.  At d = 24,
    with its 2 lattice rows, that is 15 kB at restarts = 50 and 0.19 GB
    at 10^6 rows.
    """
    draws = _lambda_rows(philox_stream(seed, _TAG_SIMPLEX).random((restarts, d)))
    rows = np.vstack([np.eye(d), np.full((1, d), 1.0 / d), draws, _simplex_lattice(d)])
    _check_schmidt_rows(rows)
    rows.flags.writeable = False
    return rows


def minimize_simplex_entropy(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> tuple[float, SchmidtVector]:
    """Minimum of simplex_output_entropy over a fixed probe of the simplex.

    The probe is one batch of rows: the d vertices, the barycenter,
    cfg.restarts uniform-simplex draws (_lambda_rows of d doubles per row
    from one stream, so the first k rows do not depend on cfg.restarts)
    and _simplex_lattice(d), one nonincreasing row per permutation orbit
    of the lattice, since the entropy does not change under a permutation
    of the Schmidt weights.  _probe_rows builds and checks them once per
    (seed, d, restarts), and one _split_rows call evaluates them, which
    gives each row the bits that simplex_output_entropy gives it alone.
    When the best row does not beat the best vertex by more than 1e-12,
    that vertex is reported as argmin, with the lower of the two values;
    the argmin is a copy of its row, never a view of the shared rows.

    restarts counts the random rows: at restarts = 20 the batch has 115
    rows at d = 3 and 59 at d = 4.  Wherever the entropy is concave on
    the simplex, which the tests check on chords, its minimum lies at a
    vertex and no other row can beat it.  Wherever |t| >= 1e-6 the
    result has the bits of a probe of every lattice row; nearer t = 0,
    where the entropy is flat to rounding, the value may differ from it
    by a few ulp.
    """
    rows = _probe_rows(cfg.seed, ch.d, cfg.restarts)
    s1, s2 = _split_rows(ch, rows)
    values = s1 + s2

    best = int(np.argmin(values))
    vertex = int(np.argmin(values[: ch.d]))
    argmin = vertex if values[vertex] <= values[best] + 1e-12 else best
    return float(values[best]), SchmidtVector(rows[argmin].copy())


def _schmidt_weights(psi: np.ndarray, d: int) -> np.ndarray:
    """Schmidt weights of each row of psi, a pure state on d x d; (N, d), descending.

    Row r, read as the d x d matrix M with entry (i, j) at i d + j, has the
    eigenvalues of M M^H as its squared Schmidt coefficients.  einsum forms
    every M M^H in numpy's own loops, with no BLAS call, and one batched
    eigvalsh runs LAPACK on each in turn, so a state gets the same bits
    alone as in any batch.  Rounding negatives are clipped to 0 and each
    row renormalized.
    """
    m = psi.reshape(len(psi), d, d)
    gram = np.einsum("nij,nkj->nik", m, m.conj())
    weights = np.clip(np.linalg.eigvalsh(gram)[:, ::-1], 0.0, None)
    return weights / weights.sum(axis=1, keepdims=True)


@functools.cache
def _residual_tol(d: int) -> float:
    """The largest Frobenius residual ||E||_F that _check_covariance passes at d.

    Equal matrices have equal spectra, and a small residual keeps the
    entropies close.  With D = d^2 and T = ||E||_1 / 2 <= sqrt(D) ||E||_F / 2
    (Cauchy-Schwarz on the singular values of E), the bound of Fannes
    (1973) in Audenaert's sharp form (J. Phys. A 40, 8127 (2007)) gives
    |S_dense - S_closed| <= T ln(D - 1) - T ln T - (1 - T) ln(1 - T).
    The bound increases in T on [0, 1/2], so bisection finds the largest T
    that keeps it at or below _COVARIANCE_TOL, and a residual at or below
    2 T / sqrt(D) passes: 3.5e-12 at d = 2, 1.7e-12 at d = 4 and
    2.5e-13 at d = 24.
    """
    big = d * d

    def bound(trace: float) -> float:
        return trace * math.log(big - 1) - trace * math.log(trace) - (1.0 - trace) * math.log1p(-trace)

    lo, hi = 0.0, _COVARIANCE_TOL  # bound(T) >= T on (0, 1/e]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound(mid) <= _COVARIANCE_TOL else (lo, mid)
    return 2.0 * lo / math.sqrt(big)


def _reference_factors(states: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P, Q and w of the reference outputs K sigma12(lam) K^H of states, (n, d^2), at lam, (n, d).

    A state psi = sum_a sqrt(lam_a) |u_a> (x) |conj v_a>, from the SVD
    M = U S V^H of psi as a d x d matrix, is conj(K) sum_a sqrt(lam_a) |aa>
    with K = conj(U) (x) V on the doubled system.  The channel is
    covariant, Phi(W mu W^H) = conj(W) Phi(mu) W^T, so the two-copy
    output of psi is K sigma12(lam) K^H, which is
    c1 I + (c2/2)(P (x) I + I (x) Q) + t^2 w w^H with
    P = conj(U) diag(lam) U^T, Q = V diag(lam) V^H and
    w = vec(conj(U) diag(sqrt(lam)) V^T): p and q (n, d, d), w (n, d^2),
    all complex.  One batched SVD gives every U and V, and lam are the
    given weights, so a fault in a weight reaches P, Q and w.  No array of
    d^4 entries is built.
    """
    d = lam.shape[1]
    u, _, vh = np.linalg.svd(states.reshape(-1, d, d))
    lam, conj_u = lam[:, None, :], u.conj()
    p = (conj_u * lam) @ u.swapaxes(1, 2)
    q = (vh.conj().swapaxes(1, 2) * lam) @ vh
    w = ((conj_u * np.sqrt(lam)) @ vh.conj()).reshape(len(states), d * d)
    return p, q, w


def _coefficient_grams(states: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """G_ij = Re <R_i, R_j>_F of the coefficients (R2, R1, R0) of each state's residual; (n, 3, 3).

    The coefficients are those of _covariance_residuals, from the state
    psi, (n, d^2), as its d x d matrix M and from _reference_factors P, Q
    and w at lam, (n, d).  With x = conj(psi), e = x - w, s = x + w,
    A = conj(M) M^T - P, B = M^H M - Q and r = |psi|^2 - 1, and using
    that R1 is Hermitian and that (A (x) I + I (x) B) v = vec(A V + V B^T)
    for v = vec(V) row by row:
        |R2|^2 = |e|^2 (|x|^2 + |w|^2) + 2 Re[(e^H w)(e^H x)],
        |R1|^2 = (|A|^2 + |B|^2) / d + 2 tr A tr B / d^2,
        |R0|^2 = r^2 / d^2,
        <R2, R1> = Re <E, A S + S B^T> / d,
        <R2, R0> = r Re(e^H s) / d^2,
        <R1, R0> = r (tr A + tr B) / d^2,
    with E and S the d x d matrices of e and s.  Each entry is a d x d
    product or an inner product, O(d^3) per state.
    """
    n, d = lam.shape
    p, q, w = _reference_factors(states, lam)
    m = states.reshape(n, d, d)
    x = states.conj()
    e, s = x - w, x + w
    a = m.conj() @ m.swapaxes(1, 2) - p
    b = m.conj().swapaxes(1, 2) @ m - q

    def inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("ni,ni->n", u.reshape(n, -1).conj(), v.reshape(n, -1))

    xx = inner(x, x).real
    r = xx - 1.0
    tr_a, tr_b = np.trace(a, axis1=1, axis2=2).real, np.trace(b, axis1=1, axis2=2).real
    s_mat = s.reshape(n, d, d)
    gram = np.empty((n, 3, 3))
    gram[:, 0, 0] = inner(e, e).real * (xx + inner(w, w).real) + 2.0 * (inner(e, w) * inner(e, x)).real
    gram[:, 1, 1] = (inner(a, a).real + inner(b, b).real) / d + 2.0 * tr_a * tr_b / d**2
    gram[:, 2, 2] = r**2 / d**2
    gram[:, 0, 1] = gram[:, 1, 0] = inner(e, a @ s_mat + s_mat @ b.swapaxes(1, 2)).real / d
    gram[:, 0, 2] = gram[:, 2, 0] = r * inner(e, s).real / d**2
    gram[:, 1, 2] = gram[:, 2, 1] = r * (tr_a + tr_b) / d**2
    return gram


def _covariance_residuals(ch: Channel, sample: _HaarSample) -> np.ndarray:
    """||E(t)||_F = ||out - K sigma12(lam) K^H||_F for each checked state of sample, at ch.t; (k,).

    out = t^2 X^T + t(1-t) [(tr_2 X)^T (x) I/d + I/d (x) (tr_1 X)^T]
    + (1-t)^2 tr X I/d^2 is the two-copy output of X = |psi><psi|, the
    formula of apply_two_copies, and the reference is
    c1 I + (c2/2)(P (x) I + I (x) Q) + t^2 w w^H, with c1 = (1-t)^2/d^2
    and c2/2 = t(1-t)/d (see _reference_factors).  With M the state as a
    d x d matrix, X^T = x x^H for x = conj(psi), (tr_2 X)^T = conj(M) M^T
    and (tr_1 X)^T = M^H M, so E(t) = t^2 R2 + t(1-t) R1 + (1-t)^2 R0 with
    the t-independent coefficients
        R2 = x x^H - w w^H = e x^H + w e^H,  e = x - w,
        R1 = (A (x) I + I (x) B) / d,  A = conj(M) M^T - P,  B = M^H M - Q,
        R0 = (|psi|^2 - 1) I / d^2.
    e is formed as a difference of vectors, so no term of R2 cancels.  K
    is unitary, so ||E(t)||_F is also the residual in the Schmidt bases.
    sample.gram keeps each state's Gram matrix G of (R2, R1, R0), from
    _coefficient_grams, and ||E(t)||_F^2 = b^T G b with
    b = (t^2, t(1-t), (1-t)^2): O(k) per cell.  A rounding below 0 reads
    as 0.  apply_two_copies itself does not run: the coefficients restate
    its formula, and the tests tie the two together (see the module
    docstring).
    """
    t = ch.t
    b = np.array([t * t, t * (1.0 - t), (1.0 - t) ** 2])
    return np.sqrt(np.maximum(sample.gram @ b @ b, 0.0))


def _check_covariance(ch: Channel, sample: _HaarSample) -> None:
    """Raise CovarianceMismatch unless each checked state's two-copy output is K sigma12 K^H at sample.weights.

    Each checked state's residual at ch.t, from _covariance_residuals,
    must stay at or below _residual_tol(d).  The message names the cell's
    d and t, and the index and least Schmidt weight of the worst state: a
    weight below about 1e-9, which eigvalsh(M M^H) resolves only to about
    1e-17, can fail the check although the entropies agree.
    """
    residuals, tol = _covariance_residuals(ch, sample), _residual_tol(ch.d)
    worst = int(np.argmax(residuals))
    if not residuals[worst] <= tol:
        raise CovarianceMismatch(
            f"dense and closed-form two-copy outputs differ by {residuals[worst]:.3e} > {tol:.3e}"
            f" (Frobenius) at d={ch.d}, t={ch.t!r}; worst checked state {worst},"
            f" least Schmidt weight {sample.weights[worst].min():.3e}"
        )


class _HaarSample(NamedTuple):
    """The t-independent half of a cell's Haar leg; both arrays read-only.

    weights holds the Schmidt weights of all count states, (count, d), and
    gram the 3 x 3 Gram matrix of the residual's t-coefficients for each
    of the first k = min(count, _DENSE_CHECK_STATES) states, (k, 3, 3)
    real (see _covariance_residuals).
    """

    weights: np.ndarray
    gram: np.ndarray


def _haar_sample_of(psi: np.ndarray, weights: np.ndarray) -> _HaarSample:
    """The _HaarSample of the states psi, (count, d^2), at their Schmidt weights, (count, d).

    The first k = min(count, _DENSE_CHECK_STATES) states are checked:
    _coefficient_grams keeps each one's Gram matrix, in O(d^3) per state
    and with no array of d^4 entries.  The build never raises; the check
    is _check_covariance's, per cell.  The states are dropped after the
    build, so a fault introduced into the check's inputs after a key is
    built shows only at the next build.  The weights passed in are kept,
    and made read-only with the Gram matrices.
    """
    k = min(len(psi), _DENSE_CHECK_STATES)
    sample = _HaarSample(weights, _coefficient_grams(psi[:k], weights[:k]))
    for array in sample:
        array.flags.writeable = False
    return sample


@functools.lru_cache(maxsize=1)
def _haar_sample(seed: int, d: int, count: int) -> _HaarSample:
    """The _HaarSample of count Haar-random states on d x d.

    The states are the rows of haar_states on the _TAG_HAAR stream of
    seed, so state r is the same for every count past r.  The weights of
    every state come from _schmidt_weights, checked by
    _check_schmidt_rows, and go to _haar_sample_of, which also builds the
    covariance check's Gram matrices.  None of it depends on t, so a t
    grid at one (seed, d, count) builds it once, and each cell reads its
    residuals from the Gram matrices.  The one cached entry stays alive
    after the call returns, until a call with another key replaces it: d
    doubles of weights per state, and 9 doubles of Gram matrix for each of
    the first 16 states.  At d = 24 that is 40 kB at count = 200 and
    0.19 GB at 10^6 states.  No state and no d^2-sized array is kept.
    """
    psi = haar_states(count, d * d, philox_stream(seed, _TAG_HAAR))
    weights = _schmidt_weights(psi, d)
    _check_schmidt_rows(weights)
    return _haar_sample_of(psi, weights)


def _random_state_entropies(ch: Channel, cfg: OptimizerConfig) -> np.ndarray:
    """Two-copy output entropy of each of max(cfg.n_random, 1) Haar-random states; (count,).

    The Schmidt weights of the states and the Gram matrices of the
    covariance check come from _haar_sample, built once per
    (seed, d, count) and shared by every t.  The weights go through one
    _split_rows call, which gives each row the bits of a one-row call.  Then, on every
    call, _check_covariance holds the residuals of the first
    _DENSE_CHECK_STATES states at this t to their tolerance.
    """
    sample = _haar_sample(cfg.seed, ch.d, max(cfg.n_random, 1))
    s1, s2 = _split_rows(ch, sample.weights)
    _check_covariance(ch, sample)
    return s1 + s2


def additivity_gap(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> tuple[float, float, float]:
    """(gap, min_simplex, min_random) with gap = min(both) - 2h.

    A gap near zero or above is consistent with the two-copy minimum
    being exactly twice the single-copy minimum; the additivity command
    fails a gap below -tol, with tol from --tol.
    """
    min_simplex, _ = minimize_simplex_entropy(ch, cfg)
    min_random = float(_random_state_entropies(ch, cfg).min())
    gap = min(min_simplex, min_random) - 2.0 * min_entropy_closed_form(ch)
    return gap, min_simplex, min_random
