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

The probe of the Schmidt simplex, and why one row stands for each
permutation orbit of Schmidt weights, the d vertices included: see
minimize_simplex_entropy.  The Haar-random states, whose two-copy
entropy is that of their Schmidt weights by the same covariance:
_haar_sample and _check_covariance.  Both legs get their least entropy
from one evaluator, _row_entropies, which brackets each row's secular
entropy and diagonalizes only the rows that can still hold the minimum,
within _prune_margin.  What does not depend on t is built once per key
and kept in a read-only cache: _probe_rows, _haar_sample and
_pair_index.

The covariance check holds the reduction to the Schmidt weights on the
first _DENSE_CHECK_STATES states of a sample, once, as _haar_sample
builds it, over the whole t range; _check_covariance gives the bound it
checks, why that bound keeps the dense and closed-form entropies within
_COVARIANCE_TOL, and what it gives up.  A failure raises
CovarianceMismatch, which is no TdchanError, since then the library and
not its input is at fault; no sample that fails is cached.

Every entropy in the module, of a vector or of each row of an array,
comes from one reduction, _entropy_rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
# Haar-random states per sample that _check_covariance holds to their
# Schmidt weights, and the largest |S_dense - S_closed| it allows.
_DENSE_CHECK_STATES = 16
_COVARIANCE_TOL = 1e-10
# The least margin by which an entropy floor may exceed the ceiling that
# _row_entropies prunes against before the row is pruned; _prune_margin
# widens it where the rounding it covers grows past half of it.
_PRUNE_MARGIN = 1e-9

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
    minimize_simplex_entropy, probed besides one row per permutation
    orbit of the lattice and the barycenter, and the random unit vectors
    of min_output_entropy.
    n_random counts the Haar-random states of additivity_gap, whose
    entropies come from their Schmidt weights, and of which the first
    _DENSE_CHECK_STATES go through _check_covariance once per sample,
    which covers the whole t range.  Nothing that does not depend on t
    is rebuilt per t: the probe rows are built once per
    (seed, d, restarts) and the states' weights, with their check, once
    per (seed, d, n_random); the last entry of each stays alive after the
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


def _pair_entropies(ch: Channel, rows: np.ndarray) -> np.ndarray:
    """S1 of each row of rows, validated Schmidt vectors: the entropy of its d(d-1) pair values; (N,).

    gamma_ab is symmetric in (a, b), so S1 sums the unordered pairs
    (1, 0), (2, 0), (2, 1), ... and doubles.
    """
    a, b = _pair_index(rows.shape[1])
    return 2.0 * _entropy_rows(ch.c1 + 0.5 * ch.c2 * (rows[:, a] + rows[:, b]))


def _split_rows(ch: Channel, lams) -> tuple[np.ndarray, np.ndarray]:
    """(S1, S2) arrays of the two-copy output, one entry per row of lams, validated Schmidt vectors.

    Built from the two families directly, with no Spectrum record.  S2
    sums the secular roots in descending order.  The roots of all rows
    come from one _secular_block_roots call, and each row gets the same
    bits as a one-row call.
    """
    rows = np.asarray(lams, dtype=float)
    return _pair_entropies(ch, rows), _entropy_rows(_secular_block_roots(ch, rows))


def _renyi_floor(trace, frobenius):
    """M ln(M / F), a floor of -sum g ln g over g >= 0 with sum g = M = trace and sum g^2 = F = frobenius.

    p = g / M is a distribution with index of coincidence sum p^2 =
    F / M^2, and -sum g ln g = M H(p) - M ln M.  Shannon entropy is at
    least Renyi-2 entropy, H(p) >= -ln(F / M^2), which gives the floor.
    It is the entropy itself where g is flat on its support.
    Elementwise; M and F are positive.
    """
    return trace * np.log(trace / frobenius)


def _coincidence_ceiling(trace: float, frobenius: float, d: int) -> float:
    """The largest -sum g ln g over g >= 0 in R^d with sum g = M = trace and sum g^2 = F = frobenius.

    At a fixed index of coincidence F / M^2 the entropy is largest at
    g = (a, b, ..., b) with a >= b (Harremoes and Topsoe, IEEE Trans.
    Inf. Theory 47, 2944 (2001)), so the ceiling is -a ln a - (d-1) b ln b
    with a + (d-1) b = M and a^2 + (d-1) b^2 = F: b = (M - r) / d and
    a = b + r with r^2 = (d F - M^2) / (d-1).  Rounding that takes r^2
    below 0 is clipped to 0, and M - r is raised to at least 1e-300, whose
    b ln b is below 1e-297.  One point in Python floats; M and F are
    positive.
    """
    spread = math.sqrt(max((d * frobenius - trace * trace) / (d - 1), 0.0))
    small = max(trace - spread, 1e-300) / d
    big = small + spread
    return -big * math.log(big) - (d - 1) * small * math.log(small)


def _secular_block_moments(ch: Channel, rows: np.ndarray) -> tuple[float, np.ndarray]:
    """(M, F): the trace of every row's secular block and the squared Frobenius norm of each; F is (N,).

    The block diag(c1 + c2 lam) + t^2 sqrt(lam) sqrt(lam)^T of a row
    that sums to 1 has, with k = c2 + t^2,
        M = sum_a (c1 + k lam_a) = d c1 + k,
        F = sum_a (c1 + k lam_a)^2 + t^4 (1 - sum lam^2)
          = d c1^2 + 2 c1 k + t^4 + (k^2 - t^4) sum lam^2,
    so one row-wise sum of squares gives every F and no eigensolve runs.
    The block is a principal block of a density matrix, so its roots are
    nonnegative, and _renyi_floor and _coincidence_ceiling of (M, F)
    bracket its S2.  At a vertex the roots are ((1 + (d-1) t) / d)^2 and
    d - 1 times c1: for t >= 0 the first is the largest, so the ceiling is
    S2 itself, and at t = -1/(d-1) it is 0, so the roots are flat on their
    support and the floor is S2 itself.  Both terms of F are nonnegative
    on the whole t range except 2 c1 k, which is at most a few times F,
    so rounding moves the bounds by a few ulp of M ln M.  _prune_margin
    counts the cost of taking each row's sum as 1.
    """
    d, c1, t4 = rows.shape[1], ch.c1, ch.t2 * ch.t2
    k = ch.c2 + ch.t2
    squares = np.einsum("ij,ij->i", rows, rows)
    return d * c1 + k, d * c1 * c1 + 2.0 * c1 * k + t4 + (k * k - t4) * squares


@functools.cache
def _prune_margin(d: int) -> float:
    """max(_PRUNE_MARGIN, twice the rounding count below): 1e-9 up to d = 241, 1.09e-9 at d = 255.

    The margin covers the rounding between a computed S and its bounds in
    _row_entropies, half of it on each side.  S1 is the same array in S
    and in both bounds, and the bounds are closed forms, off by a few ulp,
    so only S2 needs a count, with eta(x) = -x ln x, which is concave and
    has |eta(x) - eta(y)| <= eta(|x - y|) for |x - y| <= 1/e.
      - The bounds take each row's sum as 1, and rows sum to 1 within
        SCHMIDT_SUM_TOL = 1e-12.  A row of sum s has the roots
        c1 + s (g - c1), with g those of the row divided by s.  The
        g - c1 are the roots of diag(c2 lam) + t^2 sqrt(lam) sqrt(lam)^T,
        so the shifts |s - 1| |g - c1| add up to at most
        (|c2| + t^2) 1e-12 <= 3e-12, and S2 moves by at most
        3e-12 ln(d / 3e-12): 8.2e-11 at d = 2 and 9.6e-11 at d = 255.
      - eigvalsh is backward stable and the block has norm at most
        M <= 1, so each root is within a small multiple of eps of the
        exact one, taken here as d eps.  With the 0 ln 0 clamp of roots
        at or below ENTROPY_CLAMP, S2 is off by at most
        d eta(d eps) + d eta(ENTROPY_CLAMP): 5e-12 at d = 24, 3e-11 at
        d = 64 and 4.5e-10 at d = 255.
    The count first passes _PRUNE_MARGIN / 2 at d = 242.  Pruning only
    decides which rows get +inf, so a wider margin moves no output.
    """
    def eta(x: float) -> float:
        return -x * math.log(x)

    count = 3e-12 * math.log(d / 3e-12) + d * eta(d * np.finfo(float).eps) + d * eta(ENTROPY_CLAMP)
    return max(_PRUNE_MARGIN, 2.0 * count)


def _row_entropies(ch: Channel, rows: np.ndarray) -> np.ndarray:
    """S1 + S2 of each row of rows that can still hold the least of them, +inf for the others; (N,).

    rows are validated Schmidt vectors.  S1 comes from _pair_entropies
    for every row, and the moments of each row's secular block bracket
    its S2, so S1 + floor <= S <= S1 + ceiling.  Any row's S1 + ceiling
    bounds the least S from above; the evaluator takes that of the row
    with the least S1 + floor, one _coincidence_ceiling call in place of
    one per row.  It is the least ceiling of the batch on every batch of
    the perfbench additivity workload and of the CI runs at d = 8 and 16,
    which keep the same rows with either.  A row whose S1 + floor exceeds
    it by more than _prune_margin(d) lies above the row with that
    ceiling, so it can neither attain nor tie the minimum; its S2 is not
    computed and it gets +inf.  A row that holds the minimum is never
    pruned: its floor is at most its S, which is at most the batch's
    ceiling, and the margin covers their rounding.  The other rows go
    through one _secular_block_roots call and _entropy_rows, and get the
    bits of _split_rows, alone or in any batch, so the least value, its
    first index and every evaluated row's value are those of an
    evaluation of every row.  At t = 0 every block is c1 I and no row is
    pruned.

    What pruning gives up: a pruned row's spectrum is never computed, so
    a NotPSD or a kernel fault confined to such a row goes unseen.
    """
    s1 = _pair_entropies(ch, rows)
    trace, frobenius = _secular_block_moments(ch, rows)
    low = s1 + _renyi_floor(trace, frobenius)
    best = int(low.argmin())
    high = s1[best] + _coincidence_ceiling(trace, float(frobenius[best]), rows.shape[1])
    live = low <= high + _prune_margin(rows.shape[1])
    values = np.full(len(rows), math.inf)
    values[live] = s1[live] + _entropy_rows(_secular_block_roots(ch, rows[live]))
    return values


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

    _simplex_lattice(d), whose first row is the vertex e_1, the
    barycenter and restarts uniform-simplex draws from the _TAG_SIMPLEX
    stream of seed, in that order, checked by _check_schmidt_rows.  None
    of it depends on t, so a t grid at one key builds them once.  The one
    cached entry stays alive until a call with another key replaces it:
    d doubles per row, for len(_simplex_lattice(d)) + 1 + restarts rows.
    At d = 24, with its 2 lattice rows, that is 10 kB at restarts = 50
    and 0.19 GB at 10^6 rows.
    """
    draws = _lambda_rows(philox_stream(seed, _TAG_SIMPLEX).random((restarts, d)))
    rows = np.vstack([_simplex_lattice(d), np.full((1, d), 1.0 / d), draws])
    _check_schmidt_rows(rows)
    rows.flags.writeable = False
    return rows


def minimize_simplex_entropy(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> tuple[float, SchmidtVector]:
    """Minimum of simplex_output_entropy over a fixed probe of the simplex.

    The probe is one batch of rows, built and checked once per
    (seed, d, restarts) by _probe_rows: _simplex_lattice(d), the
    barycenter and cfg.restarts uniform-simplex draws (_lambda_rows of d
    doubles per row from one stream, so the first k draws do not depend
    on cfg.restarts).  The lattice is the finest {k / m} whose full
    C(m + d - 1, d - 1) rows fit _LATTICE_ROWS, with one nonincreasing
    row per permutation orbit.  The channel is unitarily covariant,
    Phi(U mu U^H) = conj(U) Phi(mu) U^T.  Permuting the Schmidt weights
    is the product unitary P x P on the input, which conjugates the
    two-copy output by a unitary, so every permutation of a row has the
    same output spectrum and one row stands for its orbit.  The d
    vertices are one orbit, and the lattice's first row,
    (m, 0, ..., 0) / m, is the vertex e_1 bit for bit; it stands for all
    of them.  The rows of one orbit agree to rounding, not bit for bit:
    the tests hold every vertex's entropy within 16 d eps max(2h, 1) of
    2h, and near t = 0, where the entropy is flat to rounding, the
    minimum over the other orbits may move by a few ulp against a probe
    of the full lattice (by at most 1.8e-15, at |t| <= 1e-9, on 702
    cells compared).

    One _row_entropies call evaluates the batch: each row it does not
    prune gets the bits simplex_output_entropy gives it alone, and a
    pruned row, +inf, can neither attain nor tie the minimum.  e_1 is
    never pruned where it holds the minimum.  When the best row does not
    beat e_1 by more than 1e-12, e_1 is reported as argmin, with the
    lower of the two values; the argmin is a copy of its row, never a
    view of the shared rows.

    restarts counts the random rows: at restarts = 20 the batch has 112
    rows at d = 3 and 55 at d = 4.  The tests find the entropy concave on
    the simplex (chord slacks over the whole t range, the worst one at 50
    digits), so its minimum sits at a vertex, where it equals 2h; the
    other rows are evidence that no interior point beats it.
    """
    rows = _probe_rows(cfg.seed, ch.d, cfg.restarts)
    values = _row_entropies(ch, rows)
    best = int(np.argmin(values))
    argmin = 0 if values[0] <= values[best] + 1e-12 else best
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
    """The largest bound on the trace distance T that _check_covariance passes at d.

    With D = d^2, the bound of Fannes (1973) in Audenaert's sharp form
    (J. Phys. A 40, 8127 (2007)) gives
    |S_dense - S_closed| <= T ln(D - 1) - T ln T - (1 - T) ln(1 - T).
    The bound increases in T on [0, 1/2], so bisection finds the largest T
    that keeps it at or below _COVARIANCE_TOL: 3.5e-12 at d = 2, 3.3e-12
    at d = 4, 2.9e-12 at d = 24 and 2.6e-12 at d = 255.
    """
    big = d * d

    def bound(trace: float) -> float:
        return trace * math.log(big - 1) - trace * math.log(trace) - (1.0 - trace) * math.log1p(-trace)

    lo, hi = 0.0, _COVARIANCE_TOL  # bound(T) >= T on (0, 1/e]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if bound(mid) <= _COVARIANCE_TOL else (lo, mid)
    return lo


def _reconstruction_bounds(states: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """B = ||conj(psi) - w|| + | ||psi|| - 1 | + | ||w|| - 1 | of each state of states, (n, d^2), at lam, (n, d); (n,).

    w = vec(conj(U) diag(sqrt(lam)) V^T) is the conjugate of the Schmidt
    reconstruction of psi at the given weights, with U and V from one
    batched SVD M = U S V^H of each state as a d x d matrix, so a fault in
    a weight or in a singular vector reaches w.  conj(psi) - w is formed
    as a difference of vectors, so nothing cancels: B resolves a residual
    of a few ulp, where sqrt(1 - |<psi, phi>|^2) has a floor of about
    1e-8 from the rounding of the inner product.  No array of d^4 entries
    is built.
    """
    n, d = lam.shape
    u, _, vh = np.linalg.svd(states.reshape(n, d, d))
    w = ((u.conj() * np.sqrt(lam[:, None, :])) @ vh.conj()).reshape(n, d * d)
    norm = functools.partial(np.linalg.norm, axis=1)
    return norm(states.conj() - w) + np.abs(norm(states) - 1.0) + np.abs(norm(w) - 1.0)


def _check_covariance(states: np.ndarray, lam: np.ndarray) -> None:
    """Raise CovarianceMismatch unless each state's two-copy output has the closed-form entropy at its weights, at every t.

    states, (k, d^2), are checked at their Schmidt weights lam, (k, d):
    each state's B = _reconstruction_bounds must stay at or below
    _residual_tol(d).  That keeps |S_dense - S_closed| <= _COVARIANCE_TOL
    for every state at every t, with hats marking unit vectors and
    x = conj(psi):
      1. Let phi = vec(U diag(sqrt(lam)) V^H) be the Schmidt
         reconstruction of psi at lam, so conj(phi) = w, and
         K = conj(U) (x) V.  The channel is unitarily
         covariant, Phi(W mu W^H) = conj(W) Phi(mu) W^T, so the two-copy
         output of phi-hat is K sigma12(lam-hat) K^H, whose entropy is
         the closed form's.
      2. Phi (x) Phi is completely positive and trace preserving on the
         whole t range [-1/(d-1), 1/(d+1)], and trace distance contracts
         under such a map, so the two-copy outputs of psi-hat and phi-hat
         are at most (1/2) ||psi-hat psi-hat^H - phi-hat phi-hat^H||_1
         apart in trace distance.
      3. That equals sqrt(1 - c^2) with c = |<psi-hat, phi-hat>| =
         |<x-hat, w-hat>|, which is at most
         ||x-hat - w-hat|| = sqrt(2 - 2 Re <x-hat, w-hat>), since
         (1 - c)^2 >= 0 gives 1 - c^2 <= 2 - 2c; and the triangle
         inequality bounds ||x-hat - w-hat|| by B.
      4. With D = d^2 the Fannes-Audenaert bound (_residual_tol) then
         gives the entropy promise.
    No t enters B, so one check covers every cell of the key, t = 0
    included.  The message names d, the bound, the tolerance, and the
    index and least Schmidt weight of the worst state: a weight below
    about 1e-9, which eigvalsh(M M^H) resolves only to about 1e-17, can
    fail the check although the entropies agree.

    What is given up: apply_two_copies does not run here, and a fault in
    the check's inputs introduced after a key is built shows only at the
    next build.  The check rests on covariance and contraction, which the
    tests hold against apply_two_copies through a trace-norm Kronecker
    oracle (test_covariance_residuals_match_the_kronecker_oracle) and on
    a 41-point t grid
    (test_gram_residuals_match_the_direct_dense_residuals).
    """
    d = lam.shape[1]
    bounds, tol = _reconstruction_bounds(states, lam), _residual_tol(d)
    worst = int(np.argmax(bounds))
    if not bounds[worst] <= tol:
        raise CovarianceMismatch(
            f"dense and closed-form two-copy outputs differ by up to {bounds[worst]:.3e} > {tol:.3e}"
            f" (trace distance) at d={d} over its t range; worst checked state {worst},"
            f" least Schmidt weight {lam[worst].min():.3e}"
        )


@functools.lru_cache(maxsize=1)
def _haar_sample(seed: int, d: int, count: int) -> np.ndarray:
    """The Schmidt weights of count Haar-random states on d x d; (count, d), read-only.

    The states are the rows of haar_states on the _TAG_HAAR stream of
    seed, so state r is the same for every count past r.  The weights of
    every state come from _schmidt_weights, checked by
    _check_schmidt_rows, and the first min(count, _DENSE_CHECK_STATES)
    states go through _check_covariance, which holds them over the whole
    t range, so no cell checks them again.  lru_cache keeps no exception:
    a sample that fails a check is never cached, and every call with its
    key builds it again and raises again.  None of it depends on t, so a
    t grid at one (seed, d, count) builds it once.  The one cached entry
    stays alive after the call returns, until a call with another key
    replaces it: d doubles per state, 38 kB at d = 24 and count = 200 and
    0.19 GB at 10^6 states.  No state and no d^2-sized array is kept.
    """
    psi = haar_states(count, d * d, philox_stream(seed, _TAG_HAAR))
    weights = _schmidt_weights(psi, d)
    _check_schmidt_rows(weights)
    k = min(count, _DENSE_CHECK_STATES)
    _check_covariance(psi[:k], weights[:k])
    weights.flags.writeable = False
    return weights


def _random_state_entropies(ch: Channel, cfg: OptimizerConfig) -> np.ndarray:
    """Two-copy output entropy of each of max(cfg.n_random, 1) Haar-random states; (count,).

    The states' Schmidt weights come from _haar_sample, checked and built
    once per (seed, d, count) and shared by every t, and go through one
    _row_entropies call: a state whose entropy floor exceeds the batch's
    entropy ceiling by more than _prune_margin(d) gets +inf, since it
    cannot hold the minimum, and every other state the bits of a one-row
    _split_rows call.  So the least entropy is that of an evaluation of
    every state; the other entries are exact where finite.
    """
    return _row_entropies(ch, _haar_sample(cfg.seed, ch.d, max(cfg.n_random, 1)))


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
