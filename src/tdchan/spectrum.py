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

  together with c1 for each zero-weight coordinate.

  The block is only d x d, so it is diagonalized as it stands:
  _secular_block_roots builds the blocks of N vectors in one stack and
  calls np.linalg.eigvalsh on it.  LAPACK's symmetric eigensolver is
  backward stable, so each root lies within a few eps of the exact one
  (the block has norm at most 1), tiny and repeated weights included,
  with no deflation threshold or pole merging to tune.

The off-diagonal family always carries total mass
(d-1)(1-t^2)/d regardless of lam; the secular family carries the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import Channel, ChannelRows, DensityMatrix, _whole, by_row, check_finite
from .errors import OutOfRange, SumMismatch

SCHMIDT_SUM_TOL = 1e-12


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
        _length(v.size)
        _check_schmidt_rows(v[None, :])

    @property
    def d(self) -> int:
        return self.values.size

    @staticmethod
    def uniform(d: int) -> "SchmidtVector":
        """(1/d, ..., 1/d); ConfigError unless d is an integer, OutOfRange unless d >= 2."""
        d = _length(d)
        return SchmidtVector(np.full(d, 1.0 / d))

    @staticmethod
    def vertex(d: int, alpha: int = 0) -> "SchmidtVector":
        """The simplex vertex e_alpha in R^d.

        ConfigError unless d and alpha are integers, OutOfRange unless
        d >= 2 and 0 <= alpha < d.
        """
        d, alpha = _length(d), _whole(alpha, "alpha")
        if not 0 <= alpha < d:
            raise OutOfRange(f"vertex index alpha must be in [0, {d}), got {alpha}")
        v = np.zeros(d)
        v[alpha] = 1.0
        return SchmidtVector(v)


def _length(d) -> int:
    """d as an int; ConfigError unless it is an integer, OutOfRange unless it is at least 2."""
    d = _whole(d, "d")
    if d < 2:
        raise OutOfRange("need at least two Schmidt coefficients")
    return d


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
    v = _as_schmidt(ch, lam).values
    m = np.diag(_pair_grid(ch, v).ravel())
    root = np.sqrt(v)
    same = np.arange(ch.d) * (ch.d + 1)  # |aa> sits at row a d + a
    m[same[:, None], same] += np.outer(ch.t**2 * root, root)
    return DensityMatrix(m)


def _pair_grid(ch: Channel, v: np.ndarray) -> np.ndarray:
    """c1 + (c2/2)(lam_a + lam_b) for every ordered pair (a, b), a == b included; (d, d)."""
    return ch.c1 + 0.5 * ch.c2 * (v[:, None] + v[None, :])


def _pair_values(ch: Channel, v: np.ndarray) -> np.ndarray:
    """gamma_ab = c1 + (c2/2)(lam_a + lam_b) over ordered pairs a != b, lexicographic."""
    d = v.size
    pair = _pair_grid(ch, v)
    # Past the first entry, the diagonal of the flattened d x d array is
    # every (d+1)-th entry; dropping that column keeps row-major order.
    return pair.ravel()[1:].reshape(d - 1, d + 1)[:, :d].ravel()


def offdiag_eigenvalues(ch: Channel, lam: "SchmidtVector | np.ndarray") -> list[tuple[int, int, float]]:
    """The (a, b, gamma_ab) family over ordered pairs a != b, lexicographic."""
    lam = _as_schmidt(ch, lam)
    pairs = [(a, b) for a in range(ch.d) for b in range(ch.d) if a != b]
    return [(a, b, g) for (a, b), g in zip(pairs, _pair_values(ch, lam.values))]


def _secular_block_roots(ch: "Channel | ChannelRows", rows: np.ndarray) -> np.ndarray:
    """Eigenvalues of the diagonal-plus-rank-one block of every row; (N, d), rows descending.

    rows is an (N, d) array of validated Schmidt vectors lam, and ch a
    Channel or a ChannelRows with one channel per row.  Each block
    diag(c1 + c2 lam) + t^2 sqrt(lam) sqrt(lam)^T is built in an
    (N, d, d) stack and diagonalized by one np.linalg.eigvalsh call,
    which runs LAPACK on each matrix of the stack in turn, so a row gets
    the same bits alone as in any batch.  Every secular root in the
    package comes from here.
    """
    root = np.sqrt(rows)
    block = root[:, :, None] * root[:, None, :]
    block *= by_row(ch.t2, 3)
    diagonal = np.einsum("nii->ni", block)  # a writeable view
    diagonal += by_row(ch.c1, 2) + by_row(ch.c2, 2) * rows
    return np.linalg.eigvalsh(block)[:, ::-1]


def secular_roots(ch: Channel, lam: "SchmidtVector | np.ndarray") -> np.ndarray:
    """All d eigenvalues of the diagonal-plus-rank-one block, descending."""
    lam = _as_schmidt(ch, lam)
    return _secular_block_roots(ch, lam.values[None, :])[0]


def _as_schmidt_rows(ch: Channel, lams) -> np.ndarray:
    rows = np.asarray(lams, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != ch.d:
        raise OutOfRange(f"Schmidt rows have shape {rows.shape}, expected (N, {ch.d})")
    _check_schmidt_rows(rows)
    return rows


def secular_roots_batch(ch: "Channel | ChannelRows", lams) -> np.ndarray:
    """secular_roots for every row of an (N, d) array; (N, d), rows descending.

    Row i has the same bits as secular_roots(ch, lams[i]), or, for a
    ChannelRows, as secular_roots of row i's own channel.
    """
    return _secular_block_roots(ch, _as_schmidt_rows(ch, lams))


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
