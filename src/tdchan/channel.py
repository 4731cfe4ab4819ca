"""Transpose depolarizing channels on a d-dimensional system.

The family acts on a density matrix mu as

    Phi(mu) = t * mu^T + (1 - t) * tr(mu) * I / d,

with the real parameter t confined to -1/(d-1) <= t <= 1/(d+1); outside
that interval the map is no longer completely positive.  Every member is
a convex mixture of two extreme channels built from the transpose,

    Phi_plus(mu)  = (I tr(mu) + mu^T) / (d + 1),
    Phi_minus(mu) = (I tr(mu) - mu^T) / (d - 1),

whose Kraus operators are the symmetric and antisymmetric combinations
|i><j| +/- |j><i| with appropriate normalization.

The module also provides the two-copy application Phi (x) Phi, needed by
the entropy additivity checks, in a closed form that avoids building the
d^4 x d^4 superoperator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, ConfigError, DimensionMismatch, NotPSD, OutOfRange

# Validation tolerances for density matrices.  No CLI flag sets them: --tol
# is the tolerance of the spectrum, min-entropy and additivity checks only.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise OutOfRange unless every entry of values is finite (no NaN, no inf)."""
    if not np.isfinite(values).all():
        raise OutOfRange(f"{what} must be finite")


def _whole(value, name: str) -> int:
    """value as an int; ConfigError unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def t_range(d: int) -> tuple[float, float]:
    """Admissible parameter interval [-1/(d-1), 1/(d+1)] for dimension d."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise BadDimension(f"dimension must be an integer >= 2, got {d!r}")
    return (-1.0 / (d - 1), 1.0 / (d + 1))


@dataclass(frozen=True)
class Channel:
    """A transpose depolarizing channel with its derived constants.

    c1 = (1-t)^2 / d^2 and c2 = 2 t (1-t) / d show up throughout the
    two-copy output spectrum, so they are computed once at construction.
    """

    d: int
    t: float
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", (1.0 - self.t) ** 2 / self.d**2)
        object.__setattr__(self, "c2", 2.0 * self.t * (1.0 - self.t) / self.d)

    @property
    def ratio(self) -> float:
        """c2 / c1 = 2 t d / (1 - t); in [-2, 0] for t <= 0."""
        return 2.0 * self.t * self.d / (1.0 - self.t)

    @property
    def t2(self) -> float:
        """t^2, the weight of the rank-one part of the secular block."""
        return self.t**2


@dataclass(frozen=True)
class ChannelRows:
    """The constants of several channels of one d, one channel per row of a batch.

    Each constant is an (N,) array that repeats, row by row, the Python
    float of that row's Channel, so a kernel that reads it where it would
    read a Channel's gives every row the bits its own Channel gives.
    """

    d: int
    t: np.ndarray
    t2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    ratio: np.ndarray

    @staticmethod
    def repeat(channels: "list[Channel]", counts: "list[int]") -> "ChannelRows":
        """counts[i] rows of channels[i], in order; the channels share one d."""

        def rows(name):
            return np.repeat([getattr(ch, name) for ch in channels], counts)

        return ChannelRows(channels[0].d, *map(rows, ("t", "t2", "c1", "c2", "ratio")))


def by_row(value, ndim: int):
    """A Channel's scalar as it is, or a ChannelRows array shaped (N, 1, ...) for rows-first arrays of ndim axes."""
    return value if np.ndim(value) == 0 else np.reshape(value, (-1,) + (1,) * (ndim - 1))


def new_channel(d: int, t: float) -> Channel:
    """Validated constructor.

    Raises
    ------
    BadDimension
        If d is not an integer >= 2.
    OutOfRange
        If t lies outside [-1/(d-1), 1/(d+1)].
    """
    lo, hi = t_range(d)
    t = float(t)
    if not (lo <= t <= hi):
        raise OutOfRange(f"t={t} outside [{lo}, {hi}] for d={d}")
    return Channel(int(d), t)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """State validated at construction: finite, Hermitian, unit trace, PSD.

    Eigenvalues may dip to -1e-10 to tolerate floating point noise from
    upstream arithmetic.  mat is a read-only copy of the matrix given, so
    a later write to that matrix changes nothing here.  eigenvalues keeps
    the ascending eigvalsh(mat) of the PSD check, read-only, so a caller
    that needs the spectrum diagonalizes nothing again and cannot get a
    stale one; repr ignores it.  Two instances are equal when their mats
    are, entry for entry (np.array_equal); like its array, an instance is
    unhashable.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=complex)
        m.flags.writeable = False
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadDimension(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 2:
            raise BadDimension("dimension must be >= 2")
        object.__setattr__(self, "mat", m)
        check_finite(m, "density matrix entries")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise NotPSD("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise NotPSD("trace differs from 1 by more than 1e-12")
        eigenvalues = np.linalg.eigvalsh(m)
        if np.min(eigenvalues) < PSD_TOL:
            raise NotPSD("matrix has an eigenvalue below -1e-10")
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigenvalues)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.mat, other.mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def pure_state(vec: np.ndarray) -> DensityMatrix:
    """Projector |v><v| onto a (normalized) state vector."""
    v = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise OutOfRange("state vector must have a finite nonzero norm")
    v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()))


def apply(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel: t * rho^T + (1-t) * tr(rho) * I / d."""
    if rho.dim != ch.d:
        raise DimensionMismatch(f"state dimension {rho.dim} != channel dimension {ch.d}")
    out = ch.t * rho.mat.T + (1.0 - ch.t) * np.trace(rho.mat) * np.eye(ch.d) / ch.d
    return DensityMatrix(out)


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of one of the two extreme channels."""

    d: int
    sign: int
    operators: list[np.ndarray]

    def apply(self, mat: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(mat, dtype=complex))
        for k in self.operators:
            out += k @ mat @ k.conj().T
        return out


def kraus_set(d: int, sign: int) -> KrausSet:
    """Kraus operators of Phi_plus (sign=+1) or Phi_minus (sign=-1).

    The raw families |i><j| +/- |j><i| over all ordered pairs contain each
    operator twice (and zeros on the diagonal for the minus sign), so the
    returned set is deduplicated: d(d+1)/2 operators for plus, d(d-1)/2
    for minus.  Completeness sum_k K_k* K_k = I holds exactly.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise BadDimension(f"dimension must be an integer >= 2, got {d!r}")
    if sign not in (+1, -1):
        raise OutOfRange(f"sign must be +1 or -1, got {sign!r}")
    ops: list[np.ndarray] = []
    if sign == +1:
        diag_norm = np.sqrt(2.0 / (d + 1))
        pair_norm = 1.0 / np.sqrt(d + 1)
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, i] = diag_norm
            ops.append(e)
            for j in range(i + 1, d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = pair_norm
                e[j, i] = pair_norm
                ops.append(e)
    else:
        pair_norm = 1.0 / np.sqrt(d - 1)
        for i in range(d):
            for j in range(i + 1, d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = pair_norm
                e[j, i] = -pair_norm
                ops.append(e)
    return KrausSet(int(d), int(sign), ops)


def decompose(ch: Channel) -> tuple[float, float]:
    """Convex weights (w_plus, w_minus) of the extreme-channel mixture.

    With c = (d^2 - 1) / (2d):

        w_plus  =  c * (t + 1/(d-1)),
        w_minus = -c * (t - 1/(d+1)),

    both nonnegative on the admissible t interval and summing to one.
    """
    d, t = ch.d, ch.t
    c = (d * d - 1.0) / (2.0 * d)
    w_plus = c * (t + 1.0 / (d - 1))
    w_minus = -c * (t - 1.0 / (d + 1))
    return (w_plus, w_minus)


def channel_kraus(ch: Channel) -> list[np.ndarray]:
    """Kraus operators of the channel itself, via the convex decomposition."""
    w_plus, w_minus = decompose(ch)
    ops: list[np.ndarray] = []
    for w, sign in ((w_plus, +1), (w_minus, -1)):
        if w <= 0.0:
            continue
        ops.extend(np.sqrt(w) * k for k in kraus_set(ch.d, sign).operators)
    return ops


def apply_two_copies(ch: Channel, mat: np.ndarray) -> np.ndarray:
    """Action of Phi (x) Phi on a d^2 x d^2 matrix, or on each of a (..., d^2, d^2) stack.

    Expanding both tensor factors of the channel gives, for X on the
    doubled system,

        t^2 X^T
        + t(1-t) [ (tr_2 X)^T (x) I/d  +  I/d (x) (tr_1 X)^T ]
        + (1-t)^2 tr(X) I/d^2,

    which only needs partial traces and transposes.  With row i d + j
    and column k d + l split as (i, j, k, l), the first Kronecker
    product lives on j == l and the second on i == k, so each is added
    in place through a writeable einsum diagonal view of the output, and
    the trace term through its diagonal.  Every step is elementwise, so
    a stack gives each matrix the bits it gets alone.
    """
    d = ch.d
    x = np.asarray(mat, dtype=complex)
    if x.ndim < 2 or x.shape[-2:] != (d * d, d * d):
        raise DimensionMismatch(f"expected shape (..., {d * d}, {d * d}), got {x.shape}")
    t = ch.t
    x4 = x.reshape(x.shape[:-2] + (d, d, d, d))
    tr1 = np.swapaxes(np.einsum("...ijik->...jk", x4), -1, -2)
    tr2 = np.swapaxes(np.einsum("...ijkj->...ik", x4), -1, -2)
    # A C-ordered output, so that the reshape below is a view of it.
    out = np.multiply(t * t, np.swapaxes(x, -1, -2), out=np.empty(x.shape, dtype=complex))
    out4 = out.reshape(x4.shape)
    weight = t * (1.0 - t)
    left = np.einsum("...ijkj->...ijk", out4)
    left += weight * (tr2 / d)[..., :, None, :]
    right = np.einsum("...ijil->...ijl", out4)
    right += weight * (tr1 / d)[..., None, :, :]
    diagonal = np.einsum("...ii->...i", out)
    diagonal += ((1.0 - t) ** 2 * np.trace(x, axis1=-2, axis2=-1) / (d * d))[..., None]
    return out
