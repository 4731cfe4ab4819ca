"""Majorization order and the symmetric-polynomial route to it.

The secular eigenvalues scale to gamma_i = g_i / c1, and the Schmidt
coefficients transform to nu_a = 1 + (c2/c1) lam_a, which for t <= 0 live
in the box [1 + 2td/(1-t), 1].  The elementary symmetric polynomials s_r
of the scaled roots are polynomials in nu:

    s_{d-k}(gamma) = phi_k(nu)
                   = s_{d-k}(nu) + c sum_l s_{d-1-k}(nu \\ l)(nu_l - 1),

with c = t^2/c2 = td/(2(1-t)), and Schur-concavity of every phi_k is
what drives the entropy comparison between Schmidt vectors: if lam
majorizes lam', the secular part of the output entropy can only grow.

Two counting facts, sum_l nu_l s_{r-1}(nu \\ l) = r s_r(nu) and
sum_l s_{r-1}(nu \\ l) = (d - r + 1) s_{r-1}(nu), turn every quantity
here into two terms of one s table.  With m = d - k and s_r = 0 for
r < 0:

    phi_k(nu)          = (1 + c m) s_m(nu) - c (k + 1) s_{m-1}(nu),
    d phi_k / d nu_i   = (1 + c m) s_{m-1}(nu \\ i) - c (k + 1) s_{m-2}(nu \\ i),

the second because d s_r / d nu_i = s_{r-1}(nu \\ i).  The same facts
put the paper's main margin on n coordinates in the form

    margin_k(nu) = (k + 1) s_{n-k-1}(nu) - (n - k + coef) s_{n-k}(nu),

coef = 2(1 + t(d-1))/(td) = 2 + 1/c.  Since s_r(nu \\ i) - s_r(nu \\ j)
= (nu_j - nu_i) s_{r-1}(nu \\ {i, j}), the Schur criterion is that margin
at the d - 2 remaining coordinates, for every k in 0..d-1:

    schur_defect(nu, k, i, j) = c (nu_i - nu_j)^2 margin_k(nu \\ {i, j}).

The padding s_{-1} = s_{-2} = 0 makes it 0 at k = d - 1 and
-(1 + 2c)(nu_i - nu_j)^2 at k = d - 2.  So a row of the Schur criterion
costs one s table of d - 2 coordinates, and the main scan and the Schur
criterion share one margin kernel, _main_margins.

The tables are degree-leading: s_r of a batch sits at [r, ..., row],
with the rows on the last axis, so every step of the recurrence is one
contiguous operation over all rows, and a row gets the same bits alone
as in any batch.  The batch functions validate their inputs as the
scalar ones do, and the scalar functions are one-row calls of the same
kernels.
"""

from __future__ import annotations

import numpy as np

from .channel import Channel, ChannelRows
from .errors import BadK, BadLength, LengthMismatch, OutOfRange, SumMismatch, ZeroT
from .spectrum import SchmidtVector, secular_roots

MAJORIZE_SUM_TOL = 1e-10
DOMINANCE_SLACK = 1e-12


def _schmidt(lam) -> SchmidtVector:
    if isinstance(lam, SchmidtVector):
        return lam
    return SchmidtVector(np.asarray(lam, dtype=float))


def lambda_to_nu(ch: Channel, lam: "SchmidtVector | np.ndarray") -> np.ndarray:
    """nu_a = 1 + (c2/c1) lam_a, a length-d array; t <= 0 puts it in the box [1 + c2/c1, 1]."""
    if ch.t > 0.0:
        raise OutOfRange(f"nu coordinates are defined for t <= 0, got t={ch.t}")
    lam = _schmidt(lam)
    if lam.d != ch.d:
        raise BadLength(f"Schmidt vector length {lam.d} != d={ch.d}")
    return 1.0 + ch.ratio * lam.values


def scaled_secular_roots(ch: Channel, lam: "SchmidtVector | np.ndarray") -> np.ndarray:
    """Secular roots divided by c1."""
    return secular_roots(ch, lam) / ch.c1


def majorizes(x, y, slack: float = DOMINANCE_SLACK) -> bool:
    """True iff x majorizes y: sorted-descending prefix sums dominate.

    Requires equal lengths and equal totals (within 1e-10); the prefix
    comparison allows a 1e-12 slack for floating point noise.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.size != yv.size:
        raise LengthMismatch(f"lengths {xv.size} and {yv.size} differ")
    if abs(float(np.sum(xv) - np.sum(yv))) > MAJORIZE_SUM_TOL:
        raise SumMismatch(f"totals {np.sum(xv)} and {np.sum(yv)} differ")
    cx = np.cumsum(np.sort(xv)[::-1])
    cy = np.cumsum(np.sort(yv)[::-1])
    return bool(np.all(cx >= cy - slack))


def t_transform(lam: "SchmidtVector | np.ndarray", i: int, j: int, eps: float) -> SchmidtVector:
    """Pinch mass from coordinate i toward j: the classic T-transform.

    lam_i' = lam_i - eps (lam_i - lam_j), lam_j' = lam_j + eps (lam_i - lam_j)
    with 0 <= eps <= 1/2 and lam_i >= lam_j.  The input majorizes the output.
    """
    v = _schmidt(lam).values.copy()
    if not (0 <= i < v.size and 0 <= j < v.size) or i == j:
        raise IndexError(f"bad index pair ({i}, {j}) for length {v.size}")
    if not (0.0 <= eps <= 0.5):
        raise OutOfRange(f"eps={eps} outside [0, 1/2]")
    if v[i] < v[j]:
        raise OutOfRange("requires lam_i >= lam_j")
    delta = eps * (v[i] - v[j])
    v[i] -= delta
    v[j] += delta
    return SchmidtVector(v)


def _elem_sym_table(cols: np.ndarray) -> np.ndarray:
    """s_0..s_n of coordinate-leading cols (n, ...); a new degree-leading (n + 1, ...) array.

    Row c of cols holds coordinate c of every vector, and a batch of
    (N, n) rows is passed as its transpose, so the result is [r, row].
    When cols is C-contiguous each step of the product recurrence is one
    contiguous operation over all vectors.  It is elementwise: a vector
    gets the same bits in any batch as alone.
    """
    n = cols.shape[0]
    e = np.zeros((n + 1,) + cols.shape[1:])
    e[0] = 1.0
    for c in range(n):
        e[1 : c + 2] += cols[c] * e[: c + 1]
    return e


def elem_sym(values, q: int) -> float:
    """Elementary symmetric polynomial s_q via the incremental product recurrence.

    s_0 = 1; q outside [0, len(values)] gives 0.  O(n^2) time.
    """
    vals = np.asarray(values, dtype=float).reshape(-1)
    if q < 0 or q > vals.size:
        return 0.0
    return float(_elem_sym_table(vals)[q])


def _finite_nu(nu) -> np.ndarray:
    """nu as a 1-D float array; OutOfRange when an entry is NaN or infinite."""
    v = np.asarray(nu, dtype=float).reshape(-1)
    if not np.isfinite(v).all():
        raise OutOfRange(f"nu must be finite, got {v}")
    return v


def _check_phi_batch(nu, ch: Channel) -> np.ndarray:
    """nu as a finite (N, d) float array; OutOfRange, ZeroT or BadLength otherwise."""
    nu = np.asarray(nu, dtype=float)
    if not np.isfinite(nu).all():
        raise OutOfRange(f"nu must be finite, got {nu[~np.isfinite(nu)][0]}")
    if ch.t == 0.0:
        raise ZeroT("phi_k needs t != 0 (c2 appears in a denominator)")
    if nu.ndim != 2 or nu.shape[1] != ch.d:
        raise BadLength(f"nu rows have shape {nu.shape}, expected (N, {ch.d})")
    return nu


def _index_rows(values, count: int) -> np.ndarray:
    """Per-row indices as an (N,) integer array; a scalar serves every row."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise IndexError(f"indices must be integers, got dtype {arr.dtype}")
    if arr.shape not in ((), (count,)):
        raise BadLength(f"index array has shape {arr.shape}, expected ({count},)")
    return np.broadcast_to(arr.astype(np.intp), (count,))


def _check_below(values, d: int, error: type[Exception], name: str) -> None:
    """error unless every entry of values lies in [0, d)."""
    values = np.asarray(values)
    bad = values[(values < 0) | (values >= d)]
    if bad.size:
        raise error(f"{name}={bad[0]} outside [0, {d})")


def _check_phi_args(nu, k: int, ch: Channel) -> np.ndarray:
    """The one-row (1, d) array of nu, after the checks of _check_phi_batch and on k."""
    row = _check_phi_batch(np.asarray(nu, dtype=float).reshape(1, -1), ch)
    _check_below(k, ch.d, BadK, "k")
    return row


def _rhs_coefficient(d: int, t: float) -> float:
    """coef = 2(1 + t(d-1))/(td), the main inequality's coefficient; 2 + 1/c with c = t^2/c2."""
    return 2.0 * (1.0 + t * (d - 1)) / (t * d)


def _main_margins(s_lo, s_hi, k, n: int, coef: float):
    """(k + 1) s_{n-k-1} - (n - k + coef) s_{n-k}: the main margin from its two s values.

    The main scan passes slices of one s table with k a column; the
    Schur criterion passes values gathered at a per-row k.
    """
    return (k + 1) * s_lo - (n - k + coef) * s_hi


def _phi_terms(table: np.ndarray, ch: "Channel | ChannelRows") -> np.ndarray:
    """(1 + c m) s_m - c (k + 1) s_{m-1}, m = d - k, for k = 0..d-1; [k, ...].

    table is a degree-leading (d + 1, ...) table.  The s table of nu
    gives phi_k(nu); that of nu \\ i with a zero row for degree -1 in
    front gives d phi_k / d nu_i.  The constants of a ChannelRows are
    per row, on the table's last axis.
    """
    d = table.shape[0] - 1
    c = ch.t2 / ch.c2
    k = np.arange(d).reshape((d,) + (1,) * (table.ndim - 1))
    return (1.0 + c * (d - k)) * table[d:0:-1] - c * (k + 1) * table[d - 1 :: -1]


def _partial_phi(cols: np.ndarray, ch: Channel, coords) -> np.ndarray:
    """d phi_k / d nu_i for each i in coords, of a coordinate-leading (d, N) nu; [k, slot, row].

    Each partial comes from the s table of the d - 1 other coordinates,
    taken in order, so a partial has the same bits whichever coords are
    asked for.
    """
    d = cols.shape[0]
    others = np.array([[l for l in range(d) if l != i] for i in coords], dtype=np.intp)
    table = _elem_sym_table(cols[others.T])  # [r, slot, row]
    return _phi_terms(np.concatenate([np.zeros((1,) + table.shape[1:]), table]), ch)


def _schur_defects(nu: np.ndarray, k, i, j, ch: "Channel | ChannelRows") -> np.ndarray:
    """c (nu_i - nu_j)^2 margin_k(nu \\ {i, j}) per row of an unchecked (N, d) nu; (N,).

    k, i and j are per-row index arrays, and ch a Channel or a
    ChannelRows with one channel per row.  The s table of the d - 2
    remaining coordinates gets two zero rows in front, for degrees -2
    and -1, and only here is the margin's pair of s values gathered at
    a per-row k.
    """
    count, d = nu.shape
    n = d - 2
    rows = np.arange(count)
    keep = np.ones(nu.shape, dtype=bool)
    keep[rows, i] = False
    keep[rows, j] = False
    table = _elem_sym_table(nu[keep].reshape(count, n).T.copy())
    padded = np.concatenate([np.zeros((2, count)), table])  # padded[r + 2] = s_r
    margin = _main_margins(padded[n + 1 - k, rows], padded[n + 2 - k, rows], k, n, _rhs_coefficient(d, ch.t))
    gap = nu[rows, i] - nu[rows, j]
    return ch.t2 / ch.c2 * (gap * gap) * margin


def phi_k_batch(nu: np.ndarray, ch: Channel) -> np.ndarray:
    """phi_k for every row of an (N, d) nu array and every k; (N, d), column k."""
    return _phi_terms(_elem_sym_table(_check_phi_batch(nu, ch).T.copy()), ch).T


def partial_phi_k_batch(nu: np.ndarray, ch: Channel) -> np.ndarray:
    """d phi_k / d nu_i for every row, i and k; (N, d, d) indexed [row, i, k]."""
    nu = _check_phi_batch(nu, ch)
    return _partial_phi(nu.T.copy(), ch, range(ch.d)).transpose(2, 1, 0)


def schur_defect_batch(nu: np.ndarray, k, i, j, ch: Channel) -> np.ndarray:
    """schur_defect per row, with per-row index arrays k, i and j; (N,).

    Raises what schur_defect raises for any row: OutOfRange, ZeroT,
    BadLength, BadK, or IndexError for an index outside [0, d) or i == j.
    """
    nu = _check_phi_batch(nu, ch)
    count, d = nu.shape
    k, i, j = (_index_rows(v, count) for v in (k, i, j))
    _check_below(k, d, BadK, "k")
    _check_below(i, d, IndexError, "i")
    _check_below(j, d, IndexError, "j")
    if np.any(i == j):
        raise IndexError("need distinct indices")
    return _schur_defects(nu, k, i, j, ch)


def phi_k(nu, k: int, ch: Channel) -> float:
    """s_{d-k}(nu) + c sum_l s_{d-1-k}(nu \\ l)(nu_l - 1), c = t^2/c2, for a length-d nu."""
    return float(phi_k_batch(_check_phi_args(nu, k, ch), ch)[0, k])


def sympol_defect(ch: Channel, lam: "SchmidtVector | np.ndarray", k: int) -> float:
    """|s_{d-k}(secular roots / c1) - phi_k(nu)|, absolute."""
    lhs = elem_sym(scaled_secular_roots(ch, lam), ch.d - k)
    rhs = phi_k(lambda_to_nu(ch, lam), k, ch)
    return abs(lhs - rhs)


def partial_phi_k(nu, k: int, i: int, ch: Channel) -> float:
    """Exact partial derivative of phi_k with respect to nu_i."""
    row = _check_phi_args(nu, k, ch)
    _check_below(i, ch.d, IndexError, "i")
    return float(_partial_phi(row.T.copy(), ch, [i])[k, 0, 0])


def schur_defect(nu, k: int, i: int, j: int, ch: Channel) -> float:
    """(nu_i - nu_j)(d phi_k/d nu_i - d phi_k/d nu_j); <= 0 when Schur-concave.

    Computed as c (nu_i - nu_j)^2 margin_k(nu \\ {i, j}), with c = t^2/c2.
    """
    if i == j:
        raise IndexError("need distinct indices")
    return float(schur_defect_batch(np.asarray(nu, dtype=float).reshape(1, -1), k, i, j, ch)[0])
