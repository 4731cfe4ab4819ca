"""Majorization order and the symmetric-polynomial route to it.

The secular eigenvalues scale to gamma_i = g_i / c1, and the Schmidt
coefficients transform to nu_a = 1 + (c2/c1) lam_a, which for t <= 0 live
in the box [1 + 2td/(1-t), 1].  The elementary symmetric polynomials of
the scaled roots are polynomials in nu:

    s_{d-k}(gamma) = phi_k(nu)
                   = s_{d-k}(nu) + (t^2/c2) sum_l s_{d-1-k}(nu \\ l)(nu_l - 1),

and Schur-concavity of every phi_k is what drives the entropy comparison
between Schmidt vectors: if lam majorizes lam', the secular part of the
output entropy can only grow.  The Schur criterion uses the exact partial
derivatives

    d phi_k / d nu_i = (1 + t^2/c2) s_{d-1-k}(nu \\ i)
                       + (t^2/c2) sum_{l != i} (nu_l - 1) s_{d-2-k}(nu \\ {i, l}).

The tables behind these are degree-leading: s_r of a batch sits at
[r, ..., row], with the rows on the last axis, so every step of a
recurrence is one contiguous operation over all rows.  The partials come
from one kernel that builds leave-one-out and leave-two-out tables only
for the coordinates it is asked for.  The Schur criterion reads two
coordinates per row, so it costs O(d^2) per row; only
partial_phi_k_batch, which returns every partial, builds the O(d^3)
table.  The batch functions validate their inputs as the scalar ones do,
and the scalar functions are one-row calls of the same kernels.
"""

from __future__ import annotations

import numpy as np

from .channel import Channel
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


def _loo_elem_sym(cols: np.ndarray, table: np.ndarray, q: int) -> np.ndarray:
    """s_0..s_q without coordinate l, for each row l of cols; a new [r, l, ...] array.

    cols is coordinate-leading, (n, ...); table is degree-leading and
    holds s_0..s_q of the full vector, and table[r] broadcasts against
    cols.  Downdate recurrence b_r(l) = s_r - m_l b_{r-1}(l), stable for
    |m_l| <= 1, which holds on the nu box.  cols may hold only some of
    the coordinates: the Schur path passes the two it reads, so its
    tables are O(d^2) per row.  Applied to a leave-one-out table
    [r, i, ...] with cols[:, None] it gives the leave-two-out values
    s_r(m \\ {i, l}) as [r, l, i, ...].  Column r has the same bits for
    every q >= r.
    """
    b = np.empty((q + 1,) + np.broadcast_shapes(cols.shape, (1,) + table.shape[1:]))
    b[0] = 1.0
    for r in range(1, q + 1):
        b[r] = table[r] - cols * b[r - 1]
    return b


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """terms[:, l] summed over l one index at a time, first to last; drops axis 1.

    terms is a degree-leading [r, l, ...] table, and the result keeps its
    layout, [r, ...].  np.sum groups the terms pairwise when the axis is
    contiguous in memory, so its bits would depend on the layout and the
    batch size.
    """
    total = terms[:, 0]
    for l in range(1, terms.shape[1]):
        total = total + terms[:, l]
    return total


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


def _phi_table(cols: np.ndarray, ch: Channel) -> np.ndarray:
    """phi_k of a coordinate-leading (d, N) nu for every k; (d, N) indexed [k, row]."""
    d = cols.shape[0]
    table = _elem_sym_table(cols)
    loo = _loo_elem_sym(cols, table, d - 1)
    inner = _sum_in_order((cols - 1.0) * loo)  # sum_l (nu_l - 1) s_r(nu \ l), [r, row]
    return table[d:0:-1] + (ch.t**2 / ch.c2) * inner[::-1]


def _partial_phi_rows(nu: np.ndarray, ch: Channel, idx: np.ndarray) -> np.ndarray:
    """d phi_k / d nu_i at the coordinates idx (N, m) of each row; (N, m, d), [row, slot, k].

    nu is (N, d), and neither input is checked.  Only the selected
    coordinates get leave-one-out and leave-two-out tables, so the work
    is O(m d^2) per row.  Each partial gets the bits it has with every
    coordinate selected.
    """
    count, d = nu.shape
    coef = ch.t**2 / ch.c2
    cols = nu.T.copy()  # [l, row]
    picked = cols[idx.T, np.arange(count)]  # [slot, row]
    loo = _loo_elem_sym(picked, _elem_sym_table(cols), d - 1)  # [r, slot, row]
    loo2 = _loo_elem_sym(cols[:, None, :], loo, d - 2)  # [r, l, slot, row]
    others = np.arange(d)[:, None, None] != idx.T  # [l, slot, row]
    inner = _sum_in_order(np.where(others, (cols - 1.0)[:, None, :] * loo2, 0.0))
    # s_{d-2-k} vanishes at k = d - 1: pad r = -1 with a zero row.
    inner = np.concatenate([np.zeros((1,) + inner.shape[1:]), inner])
    return ((1.0 + coef) * loo[::-1] + coef * inner[::-1]).T


def _schur_defects(nu: np.ndarray, k, i, j, ch: Channel) -> np.ndarray:
    """schur_defect per row of an unchecked (N, d) nu, with per-row index arrays; (N,)."""
    rows = np.arange(nu.shape[0])
    partial = _partial_phi_rows(nu, ch, np.stack([i, j], axis=1))
    return (nu[rows, i] - nu[rows, j]) * (partial[rows, 0, k] - partial[rows, 1, k])


def phi_k_batch(nu: np.ndarray, ch: Channel) -> np.ndarray:
    """phi_k for every row of an (N, d) nu array and every k; (N, d), column k."""
    return _phi_table(_check_phi_batch(nu, ch).T.copy(), ch).T


def partial_phi_k_batch(nu: np.ndarray, ch: Channel) -> np.ndarray:
    """d phi_k / d nu_i for every row, i and k; (N, d, d) indexed [row, i, k]."""
    nu = _check_phi_batch(nu, ch)
    count, d = nu.shape
    return _partial_phi_rows(nu, ch, np.broadcast_to(np.arange(d), (count, d)))


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
    """s_{d-k}(nu) + (t^2/c2) sum_l s_{d-1-k}(nu \\ l)(nu_l - 1), for a length-d nu."""
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
    return float(_partial_phi_rows(row, ch, np.array([[i]]))[0, 0, k])


def schur_defect(nu, k: int, i: int, j: int, ch: Channel) -> float:
    """(nu_i - nu_j)(d phi_k/d nu_i - d phi_k/d nu_j); <= 0 when Schur-concave."""
    if i == j:
        raise IndexError("need distinct indices")
    return float(schur_defect_batch(np.asarray(nu, dtype=float).reshape(1, -1), k, i, j, ch)[0])
