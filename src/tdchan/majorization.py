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


def _elem_sym_table(m: np.ndarray) -> np.ndarray:
    """s_0..s_n of the last axis of m, via the product recurrence; (..., n + 1).

    The recurrence runs on a leading degree axis, so each step is one
    contiguous operation over all rows, and the result is a view of that
    array.  It is elementwise: a row gets the same bits in any batch as
    alone.
    """
    n = m.shape[-1]
    cols = np.moveaxis(m, -1, 0).copy()
    e = np.zeros((n + 1,) + cols.shape[1:])
    e[0] = 1.0
    for c in range(n):
        e[1 : c + 2] += cols[c] * e[: c + 1]
    return np.moveaxis(e, 0, -1)


def _loo_elem_sym(m: np.ndarray, table: np.ndarray, q: int) -> np.ndarray:
    """s_0..s_q with coordinate l removed, for every l; (..., n, q + 1).

    table holds s_0..s_q of the full vector on its last axis; leading
    axes broadcast against m.  Downdate recurrence
    b_r(l) = s_r - m_l b_{r-1}(l), stable for |m_l| <= 1, which holds on
    the nu box.  Applied to a leave-one-out table it gives the
    leave-two-out values s_r(m \\ {i, l}).  Column r has the same bits
    for every q >= r.  As in _elem_sym_table, the recurrence runs on
    leading degree and coordinate axes, and the result is a view.
    """
    cols = np.moveaxis(m, -1, 0).copy()
    rows = np.moveaxis(table, -1, 0)
    b = np.empty((q + 1,) + np.broadcast_shapes(cols.shape, (1,) + rows.shape[1:]))
    b[0] = 1.0
    for r in range(1, q + 1):
        b[r] = rows[r] - cols * b[r - 1]
    return np.moveaxis(b, (0, 1), (-1, -2))


def _sum_in_order(terms: np.ndarray, axis: int) -> np.ndarray:
    """terms summed along axis one index at a time, first to last.

    np.sum groups the terms pairwise when the axis is contiguous in
    memory, so its bits would depend on the layout and the batch size.
    """
    parts = np.moveaxis(terms, axis, 0)
    total = parts[0]
    for part in parts[1:]:
        total = total + part
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


def _check_phi_batch(nu: np.ndarray, ch: Channel) -> np.ndarray:
    if ch.t == 0.0:
        raise ZeroT("phi_k needs t != 0 (c2 appears in a denominator)")
    nu = np.asarray(nu, dtype=float)
    if nu.ndim != 2 or nu.shape[1] != ch.d:
        raise BadLength(f"nu rows have shape {nu.shape}, expected (N, {ch.d})")
    return nu


def _check_phi_args(nu, k: int, ch: Channel) -> np.ndarray:
    """The one-row (1, d) array of a finite nu, after the checks of _check_phi_batch and on k."""
    row = _check_phi_batch(_finite_nu(nu)[None, :], ch)
    if not (0 <= k <= ch.d - 1):
        raise BadK(f"k={k} outside [0, {ch.d - 1}]")
    return row


def phi_k_batch(nu: np.ndarray, ch: Channel) -> np.ndarray:
    """phi_k for every row of an (N, d) nu array and every k; (N, d), column k."""
    nu = _check_phi_batch(nu, ch)
    d = ch.d
    table = _elem_sym_table(nu)
    loo = _loo_elem_sym(nu, table, d - 1)
    inner = _sum_in_order((nu - 1.0)[..., None] * loo, -2)  # sum_l (nu_l - 1) s_r(nu \ l)
    k = np.arange(d)
    return table[:, d - k] + (ch.t**2 / ch.c2) * inner[:, d - 1 - k]


def partial_phi_k_batch(nu: np.ndarray, ch: Channel) -> np.ndarray:
    """d phi_k / d nu_i for every row, i and k; (N, d, d) indexed [row, i, k]."""
    nu = _check_phi_batch(nu, ch)
    count, d = nu.shape
    coef = ch.t**2 / ch.c2
    loo = _loo_elem_sym(nu, _elem_sym_table(nu), d - 1)  # [row, i, r]
    loo2 = _loo_elem_sym(nu[:, None, :], loo, d - 2)  # [row, i, l, r], l != i
    others = ~np.eye(d, dtype=bool)[None, :, :, None]
    inner = _sum_in_order(np.where(others, (nu[:, None, :] - 1.0)[..., None] * loo2, 0.0), 2)
    # s_{d-2-k} vanishes at k = d - 1: pad r = -1 with a zero column.
    inner = np.concatenate([np.zeros((count, d, 1)), inner], axis=2)
    k = np.arange(d)
    return (1.0 + coef) * loo[:, :, d - 1 - k] + coef * inner[:, :, d - 1 - k]


def schur_defect_batch(nu: np.ndarray, k, i, j, ch: Channel) -> np.ndarray:
    """schur_defect per row, with per-row index arrays k, i and j; (N,)."""
    nu = np.asarray(nu, dtype=float)
    partial = partial_phi_k_batch(nu, ch)
    rows = np.arange(nu.shape[0])
    di = partial[rows, i, k]
    dj = partial[rows, j, k]
    return (nu[rows, i] - nu[rows, j]) * (di - dj)


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
    if not (0 <= i < ch.d):
        raise IndexError(f"index i={i} outside [0, {ch.d})")
    return float(partial_phi_k_batch(row, ch)[0, i, k])


def schur_defect(nu, k: int, i: int, j: int, ch: Channel) -> float:
    """(nu_i - nu_j)(d phi_k/d nu_i - d phi_k/d nu_j); <= 0 when Schur-concave."""
    if i == j:
        raise IndexError("need distinct indices")
    row = _check_phi_args(nu, k, ch)
    for idx in (i, j):
        if not (0 <= idx < ch.d):
            raise IndexError(f"index {idx} outside [0, {ch.d})")
    return float(schur_defect_batch(row, [k], [i], [j], ch)[0])
