"""Deterministic random sampling: one stream family and its samplers.

Every Generator in the package comes from philox_stream, keyed by the
user seed and one cell key: the scan engine's _cell_key or one of the
entropy probes' tags.  A stream's draws do not depend on how the loop
around it is chunked or threaded, and each sampler reads a fixed number
of doubles per row.
"""

from __future__ import annotations

import numpy as np

from .channel import _whole
from .errors import ConfigError

_MASK64 = (1 << 64) - 1


def _check_seed(seed) -> int:
    """seed as an int in [0, 2^64), the seeds philox_stream keys on; ConfigError otherwise.

    philox_stream reduces a seed mod 2^64, so a seed outside the range
    would draw the samples of another seed and report its own.
    """
    seed = _whole(seed, "seed")
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def philox_stream(seed: int, cell: int) -> np.random.Generator:
    """Counter-based generator for one cell.

    The 128-bit Philox key packs the user seed in the high word and the
    cell key in the low word, so distinct cells get independent streams
    by construction.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(cell) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _simplex_cols(u: np.ndarray) -> np.ndarray:
    """Uniform points of the probability simplex, one per column of uniforms u (m, N).

    Normalized exponential spacings -log1p(-u), summed over the m
    coordinate rows in order, first to last; dropping the last row gives
    uniform points of the solid simplex {w >= 0, sum w <= 1}.  A row-wise
    np.sum adds in the same order for fewer than 8 terms, so the bits of
    a point do not depend on the layout for m <= 7.
    """
    expo = -np.log1p(-u)
    total = expo[0]
    for row in expo[1:]:
        total = total + row
    return expo / np.maximum(total, 1e-300)


def _lambda_rows(u: np.ndarray) -> np.ndarray:
    """Uniform Schmidt vectors from an (N, d) block of uniforms, as (N, d) rows: a transposed view of simplex columns."""
    return _simplex_cols(u.T).T


def haar_states(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-random pure states, (count, dim): complex Gaussian rows, normalized.

    Row r takes the real and the imaginary parts of row r of one
    (count, 2, dim) standard-normal block, so the first k rows do not
    depend on count.
    """
    g = rng.standard_normal((count, 2, dim))
    psi = g[:, 0] + 1j * g[:, 1]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)
