"""Deterministic random sampling helpers.

All randomness in the package flows through named substreams so that scans
and optimizers are reproducible bit for bit: a stream is identified by a
user seed plus a short tuple of nonnegative integers (domain tag, sample
index, ...).  Counter-based Philox generators are used for the scan engine
because disjoint key/counter blocks stay identical no matter how the
surrounding loop is chunked or threaded.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the substream identified by (seed, *path)."""
    entropy = (int(seed) & _MASK64,) + tuple(int(p) & _MASK64 for p in path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def philox_stream(seed: int, cell: int) -> np.random.Generator:
    """Counter-based generator for one scan cell.

    The 128-bit Philox key packs the user seed in the high word and the
    cell index in the low word, so distinct cells get independent streams
    by construction.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(cell) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_states(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-random pure states, (count, dim): complex Gaussian rows, normalized.

    Row r takes the real and the imaginary parts of row r of one
    (count, 2, dim) standard-normal block, so the first k rows do not
    depend on count.
    """
    g = rng.standard_normal((count, 2, dim))
    psi = g[:, 0] + 1j * g[:, 1]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def exponentials_from_uniforms(u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to Exp(1) variates, elementwise.

    Used by the scan engine to build simplex points from raw Philox
    doubles without variable-rate consumption of the stream.
    """
    return -np.log1p(-u)
