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
the two-copy minimum is checked numerically: a multi-start simplex search
over Schmidt coefficients plus Haar-random bipartite pure states, both
compared against 2h.

Natural logarithms throughout; CLI handles base conversion on output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channel import Channel, DensityMatrix, apply_two_copies
from .errors import NotPSD
from .sampling import dirichlet_flat, haar_state, rng_stream
from .spectrum import SchmidtVector, _as_schmidt, _pair_values, secular_roots

ENTROPY_CLAMP = 1e-15  # eigenvalues at or below this contribute 0 ln 0 := 0
EIGENVALUE_FLOOR = -1e-10
NELDER_MEAD_TOL = 1e-10

# Substream tags so the optimizer families never collide.
_TAG_SIMPLEX = 1
_TAG_HAAR = 2
_TAG_UNIT = 3


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the entropy optimizers.

    tol is the acceptance tolerance for certificates (gap checks and the
    closed-form comparison), not the internal simplex tolerance, which is
    fixed at 1e-10.
    """

    restarts: int = 50
    tol: float = 1e-6
    n_random: int = 200
    seed: int = 0


@dataclass(frozen=True)
class EntropyReport:
    s_total: float
    s1: float
    s2: float
    c: float


def entropy_of(values: np.ndarray) -> float:
    """Shannon entropy -sum p ln p of a nonnegative vector.

    Entries at or below the clamp threshold are treated as exact zeros.
    Entries below -1e-10 indicate a genuinely non-PSD input and raise.
    """
    v = np.asarray(values, dtype=float)
    if v.size and v.min() < EIGENVALUE_FLOOR:
        raise NotPSD(f"entropy of a vector with entry {v.min()}")
    v = v[v > ENTROPY_CLAMP]
    return float(-(v * np.log(v)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr rho ln rho via dense diagonalization."""
    return entropy_of(np.linalg.eigvalsh(rho.mat))


def entropy_split(ch: Channel, lam: SchmidtVector) -> EntropyReport:
    """S1, S2 and their sum for the two-copy output, from the closed form.

    Built from the two families directly, with no Spectrum record: through
    simplex_output_entropy this is the optimizer's objective.
    """
    lam = _as_schmidt(ch, lam)
    s1 = entropy_of(_pair_values(ch, lam.values))
    s2 = entropy_of(secular_roots(ch, lam))
    c = (ch.d - 1) * (1.0 - ch.t**2) / ch.d
    return EntropyReport(s_total=s1 + s2, s1=s1, s2=s2, c=c)


def simplex_output_entropy(ch: Channel, lam: SchmidtVector) -> float:
    """Two-copy output entropy of the Schmidt-diagonal input lam."""
    rep = entropy_split(ch, lam)
    return rep.s_total


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

    Multi-start sampling over unit vectors, alternating real and complex
    Gaussian draws.  Returns (best value, best vector); the closed form
    is the certificate it is checked against in the test suite.
    """
    best = np.inf
    argmin = np.zeros(ch.d)
    eye_term = (1.0 - ch.t) * np.eye(ch.d) / ch.d
    for r in range(max(cfg.restarts, 1)):
        rng = rng_stream(cfg.seed, _TAG_UNIT, r)
        if r % 2 == 0:
            v = rng.standard_normal(ch.d).astype(complex)
        else:
            v = rng.standard_normal(ch.d) + 1j * rng.standard_normal(ch.d)
        v /= np.linalg.norm(v)
        out = ch.t * np.outer(v, v.conj()).T + eye_term
        s = entropy_of(np.linalg.eigvalsh(out))
        if s < best:
            best = s
            argmin = v
    return best, argmin


def project_to_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    x = np.asarray(x, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(x - theta, 0.0)


def _objective(ch: Channel):
    def fun(x: np.ndarray) -> float:
        full = np.append(x, 1.0 - x.sum())
        lam = project_to_simplex(full)
        # Projection can leave the sum a few ulp off 1; renormalize.
        lam = lam / lam.sum()
        return simplex_output_entropy(ch, SchmidtVector(lam))

    return fun


def minimize_simplex_entropy(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> tuple[float, SchmidtVector]:
    """Multi-start Nelder-Mead over Schmidt coefficients.

    Parameterized by the first d-1 coordinates with lam_d = 1 - sum, and
    candidates projected back onto the simplex.  Starts: cfg.restarts
    uniform-simplex draws, the d vertices, and the barycenter.  Vertex
    starts are also evaluated exactly; when the search cannot beat a
    vertex by more than 1e-12, the vertex itself is reported as argmin.
    """
    fun = _objective(ch)
    d = ch.d

    starts = []
    for r in range(cfg.restarts):
        starts.append(dirichlet_flat(d, rng_stream(cfg.seed, _TAG_SIMPLEX, r)))
    vertices = [SchmidtVector.vertex(d, a).values for a in range(d)]
    starts.extend(vertices)
    starts.append(np.full(d, 1.0 / d))

    best_val = np.inf
    best_lam = np.full(d, 1.0 / d)
    for lam0 in starts:
        res = minimize(
            fun,
            lam0[:-1],
            method="Nelder-Mead",
            options={
                "xatol": NELDER_MEAD_TOL,
                "fatol": NELDER_MEAD_TOL,
                "maxfev": 2000,
            },
        )
        if res.fun < best_val:
            best_val = float(res.fun)
            full = np.append(res.x, 1.0 - np.sum(res.x))
            lam = project_to_simplex(full)
            best_lam = lam / np.sum(lam)

    # Exact vertex evaluations as candidates; prefer them on a tie.
    vertex_vals = [simplex_output_entropy(ch, SchmidtVector(v)) for v in vertices]
    i = int(np.argmin(vertex_vals))
    if vertex_vals[i] <= best_val + 1e-12:
        if vertex_vals[i] < best_val:
            best_val = vertex_vals[i]
        best_lam = vertices[i]
    return best_val, SchmidtVector(best_lam)


def _random_state_entropy(ch: Channel, cfg: OptimizerConfig) -> float:
    """Minimum two-copy output entropy over Haar-random bipartite states."""
    best = np.inf
    for r in range(max(cfg.n_random, 1)):
        psi = haar_state(ch.d**2, rng_stream(cfg.seed, _TAG_HAAR, r))
        sigma = apply_two_copies(ch, np.outer(psi, psi.conj()))
        best = min(best, entropy_of(np.linalg.eigvalsh(sigma)))
    return best


def additivity_gap(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> tuple[float, float, float]:
    """(gap, min_simplex, min_random) with gap = min(both) - 2h.

    A gap at or above -cfg.tol is consistent with the two-copy minimum
    being exactly twice the single-copy minimum.
    """
    min_simplex, _ = minimize_simplex_entropy(ch, cfg)
    min_random = _random_state_entropy(ch, cfg)
    gap = min(min_simplex, min_random) - 2.0 * min_entropy_closed_form(ch)
    return gap, min_simplex, min_random
