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

The simplex search evaluates the objective some 10^4 times per channel on
vectors of d <= 8 entries, where numpy's per-call overhead outweighs the
arithmetic, so its Nelder-Mead loop, projection and entropies run on
Python floats.  Its starts run in lockstep: the Nelder-Mead loop is a
generator that yields each point it needs evaluated, and every round
advances all unfinished starts by one point.  Most iterates project onto
a simplex vertex, so the search keeps its values by projected vector and
evaluates each distinct vector once.  A round's new vectors are checked
on floats by spectrum._schmidt_list and evaluated together: S1 sums
floats row by row, and S2 takes the roots of every row from one
spectrum._secular_block_roots call, the kernel behind secular_roots and
secular_roots_batch.  A row gets the same bits there as alone, so each
start follows the path it would follow on its own.  A start ends as
soon as its whole simplex, and the next point it would try, provably
project onto one vertex: from there on every evaluation would repeat
that vertex's value, and the full run would return the same point and
value.
The Haar-random states go through the two-copy channel and eigvalsh in
stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel, DensityMatrix, apply_two_copies
from .errors import ConfigError, NotPSD
from .sampling import dirichlet_flat, haar_state, rng_stream
from .spectrum import SchmidtVector, _schmidt_list, _secular_block_roots

ENTROPY_CLAMP = 1e-15  # eigenvalues at or below this contribute 0 ln 0 := 0
EIGENVALUE_FLOOR = -1e-10
NELDER_MEAD_TOL = 1e-10
NELDER_MEAD_MAXFEV = 2000
# Haar-random states per apply_two_copies and eigvalsh call.  Stacking
# cuts numpy's per-call overhead; a fixed size bounds the memory.
_HAAR_STACK = 16

# Substream tags so the optimizer families never collide.
_TAG_SIMPLEX = 1
_TAG_HAAR = 2
_TAG_UNIT = 3


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by the entropy optimizers.

    tol is the acceptance tolerance for certificates (gap checks and the
    closed-form comparison), not the internal simplex tolerance, which is
    fixed at 1e-10.  restarts and n_random count random draws and must
    not be negative; 0 draws no random simplex start, but still one unit
    vector in min_output_entropy and one Haar-random state in
    additivity_gap.  tol must be finite.
    """

    restarts: int = 50
    tol: float = 1e-6
    n_random: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 0:
            raise ConfigError(f"restarts must be >= 0, got {self.restarts}")
        if self.n_random < 0:
            raise ConfigError(f"n_random must be >= 0, got {self.n_random}")
        if not math.isfinite(self.tol):
            raise ConfigError(f"tol must be finite, got {self.tol}")


@dataclass(frozen=True)
class EntropyReport:
    s_total: float
    s1: float
    s2: float
    c: float


def _entropy(values) -> float:
    """-sum p ln p over an iterable of floats; entropy_of without numpy.

    Entries at or above 1 contribute 1 ln 1 := 0, the mirror of
    ENTROPY_CLAMP: a root that rounds to 1 + 2**-52 would otherwise add
    -p ln p < 0 and make an entropy negative.
    """
    total = 0.0
    for p in values:
        if ENTROPY_CLAMP < p < 1.0:
            total -= p * math.log(p)
        elif p < EIGENVALUE_FLOOR:
            raise NotPSD(f"entropy of a vector with entry {p}")
    return total


def entropy_of(values: np.ndarray) -> float:
    """Shannon entropy -sum p ln p of a nonnegative vector.

    Entries at or below the clamp threshold are treated as exact zeros,
    and entries at or above 1 as exact ones, so both contribute 0.
    Entries below -1e-10 indicate a genuinely non-PSD input and raise.
    """
    return _entropy(np.asarray(values, dtype=float).ravel().tolist())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr rho ln rho via dense diagonalization."""
    return entropy_of(np.linalg.eigvalsh(rho.mat))


def _split_rows(ch: Channel, lams: list[list[float]]) -> list[tuple[float, float]]:
    """(S1, S2) of the two-copy output for each validated Schmidt list in lams.

    Built from the two families directly, with no Spectrum record.
    gamma_ab is symmetric in (a, b), so S1 sums the unordered pairs and
    doubles.  S2 sums the secular roots in descending order.  The roots
    of all rows come from one _secular_block_roots call, and each row
    gets the same bits as a one-row call.
    """
    c1, half = ch.c1, 0.5 * ch.c2
    splits = []
    for v, r in zip(lams, _secular_block_roots(ch, np.array(lams)).tolist()):
        s1 = 2.0 * _entropy([c1 + half * (v[a] + v[b]) for a in range(len(v)) for b in range(a)])
        splits.append((s1, _entropy(r)))
    return splits


def entropy_split(ch: Channel, lam: "SchmidtVector | list[float]") -> EntropyReport:
    """S1, S2 and their sum for the two-copy output, from the closed form."""
    [(s1, s2)] = _split_rows(ch, [_schmidt_list(ch, lam)])
    c = (ch.d - 1) * (1.0 - ch.t**2) / ch.d
    return EntropyReport(s_total=s1 + s2, s1=s1, s2=s2, c=c)


def simplex_output_entropy(ch: Channel, lam: "SchmidtVector | list[float]") -> float:
    """Two-copy output entropy of the Schmidt-diagonal input lam.

    lam may be a plain list of d floats, which is checked on floats by
    _schmidt_list instead of through a SchmidtVector; it gives the same
    bits as entropy_split and as the optimizer's batched evaluation.
    """
    [(s1, s2)] = _split_rows(ch, [_schmidt_list(ch, lam)])
    return s1 + s2


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


def _project(x: list[float]) -> list[float]:
    """Euclidean projection of x onto the probability simplex (sort-based).

    theta is (sum of the i largest entries - 1) / i for the largest i at
    which the i-th largest entry still exceeds it.  The result is
    renormalized, since the projection can leave its sum a few ulp off 1.
    """
    css = theta = 0.0
    for i, u in enumerate(sorted(x, reverse=True), 1):
        css += u
        if u - (css - 1.0) / i > 0.0:
            theta = (css - 1.0) / i
    lam = [max(v - theta, 0.0) for v in x]
    total = math.fsum(lam)
    return [v / total for v in lam]


def project_to_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    return np.array(_project(np.asarray(x, dtype=float).ravel().tolist()))


def _schmidt_of(x: list[float]) -> list[float]:
    """The Schmidt vector of an optimizer point: lam_d = 1 - sum x, projected."""
    return _project(x + [1.0 - math.fsum(x)])


class _OutOfEvaluations(Exception):
    """The evaluation budget of _nelder_mead_steps is spent."""


def _one_vertex_cone(sim: list[list[float]], xr: list[float]) -> bool:
    """Whether sim and its next reflection xr all project onto one vertex.

    With y(p) = p + [1 - fsum(p)], as _schmidt_of builds it, and K the
    largest entry of y(sim[0]): every p in sim + [xr] and every j != K
    satisfy y_K(p) - 1 - y_j(p) > delta = 2**-30 (1 + max |y|).  The
    region y_K - y_j >= 1 (all j != K) is the set that _project sends to
    e_K; delta keeps the points clear of its boundary by far more than
    rounding.  minimize_simplex_entropy's docstring gives the use.
    """
    ys = [p + [1.0 - math.fsum(p)] for p in sim]
    ys.append(xr + [1.0 - math.fsum(xr)])
    top = ys[0]
    k = top.index(max(top))
    delta = 2.0**-30 * (1.0 + max(abs(v) for y in ys for v in y))
    return all(y[k] - 1.0 - v > delta for y in ys for j, v in enumerate(y) if j != k)


def _nelder_mead_steps(x0: list[float], xatol: float, fatol: float, maxfev: int, stop):
    """Nelder-Mead from x0, as a generator of the points it needs evaluated.

    Each point is yielded, and the caller sends its value back; the
    generator returns (x, value at x, evaluations).  The caller must not
    modify a yielded point.  _nelder_mead drives it with one function;
    minimize_simplex_entropy drives many in lockstep.

    A port, on Python lists, of scipy.optimize.minimize(method="Nelder-Mead",
    options={"xatol", "fatol", "maxfev"}) in its default form (not
    adaptive, no bounds, no iteration cap), step for step and rounding for
    rounding, so both return the same x, value and evaluation count:

    * reflection, expansion, contraction and shrink coefficients 1, 2,
      1/2 and 1/2;
    * the initial simplex steps each coordinate of x0 by 5 %, or to
      0.00025 where it is zero;
    * the centroid sums the vertices one at a time, then divides;
    * the vertices are sorted by value after every iteration; ties keep
      their order (scipy's np.argsort agrees wherever it is stable);
    * once maxfev evaluations are spent the next one stops the search,
      even inside the initial simplex or partway through a shrink, and
      the best vertex found so far is returned.

    stop, if not None, is called as stop(sim, xr) once per iteration
    after the convergence test, only while every vertex has the same
    value, with xr the reflection point that iteration is about to
    evaluate; a true result ends the search there.  Without stop the run
    is scipy's.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    nfev = 0

    def f(x: list[float]):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return (yield x)

    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)

    def sort() -> None:
        order = sorted(range(n + 1), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in order]
        fsim[:] = [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
    except _OutOfEvaluations:
        pass
    sort()

    while nfev < maxfev:
        best, worst = sim[0], sim[-1]
        if (
            max(abs(v - b) for x in sim[1:] for v, b in zip(x, best)) <= xatol
            and max(abs(fsim[0] - fx) for fx in fsim[1:]) <= fatol
        ):
            break
        xbar = list(sim[0])
        for x in sim[1:-1]:
            xbar = [s + v for s, v in zip(xbar, x)]
        xbar = [s / n for s in xbar]
        xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
        if stop is not None and fsim[0] == fsim[-1] and stop(sim, xr):
            break
        try:
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
                fxe = yield from f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
                    fxc = yield from f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
                    fxc = yield from f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [b + sigma * (v - b) for v, b in zip(sim[j], best)]
                        fsim[j] = yield from f(sim[j])
        except _OutOfEvaluations:
            pass
        sort()
    return sim[0], fsim[0], nfev


def _nelder_mead(fun, x0: list[float], xatol: float, fatol: float, maxfev: int, stop=None):
    """Minimize fun from x0 by Nelder-Mead; (x, fun(x), evaluations).

    Runs _nelder_mead_steps, which documents the method and its options,
    with fun evaluating each point as it comes.  fun takes a list it must
    not modify.
    """
    steps = _nelder_mead_steps(x0, xatol, fatol, maxfev, stop)
    value = None
    while True:
        try:
            x = steps.send(value)
        except StopIteration as done:
            return done.value
        value = fun(x)


def minimize_simplex_entropy(
    ch: Channel, cfg: OptimizerConfig = OptimizerConfig()
) -> tuple[float, SchmidtVector]:
    """Multi-start Nelder-Mead over Schmidt coefficients.

    Parameterized by the first d-1 coordinates with lam_d = 1 - sum, and
    candidates projected back onto the simplex.  Starts: cfg.restarts
    uniform-simplex draws, the d vertices, and the barycenter.  Vertex
    starts are also evaluated exactly; when the search cannot beat a
    vertex by more than 1e-12, the vertex itself is reported as argmin.

    The starts run in lockstep, one _nelder_mead_steps generator each.
    Every round sends each unfinished start the value of the point it
    yielded last and takes the next point.  The points are mapped
    through _schmidt_of and looked up in a dict of values kept for this
    search only.  The new distinct vectors are checked by _schmidt_list
    and evaluated together by one _split_rows call, which gives each
    the bits simplex_output_entropy gives it.  A start's steps depend
    only on the values it receives, so each start returns the x, value
    and evaluation count of _nelder_mead on the objective
    simplex_output_entropy(ch, _schmidt_of(x)) alone.  Tuple keys equate
    -0.0 and 0.0, which _split_rows also maps to the same bits.  An
    error on any vector propagates, and no value of its round is kept.

    Each start ends early once _one_vertex_cone holds: all d vertices of
    its simplex have the same value, and they and the next reflection
    point xr = 2 xbar - sim[-1] lie, by a margin delta, in the cone of
    points that _schmidt_of projects onto one vertex e_K.  The full run
    would return the same x and value:

    * the cone {y_K - y_j >= 1 for all j != K} is convex (y is affine in
      x), and it is exactly the set that projects onto e_K, so every
      point in it has the value f* of e_K, the search's value for the
      key e_K;
    * while all values are equal, every iteration takes the same three
      steps: a rejected reflection (f(xr) is not below any vertex), a
      rejected inside contraction, and a shrink toward sim[0];
    * the sort is stable, so sim[0] never moves and the order is kept;
      the next reflection point is the midpoint of sim[0] and xr, and
      every contraction and shrink point is a convex combination of the
      current simplex, so by induction every later iterate lies in the
      hull of sim and xr;
    * delta = 2**-30 (1 + max |y|) is some 2**23 ulps of max |y|, far
      more than the rounding of these combinations adds up to over the
      at most NELDER_MEAD_MAXFEV evaluations left, so every later
      iterate projects onto exactly e_K and returns f*, until the
      tolerance test or the evaluation cap ends the run with sim[0]
      and f*.

    Only the evaluation count, which this function discards, differs.
    """
    d = ch.d

    starts = []
    for r in range(cfg.restarts):
        starts.append(dirichlet_flat(d, rng_stream(cfg.seed, _TAG_SIMPLEX, r)).tolist())
    vertices = [SchmidtVector.vertex(d, a).values.tolist() for a in range(d)]
    starts.extend(vertices)
    starts.append([1.0 / d] * d)

    runs = [
        _nelder_mead_steps(lam0[:-1], NELDER_MEAD_TOL, NELDER_MEAD_TOL, NELDER_MEAD_MAXFEV, _one_vertex_cone)
        for lam0 in starts
    ]
    results = [None] * len(runs)
    values: dict[tuple[float, ...], float] = {}
    sends = [(i, None) for i in range(len(runs))]
    while sends:
        points = []
        for i, value in sends:
            try:
                points.append((i, tuple(_schmidt_of(runs[i].send(value)))))
            except StopIteration as done:
                results[i] = done.value
        new = {}
        for _, key in points:
            if key not in values and key not in new:
                new[key] = _schmidt_list(ch, list(key))
        if new:
            splits = _split_rows(ch, list(new.values()))
            values.update(zip(new, [s1 + s2 for s1, s2 in splits]))
        sends = [(i, values[key]) for i, key in points]

    best_val = math.inf
    best_lam = [1.0 / d] * d
    for x, val, _ in results:
        if val < best_val:
            best_val = val
            best_lam = _schmidt_of(x)

    # Exact vertex evaluations as candidates; prefer them on a tie.
    vertex_vals = [simplex_output_entropy(ch, v) for v in vertices]
    i = int(np.argmin(vertex_vals))
    if vertex_vals[i] <= best_val + 1e-12:
        if vertex_vals[i] < best_val:
            best_val = vertex_vals[i]
        best_lam = vertices[i]
    return best_val, SchmidtVector(best_lam)


def _random_state_entropy(ch: Channel, cfg: OptimizerConfig) -> float:
    """Minimum two-copy output entropy over Haar-random bipartite states.

    State r draws from its own substream.  The channel and eigvalsh run
    on stacks of up to _HAAR_STACK states, and give each state the same
    bits as a call of its own.
    """
    count = max(cfg.n_random, 1)
    best = np.inf
    for start in range(0, count, _HAAR_STACK):
        psi = np.stack(
            [
                haar_state(ch.d**2, rng_stream(cfg.seed, _TAG_HAAR, r))
                for r in range(start, min(start + _HAAR_STACK, count))
            ]
        )
        sigma = apply_two_copies(ch, psi[:, :, None] * psi.conj()[:, None, :])
        for values in np.linalg.eigvalsh(sigma):
            best = min(best, entropy_of(values))
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
