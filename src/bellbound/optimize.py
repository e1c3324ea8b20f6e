"""Search over measurement directions and coefficient instances.

Two searches: a one-parameter scan of the bouquet opening angle using
the closed-form value curves, and a block-coordinate ascent over unit
vectors for arbitrary pairwise coefficients.  The ascent's fixed points
are the stationary configurations of sum a_ij x_i . x_j on the product
of spheres; the ratio of the vector optimum to the sign optimum is the
quantity the Grothendieck constants bound.

One kernel, _ascend, runs every ascent: it advances a stack of
configurations, each a start with its own coefficient matrix.
gram_ascent stacks the restarts of one form; ratio_probe stacks every
instance x restart of a probe, so its instances climb together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import enumeration
from .enumeration import DEFAULT_GUARD, Form
from .errors import ParameterError, check_guard
from .quantum import v12_formula, v2k1_formula

FAMILY_BOUQUET12 = "bouquet12"
FAMILY_BOUQUET2K1 = "bouquet2k1"

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
THETA_TOLERANCE = 1e-10
ASCENT_TOLERANCE = 1e-10
ASCENT_SWEEP_CAP = 2000
# configurations (instance x restart) advanced together; bounds the stacks at
# ASCENT_BLOCK * n * max(n, dim) floats
ASCENT_BLOCK = 64
RATIO_VIOLATION_TOL = 1e-9
# an exhaustive ratio_probe runs 2^pairs patterns; more pairs are refused
EXHAUSTIVE_PAIR_LIMIT = 15


@dataclass(frozen=True)
class GrothendieckBounds:
    """Known bounds on the ratio constants, for reporting context."""

    kg2: float
    kg3_lower: float
    kg3_upper: float
    kg_lower: float
    kg_upper: float


GROTHENDIECK = GrothendieckBounds(
    kg2=math.sqrt(2.0),
    kg3_lower=math.sqrt(2.0),
    kg3_upper=1.5163,
    kg_lower=1.6770,
    kg_upper=math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0))),
)


def golden_section_max(f, lo: float, hi: float):
    """Maximize a unimodal function on [lo, hi] to width THETA_TOLERANCE."""
    a, b = lo, hi
    c = b - GOLDEN_RATIO * (b - a)
    d = a + GOLDEN_RATIO * (b - a)
    fc, fd = f(c), f(d)
    while b - a > THETA_TOLERANCE:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def _bisect_crossing(f, lo: float, hi: float) -> float:
    """Locate a sign change of f - 1 bracketed by [lo, hi]."""
    flo = f(lo) - 1.0
    for _ in range(200):
        if hi - lo <= THETA_TOLERANCE:
            break
        mid = (lo + hi) / 2.0
        fm = f(mid) - 1.0
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass
class ThetaScanResult:
    """Grid scan of a bouquet value curve, refined around the peak."""

    family: str
    k: int | None
    grid: tuple[tuple[float, float], ...]
    best_theta: float
    best_value: float
    violation_interval: tuple[float, float] | None


def scan_theta(
    family: str,
    k: int | None = None,
    grid_points: int = 1024,
) -> ThetaScanResult:
    """Scan the opening angle over (0, pi/2) for one bouquet family.

    The best grid point is refined by golden-section search, and the
    region where the value exceeds 1 is reported with its endpoints
    bisected to the same tolerance.  The curves open at exactly 1 as
    theta goes to 0, so a violation already present at the first grid
    point reports 0 as its lower endpoint.
    """
    if family == FAMILY_BOUQUET12:
        if k is not None:
            raise ParameterError("the 12-vector family takes no k")
        f = v12_formula
    elif family == FAMILY_BOUQUET2K1:
        if k is None or k < 1:
            raise ParameterError("the (2k+1)-vector family needs k >= 1")
        f = lambda theta: v2k1_formula(k, theta)
    else:
        raise ParameterError(f"unknown family {family!r}")
    if grid_points < 10:
        raise ParameterError("need at least 10 grid points")

    hi_edge = math.pi / 2.0
    step = hi_edge / (grid_points + 1)
    thetas = [(i + 1) * step for i in range(grid_points)]
    values = [f(t) for t in thetas]
    grid = tuple(zip(thetas, values))

    best = max(range(grid_points), key=lambda i: values[i])
    lo = thetas[best - 1] if best > 0 else step * 1e-6
    hi = thetas[best + 1] if best < grid_points - 1 else hi_edge - step * 1e-6
    best_theta, best_value = golden_section_max(f, lo, hi)
    if values[best] > best_value:
        best_theta, best_value = thetas[best], values[best]

    interval = None
    above = [v > 1.0 for v in values]
    if any(above):
        first = above.index(True)
        last = len(above) - 1 - above[::-1].index(True)
        lo_end = 0.0
        if first > 0:
            lo_end = _bisect_crossing(f, thetas[first - 1], thetas[first])
        hi_end = hi_edge
        if last < grid_points - 1:
            hi_end = _bisect_crossing(f, thetas[last], thetas[last + 1])
        interval = (lo_end, hi_end)

    return ThetaScanResult(
        family=family,
        k=k,
        grid=grid,
        best_theta=best_theta,
        best_value=best_value,
        violation_interval=interval,
    )


@dataclass
class GramAscentResult:
    """Best configuration found by block-coordinate ascent."""

    objective: float
    vectors: np.ndarray
    converged: bool
    sweeps: int
    monotone: bool
    restart_objectives: tuple[float, ...]


def _symmetric_matrix(n: int, coefficients: dict[tuple[int, int], float]) -> np.ndarray:
    return Form.of(n, coefficients).matrix


def _check_ascent_sizes(n: int, dim: int, restarts: int) -> None:
    if dim < 1 or dim > n:
        raise ParameterError(f"dim must lie in 1..{n}, got {dim}")
    if restarts < 1:
        raise ParameterError("need at least one restart")


def _unit_starts(children, n: int, dim: int) -> np.ndarray:
    """Random unit vectors per restart, each drawn from its own seed stream, as one stack."""
    x = np.stack([np.random.default_rng(c).normal(size=(n, dim)) for c in children])
    norms = np.linalg.norm(x, axis=2)
    degenerate = norms < 1e-12
    norms[degenerate] = 1.0
    x /= norms[..., None]
    x[degenerate] = np.eye(1, dim)[0]
    return x


def _objectives(a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """0.5 * sum a_ij x_i . x_j for every configuration in a (count, n, dim) stack."""
    return 0.5 * np.sum(a * (stack @ stack.transpose(0, 2, 1)), axis=(1, 2))


def _ascend(a: np.ndarray, stack: np.ndarray):
    """Run the round-robin ascent on a stack of configurations, in place.

    a holds each configuration's coefficient matrix, shape (count, n, n),
    and stack its start, shape (count, n, dim); the configurations may
    be restarts of one form or of many.  Every configuration still
    climbing advances in the same sweep; one whose objective rose by
    less than ASCENT_TOLERANCE is frozen there and leaves the working
    stacks.  Each product below (the gradient a[i] @ x, its squared
    norm g . g, and the objective) is taken per configuration by the
    same kernel as for a single one, so every configuration gets the
    bits it would get alone.  Returns per configuration the final
    objective, the sweeps, the converged flag and whether no sweep
    lowered its objective by more than 1e-12.
    """
    count, n, _ = stack.shape
    values = _objectives(a, stack)
    sweeps = np.full(count, ASCENT_SWEEP_CAP)
    converged = np.zeros(count, dtype=bool)
    monotone = np.ones(count, dtype=bool)
    live = np.arange(count)
    work = stack
    for sweep in range(1, ASCENT_SWEEP_CAP + 1):
        for i in range(n):
            g = (a[:, i, None] @ work)[:, 0]
            norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
            moves = norm > 1e-14
            if moves.all():
                work[:, i] = g / norm[:, None]
            else:
                # a zero gradient keeps the current vector
                work[moves, i] = g[moves] / norm[moves, None]
        new = _objectives(a, work)
        old = values[live]
        monotone[live[new < old - 1e-12]] = False
        values[live] = new
        done = new - old < ASCENT_TOLERANCE
        if done.any():
            sweeps[live[done]] = sweep
            converged[live[done]] = True
            stack[live[done]] = work[done]
            live, work, a = live[~done], work[~done], a[~done]
            if live.size == 0:
                break
    stack[live] = work
    return values, sweeps, converged, monotone


def gram_ascent(
    coefficients: dict[tuple[int, int], float] | Form,
    n: int,
    dim: int,
    restarts: int = 32,
    seed: int = 0,
) -> GramAscentResult:
    """Maximize sum a_ij x_i . x_j over unit vectors in R^dim.

    Round-robin updates x_i to the normalized gradient sum a_ij x_j,
    which can only raise the objective (the terms containing x_i are
    linear in it and everything else is untouched); zero gradients keep
    the current vector.  Restart streams are split from the seed per
    restart index, and the restarts advance together in blocks of
    ASCENT_BLOCK, each giving the same bits as when run alone; the first
    restart with the largest objective is returned.
    """
    _check_ascent_sizes(n, dim, restarts)
    a = _symmetric_matrix(n, coefficients)

    best: GramAscentResult | None = None
    monotone = True
    restart_objectives: list[float] = []
    children = np.random.SeedSequence(seed).spawn(restarts)
    for first in range(0, restarts, ASCENT_BLOCK):
        stack = _unit_starts(children[first : first + ASCENT_BLOCK], n, dim)
        values, sweeps, converged, block_monotone = _ascend(
            np.broadcast_to(a, (len(stack), n, n)), stack
        )
        monotone = monotone and bool(block_monotone.all())
        restart_objectives.extend(values.tolist())
        k = int(np.argmax(values))
        if best is None or values[k] > best.objective:
            best = GramAscentResult(
                objective=float(values[k]),
                vectors=stack[k].copy(),
                converged=bool(converged[k]),
                sweeps=int(sweeps[k]),
                monotone=True,
                restart_objectives=(),
            )
    return replace(best, monotone=monotone, restart_objectives=tuple(restart_objectives))


def _sign_optimum(form: Form, guard: int):
    """The sign optimum a Grothendieck ratio divides by; a bound <= 0 is refused."""
    bound, _, _ = enumeration.max_over_signs(form.n, form, guard=guard)
    if bound <= 0:
        raise ParameterError("classical bound must be positive to take the ratio")
    return bound


def gram_ratio(
    coefficients: dict[tuple[int, int], float],
    n: int,
    dim: int,
    restarts: int = 32,
    seed: int = 0,
    guard: int = DEFAULT_GUARD,
) -> tuple[GramAscentResult, float]:
    """(ascent result, sign optimum): the Grothendieck ratio is result.objective / bound.

    dim and restarts are checked, then one Form of the coefficients
    gives the sign optimum (_sign_optimum) and the ascent's matrix, so a
    bad size, a bad pair, the guard and a bound <= 0 all refuse before
    the ascent runs.
    """
    _check_ascent_sizes(n, dim, restarts)
    form = Form.of(n, coefficients)
    bound = _sign_optimum(form, guard)
    return gram_ascent(form, n, dim, restarts=restarts, seed=seed), bound


@dataclass
class RatioProbeSummary:
    """Vector-to-sign optimum ratios over a set of coefficient instances."""

    n: int
    dim: int
    instances: int
    seed: int | None
    exhaustive: bool
    ratios: tuple[float, ...]
    max_ratio: float
    mean_ratio: float
    max_coefficients: dict[tuple[int, int], float]
    violating_count: int
    bounds: GrothendieckBounds


def ratio_probe(
    n: int,
    instances: int = 100,
    seed: int = 0,
    dim: int | None = None,
    restarts: int = 16,
    guard: int = DEFAULT_GUARD,
    exhaustive: bool = False,
    bipartite_planar: bool = False,
) -> RatioProbeSummary:
    """Ratios for random (or exhaustively enumerated) +-1 coefficients.

    With bipartite_planar the instances put coefficients only across a
    half/half split of the variables and the ascent runs in the plane
    (any other dim is refused), the regime where the ratio is bounded by
    kg2 = sqrt(2).  Exhaustive mode walks every +-1 pattern on the
    n(n-1)/2 pairs instead of sampling, and refuses more than
    EXHAUSTIVE_PAIR_LIMIT pairs before it builds one; each sampled
    instance draws from a stream split per instance index.

    Every instance's sign optimum is taken (_sign_optimum) before any
    ascent, so the guard and a bound <= 0 refuse first.  Then all
    instance x restart configurations climb together in blocks of
    ASCENT_BLOCK, each restart seeded as gram_ascent(coeffs, n, dim,
    restarts, instance seed) seeds it and giving the same bits, so each
    ratio is that call's objective over the sign optimum.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if bipartite_planar:
        if dim not in (None, 2):
            raise ParameterError(f"the planar bipartite probe runs in dimension 2, got dim={dim}")
        half = n // 2
        pairs = [(i, j) for i in range(half) for j in range(half, n)]
        dim = 2
    if dim is None:
        dim = n
    if not exhaustive and instances < 1:
        raise ParameterError(f"need at least one instance, got {instances}")
    _check_ascent_sizes(n, dim, restarts)

    if exhaustive:
        check_guard(len(pairs), EXHAUSTIVE_PAIR_LIMIT, "coefficient pairs")
        patterns = list(itertools.product([1.0, -1.0], repeat=len(pairs)))
        seed_values = [seed] * len(patterns)
    else:
        children = np.random.SeedSequence(seed).spawn(instances)
        patterns, seed_values = [], []
        for child in children:
            rng = np.random.default_rng(child)
            patterns.append(rng.integers(0, 2, size=len(pairs)) * 2.0 - 1.0)
            seed_values.append(int(rng.integers(0, 2**31 - 1)))
    # one Form per pattern gives its sign optimum and its matrix; only those are kept
    bounds, instance_matrices = [], []
    for signs in patterns:
        form = Form(n, [(i, j, w) for (i, j), w in zip(pairs, signs)])
        bounds.append(_sign_optimum(form, guard))
        instance_matrices.append(form.matrix)

    def configurations():
        for k, (a, inst_seed) in enumerate(zip(instance_matrices, seed_values)):
            for child in np.random.SeedSequence(inst_seed).spawn(restarts):
                yield k, a, child

    # the first restart with the largest objective wins, as in gram_ascent
    objectives = [-math.inf] * len(patterns)
    pending = configurations()
    while block := list(itertools.islice(pending, ASCENT_BLOCK)):
        owners, matrices, children = zip(*block)
        stack = _unit_starts(children, n, dim)
        values = _ascend(np.stack(matrices), stack)[0]
        for k, value in zip(owners, values.tolist()):
            if value > objectives[k]:
                objectives[k] = value

    ratios = [objective / bound for objective, bound in zip(objectives, bounds)]
    best = max(range(len(ratios)), key=ratios.__getitem__)  # the first largest

    return RatioProbeSummary(
        n=n,
        dim=dim,
        instances=len(patterns),
        seed=None if exhaustive else seed,
        exhaustive=exhaustive,
        ratios=tuple(ratios),
        max_ratio=ratios[best],
        mean_ratio=sum(ratios) / len(ratios),
        max_coefficients=dict(zip(pairs, patterns[best])),
        violating_count=sum(1 for r in ratios if r > 1.0 + RATIO_VIOLATION_TOL),
        bounds=GROTHENDIECK,
    )
