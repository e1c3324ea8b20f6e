"""Correlation polytopes: vertices, membership, and exact facet checks.

Four families, each the convex hull of finitely many deterministic
vertices:

  bell(n)            pairwise products X_i X_j, i < j, in R^(n(n-1)/2)
  bell(n, m)         cross products X_i Y_j in R^(nm)
  cut(n)             binary xors a_i ^ a_j over the same pair order
  cor(n)             products b_i b_j for i <= j, diagonal included

Membership is decided by projecting onto the hull with Wolfe's
min-norm-point algorithm (a support-oracle method: each iteration only
asks which vertex is extreme in a direction).  The corral's bordered
linear system is kept from cycle to cycle and solved by elimination;
least squares takes over only when the corral turns affinely dependent,
and once per call to re-solve the final corral from its vertices.
Outside points get a separating hyperplane that is verified against
every vertex; inside points get the final corral's convex weights,
verified to rebuild the point.  Facet checks are exact: coefficients are
rationalized and scaled to integers, the values on all vertices are one
int64 matrix product, and the affine rank of the tight set comes from a
vectorized fraction-free elimination in int64.  Vertex entries are in
{-1, 0, 1}, so the products stay in int64 while sum |c| < 2^62; past
that, and whenever elimination entries reach 2^31, the same code runs on
Python integers (object dtype), so no answer depends on a word size.
Vertex tables are built by broadcasting over the bits of 0..2^k - 1 in
int8 and returned as int64.  Bipartite cut and correlation variants are
not provided; nothing downstream consumes them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .enumeration import integer_ratios
from .errors import ConvergenceError, DimensionError, ParameterError, check_guard, finite_array
from .inequalities import MODE_COMPLETE, CutInequality, PairwiseInequality

KIND_BELL = "bell"
KIND_BELL_BIPARTITE = "bell_bipartite"
KIND_CUT = "cut"
KIND_COR = "cor"

VERTEX_GUARD = 16
MEMBERSHIP_TOLERANCE = 1e-7
MEMBERSHIP_ITERATION_CAP = 100_000


@dataclass(frozen=True)
class PolytopeSpec:
    """One of the four polytope families, with its size parameters."""

    kind: str
    n: int
    m: int = 0

    def __post_init__(self):
        if self.kind not in (KIND_BELL, KIND_BELL_BIPARTITE, KIND_CUT, KIND_COR):
            raise ParameterError(f"unknown polytope kind {self.kind!r}")
        if self.kind == KIND_BELL_BIPARTITE:
            if self.n < 1 or self.m < 1:
                raise DimensionError("bipartite polytope needs n >= 1 and m >= 1")
        else:
            if self.n < 2:
                raise DimensionError("one-sided polytopes need n >= 2")
            if self.m != 0:
                raise DimensionError("m is only meaningful for the bipartite kind")

    @classmethod
    def bell(cls, n: int) -> "PolytopeSpec":
        return cls(KIND_BELL, n)

    @classmethod
    def bell_bipartite(cls, n: int, m: int) -> "PolytopeSpec":
        return cls(KIND_BELL_BIPARTITE, n, m)

    @classmethod
    def cut(cls, n: int) -> "PolytopeSpec":
        return cls(KIND_CUT, n)

    @classmethod
    def cor(cls, n: int) -> "PolytopeSpec":
        return cls(KIND_COR, n)

    @property
    def ambient_dim(self) -> int:
        if self.kind == KIND_BELL_BIPARTITE:
            return self.n * self.m
        if self.kind == KIND_COR:
            return self.n * (self.n + 1) // 2
        return self.n * (self.n - 1) // 2

    def coordinate_pairs(self) -> list[tuple[int, int]]:
        """Index pairs in the lexicographic order of the coordinates."""
        if self.kind == KIND_BELL_BIPARTITE:
            return [(i, j) for i in range(self.n) for j in range(self.m)]
        if self.kind == KIND_COR:
            return [(i, j) for i in range(self.n) for j in range(i, self.n)]
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)]


def vertices(spec: PolytopeSpec, guard: int = VERTEX_GUARD) -> np.ndarray:
    """All vertices as an int64 array, one row per vertex.

    Sign polytopes are deduplicated by pinning the first variable
    (global flips fix every product), the cut polytope by pinning the
    first bit (complements give the same cut); cor keeps all 2^n
    assignments since the diagonal separates them.  Rows run through
    the free variables in lexicographic order, +1 before -1 and 0
    before 1, the most significant variable first.
    """
    total = spec.n + spec.m if spec.kind == KIND_BELL_BIPARTITE else spec.n
    check_guard(total, guard, "variables")
    free = total if spec.kind == KIND_COR else total - 1
    codes = np.arange(2**free)
    bits = np.zeros((codes.size, total), dtype=np.int8)
    for k in range(free):
        bits[:, total - free + k] = (codes >> (free - 1 - k)) & 1
    left, right = np.array(spec.coordinate_pairs()).T
    if spec.kind == KIND_BELL_BIPARTITE:
        right = right + spec.n
    if spec.kind == KIND_CUT:
        table = bits[:, left] ^ bits[:, right]
    elif spec.kind == KIND_COR:
        table = bits[:, left] * bits[:, right]
    else:
        signs = 1 - 2 * bits
        table = signs[:, left] * signs[:, right]
    return table.astype(np.int64)


# ============================================================================
# membership
# ============================================================================


@dataclass
class SeparatingHyperplane:
    """normal . v <= offset for every vertex, normal . point > offset."""

    normal: np.ndarray
    offset: float


@dataclass
class MembershipCertificate:
    """Outcome of a hull membership query.

    distance is the Euclidean distance from the query to the hull,
    witness is the nearest hull point found, and separating is present
    exactly when the query is outside.  witness is weights @ V[corral],
    where V is the vertex table and corral lists rows of it; inside
    answers are returned only once those weights are checked convex.
    """

    inside: bool
    distance: float
    witness: np.ndarray
    separating: SeparatingHyperplane | None
    iterations: int
    corral: np.ndarray
    weights: np.ndarray

    def to_json_dict(self) -> dict:
        sep = None
        if self.separating is not None:
            sep = {
                "normal": [float(c) for c in self.separating.normal],
                "offset": float(self.separating.offset),
            }
        return {"inside": self.inside, "distance": float(self.distance), "separating": sep}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def _affine_least_squares(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Weights summing to one that bring the combination nearest target."""
    k = points.shape[0]
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = points @ points.T
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[:k] = points @ target
    rhs[k] = 1.0
    solution = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return solution[:k]


def _affine_solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a corral's bordered system for its affine minimizer weights.

    Row and column 0 carry the constraint that the weights sum to one,
    the rest is the corral's Gram matrix, and the right-hand side holds
    1 and each corral vertex dotted with the point.  The matrix is
    nonsingular exactly when the corral is affinely independent; when
    elimination meets a zero pivot the corral has become numerically
    dependent, and least squares picks the minimizer of smallest norm.
    """
    try:
        return np.linalg.solve(system, rhs)[1:]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(system, rhs, rcond=None)[0][1:]


def _project_to_hull(point: np.ndarray, verts: np.ndarray):
    """Wolfe's min-norm-point projection of point onto conv(verts).

    Maintains a corral of vertices and its convex weights; each major
    cycle adds the vertex most extreme in the direction of the residual
    and minor cycles restore feasibility of the affine minimizer.  The
    corral's bordered system (see _affine_solve) is kept between cycles:
    a major cycle adds one row and column, a minor cycle drops those of
    the vertices it removes.  The projection is optimal when the duality
    gap is closed, or when the extreme vertex is already in the corral:
    the corral's minimizer cannot move then, whatever rounding leaves in
    the gap.  The final corral is then solved once more by least squares
    from its vertices, and those weights are taken when they are
    feasible, so the projection's last digits depend on the final corral
    alone and not on the order in which the kept system was built.
    Returns (corral row indices, convex weights, iterations).
    """
    distances = ((verts - point) ** 2).sum(axis=1)
    corral = [int(np.argmin(distances))]
    first = verts[corral[0]]
    weights = np.array([1.0])
    system = np.array([[0.0, 1.0], [1.0, first @ first]])
    rhs = np.array([1.0, first @ point])
    # absolute duality-gap cutoff; coordinates here are O(1) integers
    eps = 1e-12
    for iteration in range(1, MEMBERSHIP_ITERATION_CAP + 1):
        members = verts[corral]
        x = weights @ members
        g = point - x
        scores = verts @ g
        candidate = int(np.argmax(scores))
        if scores[candidate] <= g @ x + eps or candidate in corral:
            if len(corral) > 1:
                affine = _affine_least_squares(members, point)
                if (affine >= -1e-14).all():
                    weights = np.clip(affine, 0.0, None)
                    weights /= weights.sum()
            return np.array(corral), weights, iteration
        vertex = verts[candidate]
        size = len(system)
        grown = np.empty((size + 1, size + 1))
        grown[:size, :size] = system
        grown[size, 0] = grown[0, size] = 1.0
        grown[size, 1:size] = grown[1:size, size] = members @ vertex
        grown[size, size] = vertex @ vertex
        system = grown
        rhs = np.append(rhs, vertex @ point)
        corral.append(candidate)
        weights = np.append(weights, 0.0)
        while True:
            affine = _affine_solve(system, rhs)
            if (affine >= -1e-14).all():
                weights = np.clip(affine, 0.0, None)
                weights /= weights.sum()
                break
            negative = affine < -1e-14
            steps = weights[negative] / (weights[negative] - affine[negative])
            theta = steps.min()
            weights = (1.0 - theta) * weights + theta * affine
            weights[weights < 1e-15] = 0.0
            keep = weights > 0.0
            corral = [c for c, k in zip(corral, keep) if k]
            weights = weights[keep]
            weights /= weights.sum()
            rows = np.concatenate(([True], keep))
            system = system[np.ix_(rows, rows)]
            rhs = rhs[rows]
    raise ConvergenceError(
        f"hull projection did not converge within {MEMBERSHIP_ITERATION_CAP} iterations"
    )


def membership(
    spec: PolytopeSpec,
    point: np.ndarray,
    guard: int = VERTEX_GUARD,
) -> MembershipCertificate:
    """Decide whether a point lies in the polytope.

    Outside points come with a unit separating normal, with the offset
    set to the exhaustive maximum of the normal over all vertices, so
    the certificate is checked against the whole vertex set rather than
    trusted from the projection.  Inside points come with the final
    corral and its weights, checked to be nonnegative, to sum to one
    within 1e-12 and to rebuild the point within the tolerance.
    """
    point = finite_array(point, "point")
    if point.shape != (spec.ambient_dim,):
        raise DimensionError(
            f"point has shape {point.shape}, ambient dimension is {spec.ambient_dim}"
        )
    verts = vertices(spec, guard=guard).astype(float)
    corral, weights, iterations = _project_to_hull(point, verts)
    projection = weights @ verts[corral]
    distance = float(np.linalg.norm(point - projection))
    if distance <= MEMBERSHIP_TOLERANCE:
        # distance is already the gap between the point and weights @ verts[corral]
        total = float(weights.sum())
        if (weights < 0.0).any() or abs(total - 1.0) > 1e-12:
            raise ConvergenceError(
                f"inside certificate failed: weights sum to {total!r}, "
                f"smallest {float(weights.min())!r}"
            )
        return MembershipCertificate(
            inside=True,
            distance=distance,
            witness=projection,
            separating=None,
            iterations=iterations,
            corral=corral,
            weights=weights,
        )
    normal = (point - projection) / distance
    offset = float(np.max(verts @ normal))
    margin = float(normal @ point - offset)
    if margin <= 0.0:
        raise ConvergenceError(
            f"projection failed to separate: margin {margin:.3e} at distance {distance:.3e}"
        )
    return MembershipCertificate(
        inside=False,
        distance=distance,
        witness=projection,
        separating=SeparatingHyperplane(normal=normal, offset=offset),
        iterations=iterations,
        corral=corral,
        weights=weights,
    )


# ============================================================================
# exact facet checks
# ============================================================================


@dataclass
class FacetReport:
    """Validity and face dimension of an inequality on a polytope."""

    valid: bool
    tight_count: int
    affine_rank: int
    ambient_dim: int

    @property
    def is_facet(self) -> bool:
        return self.valid and self.affine_rank == self.ambient_dim - 1


def ambient_coefficients(
    spec: PolytopeSpec, ineq: PairwiseInequality | CutInequality
) -> tuple[np.ndarray, float]:
    """Spread an inequality's coefficients over the polytope coordinates."""
    if isinstance(ineq, CutInequality):
        shape = (KIND_CUT, ineq.n, 0)
    elif ineq.mode == MODE_COMPLETE:
        shape = (KIND_BELL, ineq.n_left, 0)
    else:
        shape = (KIND_BELL_BIPARTITE, ineq.n_left, ineq.n_right)
    if (spec.kind, spec.n, spec.m) != shape:
        raise DimensionError(f"inequality needs polytope {shape}, got {(spec.kind, spec.n, spec.m)}")
    vector = np.zeros(spec.ambient_dim)
    index = {pair: k for k, pair in enumerate(spec.coordinate_pairs())}
    for pair, w in ineq.coefficients.items():
        vector[index[pair]] = w
    return vector, float(ineq.rhs)


def _integer_rank(matrix: np.ndarray) -> int:
    """Exact rank of an integer matrix by fraction-free elimination.

    Each step takes the smallest nonzero entry of the next column among
    the rows not yet used as its pivot, clears that column from every
    other such row at once (p * row - f * pivot) and divides each row by
    the gcd of its entries.  Entries of 2^31 or more could overflow
    int64 in those products, so the working matrix then turns into
    Python integers (object dtype) and the same steps continue exactly.
    """
    work = np.array(matrix, dtype=np.int64)
    rank = 0
    for col in range(work.shape[1]):
        if rank == work.shape[0]:
            break
        if work.dtype != object and np.abs(work[rank:]).max() >= 2**31:
            work = work.astype(object)
        column = np.abs(work[rank:, col])
        nonzero = np.flatnonzero(column)
        if nonzero.size == 0:
            continue
        pivot = rank + nonzero[np.argmin(column[nonzero])]
        work[[rank, pivot]] = work[[pivot, rank]]
        below = rank + 1 + np.flatnonzero(work[rank + 1 :, col])
        if below.size:
            rows = work[rank, col] * work[below] - work[below, col][:, None] * work[rank]
            divisor = np.gcd.reduce(rows, axis=1)
            divisor[divisor == 0] = 1
            work[below] = rows // divisor[:, None]
        rank += 1
    return rank


def facet_check(
    spec: PolytopeSpec,
    coefficients: np.ndarray,
    rhs: float,
    guard: int = VERTEX_GUARD,
) -> FacetReport:
    """Exact validity and facet decision for coefficients . v <= rhs.

    Floats are binary rationals, so rationalizing them and scaling by
    the common denominator reduces everything to integer arithmetic:
    validity and the tight set are decided exactly, and the affine rank
    of the tight vertices decides whether the face has codimension one.
    """
    coefficients = finite_array(coefficients, "coefficients")
    if not math.isfinite(rhs):
        raise ParameterError(f"rhs must be finite, got {rhs}")
    if coefficients.shape != (spec.ambient_dim,):
        raise DimensionError(
            f"coefficient vector has shape {coefficients.shape}, "
            f"ambient dimension is {spec.ambient_dim}"
        )
    *ints, rhs_int = integer_ratios([*coefficients.tolist(), float(rhs)])[0]

    # Vertex entries lie in {-1, 0, 1}, so sum |c| bounds every value.
    fits = sum(abs(c) for c in ints) < 2**62
    verts = vertices(spec, guard=guard)
    values = verts @ np.array(ints, dtype=np.int64 if fits else object)
    valid = bool((values <= rhs_int).all())
    tight = verts[values == rhs_int]
    if len(tight) == 0:
        return FacetReport(
            valid=valid, tight_count=0, affine_rank=-1, ambient_dim=spec.ambient_dim
        )
    rank = _integer_rank(tight[1:] - tight[0])
    return FacetReport(
        valid=valid,
        tight_count=len(tight),
        affine_rank=rank,
        ambient_dim=spec.ambient_dim,
    )


# ============================================================================
# coordinate maps
# ============================================================================


def cut_to_bell(point: np.ndarray) -> np.ndarray:
    """Coordinatewise v = 1 - 2c, sending cut(n) onto bell(n)."""
    return 1.0 - 2.0 * np.asarray(point, dtype=float)


def bell_to_cut(point: np.ndarray) -> np.ndarray:
    """Inverse map c = (1 - v) / 2."""
    return (1.0 - np.asarray(point, dtype=float)) / 2.0


def bell_embed(point: np.ndarray, n: int) -> np.ndarray:
    """Embed a bell(n) point into bell(n, n) coordinates.

    The image has v_ij = v_ji = u_{ij} off the diagonal and v_ii = 1;
    a point outside bell(n) stays outside bell(n, n) because any
    representation of the image forces X = Y on every vertex used.
    """
    point = np.asarray(point, dtype=float)
    expected = n * (n - 1) // 2
    if point.shape != (expected,):
        raise DimensionError(f"expected {expected} coordinates for n = {n}")
    pairs = PolytopeSpec.bell(n).coordinate_pairs()
    image = np.eye(n)
    for k, (i, j) in enumerate(pairs):
        image[i, j] = point[k]
        image[j, i] = point[k]
    return image.reshape(n * n)
