"""Web and antiweb graphs and the clique-web inequality family.

A web W(p, r) with deficiency q = p - 2r - 1 is the circulant graph on
vertices 0..p-1 whose edges join vertices at circular distance r+1
through floor(p/2); the antiweb is its complement in K_p, the circulant
at distances 1 through r.  Both are built by one circulant rule, from
offsets r+1..r+q and 1..r.  Attaching a q-clique to the web by all cross
pairs yields a one-party inequality with tight classical bound q(r+1).

verify_alon_theorem checks the antiweb cut-size bounds of Alon et al.
(Invent. Math. 163, 499, 2006) on every subset of at most p/2 vertices,
as int64 array operations on blocks of subsets: a 0/1 table times the
antiweb's adjacency matrix gives each subset's inner edges and cut.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, check_guard, json_int
from .inequalities import MODE_COMPLETE, PairwiseInequality

ALON_GUARD = 20
# Subsets per block of the Alon check: bounds its memory near the guard.
_ALON_CHUNK = 1 << 12


@dataclass(frozen=True)
class WebSpec:
    """Parameters (p, q, r) with p = q + 2r + 1 and q >= 2."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.q < 2:
            raise ParameterError(f"q must be at least 2, got {self.q}")
        if self.r < 0:
            raise ParameterError(f"r must be nonnegative, got {self.r}")
        if self.p != self.q + 2 * self.r + 1:
            raise ParameterError(
                f"(p, q, r) = ({self.p}, {self.q}, {self.r}) violates p = q + 2r + 1"
            )

    @property
    def rhs(self) -> int:
        return self.q * (self.r + 1)


@dataclass(frozen=True)
class EdgeSet:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise DimensionError(f"bad edge ({i}, {j}) on {self.n} vertices")
            if (i, j) in seen:
                raise ParameterError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[i, j] for i, j in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "EdgeSet":
        try:
            ends = [
                (json_int(i, "edge end"), json_int(j, "edge end")) for i, j in data["edges"]
            ]
            n = json_int(data["n"], "n")
        except KeyError as exc:
            raise ParameterError(f"edge-set JSON is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed edge-set JSON: {exc}") from exc
        edges = {(min(i, j), max(i, j)) for i, j in ends}
        return cls(n=n, edges=tuple(sorted(edges)))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def _circulant(p: int, offsets: range) -> EdgeSet:
    """Circulant graph joining each vertex i to i + d (mod p) for d in offsets."""
    edges = {(min(i, (i + d) % p), max(i, (i + d) % p)) for i in range(p) for d in offsets}
    return EdgeSet(n=p, edges=tuple(sorted(edges)))


def web_edges(spec: WebSpec) -> EdgeSet:
    """Edges of W(p, r): offsets r+1 .. r+q from every vertex, deduplicated.

    The offset range is symmetric around p/2, so each undirected edge is
    produced twice and the set has exactly p*q/2 members.
    """
    return _circulant(spec.p, range(spec.r + 1, spec.r + spec.q + 1))


def antiweb_edges(spec: WebSpec) -> EdgeSet:
    """Complement of the web in K_p: offsets 1 .. r, so p*r edges."""
    return _circulant(spec.p, range(1, spec.r + 1))


def cut_edges(edges: EdgeSet, subset: frozenset[int] | set[int]) -> tuple[tuple[int, int], ...]:
    """Edges with exactly one endpoint in the subset."""
    for v in subset:
        if not (0 <= v < edges.n):
            raise DimensionError(f"vertex {v} outside 0..{edges.n - 1}")
    s = set(subset)
    return tuple((i, j) for i, j in edges.edges if (i in s) != (j in s))


def clique_web_inequality(spec: WebSpec) -> PairwiseInequality:
    """The inequality on p + q variables (X block first, then Z block).

    Coefficient +1 on every cross pair (X_i, Z_j), -1 on every web edge
    inside the X block, -1 on every pair inside the Z block; rhs q(r+1).
    The all-ones assignment attains the bound.
    """
    p, q = spec.p, spec.q
    coeffs: dict[tuple[int, int], float] = {}
    for i in range(p):
        for j in range(q):
            coeffs[(i, p + j)] = 1.0
    for i, j in web_edges(spec).edges:
        coeffs[(i, j)] = coeffs.get((i, j), 0.0) - 1.0
    for a in range(q):
        for b in range(a + 1, q):
            coeffs[(p + a, p + b)] = -1.0
    return PairwiseInequality(
        mode=MODE_COMPLETE,
        n_left=p + q,
        n_right=0,
        coefficients=coeffs,
        rhs=float(spec.rhs),
    )


@dataclass
class AlonViolation:
    """One subset where the cut-size bound or its equality test failed."""

    subset: tuple[int, ...]
    cut_size: int
    bound: int
    equality_condition: bool


@dataclass
class AlonReport:
    """Exhaustive check of the antiweb cut-size lower bounds.

    For every nonempty S with |S| = s <= p/2 the antiweb cut obeys
    |cut(S)| >= s(2r+1-s) when s <= r, with equality exactly when S
    induces a clique in the antiweb, and |cut(S)| >= r(r+1) when
    r+1 <= s <= p/2, with equality exactly when S is a circular
    interval.  Both directions of each equivalence are tested.
    """

    spec: WebSpec
    subsets_checked: int
    equality_small: int
    equality_large: int
    violations: tuple[AlonViolation, ...] = field(default_factory=tuple)

    @property
    def holds(self) -> bool:
        return not self.violations


def verify_alon_theorem(spec: WebSpec, guard: int = ALON_GUARD) -> AlonReport:
    """Check the antiweb cut bounds over all subsets up to size p/2.

    Subsets are taken in increasing bitmask order, _ALON_CHUNK masks at a
    time, as a 0/1 table s with one row per subset.  With A the antiweb's
    adjacency matrix, rowsum(s * (s @ A)) counts twice the edges inside S,
    so the cut is s @ deg minus that count; S is a clique when the count is
    |S|(|S|-1), and a circular interval when its row changes bit exactly
    twice around the ring.
    """
    p, r = spec.p, spec.r
    if r < 1:
        raise ParameterError("the cut-size bounds require r >= 1")
    if p < 2 * r + 3:
        raise ParameterError("the cut-size bounds require p >= 2r + 3")
    check_guard(p, guard, "web vertices")

    adjacency = np.zeros((p, p), dtype=np.int64)
    for i, j in antiweb_edges(spec).edges:
        adjacency[i, j] = adjacency[j, i] = 1
    degree = adjacency.sum(axis=1)
    bits = np.arange(p, dtype=np.int64)

    checked = equality_small = equality_large = 0
    violations: list[AlonViolation] = []
    for start in range(1, 1 << p, _ALON_CHUNK):
        masks = np.arange(start, min(start + _ALON_CHUNK, 1 << p), dtype=np.int64)
        s = (masks[:, None] >> bits) & 1
        size = s.sum(axis=1)
        s, size = s[size <= p // 2], size[size <= p // 2]
        inner = (s * (s @ adjacency)).sum(axis=1)
        cut = s @ degree - inner
        small = size <= r
        bound = np.where(small, size * (2 * r + 1 - size), r * (r + 1))
        clique = inner == size * (size - 1)
        interval = (s != np.roll(s, 1, axis=1)).sum(axis=1) == 2
        condition = np.where(small, clique, interval)
        tight = cut == bound
        checked += len(s)
        equality_small += int(np.count_nonzero(tight & small))
        equality_large += int(np.count_nonzero(tight & ~small))
        for k in np.flatnonzero((cut < bound) | (tight != condition))[: 32 - len(violations)]:
            subset = tuple(int(i) for i in np.flatnonzero(s[k]))
            violations.append(AlonViolation(subset, int(cut[k]), int(bound[k]), bool(condition[k])))

    return AlonReport(
        spec=spec,
        subsets_checked=checked,
        equality_small=equality_small,
        equality_large=equality_large,
        violations=tuple(violations),
    )
