"""The Wolfe projection's in-place buffers against the copying loop, bit for bit.

copying_projection is _project_to_hull as it stood before the corral's
rows, bordered system and right-hand side moved into buffers kept for
the whole call: every major cycle copied verts[corral], rebuilt the
grown system and appended to rhs and weights, and every minor cycle
took the kept rows with np.ix_.  The in-place loop does the same float
operations on the same operands, so its corral, weights and iteration
count must equal the copying loop's exactly, ties included.
"""

import numpy as np
import pytest

from bellbound import PolytopeSpec, vertices
from bellbound.errors import ConvergenceError
from bellbound.polytopes import (
    MEMBERSHIP_ITERATION_CAP,
    PROJECTION_COORDINATE_LIMIT,
    _affine_least_squares,
    _affine_solve,
    _project_to_hull,
)


def copying_projection(point, verts):
    """Wolfe's projection with fresh copies of the corral's rows and system."""
    distances = ((verts - point) ** 2).sum(axis=1)
    corral = [int(np.argmin(distances))]
    first = verts[corral[0]]
    weights = np.array([1.0])
    system = np.array([[0.0, 1.0], [1.0, first @ first]])
    rhs = np.array([1.0, first @ point])
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
    raise ConvergenceError("copying projection hit the iteration cap")


SPECS = [
    PolytopeSpec.bell(6),
    PolytopeSpec.bell(8),
    PolytopeSpec.bell(10),
    PolytopeSpec.cut(7),
    PolytopeSpec.cor(6),
    PolytopeSpec.bell_bipartite(3, 4),
]
KINDS = ["ties", "interior", "face", "outside", "ray", "far"]
PER_KIND = 12  # 6 polytopes x 6 kinds x 12 = 432 seeded points


def seeded_points(spec, verts):
    """(kind, point) for every kind, PER_KIND each, from a seed fixed by spec."""
    rng = np.random.default_rng([spec.n, spec.m, len(spec.kind), 17])
    nonzero = np.flatnonzero(np.abs(verts).sum(axis=1) > 0)
    for kind in KINDS:
        for _ in range(PER_KIND):
            if kind == "ties":
                # a few vertices: many of them sit at equal distances
                chosen = verts[rng.choice(len(verts), size=int(rng.integers(2, 5)), replace=False)]
                yield kind, rng.dirichlet(np.ones(len(chosen))) @ chosen
            elif kind == "interior":
                chosen = verts[rng.choice(len(verts), size=min(len(verts), 3 * verts.shape[1]), replace=False)]
                yield kind, rng.dirichlet(np.ones(len(chosen))) @ chosen
            elif kind == "face":
                coord = int(rng.integers(verts.shape[1]))
                rows = verts[verts[:, coord] == verts[:, coord].max()]
                chosen = rows[rng.choice(len(rows), size=min(len(rows), 12), replace=False)]
                yield kind, rng.dirichlet(np.ones(len(chosen))) @ chosen
            elif kind == "outside":
                yield kind, rng.normal(size=verts.shape[1]) * rng.choice([0.7, 1.5, 3.0])
            elif kind == "ray":
                yield kind, rng.choice([1.05, 2.0, 1e3]) * verts[rng.choice(nonzero)]
            else:
                # membership projects a far point from its copy on the same
                # ray whose largest coordinate is at most the limit
                point = rng.normal(size=verts.shape[1])
                yield kind, point * (PROJECTION_COORDINATE_LIMIT / np.abs(point).max())


def assert_same_projection(point, verts, kind):
    corral, weights, iterations = _project_to_hull(point, verts)
    want_corral, want_weights, want_iterations = copying_projection(point, verts)
    assert corral.tolist() == want_corral.tolist(), kind
    assert weights.tobytes() == want_weights.tobytes(), kind
    assert iterations == want_iterations, kind


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}{s.n}{s.m or ''}")
def test_in_place_projection_matches_the_copying_loop(spec):
    verts = vertices(spec).astype(float)
    count = 0
    for kind, point in seeded_points(spec, verts):
        assert_same_projection(point, verts, kind)
        count += 1
    assert count == len(KINDS) * PER_KIND


def test_spinning_point_matches_the_copying_loop():
    # the bell(10) outside point whose duality gap once settled above the
    # cutoff with the extreme vertex in the corral
    verts = vertices(PolytopeSpec.bell(10)).astype(float)
    assert_same_projection(np.random.default_rng(0).normal(size=45) * 2, verts, "spin")


def test_corral_past_d_plus_one_rows_matches_the_copying_loop():
    # Three collinear vertices in R^1 at coordinates in the millions: the
    # rounding in the duality gap passes the absolute cutoff, so all three
    # join the corral, one more than D + 1, and the buffers are enlarged.
    verts = np.array([[-3e6], [-1e6], [2e6]])
    point = np.array([1.3e5])
    corral, _, _ = _project_to_hull(point, verts)
    assert len(corral) == 3
    assert_same_projection(point, verts, "dependent")
