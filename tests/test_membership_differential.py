"""Seeded differential test of the Wolfe projection against its least-squares original.

reference_projection is the projection as it stood before the corral's
bordered system was kept between cycles: every minor cycle rebuilt the
system from the corral's vertices and solved it by least squares (SVD).
The kept-system projection must give the same inside answers, the same
outside distances within 1e-9, hyperplanes that hold on every vertex,
and convex weights that rebuild every inside point.
"""

import numpy as np
import pytest

from bellbound import PolytopeSpec, membership, vertices
from bellbound import polytopes
from bellbound.polytopes import (
    MEMBERSHIP_ITERATION_CAP,
    MEMBERSHIP_TOLERANCE,
    _affine_least_squares,
    _project_to_hull,
)


def reference_projection(point, verts):
    """Wolfe's projection with one fresh least-squares solve per minor cycle."""
    distances = ((verts - point) ** 2).sum(axis=1)
    corral = [int(np.argmin(distances))]
    weights = np.array([1.0])
    eps = 1e-12
    for iteration in range(1, MEMBERSHIP_ITERATION_CAP + 1):
        x = weights @ verts[corral]
        g = point - x
        scores = verts @ g
        candidate = int(np.argmax(scores))
        if scores[candidate] <= g @ x + eps or candidate in corral:
            return x, iteration
        corral.append(candidate)
        weights = np.append(weights, 0.0)
        while True:
            affine = _affine_least_squares(verts[corral].astype(float), point)
            if (affine >= -1e-14).all():
                weights = np.clip(affine, 0.0, None)
                weights /= weights.sum()
                break
            negative = affine < -1e-14
            steps = [
                weights[t] / (weights[t] - affine[t])
                for t in range(len(corral))
                if negative[t]
            ]
            theta = min(steps)
            weights = (1.0 - theta) * weights + theta * affine
            weights[weights < 1e-15] = 0.0
            keep = weights > 0.0
            corral = [c for c, k in zip(corral, keep) if k]
            weights = weights[keep]
            weights /= weights.sum()
    raise AssertionError("reference projection hit the iteration cap")


SPECS = [
    PolytopeSpec.bell(5),
    PolytopeSpec.bell(7),
    PolytopeSpec.cut(6),
    PolytopeSpec.cor(5),
    PolytopeSpec.bell_bipartite(3, 4),
]
KINDS = ["interior", "face", "vertex", "scaled_vertex", "gaussian"]
PER_KIND = 9  # 5 polytopes x 5 kinds x 9 = 225 seeded points


def seeded_points(spec, verts):
    """(kind, point, expected inside or None) for every kind, PER_KIND each."""
    rng = np.random.default_rng([spec.n, spec.m, len(spec.kind)])
    nonzero = np.flatnonzero(np.abs(verts).sum(axis=1) > 0)
    for kind in KINDS:
        for _ in range(PER_KIND):
            if kind == "interior":
                chosen = verts[rng.choice(len(verts), size=min(len(verts), 3 * verts.shape[1]), replace=False)]
                yield kind, rng.dirichlet(np.ones(len(chosen))) @ chosen, True
            elif kind == "face":
                coord = int(rng.integers(verts.shape[1]))
                rows = verts[verts[:, coord] == verts[:, coord].max()]
                chosen = rows[rng.choice(len(rows), size=min(len(rows), 8), replace=False)]
                yield kind, rng.dirichlet(np.ones(len(chosen))) @ chosen, True
            elif kind == "vertex":
                yield kind, verts[rng.integers(len(verts))].copy(), True
            elif kind == "scaled_vertex":
                # a ray from the origin, itself in the hull, leaves it past a vertex
                yield kind, 1.05 * verts[rng.choice(nonzero)], False
            else:
                yield kind, rng.normal(size=verts.shape[1]) * 1.5, None


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}{s.n}{s.m or ''}")
def test_kept_system_matches_least_squares_reference(spec):
    verts = vertices(spec).astype(float)
    seen = {True: 0, False: 0}
    for kind, point, expected in seeded_points(spec, verts):
        cert = membership(spec, point)
        x, _ = reference_projection(point, verts)
        reference_distance = float(np.linalg.norm(point - x))
        assert cert.inside == (reference_distance <= MEMBERSHIP_TOLERANCE), kind
        if expected is not None:
            assert cert.inside == expected, kind
        seen[cert.inside] += 1
        if cert.inside:
            weights = cert.weights
            assert (weights >= 0.0).all()
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert np.linalg.norm(weights @ verts[cert.corral] - point) <= MEMBERSHIP_TOLERANCE
        else:
            assert abs(cert.distance - reference_distance) <= 1e-9, kind
            normal, offset = cert.separating.normal, cert.separating.offset
            assert (verts @ normal <= offset).all()
            assert normal @ point > offset
    assert seen[True] >= 3 * PER_KIND and seen[False] >= PER_KIND
    assert sum(seen.values()) == len(KINDS) * PER_KIND


def test_dependent_corral_takes_the_least_squares_route(monkeypatch):
    # C, the midpoint of the edge AB, is listed as a vertex, and the
    # point projects onto AB.  At coordinates in the hundreds, rounding in
    # the duality gap exceeds the absolute 1e-12 cutoff, so C joins the
    # corral of A and B: three collinear points, whose bordered system is
    # singular.  Elimination fails there and least squares takes over.
    verts = 100.0 * np.array([[3.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-3.0, 3.0]])
    point = np.array([140.0, -70.0])
    solves, polishes = [], []
    lstsq = np.linalg.lstsq
    polish = polytopes._affine_least_squares
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda a, b, rcond=None: solves.append(a) or lstsq(a, b, rcond=rcond)
    )
    monkeypatch.setattr(
        polytopes, "_affine_least_squares", lambda p, t: polishes.append(p) or polish(p, t)
    )
    corral, weights, _ = _project_to_hull(point, verts)
    assert len(polishes) == 1
    assert len(solves) > len(polishes)
    assert sorted(corral.tolist()) == [0, 1, 2]
    assert (weights >= 0.0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)
    # the projection is (160, -30) on AB, at distance 100 / sqrt(5)
    projection = weights @ verts[corral]
    assert projection == pytest.approx([160.0, -30.0], abs=1e-9)
    assert np.linalg.norm(point - projection) == pytest.approx(100.0 / np.sqrt(5.0), abs=1e-9)
    x, _ = reference_projection(point, verts)
    assert np.linalg.norm(point - x) == pytest.approx(np.linalg.norm(point - projection), abs=1e-9)
