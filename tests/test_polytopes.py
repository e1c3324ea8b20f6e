"""Correlation polytopes: vertices, membership, facets, coordinate maps."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bellbound import (
    ConvergenceError,
    DimensionError,
    ParameterError,
    PolytopeSpec,
    ResourceLimitError,
    ambient_coefficients,
    bell_embed,
    bell_to_cut,
    chsh,
    cut_to_bell,
    facet_check,
    membership,
    triangle,
    vertices,
)
from bellbound import polytopes
from bellbound.polytopes import _integer_rank

SQRT2 = math.sqrt(2.0)

SINGLET_POINT = np.array([SQRT2 / 2, SQRT2 / 2, SQRT2 / 2, -SQRT2 / 2])


def test_spec_dimensions():
    assert PolytopeSpec.bell(3).ambient_dim == 3
    assert PolytopeSpec.bell_bipartite(2, 2).ambient_dim == 4
    assert PolytopeSpec.cut(4).ambient_dim == 6
    assert PolytopeSpec.cor(3).ambient_dim == 6
    with pytest.raises(ParameterError):
        PolytopeSpec("simplex", 3)
    with pytest.raises(DimensionError):
        PolytopeSpec.bell(1)
    with pytest.raises(DimensionError):
        PolytopeSpec.bell_bipartite(2, 0)
    with pytest.raises(DimensionError):
        PolytopeSpec("bell", 3, 2)


def test_coordinate_pairs_order():
    assert PolytopeSpec.bell(4).coordinate_pairs() == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]
    assert PolytopeSpec.bell_bipartite(2, 2).coordinate_pairs() == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    assert PolytopeSpec.cor(3).coordinate_pairs() == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
    ]


def test_vertex_counts_and_values():
    cases = [
        (PolytopeSpec.bell(3), 4, {-1, 1}),
        (PolytopeSpec.bell_bipartite(2, 2), 8, {-1, 1}),
        (PolytopeSpec.cut(4), 8, {0, 1}),
        (PolytopeSpec.cor(3), 8, {0, 1}),
    ]
    for spec, count, values in cases:
        verts = vertices(spec)
        assert verts.shape == (count, spec.ambient_dim)
        assert set(np.unique(verts)) <= values
        assert len({tuple(row) for row in verts.tolist()}) == count


def _reference_vertices(spec):
    """The vertex table built one assignment at a time, in itertools order."""
    pairs = spec.coordinate_pairs()
    rows = []
    if spec.kind == "bell":
        for bits in itertools.product([1, -1], repeat=spec.n - 1):
            x = (1,) + bits
            rows.append([x[i] * x[j] for i, j in pairs])
    elif spec.kind == "bell_bipartite":
        for bits in itertools.product([1, -1], repeat=spec.n + spec.m - 1):
            x, y = (1,) + bits[: spec.n - 1], bits[spec.n - 1 :]
            rows.append([x[i] * y[j] for i, j in pairs])
    elif spec.kind == "cut":
        for bits in itertools.product([0, 1], repeat=spec.n - 1):
            a = (0,) + bits
            rows.append([a[i] ^ a[j] for i, j in pairs])
    else:
        for b in itertools.product([0, 1], repeat=spec.n):
            rows.append([b[i] * b[j] for i, j in pairs])
    return np.array(rows, dtype=np.int64)


REFERENCE_SPECS = (
    [PolytopeSpec.bell(n) for n in range(2, 9)]
    + [PolytopeSpec.cut(n) for n in range(2, 9)]
    + [PolytopeSpec.cor(n) for n in range(2, 8)]
    + [PolytopeSpec.bell_bipartite(n, m) for n in range(1, 5) for m in range(1, 5)]
)


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=str)
def test_vertices_match_itertools_reference(spec):
    verts, reference = vertices(spec), _reference_vertices(spec)
    assert verts.dtype == np.int64
    assert verts.shape == reference.shape
    assert (verts == reference).all()


def test_vertex_guard():
    with pytest.raises(ResourceLimitError):
        vertices(PolytopeSpec.bell(20))
    assert vertices(PolytopeSpec.bell(17), guard=17).shape[0] == 2**16


@pytest.mark.parametrize(
    "spec",
    [
        PolytopeSpec.bell(3),
        PolytopeSpec.bell_bipartite(2, 2),
        PolytopeSpec.cut(4),
        PolytopeSpec.cor(3),
    ],
)
def test_vertices_are_members(spec):
    verts = vertices(spec)
    for row in verts:
        cert = membership(spec, row.astype(float))
        assert cert.inside
        assert cert.distance < 1e-10
    centroid = verts.mean(axis=0)
    assert membership(spec, centroid).inside


def test_singlet_point_outside_bipartite_polytope():
    spec = PolytopeSpec.bell_bipartite(2, 2)
    cert = membership(spec, SINGLET_POINT)
    assert not cert.inside
    assert cert.distance == pytest.approx(SQRT2 - 1.0, abs=1e-7)
    normal, offset = cert.separating.normal, cert.separating.offset
    assert normal @ SINGLET_POINT > offset
    for row in vertices(spec):
        assert normal @ row <= offset + 1e-12


def test_uniform_negative_point_outside_bell3():
    spec = PolytopeSpec.bell(3)
    point = np.array([-0.5, -0.5, -0.5])
    cert = membership(spec, point)
    assert not cert.inside
    assert cert.distance == pytest.approx(0.5 / math.sqrt(3.0), abs=1e-7)
    normal, offset = cert.separating.normal, cert.separating.offset
    assert normal @ point > offset
    for row in vertices(spec):
        assert normal @ row <= offset + 1e-12


def test_certificate_json_shape():
    spec = PolytopeSpec.bell(3)
    inside = membership(spec, np.zeros(3)).to_json_dict()
    assert set(inside) == {"inside", "distance", "separating"}
    assert inside["inside"] is True
    assert inside["separating"] is None
    outside = membership(spec, np.array([-0.5, -0.5, -0.5])).to_json_dict()
    assert set(outside) == {"inside", "distance", "separating"}
    assert set(outside["separating"]) == {"normal", "offset"}


def test_inside_answers_carry_checked_convex_weights(monkeypatch):
    spec = PolytopeSpec.bell(3)
    verts = vertices(spec)
    point = (verts[0] + verts[1]) / 2.0
    cert = membership(spec, point)
    assert cert.inside
    assert (cert.weights >= 0.0).all()
    assert cert.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(cert.weights @ verts[cert.corral] - point) <= 1e-7
    # The four vertices of bell(3) sum to zero, so both combinations below
    # rebuild the point exactly; neither is convex, and neither is accepted.
    for corral, weights in (([0, 0, 1], [1.5, -1.0, 0.5]), ([0, 1, 2, 3], [0.51, 0.51, 0.01, 0.01])):
        assert np.allclose(np.array(weights) @ verts[corral], point, atol=1e-12)
        monkeypatch.setattr(
            polytopes,
            "_project_to_hull",
            lambda p, v, c=corral, w=weights: (np.array(c), np.array(w), 1),
        )
        with pytest.raises(ConvergenceError, match="inside certificate"):
            membership(spec, point)


def test_projection_stops_when_extreme_vertex_is_in_corral():
    # The duality gap of this outside point settles just above the 1e-12
    # cutoff with the extreme vertex already in the corral; the projection
    # used to spin there until the iteration cap.
    spec = PolytopeSpec.bell(10)
    point = np.random.default_rng(0).normal(size=45) * 2
    cert = membership(spec, point)
    assert not cert.inside
    assert round(cert.distance, 6) == 8.990436
    assert cert.iterations <= 10
    normal, offset = cert.separating.normal, cert.separating.offset
    assert normal @ point > offset
    assert (vertices(spec) @ normal <= offset + 1e-12).all()


MARGIN_SPECS = [
    PolytopeSpec.bell(3),
    PolytopeSpec.bell(6),
    PolytopeSpec.cut(5),
    PolytopeSpec.cor(4),
    PolytopeSpec.bell_bipartite(2, 3),
]


@pytest.mark.parametrize("spec", MARGIN_SPECS, ids=lambda s: f"{s.kind}{s.n}{s.m or ''}")
def test_margin_bounds_the_outside_distance_from_below(spec):
    # margin = normal . point - offset, and every vertex has normal . v <=
    # offset, so the hull lies at least margin from the point; distance is
    # measured to a hull point, so it bounds from above.  At the optimal
    # projection the two agree in real arithmetic, so their float values
    # may cross by the rounding of normal . point, well under 1e-12 |point|.
    rng = np.random.default_rng(spec.ambient_dim)
    verts = vertices(spec).astype(float)
    outside = 0
    for scale in (0.5, 1.5, 3.0, 100.0):
        for _ in range(10):
            point = rng.normal(size=spec.ambient_dim) * scale
            cert = membership(spec, point)
            if cert.inside:
                assert cert.margin is None
                continue
            outside += 1
            normal, offset = cert.separating.normal, cert.separating.offset
            assert cert.margin == normal @ point - offset
            assert (verts @ normal <= offset).all()
            rounding = 1e-12 * (1.0 + np.linalg.norm(point))
            assert 0.0 < cert.margin <= cert.distance + rounding
            assert cert.distance - cert.margin <= 1e3 * rounding
    assert outside >= 20


def test_far_points_get_a_verified_outside_answer():
    spec = PolytopeSpec.bell(5)
    verts = vertices(spec).astype(float)
    for magnitude in (1e140, 1e160, 1e300, 1e307):
        point = np.zeros(spec.ambient_dim)
        point[0], point[2], point[6] = magnitude, 1.0, -magnitude
        cert = membership(spec, point)
        assert not cert.inside
        assert math.isfinite(cert.distance)
        assert cert.distance == pytest.approx(math.sqrt(2.0) * magnitude, rel=1e-12)
        normal, offset = cert.separating.normal, cert.separating.offset
        assert (verts @ normal <= offset).all()
        assert 0.0 < cert.margin <= cert.distance * (1.0 + 1e-12)
    cert = membership(PolytopeSpec.bell(3), [1e300, 0.0, 0.0])
    assert not cert.inside and cert.distance == 1e300 and cert.margin > 0.0


def test_points_whose_distance_overflows_are_refused():
    point = [1e308, 1e308, -1e308, 1e308, 1e308, 1e308]
    with pytest.raises(ParameterError, match="too far"):
        membership(PolytopeSpec.bell(4), point)


def test_membership_dimension_check():
    with pytest.raises(DimensionError):
        membership(PolytopeSpec.bell(3), np.zeros(4))


@pytest.mark.parametrize("point", [[float("nan"), 0.0, 0.0], [0.0, float("inf"), 0.0], ["a", 0, 0]])
def test_membership_rejects_non_finite_or_non_numeric_points(point):
    with pytest.raises(ParameterError):
        membership(PolytopeSpec.bell(3), point)


def test_ambient_coefficients():
    spec = PolytopeSpec.bell_bipartite(2, 2)
    vec, rhs = ambient_coefficients(spec, chsh())
    assert np.allclose(vec, [0.5, 0.5, 0.5, -0.5])
    assert rhs == 1.0
    vec, rhs = ambient_coefficients(PolytopeSpec.bell(3), triangle())
    assert np.allclose(vec, [-1.0, -1.0, -1.0])
    with pytest.raises(DimensionError):
        ambient_coefficients(PolytopeSpec.bell(3), chsh())
    with pytest.raises(DimensionError):
        ambient_coefficients(PolytopeSpec.bell_bipartite(2, 2), triangle())


def test_chsh_is_facet():
    spec = PolytopeSpec.bell_bipartite(2, 2)
    vec, rhs = ambient_coefficients(spec, chsh())
    report = facet_check(spec, vec, rhs)
    assert report.valid
    assert report.is_facet
    assert report.affine_rank == spec.ambient_dim - 1


def test_triangle_is_facet():
    spec = PolytopeSpec.bell(3)
    vec, rhs = ambient_coefficients(spec, triangle())
    report = facet_check(spec, vec, rhs)
    assert report.valid
    assert report.is_facet
    assert report.tight_count == 3


def test_valid_but_not_facet():
    spec = PolytopeSpec.bell(3)
    report = facet_check(spec, np.array([1.0, 0.0, 0.0]), 1.0)
    assert report.valid
    assert not report.is_facet
    assert report.tight_count == 2
    assert report.affine_rank == 1


def test_invalid_inequality_detected():
    spec = PolytopeSpec.bell(3)
    report = facet_check(spec, np.array([1.0, 0.0, 0.0]), 0.5)
    assert not report.valid


def test_facet_check_dimension_guard():
    with pytest.raises(DimensionError):
        facet_check(PolytopeSpec.bell(3), np.zeros(4), 1.0)


def test_facet_check_rejects_non_finite_input():
    spec = PolytopeSpec.bell(3)
    with pytest.raises(ParameterError):
        facet_check(spec, np.array([1.0, float("nan"), 0.0]), 1.0)
    with pytest.raises(ParameterError):
        facet_check(spec, np.array([1.0, 0.0, 0.0]), float("inf"))


def test_cut_bell_maps_inverse():
    rng = np.random.default_rng(12)
    for _ in range(100):
        point = rng.uniform(-2.0, 2.0, size=6)
        assert np.max(np.abs(bell_to_cut(cut_to_bell(point)) - point)) < 1e-15
        assert np.max(np.abs(cut_to_bell(bell_to_cut(point)) - point)) < 1e-15


def test_cut_vertices_map_onto_bell_vertices():
    n = 4
    cut_rows = {tuple(map(float, cut_to_bell(r))) for r in vertices(PolytopeSpec.cut(n))}
    bell_rows = {tuple(map(float, r)) for r in vertices(PolytopeSpec.bell(n))}
    assert cut_rows == bell_rows


def test_bell_embed_structure():
    point = np.array([-0.5, -0.5, -0.5])
    image = bell_embed(point, 3)
    assert image.shape == (9,)
    matrix = image.reshape(3, 3)
    assert np.allclose(np.diag(matrix), 1.0)
    assert np.allclose(matrix, matrix.T)
    assert matrix[0, 1] == -0.5
    with pytest.raises(DimensionError):
        bell_embed(np.zeros(4), 3)


def test_bell_embed_preserves_exclusion():
    point = np.array([-0.5, -0.5, -0.5])
    cert = membership(PolytopeSpec.bell_bipartite(3, 3), bell_embed(point, 3))
    assert not cert.inside
    assert cert.distance == pytest.approx(0.3692744729, abs=1e-7)


def _fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(a)) for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _reference_facet_facts(spec, coefficients, rhs):
    """(valid, tight_count, affine_rank) with every value an exact Fraction."""
    c = [Fraction(float(a)) for a in coefficients]
    bound = Fraction(float(rhs))
    verts = _reference_vertices(spec).tolist()
    values = [sum(a * v for a, v in zip(c, row)) for row in verts]
    tight = [row for row, value in zip(verts, values) if value == bound]
    rank = _fraction_rank([[a - b for a, b in zip(row, tight[0])] for row in tight[1:]])
    return all(v <= bound for v in values), len(tight), rank if tight else -1


@pytest.mark.parametrize("scale", [1.0, 2.0**40, 2.0**70])
def test_facet_check_matches_fraction_reference(scale):
    # Vertex entries are in {-1, 0, 1}, so sum |c| bounds every value; at
    # 2**70 it passes 2**62 and the values are Python integers (object dtype).
    rng = np.random.default_rng(31)
    specs = [PolytopeSpec.bell(5), PolytopeSpec.bell_bipartite(2, 3), PolytopeSpec.cut(5),
             PolytopeSpec.cor(4)]
    for trial in range(24):
        spec = specs[trial % len(specs)]
        coefficients = rng.integers(-4, 5, size=spec.ambient_dim) / 4.0 * scale
        values = _reference_vertices(spec) @ coefficients
        # a supporting face, an invalid bound, or the value at a random vertex
        rhs = [values.max(), values.max() - 0.25 * scale, rng.choice(values)][trial % 3]
        report = facet_check(spec, coefficients, float(rhs))
        got = (report.valid, report.tight_count, report.affine_rank)
        assert got == _reference_facet_facts(spec, coefficients, rhs), (spec, trial)


def test_facet_check_mixed_scales_stay_exact():
    # 2**-70 next to 2**70: the common denominator makes the integer
    # coefficients about 2**140, and the tiny term still decides the face,
    # which float arithmetic (2**70 + 2**-70 == 2**70) would not.
    spec = PolytopeSpec.bell(3)
    big, tiny = 2.0**70, 2.0**-70
    report = facet_check(spec, np.array([big, tiny, 0.0]), big)
    assert (report.valid, report.tight_count) == (False, 0)
    report = facet_check(spec, np.array([big, tiny, -tiny]), big)
    assert (report.valid, report.tight_count, report.affine_rank) == (True, 2, 1)


@pytest.mark.parametrize("high", [2, 1000, 2**40])
def test_integer_rank_matches_fraction_rank(high):
    # Entries of 2**31 or more turn the elimination into Python integers.
    rng = np.random.default_rng(high)
    for trial in range(30):
        rows, cols = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        # rank-deficient whenever rank < min(rows, cols); entries up to 27 * high
        left = rng.integers(-3, 4, size=(rows, rank))
        matrix = left @ rng.integers(-high, high + 1, size=(rank, cols))
        assert _integer_rank(matrix) == _fraction_rank(matrix.tolist())


def test_integer_rank_edge_cases():
    assert _integer_rank(np.zeros((0, 4), dtype=np.int64)) == 0
    assert _integer_rank(np.zeros((3, 4), dtype=np.int64)) == 0
    assert _integer_rank(np.array([[2**31, 1], [2**32, 2]])) == 1
    assert _integer_rank(np.array([[2**31, 1], [2**32, 3]])) == 2
    assert _integer_rank(np.array([[2**62, 2**62 - 1], [2**62 - 1, 2**62 - 2]])) == 2


def _on_pairs(spec, weights):
    """Coefficient vector with the given weight on each coordinate pair."""
    index = {pair: k for k, pair in enumerate(spec.coordinate_pairs())}
    c = np.zeros(spec.ambient_dim)
    for pair, w in weights.items():
        c[index[pair]] = w
    return c


# (spec, weights by pair, rhs, more than 2D difference rows, valid); the
# first four are the triangle facet of each kind (CHSH for the bipartite one)
TRIANGLE = {(0, 1): -1, (0, 2): -1, (1, 2): -1}
SAMPLED_RANK_CASES = {
    "bell-triangle": (PolytopeSpec.bell(7), TRIANGLE, 1.0, True, True),
    "cut-triangle": (PolytopeSpec.cut(7), {(0, 1): 1, (0, 2): -1, (1, 2): -1}, 0.0, True, True),
    "cor-triangle": (PolytopeSpec.cor(6), {(0, 1): -1}, 0.0, True, True),
    "bipartite-chsh": (
        PolytopeSpec.bell_bipartite(3, 4), {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}, 2.0, True, True
    ),
    # X0 X1 = 1 is a copy of bell(7), far below a facet of bell(8)
    "non-facet-face": (PolytopeSpec.bell(8), {(0, 1): 1}, 1.0, True, True),
    "invalid": (PolytopeSpec.cor(6), {(0, 3): -1, (1, 3): 1, (3, 5): 1}, 0.0, True, False),
    # every vertex is tight and the rank is D; cor(5) has 31 = 2D + 1 differences
    "zero-form-cor": (PolytopeSpec.cor(5), {}, 0.0, True, True),
    "zero-form-bell": (PolytopeSpec.bell(6), {}, 0.0, True, True),
    # 57 tight vertices of cor(7): exactly 2D difference rows, all ranked
    "exactly-2D": (PolytopeSpec.cor(7), {(0, 4): -2, (1, 4): 2, (2, 6): 2, (3, 5): -1}, 0.0, False, False),
}


@pytest.mark.parametrize("name", SAMPLED_RANK_CASES)
def test_sampled_affine_rank_equals_the_full_rank(name):
    spec, weights, rhs, sampled, valid = SAMPLED_RANK_CASES[name]
    c = _on_pairs(spec, weights)
    verts = vertices(spec)
    tight = verts[verts @ c == rhs]
    assert (len(tight) - 1 > 2 * spec.ambient_dim) == sampled
    report = facet_check(spec, c, rhs)
    assert report.tight_count == len(tight)
    assert report.affine_rank == _integer_rank(tight[1:] - tight[0])
    assert report.valid == valid
    assert report.is_facet == name.endswith(("triangle", "chsh"))
    if not weights:
        assert report.affine_rank == spec.ambient_dim


def test_facet_rank_stops_at_a_sample_that_reaches_d_minus_1(monkeypatch):
    shapes = []
    rank = polytopes._integer_rank
    monkeypatch.setattr(polytopes, "_integer_rank", lambda m: shapes.append(m.shape) or rank(m))
    spec = PolytopeSpec.bell(10)
    report = facet_check(spec, _on_pairs(spec, TRIANGLE), 1.0)
    assert (report.is_facet, report.tight_count) == (True, 384)
    assert shapes == [(90, 45)]
    # a face that the sample cannot show to be a facet is ranked in full
    shapes.clear()
    spec = PolytopeSpec.bell(8)
    report = facet_check(spec, _on_pairs(spec, {(0, 1): 1}), 1.0)
    assert (report.valid, report.tight_count, report.affine_rank) == (True, 64, 21)
    assert shapes == [(56, 28), (63, 28)]
