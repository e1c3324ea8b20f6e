"""Web graphs, antiwebs, and the clique-web inequality family."""

import itertools
import json

import pytest

from bellbound import (
    EdgeSet,
    ParameterError,
    DimensionError,
    ResourceLimitError,
    SignAssignment,
    WebSpec,
    antiweb_edges,
    classical_bound,
    clique_web_inequality,
    cut_edges,
    evaluate,
    verify_alon_theorem,
    web_edges,
)

# (4, 3, 0) has r = 0: an empty antiweb, and the web is K_4
SPECS = [
    WebSpec(5, 2, 1),
    WebSpec(7, 2, 2),
    WebSpec(8, 3, 2),
    WebSpec(12, 3, 4),
    WebSpec(4, 3, 0),
    WebSpec(10, 3, 3),
]


def test_webspec_validation():
    with pytest.raises(ParameterError):
        WebSpec(4, 1, 1)
    with pytest.raises(ParameterError):
        WebSpec(5, 2, -1)
    with pytest.raises(ParameterError):
        WebSpec(6, 2, 1)
    assert WebSpec(5, 2, 1).rhs == 4
    assert WebSpec(12, 3, 4).rhs == 15
    # r = 0 degenerates to a clique on p = q + 1 vertices but is allowed
    assert WebSpec(4, 3, 0).rhs == 3


@pytest.mark.parametrize("spec", SPECS)
def test_web_edge_count(spec):
    edges = web_edges(spec)
    assert edges.n == spec.p
    assert len(edges.edges) == spec.p * spec.q // 2
    assert len(set(edges.edges)) == len(edges.edges)


@pytest.mark.parametrize("spec", SPECS)
def test_web_circular_distances(spec):
    # an edge's circular distance must land in r+1 .. r+q (mod reflection)
    allowed = set()
    for off in range(spec.r + 1, spec.r + spec.q + 1):
        allowed.add(min(off, spec.p - off))
    for i, j in web_edges(spec).edges:
        d = min(j - i, spec.p - (j - i))
        assert d in allowed


@pytest.mark.parametrize("spec", SPECS)
def test_antiweb_is_complement(spec):
    web = set(web_edges(spec).edges)
    anti = set(antiweb_edges(spec).edges)
    assert len(anti) == spec.p * spec.r
    assert not web & anti
    complete = {(i, j) for i in range(spec.p) for j in range(i + 1, spec.p)}
    assert web | anti == complete
    # antiweb joins circular distances 1 .. r
    for i, j in anti:
        assert min(j - i, spec.p - (j - i)) <= spec.r


def test_cut_edges_pentagon():
    spec = WebSpec(5, 2, 1)
    edges = web_edges(spec)  # the pentagon's pentagram: distances 2
    cut = cut_edges(edges, {0, 1})
    assert set(cut) == {(0, 2), (0, 3), (1, 3), (1, 4)}
    assert cut_edges(edges, set()) == ()
    assert cut_edges(edges, set(range(5))) == ()
    with pytest.raises(DimensionError):
        cut_edges(edges, {0, 9})


@pytest.mark.parametrize("spec", SPECS)
def test_clique_web_structure(spec):
    ineq = clique_web_inequality(spec)
    p, q = spec.p, spec.q
    assert ineq.n_left == p + q
    assert ineq.rhs == float(q * (spec.r + 1))
    cross = {k for k, v in ineq.coefficients.items() if v == 1.0}
    negative = {k for k, v in ineq.coefficients.items() if v == -1.0}
    assert len(cross) == p * q
    assert all(i < p <= j for i, j in cross)
    web = set(web_edges(spec).edges)
    poles = {(p + a, p + b) for a in range(q) for b in range(a + 1, q)}
    assert negative == web | poles


def test_clique_web_bound_attained():
    ineq = clique_web_inequality(WebSpec(5, 2, 1))
    result = classical_bound(ineq)
    assert result.max_value == 4.0
    assert evaluate(ineq, result.argmax) == ineq.rhs
    # all-ones attains the bound as well
    ones = SignAssignment(values=(1,) * ineq.variable_count)
    assert evaluate(ineq, ones) == ineq.rhs


def test_edge_set_json_round_trip():
    edges = web_edges(WebSpec(8, 3, 2))
    data = json.loads(edges.to_json())
    assert EdgeSet.from_json_dict(data) == edges
    assert EdgeSet.from_json_dict({"n": 3.0, "edges": [[2, 0.0]]}) == EdgeSet(3, ((0, 2),))
    with pytest.raises(ParameterError):
        EdgeSet.from_json_dict({"edges": [[0, 1]]})
    with pytest.raises(DimensionError):
        EdgeSet.from_json_dict({"n": 3, "edges": [[0, 3]]})


@pytest.mark.parametrize(
    "data",
    [
        {"n": 5, "edges": [[0, 1.5]]},
        {"n": 5, "edges": [["a", 1]]},
        {"n": 5, "edges": [[0]]},
        {"n": 5.5, "edges": [[0, 1]]},
        {"n": True, "edges": []},
    ],
)
def test_edge_set_json_refuses_malformed_input(data):
    # fractional ends are refused rather than truncated, and bad shapes
    # give ParameterError rather than a bare ValueError
    with pytest.raises(ParameterError):
        EdgeSet.from_json_dict(data)


def test_edge_set_validation():
    with pytest.raises(DimensionError):
        EdgeSet(n=3, edges=((0, 3),))
    with pytest.raises(DimensionError):
        EdgeSet(n=3, edges=((1, 1),))
    with pytest.raises(ParameterError):
        EdgeSet(n=3, edges=((0, 1), (0, 1)))


def test_alon_bounds_hold_722():
    report = verify_alon_theorem(WebSpec(7, 2, 2))
    assert report.holds
    assert report.violations == ()
    assert report.equality_small > 0
    assert report.equality_large > 0
    expected = sum(
        1
        for size in range(1, 7 // 2 + 1)
        for _ in itertools.combinations(range(7), size)
    )
    assert report.subsets_checked == expected


def test_alon_guard_and_domain():
    with pytest.raises(ParameterError):
        verify_alon_theorem(WebSpec(4, 3, 0))
    with pytest.raises(ResourceLimitError):
        verify_alon_theorem(WebSpec(21, 2, 9))
    assert verify_alon_theorem(WebSpec(21, 2, 9), guard=21).holds
