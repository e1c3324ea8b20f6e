"""Inequality objects, evaluation, exact bounds, and form conversions."""

import copy
import dataclasses
import itertools
import json
import pickle

import pytest

from bellbound import (
    MODE_BIPARTITE,
    MODE_COMPLETE,
    CutInequality,
    DimensionError,
    PairwiseInequality,
    ParameterError,
    SignAssignment,
    chsh,
    classical_bound,
    clique_web_inequality,
    collapse_bipartite,
    embed_in_complete,
    evaluate,
    evaluate_cut,
    from_cut_form,
    to_cut_form,
    triangle,
    WebSpec,
)

SEED = 20260818


def _all_assignments(n):
    for signs in itertools.product((1, -1), repeat=n):
        yield SignAssignment(signs)


def test_chsh_shape_and_bound():
    ineq = chsh()
    assert ineq.mode == MODE_BIPARTITE
    assert (ineq.n_left, ineq.n_right) == (2, 2)
    assert ineq.coefficients == {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): -0.5}
    assert ineq.rhs == 1.0
    result = classical_bound(ineq)
    assert result.max_value == 1.0
    assert evaluate(ineq, result.argmax) == 1.0


def test_triangle_shape_and_bound():
    ineq = triangle()
    assert ineq.mode == MODE_COMPLETE
    assert ineq.variable_count == 3
    assert ineq.coefficients == {(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0}
    result = classical_bound(ineq)
    assert result.max_value == 1.0
    # Any assignment leaves at least one agreeing pair, so the maximum
    # of -(X1X2 + X1X3 + X2X3) is 1, not 3.
    assert all(evaluate(ineq, a) <= 1.0 for a in _all_assignments(3))


def test_evaluate_known_assignments():
    assert evaluate(chsh(), SignAssignment((1, 1, 1, 1))) == 1.0
    assert evaluate(chsh(), SignAssignment((1, -1, 1, 1))) == 1.0
    assert evaluate(triangle(), SignAssignment((1, 1, -1))) == 1.0
    assert evaluate(triangle(), SignAssignment((1, 1, 1))) == -3.0


def test_evaluate_refuses_weights_that_overflow_a_float():
    ineq = PairwiseInequality(MODE_COMPLETE, 3, 0, {(0, 1): 1e308, (0, 2): 1e308, (1, 2): 1e308}, 1.0)
    with pytest.raises(ParameterError, match="overflows a float"):
        evaluate(ineq, SignAssignment((1, 1, 1)))


def test_sign_assignment_validation():
    with pytest.raises(ParameterError):
        SignAssignment((1, 0, -1))
    with pytest.raises(DimensionError):
        evaluate(triangle(), SignAssignment((1, 1)))


def test_inequality_validation():
    with pytest.raises(ParameterError):
        PairwiseInequality("diagonal", 2, 0, {(0, 1): 1.0}, 1.0)
    with pytest.raises(DimensionError):
        PairwiseInequality(MODE_COMPLETE, 3, 1, {(0, 1): 1.0}, 1.0)
    with pytest.raises(DimensionError):
        PairwiseInequality(MODE_COMPLETE, 3, 0, {(1, 0): 1.0}, 1.0)
    with pytest.raises(DimensionError):
        PairwiseInequality(MODE_BIPARTITE, 2, 2, {(0, 2): 1.0}, 1.0)
    with pytest.raises(ParameterError):
        PairwiseInequality(MODE_COMPLETE, 3, 0, {(0, 1): float("inf")}, 1.0)


def test_inequalities_are_immutable():
    ineq = triangle()
    with pytest.raises(TypeError):
        ineq.coefficients[(2, 0)] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ineq.rhs = 2.0
    cut = to_cut_form(ineq)
    with pytest.raises(TypeError):
        cut.coefficients[(0, 1)] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cut.n = 4
    # the mapping passed in is copied, so later changes to it do not leak in
    source = {(0, 1): -1.0}
    frozen = PairwiseInequality(MODE_COMPLETE, 2, 0, source, 1.0)
    source[(0, 1)] = 5.0
    assert frozen.coefficients == {(0, 1): -1.0}
    assert frozen.engine_pairs() == ((0, 1, -1.0),)
    for ineq in (chsh(), to_cut_form(triangle())):
        assert pickle.loads(pickle.dumps(ineq)) == ineq
        assert copy.deepcopy(ineq) == ineq


def test_replace_builds_a_validated_copy():
    with pytest.raises(DimensionError):
        dataclasses.replace(triangle(), coefficients={(2, 0): 5.0})
    base = triangle()
    halved = dataclasses.replace(base, coefficients={(1, 2): -0.5, (0, 1): -0.5}, rhs=0.5)
    assert halved.engine_pairs() == ((0, 1, -0.5), (1, 2, -0.5))
    assert base == triangle()


def test_cut_inequality_validation():
    with pytest.raises(DimensionError):
        CutInequality(3, {(1, 0): 1.0}, 0.0)
    with pytest.raises(ParameterError):
        CutInequality(3, {(0, 1): float("nan")}, 0.0)
    with pytest.raises(ParameterError):
        CutInequality(3, {(0, 1): 1.0}, float("inf"))


def test_engine_pairs_offsets_bipartite_columns():
    pairs = sorted(chsh().engine_pairs())
    assert pairs == [(0, 2, 0.5), (0, 3, 0.5), (1, 2, 0.5), (1, 3, -0.5)]


def test_json_round_trip():
    for ineq in (chsh(), triangle(), clique_web_inequality(WebSpec(5, 2, 1))):
        again = PairwiseInequality.from_json_dict(json.loads(ineq.to_json()))
        assert again == ineq
    assert triangle().to_json(indent=None) == (
        '{"coefficients": [{"i": 0, "j": 1, "value": -1.0}, {"i": 0, "j": 2, "value": -1.0}, '
        '{"i": 1, "j": 2, "value": -1.0}], "mode": "complete", "n_left": 3, "n_right": 0, "rhs": 1.0}'
    )


def test_cut_form_identity_on_all_assignments():
    # With X = 1 - 2a the two forms differ by an affine map:
    # sum b X_i X_j = sum b + 2 * sum (-b)(a_i xor a_j).
    ineq = clique_web_inequality(WebSpec(5, 2, 1))
    cut = to_cut_form(ineq)
    total = sum(ineq.coefficients.values())
    n = ineq.variable_count
    for bits in itertools.product((0, 1), repeat=n):
        signs = SignAssignment(tuple(1 - 2 * b for b in bits))
        lhs = evaluate(ineq, signs)
        assert lhs == pytest.approx(total + 2 * evaluate_cut(cut, bits), abs=1e-12)
        assert (lhs <= ineq.rhs) == (evaluate_cut(cut, bits) <= cut.rhs)


def test_cut_form_round_trip():
    for ineq in (triangle(), clique_web_inequality(WebSpec(7, 2, 2))):
        back = from_cut_form(to_cut_form(ineq))
        assert back.coefficients == ineq.coefficients
        assert back.rhs == ineq.rhs


def test_cut_form_rejects_bipartite():
    with pytest.raises(ParameterError):
        to_cut_form(chsh())


def test_collapse_chsh_to_single_pair():
    collapsed = collapse_bipartite(chsh())
    assert collapsed.mode == MODE_COMPLETE
    assert collapsed.coefficients == {(0, 1): 1.0}
    assert collapsed.rhs == 1.0


def test_collapse_moves_diagonal_to_rhs():
    ineq = PairwiseInequality(
        MODE_BIPARTITE, 2, 2, {(0, 0): 0.25, (1, 1): -0.75, (0, 1): 0.5}, 1.0
    )
    collapsed = collapse_bipartite(ineq)
    # X_i Y_i collapses to X_i X_i = 1, absorbed into the bound.
    assert collapsed.coefficients == {(0, 1): 0.5}
    assert collapsed.rhs == pytest.approx(1.0 - 0.25 + 0.75)


def test_collapse_requires_square():
    with pytest.raises(DimensionError):
        collapse_bipartite(PairwiseInequality(MODE_BIPARTITE, 2, 1, {(0, 0): 1.0}, 1.0))


def test_embed_preserves_bound_and_values():
    embedded = embed_in_complete(chsh())
    assert embedded.mode == MODE_COMPLETE
    assert embedded.variable_count == 4
    assert embedded.coefficients == {
        (0, 2): 0.5,
        (0, 3): 0.5,
        (1, 2): 0.5,
        (1, 3): -0.5,
    }
    assert classical_bound(embedded).max_value == 1.0
    for signs in _all_assignments(4):
        assert evaluate(embedded, signs) == evaluate(chsh(), signs)
    with pytest.raises(ParameterError):
        embed_in_complete(triangle())
