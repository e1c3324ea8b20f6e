"""Gray-code sign enumeration against brute force."""

import itertools

import numpy as np
import pytest

from bellbound import (
    ParameterError,
    PairwiseInequality,
    PolytopeSpec,
    ResourceLimitError,
    WebSpec,
    classical_bound,
    clifford_generators,
    facet_check,
    gram_ascent,
    gram_ratio,
    max_over_signs,
    membership,
    min_over_signs,
    noise_quantity,
    verify_alon_theorem,
    vertices,
)
from bellbound import enumeration
from bellbound.enumeration import Form, gray_flip_sequence, integer_ratios

SEED = 20260818


def _brute_max(n, pairs):
    best = -float("inf")
    best_signs = None
    for signs in itertools.product((1, -1), repeat=n):
        value = sum(w * signs[i] * signs[j] for i, j, w in pairs)
        if value > best:
            best, best_signs = value, signs
    return best, best_signs


def _random_pairs(rng, n, density=0.8):
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((i, j, float(rng.normal())))
    return pairs


def test_gray_flip_sequence_visits_every_mask():
    n = 10
    mask = 0
    seen = {mask}
    for bit in gray_flip_sequence(n):
        mask ^= 1 << bit
        seen.add(mask)
    assert len(seen) == 2**n


@pytest.mark.parametrize("n", range(2, 9))
def test_max_matches_brute_force(n):
    rng = np.random.default_rng(SEED + n)
    for _ in range(10):
        pairs = _random_pairs(rng, n)
        expected, _ = _brute_max(n, pairs)
        value, argmax, _ = max_over_signs(n, pairs)
        assert value == pytest.approx(expected, abs=1e-12)
        achieved = sum(w * argmax[i] * argmax[j] for i, j, w in pairs)
        assert achieved == pytest.approx(value, abs=1e-12)


def test_fold_symmetry_matches_full_enumeration():
    # X_0 is pinned to +1, so half the cube is walked; the optimum must
    # still be the one found over the whole cube.
    rng = np.random.default_rng(SEED)
    for n in (3, 5, 7):
        pairs = _random_pairs(rng, n)
        folded = max_over_signs(n, pairs)
        assert folded[0] == pytest.approx(_brute_max(n, pairs)[0], abs=1e-12)
        assert folded[2] == 2 ** (n - 1)
        assert folded[1][0] == 1


def test_exact_path_agrees_with_float_path():
    # Half-integer weights take the scaled integer route; the float
    # brute force must give the same optimum.
    pairs = [(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (2, 3, -0.5), (1, 2, -1.0)]
    assert integer_ratios(w for _, _, w in pairs) == ([1, 1, 1, -1, -2], 2)
    exact = max_over_signs(4, pairs)
    assert exact[0] == _brute_max(4, pairs)[0]
    assert isinstance(exact[0], float)


def test_integer_ratios_are_exact():
    assert integer_ratios([]) == ([], 1)
    assert integer_ratios([0.75, -2, 0.1]) == (
        [27021597764222976, -72057594037927936, 3602879701896397],
        36028797018963968,
    )
    # integers stay whole past 2**53, numpy integers included
    big = 2**60 + 1
    assert integer_ratios([big, np.int64(-(2**62 + 1)), 0.5]) == (
        [2 * big, -2 * (2**62 + 1), 1],
        2,
    )
    assert integer_ratios([np.float32(0.25), True]) == ([1, 4], 4)


def test_large_integer_weights_stay_exact():
    # Past 2**53 the float route would read big as 2**53 and report
    # 2**53 + 2; summed in integers the maximum is big + 2, rounded once.
    big = 2**53 + 1
    value, argmax, _ = max_over_signs(3, [(0, 1, big), (1, 2, -1), (0, 2, -1)])
    assert value == float(big + 2) == 2**53 + 4
    assert argmax == (1, 1, -1)


def test_near_half_integer_weights_are_not_rounded():
    # Only exact half-integers take the integer route; a weight 4e-10 off
    # is enumerated as it is, not rounded onto the half-integer lattice.
    assert max_over_signs(2, [(0, 1, 0.5 + 4e-10)])[0] == 0.5 + 4e-10
    ineq = PairwiseInequality(
        "complete", 3, 0, {(0, 1): -1.0000000004, (0, 2): -1.0, (1, 2): -1.0}, 1.0
    )
    pairs = list(ineq.engine_pairs())
    assert integer_ratios(w for _, _, w in pairs)[1] > 2
    bound = classical_bound(ineq)
    assert bound.max_value == _brute_max(3, pairs)[0] == 1.0000000004
    assert noise_quantity(ineq).value == 1.0


def test_min_is_negated_max():
    rng = np.random.default_rng(SEED + 99)
    pairs = _random_pairs(rng, 6)
    negated = [(i, j, -w) for i, j, w in pairs]
    lo, arg_lo, _ = min_over_signs(6, pairs)
    hi, _, _ = max_over_signs(6, negated)
    assert lo == pytest.approx(-hi, abs=1e-12)
    achieved = sum(w * arg_lo[i] * arg_lo[j] for i, j, w in pairs)
    assert achieved == pytest.approx(lo, abs=1e-12)


def test_no_pairs_gives_zero():
    value, argmax, evaluations = max_over_signs(3, [])
    assert value == 0.0
    assert len(argmax) == 3
    assert evaluations >= 1


def test_guard_refusals_share_one_wording():
    refusals = [
        (lambda: max_over_signs(5, [], guard=4), "5 variables exceeds the guard of 4"),
        (lambda: vertices(PolytopeSpec.bell(5), guard=4), "5 variables exceeds the guard of 4"),
        (lambda: clifford_generators(5, guard=4), "5 generators exceeds the guard of 4"),
        (
            lambda: verify_alon_theorem(WebSpec(5, 2, 1), guard=4),
            "5 web vertices exceeds the guard of 4",
        ),
    ]
    for call, wording in refusals:
        with pytest.raises(ResourceLimitError, match=wording):
            call()


def test_guard_and_validation():
    pairs = [(0, 1, 1.0)]
    with pytest.raises(ResourceLimitError):
        max_over_signs(30, pairs)
    with pytest.raises(ResourceLimitError):
        max_over_signs(5, pairs, guard=4)
    assert max_over_signs(5, pairs, guard=5)[0] == 1.0
    with pytest.raises(ParameterError):
        max_over_signs(0, [])
    with pytest.raises(ParameterError):
        max_over_signs(2, [(1, 1, 1.0)])
    with pytest.raises(ParameterError):
        max_over_signs(2, [(0, 1, float("nan"))])


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308)],
        # the maximum 3.4e308 does not fit a float, in either sign pattern
        [(0, 1, 1.7e308), (0, 2, -1.7e308), (1, 2, 0.3)],
        [(0, 1, 1.7e308), (0, 2, 1.7e308), (1, 2, 0.3)],
    ],
)
def test_weights_that_overflow_a_float_are_refused(pairs):
    with pytest.raises(ParameterError, match="overflows a float"):
        max_over_signs(3, pairs)
    with pytest.raises(ParameterError, match="overflows a float"):
        min_over_signs(3, pairs)


@pytest.mark.parametrize(
    "call",
    [
        lambda: max_over_signs(2, [(0, 1, 10**400)]),
        lambda: gram_ascent({(0, 1): 10**400}, 2, 1),
        lambda: gram_ratio({(0, 1): 10**400}, 2, 1),
        lambda: Form(2, [(0, 1, 10**400)]),
        lambda: PairwiseInequality("complete", 2, 0, {(0, 1): 10**400}, 1.0),
        lambda: PairwiseInequality("complete", 2, 0, {(0, 1): 1.0}, 10**400),
        lambda: facet_check(PolytopeSpec.bell(3), [10**400, 0, 0], 1.0),
        lambda: facet_check(PolytopeSpec.bell(3), [1.0, 0, 0], 10**400),
        lambda: membership(PolytopeSpec.bell(3), [10**400, 0, 0]),
    ],
    ids=["max-over-signs", "gram-ascent", "gram-ratio", "form", "coefficient", "rhs",
         "facet-coefficients", "facet-rhs", "membership-point"],
)
def test_ints_too_large_for_a_float_are_refused(call):
    with pytest.raises(ParameterError, match="finite"):
        call()


def test_weights_just_below_the_float_range_are_enumerated():
    assert max_over_signs(3, [(0, 1, 1e308), (0, 2, -0.7e308)])[0] == 1.7e308


def reference_symmetric_matrix(n, coefficients):
    """The float matrix as optimize._symmetric_matrix built it before Form."""
    a = np.zeros((n, n))
    for (i, j), w in coefficients.items():
        a[i, j] = w
        a[j, i] = w
    return a


@pytest.mark.parametrize("seed", range(8))
def test_form_matrix_matches_the_pairwise_loop(seed):
    rng = np.random.default_rng(SEED + seed)
    n = int(rng.integers(2, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # a random subset in random insertion order, with signed zeros among the weights
    chosen = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
    palette = [-0.0, 0.0, -0.0, 1, -2, 0.5, np.float64(-1.5)]
    coefficients = {
        pairs[k]: palette[int(rng.integers(len(palette)))] if rng.random() < 0.6 else float(rng.normal())
        for k in chosen
    }
    expected = reference_symmetric_matrix(n, coefficients)
    got = Form.of(n, coefficients).matrix
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_form_keeps_its_pairs_and_is_checked_once(monkeypatch):
    triples = [(1, 2, 0.25), (0, 1, -1), (1, 2, 0.5)]
    form = Form(3, triples)
    # the order given, repeats included, and iteration yields the triples
    assert form.pairs == tuple(triples) and list(form) == triples
    assert form.key == (3, False, ((1, 2, 0.25), (0, 1, -1.0), (1, 2, 0.5)), 4)
    assert form.matrix[1, 2] == form.matrix[2, 1] == 0.75
    assert max_over_signs(3, form) == max_over_signs(3, triples)
    checked = []
    monkeypatch.setattr(enumeration, "is_finite", lambda w: checked.append(w) or True)
    assert max_over_signs(3, form) == max_over_signs(3, triples)
    # only the bare triples were checked; the Form was checked when it was built
    assert len(checked) == len(triples)
    with pytest.raises(ParameterError, match="a form on 3 variables used for 4"):
        max_over_signs(4, form)
    # a mapping is taken in sorted pair order
    assert Form.of(3, {(1, 2): 1.0, (0, 2): 2.0, (0, 1): 3.0}).pairs == (
        (0, 1, 3.0), (0, 2, 2.0), (1, 2, 1.0))
