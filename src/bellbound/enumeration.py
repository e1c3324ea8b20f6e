"""Exhaustive optimization of pairwise forms over sign assignments.

The workhorse is a Gray-code walk over {-1,+1}^n: consecutive assignments
differ in one variable, so the running value of sum_{i<j} c_ij X_i X_j is
updated in O(degree) per step instead of being recomputed.  Because the
form is invariant under a global sign flip, the first variable can be
pinned to +1 and only half the cube visited.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ParameterError, ResourceLimitError

DEFAULT_GUARD = 24

# Half-integer coefficient families (all the named inequalities here) are
# enumerated in integers after scaling by 2, which makes the reported
# bound exact rather than a float accumulation.
EXACT_SCALE = 2
_EXACT_TOL = 1e-9


def gray_flip_sequence(nbits: int):
    """Yield the bit flipped at each step of the reflected Gray code.

    Step k (k = 1 .. 2**nbits - 1) flips the index of the lowest set bit
    of k; following the sequence visits every bitstring exactly once.
    """
    for step in range(1, 1 << nbits):
        yield (step & -step).bit_length() - 1


def _as_exact_weights(pairs: Sequence[tuple[int, int, float]]):
    """Scale weights by EXACT_SCALE if that makes them all integers."""
    scaled = []
    for i, j, w in pairs:
        s = w * EXACT_SCALE
        r = round(s)
        if abs(s - r) > _EXACT_TOL:
            return None
        scaled.append((i, j, int(r)))
    return scaled


def max_over_signs(
    n_vars: int,
    pairs: Sequence[tuple[int, int, float]],
    guard: int = DEFAULT_GUARD,
):
    """Maximize sum of w * X_i * X_j over sign assignments.

    X_0 is pinned to +1 (the form is invariant under a global flip), so
    half the cube is searched.  Weights that are all half-integers are
    accumulated in integers, which makes the maximum exact; any other
    weights are accumulated in floats.

    Args:
        n_vars: number of +-1 variables.
        pairs: (i, j, weight) triples with 0 <= i < j < n_vars.
        guard: refuse runs with more than this many variables.

    Returns:
        (max_value, argmax, evaluations) where argmax is a tuple of signs,
        evaluations is 2**(n_vars - 1), and ties are broken by the first
        maximizer in Gray-code order.
    """
    if n_vars < 1:
        raise ParameterError(f"need at least one variable, got {n_vars}")
    if n_vars > guard:
        raise ResourceLimitError(
            f"{n_vars} variables exceeds the guard of {guard}; "
            "raise the guard explicitly for a deliberate larger run"
        )
    for i, j, w in pairs:
        if not (0 <= i < j < n_vars):
            raise ParameterError(f"bad pair ({i}, {j}) for {n_vars} variables")
        if not math.isfinite(w):
            raise ParameterError(f"weight on pair ({i}, {j}) is not finite")

    exact = _as_exact_weights(pairs)
    work = exact if exact is not None else [(i, j, float(w)) for i, j, w in pairs]

    adjacency: list[list[tuple[int, object]]] = [[] for _ in range(n_vars)]
    for i, j, w in work:
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))

    x = [1] * n_vars
    value = sum(w for _, _, w in work)
    best = value
    best_x = tuple(x)
    evaluations = 1

    for bit in gray_flip_sequence(n_vars - 1):
        k = bit + 1
        g = 0
        for j, w in adjacency[k]:
            g += w * x[j]
        value -= 2 * x[k] * g
        x[k] = -x[k]
        evaluations += 1
        if value > best:
            best = value
            best_x = tuple(x)

    if exact is not None:
        return best / EXACT_SCALE, best_x, evaluations
    return best, best_x, evaluations


def min_over_signs(
    n_vars: int,
    pairs: Sequence[tuple[int, int, float]],
    guard: int = DEFAULT_GUARD,
):
    """Minimize the pairwise form; same contract as max_over_signs."""
    negated = [(i, j, -w) for i, j, w in pairs]
    value, argmin, evaluations = max_over_signs(n_vars, negated, guard=guard)
    return -value, argmin, evaluations
