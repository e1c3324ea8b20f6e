"""Exhaustive optimization of pairwise forms over sign assignments.

The workhorse is a Gray-code walk over {-1,+1}^n: consecutive assignments
differ in one variable, so the running value of sum_{i<j} c_ij X_i X_j is
updated in O(degree) per step instead of being recomputed.  Because the
form is invariant under a global sign flip, the first variable can be
pinned to +1 and only half the cube visited.

Inside a walk_memo() block each distinct form is walked once: the CLI
runs every command in one, so the normalizing bound and the noise
quantity that werner reads on every table row are each enumerated once
per command.  Outside a block every call walks.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import numbers
from typing import Iterable, Sequence

from .errors import ParameterError, check_guard

DEFAULT_GUARD = 24

_memo: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "bellbound_enumeration_memo", default=None
)


def gray_flip_sequence(nbits: int):
    """Yield the bit flipped at each step of the reflected Gray code.

    Step k (k = 1 .. 2**nbits - 1) flips the index of the lowest set bit
    of k; following the sequence visits every bitstring exactly once.
    """
    for step in range(1, 1 << nbits):
        yield (step & -step).bit_length() - 1


def integer_ratios(values: Iterable[float]) -> tuple[list[int], int]:
    """values as exact integer numerators over their least common denominator.

    Floats are binary rationals, so float.as_integer_ratio is exact;
    integers (numpy's too) are kept whole at any size.
    """
    ratios = [
        (int(v), 1) if isinstance(v, numbers.Integral) else float(v).as_integer_ratio()
        for v in values
    ]
    denominator = math.lcm(*(d for _, d in ratios))
    return [n * (denominator // d) for n, d in ratios], denominator


@contextlib.contextmanager
def walk_memo():
    """Within the block, max_over_signs walks each distinct form once.

    A later call on the same form returns the stored result.  A nested
    block shares the outer block's memo; the memo is dropped when the
    outermost block exits, normally or by an exception.
    """
    if _memo.get() is not None:
        yield
        return
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def max_over_signs(
    n_vars: int,
    pairs: Sequence[tuple[int, int, float]],
    guard: int = DEFAULT_GUARD,
):
    """Maximize sum of w * X_i * X_j over sign assignments.

    X_0 is pinned to +1 (the form is invariant under a global flip), so
    half the cube is searched.  Weights that are all exactly integers or
    half-integers are accumulated in integers, which makes the maximum
    exact; any other weights are accumulated in floats.

    Args:
        n_vars: number of +-1 variables.
        pairs: (i, j, weight) triples with 0 <= i < j < n_vars.
        guard: refuse runs with more than this many variables.

    Returns:
        (max_value, argmax, evaluations) where argmax is a tuple of signs,
        evaluations is 2**(n_vars - 1), and ties are broken by the first
        maximizer in Gray-code order.  Inside walk_memo() a repeated form
        returns the stored result after the arguments are checked, so
        evaluations is the size of the search the answer certifies, not
        the steps taken by this call.
    """
    if n_vars < 1:
        raise ParameterError(f"need at least one variable, got {n_vars}")
    check_guard(n_vars, guard, "variables")
    for i, j, w in pairs:
        if not (0 <= i < j < n_vars):
            raise ParameterError(f"bad pair ({i}, {j}) for {n_vars} variables")
        if not math.isfinite(w):
            raise ParameterError(f"weight on pair ({i}, {j}) is not finite")

    numerators, denominator = integer_ratios(w for _, _, w in pairs)
    exact = denominator <= 2
    if exact:
        work = tuple((i, j, c) for (i, j, _), c in zip(pairs, numerators))
    else:
        work = tuple((i, j, float(w)) for i, j, w in pairs)
    # Equal keys walk alike: the weights are already Python ints or floats,
    # and -0.0 == 0.0 is harmless because every sum in the walk starts at 0.
    key = (n_vars, exact, work, denominator)
    memo = _memo.get()
    if memo is not None and key in memo:
        return memo[key]
    best, best_x, evaluations = _walk(n_vars, work)
    result = (best / denominator if exact else best, best_x, evaluations)
    if memo is not None:
        memo[key] = result
    return result


def _walk(n_vars: int, work: Sequence[tuple[int, int, object]]):
    """(best, argmax, evaluations) of the Gray walk, best in the units of work."""
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
