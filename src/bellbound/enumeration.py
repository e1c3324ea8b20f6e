"""Exhaustive optimization of pairwise forms over sign assignments.

The form sum_{i<j} c_ij X_i X_j is invariant under a global sign flip,
so the first variable is pinned to +1 and only half of {-1,+1}^n is
searched, in Gray-code order: consecutive assignments differ in one
variable.  Two engines walk that order and give the same answer:

- Integer forms (every weight an integer or half-integer, scaled to
  integers) whose absolute sum is below 2^62 run the blocked engine.  It
  tabulates a low block of 2^12 assignments in int64 once and takes the
  high block in Gray order, in chunks of at most 2^18 assignments, as
  int64 matrix products.  Integer sums do not depend on their order, so
  value, argmax and tie-break are those of the walk, bit for bit.
- Float forms, and integer forms too large for int64, run the scalar
  Gray walk, which updates the running value in O(degree) per step.
  Float sums do depend on their order, and the walk's order is the one
  the recorded float results were computed in.

Inside a walk_memo() block each distinct form is walked once: the CLI
runs every command in one, so the normalizing bound and the noise
quantity that werner reads on every table row are each enumerated once
per command.  Outside a block every call walks.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, check_guard, is_finite

DEFAULT_GUARD = 24
# the blocked engine: free variables in its low block, entries per chunk
# of the high block, and the bound on sum |w| that keeps int64 sums exact
LOW_BITS = 12
CHUNK = 1 << 18
INT64_SAFE = 1 << 62

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


@dataclass(frozen=True)
class Form:
    """sum of w * X_i * X_j over (i, j, w) pairs on n variables, checked once.

    Pairs need 0 <= i < j < n, finite weights and an absolute sum that
    fits a float (else the maximum may not).  They keep the order given,
    repeats too, as float sums and the walk_memo key follow it.
    """

    n: int
    pairs: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        pairs = tuple(self.pairs)
        for i, j, w in pairs:
            if not (0 <= i < j < self.n):
                raise ParameterError(f"bad pair ({i}, {j}) for {self.n} variables")
            if not is_finite(w):
                raise ParameterError(f"weight on pair ({i}, {j}) is not finite")
        try:
            total = math.fsum(abs(w) for _, _, w in pairs)
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise ParameterError("the absolute sum of the weights overflows a float")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def of(cls, n: int, coefficients) -> "Form":
        """coefficients as a Form on n variables, checked unless already one.

        A mapping {(i, j): w} is read in sorted pair order, as engine_pairs.
        """
        if isinstance(coefficients, Form):
            if coefficients.n != n:
                raise ParameterError(f"a form on {coefficients.n} variables used for {n}")
            return coefficients
        if isinstance(coefficients, Mapping):
            coefficients = sorted((i, j, w) for (i, j), w in coefficients.items())
        return cls(n, coefficients)

    def __iter__(self):
        return iter(self.pairs)

    @functools.cached_property
    def key(self):
        """(n, exact, work, denominator): the walk's input and walk_memo key.

        work holds exact (integer or half-integer) weights as ints times
        the denominator, others as floats.  -0.0 == 0.0 in a key is
        harmless because every sum in the walk starts at 0.
        """
        numerators, denominator = integer_ratios(w for _, _, w in self.pairs)
        exact = denominator <= 2
        if exact:
            work = tuple((i, j, c) for (i, j, _), c in zip(self.pairs, numerators))
        else:
            work = tuple((i, j, float(w)) for i, j, w in self.pairs)
        return self.n, exact, work, denominator

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """a[i, j] = a[j, i] = w; a repeated pair adds up, a lone -0.0 keeps its sign."""
        a = np.zeros((self.n, self.n))
        for i, j, w in self.pairs:
            a[i, j] = a[j, i] = a[i, j] + w if a[i, j] else w
        return a


@contextlib.contextmanager
def walk_memo():
    """Within the block, max_over_signs walks each distinct form once.

    A later call on the same form returns the stored result.  The memo
    is dropped when the block exits, normally or by an exception; a
    nested block starts a memo of its own and puts the outer one back
    when it exits.
    """
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
    half-integers are summed in integers, which makes the maximum exact:
    the blocked int64 engine takes them while their absolute sum is below
    2^62.  Any other weights are summed in floats by the scalar Gray
    walk, whose order of summation the recorded float results pin.

    Args:
        n_vars: number of +-1 variables.
        pairs: a Form on n_vars variables, or (i, j, weight) triples with
            0 <= i < j < n_vars, which are checked as Form checks them.
        guard: refuse runs with more than this many variables.

    Returns:
        (max_value, argmax, evaluations) where argmax is a tuple of signs,
        evaluations is 2**(n_vars - 1), and ties are broken by the first
        maximizer in Gray-code order.  Inside walk_memo() a repeated form
        returns the stored result after the arguments are checked, so
        evaluations is the size of the search the answer certifies, not
        the steps taken by this call.

    Raises:
        ParameterError: no variables, or triples that Form refuses.
    """
    if n_vars < 1:
        raise ParameterError(f"need at least one variable, got {n_vars}")
    check_guard(n_vars, guard, "variables")
    key = Form.of(n_vars, pairs).key
    _, exact, work, denominator = key
    memo = _memo.get()
    if memo is not None and key in memo:
        return memo[key]
    best, best_x, evaluations = _walk(n_vars, work)
    result = (best / denominator if exact else best, best_x, evaluations)
    if memo is not None:
        memo[key] = result
    return result


def _walk(n_vars: int, work: Sequence[tuple[int, int, object]]):
    """(best, argmax, evaluations) in the units of work, from either engine.

    Integer work whose absolute sum is below INT64_SAFE takes the blocked
    engine; float work and larger integers take the scalar walk.
    """
    if all(type(w) is int for _, _, w in work) and sum(abs(w) for _, _, w in work) < INT64_SAFE:
        return _blocked_walk(n_vars, work)
    return _gray_walk(n_vars, work)


def _gray_walk(n_vars: int, work: Sequence[tuple[int, int, object]]):
    """The scalar Gray walk: one flip and an O(degree) update per step."""
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


def _gray_rows(start: int, stop: int, nbits: int) -> np.ndarray:
    """Row c - start: the signs of nbits free variables at step c of the walk.

    Step c has code word c ^ (c >> 1); bit b set means free variable b is -1.
    """
    c = np.arange(start, stop, dtype=np.int64)
    code = c ^ (c >> 1)
    return 1 - 2 * ((code[:, None] >> np.arange(nbits, dtype=np.int64)) & 1)


@functools.lru_cache(maxsize=None)
def _low_signs(nbits: int) -> np.ndarray:
    """Every step of the walk on nbits free variables, behind X_0 = +1."""
    signs = np.ones((1 << nbits, nbits + 1), dtype=np.int64)
    signs[:, 1:] = _gray_rows(0, 1 << nbits, nbits)
    signs.flags.writeable = False
    return signs


def _blocked_walk(n_vars: int, work: Sequence[tuple[int, int, int]]):
    """The Gray walk's (best, argmax, evaluations) for integer work, in int64.

    The low block is X_0 and the first k free variables, the high block
    the other h.  Step r * 2^k + c of the walk puts the high block at
    step r of its own walk and the low block at step c when r is even,
    at step 2^k - 1 - c when r is odd (the low walk then runs backwards).
    So the first maximizer in walk order lies in the first high step that
    reaches the maximum, at its first low row when r is even and at its
    last when r is odd.  Every sum is bounded by sum |w| < 2^62.
    """
    free = n_vars - 1
    k = min(free, LOW_BITS)
    h = free - k
    w = np.zeros((n_vars, n_vars), dtype=np.int64)
    for i, j, c in work:
        w[i, j] += c
    low = _low_signs(k)
    low_value = ((low @ w[: k + 1, : k + 1]) * low).sum(axis=1)
    cross = (low @ w[: k + 1, k + 1 :]).T.copy()  # (h, 2^k)
    w_high = w[k + 1 :, k + 1 :]
    step = CHUNK >> k
    best = None
    for r0 in range(0, 1 << h, step):
        high = _gray_rows(r0, min(r0 + step, 1 << h), h)
        values = high @ cross
        values += low_value
        row_max = values.max(axis=1) + ((high @ w_high) * high).sum(axis=1)
        j = int(np.argmax(row_max))
        if best is None or row_max[j] > best:
            best = int(row_max[j])
            row = values[j]
            if (r0 + j) & 1:
                c = len(row) - 1 - int(np.argmax(row[::-1]))
            else:
                c = int(np.argmax(row))
            best_x = tuple(low[c].tolist() + high[j].tolist())
    return best, best_x, 1 << free


def min_over_signs(
    n_vars: int,
    pairs: Sequence[tuple[int, int, float]],
    guard: int = DEFAULT_GUARD,
):
    """Minimize the pairwise form; same contract as max_over_signs."""
    negated = [(i, j, -w) for i, j, w in pairs]
    value, argmin, evaluations = max_over_signs(n_vars, negated, guard=guard)
    return -value, argmin, evaluations
