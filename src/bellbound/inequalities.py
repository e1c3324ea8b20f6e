"""Pairwise correlation inequalities over +-1 variables.

An inequality is a linear form in products of two-valued variables,
sum of c_ij * X_i * X_j (one party, "complete" mode) or
sum of c_ij * X_i * Y_j (two parties, "bipartite" mode), bounded by a
right-hand side.  Local hidden-variable models can only produce
correlations inside the convex hull of deterministic sign assignments,
so the tight classical bound is the maximum of the form over that
finite cube, computed here by exact enumeration.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from . import enumeration
from .enumeration import DEFAULT_GUARD, Form
from .errors import DimensionError, ParameterError, is_finite, json_int, json_number

MODE_COMPLETE = "complete"
MODE_BIPARTITE = "bipartite"


@dataclass(frozen=True)
class SignAssignment:
    """A deterministic +-1 value for every variable."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not all(v in (-1, 1) for v in self.values):
            raise ParameterError("assignment values must be -1 or +1")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class PairwiseInequality:
    """A bounded linear form in pairwise products.

    Instances are immutable: coefficients is a read-only copy of the
    mapping passed in, so a checked inequality stays checked.  Use
    dataclasses.replace for a changed copy; it is validated afresh.

    Attributes:
        mode: MODE_COMPLETE (pairs X_i X_j, i < j) or MODE_BIPARTITE
            (pairs X_i Y_j across the two blocks).
        n_left: number of X variables.
        n_right: number of Y variables (0 in complete mode).
        coefficients: map from index pair to coefficient.  Complete mode
            keys satisfy 0 <= i < j < n_left; bipartite keys satisfy
            0 <= i < n_left, 0 <= j < n_right.
        rhs: the bound.
    """

    mode: str
    n_left: int
    n_right: int
    coefficients: Mapping[tuple[int, int], float] = field(default_factory=dict)
    rhs: float = 0.0
    _pairs: tuple[tuple[int, int, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (MODE_COMPLETE, MODE_BIPARTITE):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_COMPLETE:
            if self.n_right != 0:
                raise DimensionError("complete mode requires n_right == 0")
            if self.n_left < 1:
                raise DimensionError("need at least one variable")
        elif self.n_left < 1 or self.n_right < 1:
            raise DimensionError("bipartite mode requires variables on both sides")
        _freeze_coefficients(self, self.n_left, self.n_right)

    def __reduce__(self):
        # a mappingproxy cannot be pickled or deep-copied; a dict can
        return type(self), (self.mode, self.n_left, self.n_right, dict(self.coefficients), self.rhs)

    @property
    def variable_count(self) -> int:
        return self.n_left + self.n_right

    def engine_pairs(self) -> tuple[tuple[int, int, float], ...]:
        """Coefficients reindexed over the joint variable list.

        Bipartite Y_j becomes variable n_left + j, so both modes reduce
        to one pairwise form on variable_count signs.  The triples are
        sorted by pair, and every evaluation sums in this order.
        """
        return self._pairs

    @functools.cached_property
    def form(self) -> Form:
        """engine_pairs as a Form, checked the first time a value is asked for."""
        return Form(self.variable_count, self._pairs)

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_left": self.n_left,
            "n_right": self.n_right,
            "coefficients": [
                {"i": i, "j": j, "value": w}
                for (i, j), w in sorted(self.coefficients.items())
            ],
            "rhs": self.rhs,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PairwiseInequality":
        try:
            coeffs = {
                (json_int(c["i"], "i"), json_int(c["j"], "j")): json_number(c["value"], "value")
                for c in data["coefficients"]
            }
            mode = str(data["mode"])
            n_left = json_int(data["n_left"], "n_left")
            n_right = json_int(data["n_right"], "n_right")
            rhs = json_number(data["rhs"], "rhs")
        except KeyError as exc:
            raise ParameterError(f"inequality JSON is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed inequality JSON: {exc}") from exc
        return cls(mode, n_left, n_right, coeffs, rhs)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PairwiseInequality":
        return cls.from_json_dict(json.loads(text))


@dataclass
class ClassicalBoundResult:
    """Outcome of exhaustive maximization over sign assignments."""

    max_value: float
    argmax: SignAssignment
    evaluations: int


def chsh() -> PairwiseInequality:
    """The 2x2 bipartite inequality with coefficients (1/2, 1/2, 1/2, -1/2)."""
    return PairwiseInequality(
        mode=MODE_BIPARTITE,
        n_left=2,
        n_right=2,
        coefficients={(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): -0.5},
        rhs=1.0,
    )


def triangle() -> PairwiseInequality:
    """-X1X2 - X1X3 - X2X3 <= 1, the smallest one-party inequality here."""
    return PairwiseInequality(
        mode=MODE_COMPLETE,
        n_left=3,
        n_right=0,
        coefficients={(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0},
        rhs=1.0,
    )


def evaluate(ineq: PairwiseInequality, assignment: SignAssignment) -> float:
    """Value of the form at one deterministic assignment.

    Bipartite assignments list the X block first, then the Y block.
    Weights are read through ineq.form, so a set whose absolute sum
    overflows a float is refused.
    """
    if len(assignment) != ineq.variable_count:
        raise DimensionError(
            f"assignment has {len(assignment)} values, inequality has "
            f"{ineq.variable_count} variables"
        )
    s = assignment.values
    total = 0.0
    for i, j, w in ineq.form:
        total += w * s[i] * s[j]
    return total


def classical_bound(ineq: PairwiseInequality, guard: int = DEFAULT_GUARD) -> ClassicalBoundResult:
    """Tight local bound: max of the form over all sign assignments.

    The form is invariant under a global flip, so the first variable is
    pinned to +1.  Coefficients that are exactly integers or half-integers
    are accumulated in exact integers; ties are broken by the first
    maximizer in Gray-code order.
    """
    best, arg, evals = enumeration.max_over_signs(ineq.variable_count, ineq.form, guard=guard)
    return ClassicalBoundResult(
        max_value=best, argmax=SignAssignment(arg), evaluations=evals
    )


# ============================================================================
# 0/1 cut form
# ============================================================================
#
# With X_i = 2 a_i - 1 the product transforms as X_i X_j = 1 - 2 (a_i xor a_j),
# so every +-1 inequality has an equivalent form in cut variables.  The
# convention here divides out the constant factor 2: coefficients are negated
# and the rhs becomes (rhs - sum of coefficients) / 2, which sends the
# clique-web family to its usual 0/1 shape with rhs 0.


@dataclass(frozen=True)
class CutInequality:
    """sum of c_ij * (a_i xor a_j) <= rhs over 0/1 assignments; immutable."""

    n: int
    coefficients: Mapping[tuple[int, int], float] = field(default_factory=dict)
    rhs: float = 0.0
    _pairs: tuple[tuple[int, int, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("need at least one variable")
        _freeze_coefficients(self, self.n, 0)

    def __reduce__(self):
        return type(self), (self.n, dict(self.coefficients), self.rhs)

    def engine_pairs(self) -> tuple[tuple[int, int, float], ...]:
        """(i, j, weight) triples sorted by pair."""
        return self._pairs


def evaluate_cut(ineq: CutInequality, assignment: Iterable[int]) -> float:
    bits = tuple(assignment)
    if len(bits) != ineq.n:
        raise DimensionError(f"expected {ineq.n} bits, got {len(bits)}")
    if not all(b in (0, 1) for b in bits):
        raise ParameterError("cut assignments take values 0 or 1")
    return sum(w * (bits[i] ^ bits[j]) for i, j, w in ineq.engine_pairs())


def to_cut_form(ineq: PairwiseInequality) -> CutInequality:
    """Rewrite a complete-mode inequality in cut variables.

    Both forms accept exactly the same assignments under a_i = (X_i+1)/2.
    """
    if ineq.mode != MODE_COMPLETE:
        raise ParameterError("cut form is defined for complete-mode inequalities")
    total = sum(ineq.coefficients.values())
    return CutInequality(
        n=ineq.n_left,
        coefficients={pair: -w for pair, w in ineq.coefficients.items()},
        rhs=(ineq.rhs - total) / 2.0,
    )


def from_cut_form(cut: CutInequality) -> PairwiseInequality:
    """Inverse of to_cut_form; the round trip is the identity."""
    total = sum(cut.coefficients.values())
    return PairwiseInequality(
        mode=MODE_COMPLETE,
        n_left=cut.n,
        n_right=0,
        coefficients={pair: -w for pair, w in cut.coefficients.items()},
        rhs=2.0 * cut.rhs - total,
    )


def embed_in_complete(ineq: PairwiseInequality) -> PairwiseInequality:
    """View a bipartite inequality as one on the joint variable list.

    Y_j becomes variable n_left + j; values agree assignment for
    assignment, so the classical bound is unchanged.
    """
    if ineq.mode != MODE_BIPARTITE:
        raise ParameterError("embedding applies to bipartite inequalities")
    return PairwiseInequality(
        mode=MODE_COMPLETE,
        n_left=ineq.variable_count,
        n_right=0,
        coefficients={(i, j): w for i, j, w in ineq.engine_pairs()},
        rhs=ineq.rhs,
    )


def collapse_bipartite(ineq: PairwiseInequality) -> PairwiseInequality:
    """Identify Y with X in a square bipartite inequality.

    Cross coefficients c_ij and c_ji merge onto the unordered pair {i, j};
    diagonal terms become the constant 1 and move into the rhs.  The
    result is valid for one party whenever the input is valid for two.
    """
    if ineq.mode != MODE_BIPARTITE:
        raise ParameterError("collapse applies to bipartite inequalities")
    if ineq.n_left != ineq.n_right:
        raise DimensionError(
            f"collapse needs a square inequality, got {ineq.n_left}x{ineq.n_right}"
        )
    n = ineq.n_left
    merged: dict[tuple[int, int], float] = {}
    diagonal = 0.0
    for (i, j), w in ineq.coefficients.items():
        if i == j:
            diagonal += w
        else:
            pair = (i, j) if i < j else (j, i)
            merged[pair] = merged.get(pair, 0.0) + w
    merged = {pair: w for pair, w in merged.items() if w != 0.0}
    return PairwiseInequality(
        mode=MODE_COMPLETE,
        n_left=n,
        n_right=0,
        coefficients=merged,
        rhs=ineq.rhs - diagonal,
    )


def _freeze_coefficients(ineq, n_left: int, n_right: int) -> None:
    """Validate ineq's pairs and values, freeze them, and cache its triples.

    n_right == 0 means one block: keys (i, j) with 0 <= i < j < n_left.
    Otherwise keys (i, j) pair X_i with Y_j, and Y_j becomes joint
    variable n_left + j.
    """
    coefficients = MappingProxyType(dict(ineq.coefficients))
    for i, j in coefficients:
        if n_right == 0 and not 0 <= i < j < n_left:
            raise DimensionError(f"bad pair ({i}, {j}) for {n_left} variables")
        if n_right and not (0 <= i < n_left and 0 <= j < n_right):
            raise DimensionError(f"bad bipartite pair ({i}, {j}) for {n_left}x{n_right}")
    if not is_finite(ineq.rhs) or not all(map(is_finite, coefficients.values())):
        raise ParameterError("coefficients and rhs must be finite")
    offset = n_left if n_right else 0
    triples = sorted((i, offset + j, w) for (i, j), w in coefficients.items())
    object.__setattr__(ineq, "coefficients", coefficients)
    object.__setattr__(ineq, "_pairs", tuple(triples))
