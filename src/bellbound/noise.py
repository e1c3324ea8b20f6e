"""Noise robustness of inequality violations for Werner states.

Mixing the singlet with the fully mixed state at visibility eta scales
every correlation to E(X Y) = -eta x . y, and the transported products
E(X_i X_j) are no longer pinned to x_i . x_j: they only obey the band
of width 2(1 - eta) around -E(X_i Y_j).  A partition argument turns
that slack into the worst-case quantity N, the minimum total |b| weight
that any two-block split of the variables must keep inside a block.
The violation of a bound-1 inequality then reads
eta sum b x.x - (1 - eta) N, and the critical visibility follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import enumeration
from .enumeration import DEFAULT_GUARD
from .errors import ParameterError
from .inequalities import PairwiseInequality, SignAssignment, classical_bound
from .quantum import UnitVectorConfig, planar_ring, quantum_value, singlet_correlation
from .webs import WebSpec

# Below 1/3 the state is separable; below 1/sqrt(2) the 2x2 inequality
# family cannot detect it.
SEPARABILITY_ETA = 1.0 / 3.0
CHSH_CRITICAL_ETA = 1.0 / math.sqrt(2.0)

_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class WernerParams:
    """Visibility of a singlet-plus-white-noise mixture."""

    eta: float

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise ParameterError(f"eta must lie in (0, 1), got {self.eta}")


def werner_correlation(x: np.ndarray, y: np.ndarray, eta: float) -> float:
    """E(X Y) = -eta x . y; eta = 1 recovers the singlet."""
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    return eta * singlet_correlation(x, y)


def symmetry_band(eta: float, e_xy: float) -> tuple[float, float]:
    """Interval allowed for E(X_i X_j) given E(X_i Y_j) at visibility eta.

    Same-side products are unobserved; perfect anticorrelation degrades
    to the two-sided bound |E(X_i X_j) + E(X_i Y_j)| <= 1 - eta.  At
    eta = 1 the interval collapses to the transported point -e_xy.
    """
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    if abs(e_xy) > eta + 1e-12:
        raise ParameterError(
            f"|E(XY)| = {abs(e_xy)} exceeds the visibility {eta}"
        )
    return (-(1.0 - eta) - e_xy, (1.0 - eta) - e_xy)


@dataclass
class ThresholdReport:
    """Critical visibility for one inequality and vector configuration.

    Values of eta above the threshold give a violation; a threshold at
    or above 1 means no Werner state violates and is flagged.
    """

    eta_threshold: float
    violation_possible: bool
    source: str
    quantum_sum: float | None = None
    noise_quantity: float | None = None


@dataclass
class NoiseQuantity:
    """Minimum within-block |b| weight over all two-block partitions.

    Equals the total |b| weight minus the maximum cut of the complete
    graph weighted by |b|; both are computed by exact enumeration and
    reported together.
    """

    value: float
    partition: SignAssignment
    total_weight: float
    max_cut: float
    evaluations: int


def noise_quantity(ineq: PairwiseInequality, guard: int = DEFAULT_GUARD) -> NoiseQuantity:
    """N for the coefficient family of an inequality.

    A pair contributes |b_ij| exactly when the partition keeps i and j
    on one side, so N = min over sign vectors Z of
    (1/2) sum |b_ij| (1 + Z_i Z_j).  Bipartite-supported coefficient
    families get N = 0 from the partition along the two parties.
    """
    pairs = [(i, j, abs(w)) for i, j, w in ineq.engine_pairs()]
    total = sum(w for _, _, w in pairs)
    low, partition, evaluations = enumeration.min_over_signs(
        ineq.variable_count, pairs, guard=guard
    )
    value = (total + low) / 2.0
    return NoiseQuantity(
        value=value,
        partition=SignAssignment(partition),
        total_weight=total,
        max_cut=total - value,
        evaluations=evaluations,
    )


def triangle_threshold(config: UnitVectorConfig | None = None) -> ThresholdReport:
    """Critical visibility for the three-cycle inequality.

    With quantum sum Q = -(x1.x2 + x1.x3 + x2.x3) the violation
    condition eta Q - (1 - eta) > 1 gives eta > 2 / (Q + 1); the default
    coplanar 120-degree settings have Q = 3/2 and threshold 4/5.
    Configurations with Q <= 1 cannot violate at any visibility and
    report a threshold of 1.
    """
    if config is None:
        config = planar_ring(3)
    if len(config) != 3:
        raise ParameterError(f"expected 3 vectors, got {len(config)}")
    gram = config.gram()
    q = float(-(gram[0, 1] + gram[0, 2] + gram[1, 2]))
    return ThresholdReport(
        eta_threshold=2.0 / (q + 1.0) if q > 1.0 else 1.0,
        violation_possible=q > 1.0,
        source="triangle",
        quantum_sum=q,
        noise_quantity=1.0,
    )


def cliqueweb_threshold(spec: WebSpec, violation_value: float) -> ThresholdReport:
    """Critical visibility for a clique-web inequality at quantum value V.

    The X block sits with one party and the Z block with the other, so
    only the p q / 2 web pairs and the q(q-1)/2 pole pairs pick up the
    worst-case band slack; the condition reduces to
    eta > p / ((r+1) V + p - r - 1).  V <= 1 cannot violate and the raw
    formula value (then at least 1) is reported with the flag down.
    """
    if violation_value <= 0.0:
        raise ParameterError(f"quantum value must be positive, got {violation_value}")
    p, r = spec.p, spec.r
    threshold = p / ((r + 1) * violation_value + p - r - 1)
    return ThresholdReport(
        eta_threshold=threshold,
        violation_possible=threshold < 1.0,
        source="clique-web",
        quantum_sum=violation_value * spec.rhs,
        noise_quantity=float(spec.p * spec.q // 2 + spec.q * (spec.q - 1) // 2),
    )


def partitioned_threshold(
    ineq: PairwiseInequality,
    config: UnitVectorConfig,
    guard: int = DEFAULT_GUARD,
) -> ThresholdReport:
    """General critical visibility via the partition noise quantity.

    Requires coefficients normalized to classical bound 1.  With the
    signed quantum sum Q = sum b_ij x_i . x_j and N the noise quantity,
    violation occurs for eta (Q + N) > 1 + N, so the threshold is
    (N + 1) / (N + Q).
    """
    bound = classical_bound(ineq, guard=guard).max_value
    if abs(bound - 1.0) > _NORMALIZATION_TOL:
        raise ParameterError(
            f"threshold formulas require an inequality normalized to classical "
            f"bound 1, got {bound}"
        )
    n = noise_quantity(ineq, guard=guard).value
    q = quantum_value(ineq, config).raw_sum
    denominator = n + q
    threshold = (n + 1.0) / denominator if denominator > 0 else float("inf")
    # (N+1)/(N+Q) < 1 exactly when Q > 1; a quantum sum at or below the
    # classical bound, negative ones included, leaves the raw formula
    # value >= 1 (inf when N + Q <= 0), flag down.
    return ThresholdReport(
        eta_threshold=threshold,
        violation_possible=q > 1.0,
        source="partitioned",
        quantum_sum=q,
        noise_quantity=n,
    )


def noisy_violation(
    ineq: PairwiseInequality,
    config: UnitVectorConfig,
    eta: float,
    guard: int = DEFAULT_GUARD,
) -> float:
    """Violation value eta Q - (1 - eta) N of a bound-1 inequality.

    Exceeds 1 exactly when the Werner state at visibility eta violates
    the worst-case partitioned form of the inequality.
    """
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    report = partitioned_threshold(ineq, config, guard=guard)
    return eta * report.quantum_sum - (1.0 - eta) * report.noise_quantity
