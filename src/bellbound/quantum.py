"""Quantum values of pairwise inequalities for unit-vector settings.

Measuring spin along unit vectors x and y on the two sides of a singlet
pair gives the correlation E(X Y) = -x . y.  Perfect anticorrelation at
equal settings lets one party's unmeasured products be transported onto
the other side, turning E(X_i X_j) into +x_i . x_j; complete-mode
inequalities are evaluated in that transported convention by default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, finite_array, json_int
from .inequalities import MODE_COMPLETE, PairwiseInequality

UNIT_NORM_TOL = 1e-12
VIOLATION_TOLERANCE = 1e-9


@dataclass
class UnitVectorConfig:
    """An ordered list of unit vectors sharing one dimension."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = finite_array(self.vectors, "vectors")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError("expected a nonempty (n, dim) array of vectors")
        norms = np.linalg.norm(arr, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > UNIT_NORM_TOL:
            raise ParameterError(f"vectors must be unit norm; worst deviation {worst:.3e}")
        self.vectors = arr

    def __len__(self):
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "vectors": [list(map(float, v)) for v in self.vectors]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "UnitVectorConfig":
        try:
            config = cls(vectors=data["vectors"])
        except KeyError as exc:
            raise ParameterError(f"vector JSON is missing field {exc}") from exc
        # dim may be left out; when given it must agree with the vectors
        if "dim" in data and (dim := json_int(data["dim"], "dim")) != config.dim:
            raise DimensionError(f"dim is {dim} but the vectors have {config.dim} components")
        return config

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


@dataclass
class ViolationReport:
    """Quantum value of an inequality, normalized so the local bound is 1."""

    value: float
    raw_sum: float
    rhs: float
    transported: bool
    inequality: PairwiseInequality
    config: UnitVectorConfig

    @property
    def violated(self) -> bool:
        return bool(self.value > 1.0 + VIOLATION_TOLERANCE)


def singlet_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """E(X Y) = -x . y for unit vectors x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("need two unit vectors of equal dimension")
    for v in (x, y):
        if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
            raise ParameterError("singlet correlation requires unit vectors")
    return float(-(x @ y))


def quantum_value(
    ineq: PairwiseInequality,
    config: UnitVectorConfig,
    transported: bool = True,
) -> ViolationReport:
    """Evaluate the inequality on vector settings, normalized by the rhs.

    Complete mode substitutes X_i X_j -> +x_i . x_j when transported
    (the default) and the raw singlet -x_i . x_j otherwise.  Bipartite
    mode always uses the singlet convention X_i Y_j -> -x_i . y_j.
    The weights are read through ineq.form, which refuses a set whose
    absolute sum overflows a float.
    """
    if len(config) != ineq.variable_count:
        raise DimensionError(
            f"config has {len(config)} vectors, inequality has "
            f"{ineq.variable_count} variables"
        )
    if ineq.rhs <= 0:
        raise ParameterError("normalization requires a positive rhs")
    gram = config.gram()
    sign = 1.0 if (ineq.mode == MODE_COMPLETE and transported) else -1.0
    raw = 0.0
    for i, j, w in ineq.form:
        raw += w * sign * gram[i, j]
    raw = float(raw)
    return ViolationReport(
        value=raw / ineq.rhs,
        raw_sum=raw,
        rhs=ineq.rhs,
        transported=transported if ineq.mode == MODE_COMPLETE else False,
        inequality=ineq,
        config=config,
    )


def planar_ring(n: int, phase: float = 0.0) -> UnitVectorConfig:
    """n unit vectors in the plane at angles 2 pi k / n + phase."""
    if n < 1:
        raise ParameterError("need at least one vector")
    angles = 2.0 * np.pi * np.arange(n) / n + phase
    return UnitVectorConfig(np.column_stack([np.cos(angles), np.sin(angles)]))


def bouquet(p: int, q: int, theta: float, phase: float = 0.0) -> UnitVectorConfig:
    """Cone-and-pole configuration in R^3 for the clique-web family.

    Returns p vectors at polar angle theta, azimuths 2 pi i / p + phase,
    followed by q copies of the pole (0, 0, 1); the order matches the
    clique-web inequality's X block then Z block.  The azimuthal phase
    never changes any pairwise dot product.
    """
    if p < 1 or q < 1:
        raise ParameterError("bouquet needs p >= 1 ring vectors and q >= 1 poles")
    if not (0.0 <= theta < math.pi / 2):
        raise ParameterError(f"theta must lie in [0, pi/2), got {theta}")
    azimuth = 2.0 * np.pi * np.arange(p) / p + phase
    ring = np.column_stack(
        [
            np.sin(theta) * np.cos(azimuth),
            np.sin(theta) * np.sin(azimuth),
            np.full(p, np.cos(theta)),
        ]
    )
    poles = np.tile([0.0, 0.0, 1.0], (q, 1))
    return UnitVectorConfig(np.vstack([ring, poles]))


def v12_formula(theta: float) -> float:
    """Normalized quantum value of the (12, 3, 4) clique-web bouquet.

    36 cross terms of cos(theta), six web edges at offset 6 with dot
    cos(2 theta), twelve at offsets 5 and 7 with dot
    1 - 2 cos^2(pi/12) sin^2(theta), three pole pairs, all over 15.
    """
    w5 = 1.0 - 2.0 * math.cos(math.pi / 12) ** 2 * math.sin(theta) ** 2
    return (36.0 * math.cos(theta) - 6.0 * math.cos(2.0 * theta) - 12.0 * w5 - 3.0) / 15.0


def v2k1_formula(k: int, theta: float) -> float:
    """Normalized quantum value of the (2k+1, 2, k-1) clique-web bouquet.

    All 2k+1 web edges sit at ring offset k with dot product
    1 - 2 cos^2(pi/(4k+2)) sin^2(theta).  As k grows this tends to
    2 cos(theta) - cos(2 theta), whose maximum is 3/2 at theta = pi/3.
    """
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    w = 1.0 - 2.0 * math.cos(math.pi / (4 * k + 2)) ** 2 * math.sin(theta) ** 2
    return ((2 * k + 1) * (2.0 * math.cos(theta) - w) - 1.0) / (2.0 * k)
