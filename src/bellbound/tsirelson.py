"""Explicit operator models attaining vector correlations.

Tsirelson's construction: given unit vectors x_1..x_n, contract each
with a set of pairwise anticommuting Hermitian involutions (a Clifford
generator chain) to get observables A_i = sum_k x_ik g_k; with
B_j = A_j^T on the second factor and the maximally entangled state, the
correlations come out exactly <A_i (x) B_j> = x_i . x_j, with vanishing
marginals.  The Hilbert space dimension is 2^ceil(m/2) for m generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_guard
from .quantum import UnitVectorConfig

GENERATOR_GUARD = 12
REALIZATION_TOLERANCE = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def _chain(factors: list[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def clifford_generators(n: int, guard: int = GENERATOR_GUARD) -> list[np.ndarray]:
    """n anticommuting Hermitian involutions of dimension 2^ceil(n/2).

    The alternating tensor chain: generator 2j-1 is z^(j-1) x 1^(m-j)
    with an x in slot j, generator 2j the same with a y.  Each is
    traceless, squares to the identity, and distinct pairs anticommute.
    """
    if n < 1:
        raise ParameterError(f"need at least one generator, got {n}")
    check_guard(n, guard, "generators")
    m = (n + 1) // 2
    generators = []
    for k in range(1, n + 1):
        j = (k + 1) // 2
        head = [PAULI_Z] * (j - 1)
        head.append(PAULI_X if k % 2 == 1 else PAULI_Y)
        head.extend([IDENTITY_2] * (m - j))
        generators.append(_chain(head))
    return generators


def maximally_entangled_state(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_m |m>|m> as a d^2 vector, |i>|j> at index i*d + j."""
    state = np.zeros(d * d, dtype=complex)
    state[:: d + 1] = 1.0 / np.sqrt(d)
    return state


def pair_expectation(state: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """<state| a (x) b |state> without forming the Kronecker product.

    Reshaping the state to a d x d matrix M turns the expectation into
    tr(a M b^T M*), an identity of the vec convention used above.
    """
    d = a.shape[0]
    m = state.reshape(d, d)
    return complex(np.trace(a @ m @ b.T @ m.conj().T))


@dataclass
class OperatorRealization:
    """Observables and state realizing a Gram matrix of correlations."""

    a_operators: list[np.ndarray]
    b_operators: list[np.ndarray]
    state: np.ndarray
    dimension: int

    def correlation(self, i: int, j: int) -> float:
        return pair_expectation(self.state, self.a_operators[i], self.b_operators[j]).real

    def correlation_matrix(self) -> np.ndarray:
        n = len(self.a_operators)
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = self.correlation(i, j)
        return out


def realize(config: UnitVectorConfig, guard: int = GENERATOR_GUARD) -> OperatorRealization:
    """Build observables whose joint correlations equal the Gram matrix.

    One generator per vector coordinate, so the dimension is
    2^ceil(dim/2); B_j is the transpose of A_j.
    """
    generators = clifford_generators(config.dim, guard=guard)
    d = generators[0].shape[0]
    a_ops = []
    for x in config.vectors:
        a = np.zeros((d, d), dtype=complex)
        for coeff, g in zip(x, generators):
            a += coeff * g
        a_ops.append(a)
    b_ops = [a.T.copy() for a in a_ops]
    return OperatorRealization(
        a_operators=a_ops,
        b_operators=b_ops,
        state=maximally_entangled_state(d),
        dimension=d,
    )


@dataclass
class RealizationReport:
    """Worst-case deviations of a realization from its contract."""

    hermiticity: float
    involution: float
    tracelessness: float
    marginals: float
    correlation: float
    anticommutator: float
    tolerance: float

    @property
    def worst(self) -> float:
        """The largest of the six deviations."""
        return max(
            self.hermiticity,
            self.involution,
            self.tracelessness,
            self.marginals,
            self.correlation,
            self.anticommutator,
        )

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def verify_realization(
    realization: OperatorRealization,
    config: UnitVectorConfig,
) -> RealizationReport:
    """Measure every promised property of a realization.

    Checks both operator families for Hermiticity, squaring to the
    identity, and zero trace; the state for unit norm and vanishing
    one-sided marginals; the correlation matrix against the Gram matrix
    of the vectors; and the anticommutators A_i A_j + A_j A_i against
    2 (x_i . x_j) times the identity.
    """
    a_ops, b_ops = realization.a_operators, realization.b_operators
    if len(a_ops) != len(config):
        raise ParameterError("realization and config disagree on the number of vectors")
    d = realization.dimension
    eye = np.eye(d)
    gram = config.gram()
    state = realization.state

    hermiticity = involution = tracelessness = marginals = 0.0
    norm_dev = abs(float(np.linalg.norm(state)) - 1.0)
    for ops in (a_ops, b_ops):
        for op in ops:
            hermiticity = max(hermiticity, float(np.max(np.abs(op - op.conj().T))))
            involution = max(involution, float(np.max(np.abs(op @ op - eye))))
            tracelessness = max(tracelessness, abs(complex(np.trace(op))))
    for a in a_ops:
        marginals = max(marginals, abs(pair_expectation(state, a, np.eye(d, dtype=complex))))
    for b in b_ops:
        marginals = max(marginals, abs(pair_expectation(state, np.eye(d, dtype=complex), b)))

    correlation = 0.0
    for i in range(len(a_ops)):
        for j in range(len(b_ops)):
            got = pair_expectation(state, a_ops[i], b_ops[j])
            correlation = max(correlation, abs(got - gram[i, j]))

    anticommutator = 0.0
    for i in range(len(a_ops)):
        for j in range(len(a_ops)):
            anti = a_ops[i] @ a_ops[j] + a_ops[j] @ a_ops[i]
            anticommutator = max(
                anticommutator, float(np.max(np.abs(anti - 2.0 * gram[i, j] * eye)))
            )

    return RealizationReport(
        hermiticity=hermiticity,
        involution=involution,
        tracelessness=tracelessness,
        marginals=max(marginals, norm_dev),
        correlation=correlation,
        anticommutator=anticommutator,
        tolerance=REALIZATION_TOLERANCE,
    )
