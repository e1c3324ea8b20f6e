"""Operator realizations of unit-vector correlation matrices."""

import numpy as np
import pytest

from bellbound import (
    ParameterError,
    ResourceLimitError,
    UnitVectorConfig,
    bouquet,
    chsh_settings,
    clifford_generators,
    maximally_entangled_state,
    pair_expectation,
    planar_ring,
    realize,
    verify_realization,
)


@pytest.mark.parametrize("n", range(1, 7))
def test_clifford_generators_relations(n):
    gens = clifford_generators(n)
    assert len(gens) == n
    d = 2 ** ((n + 1) // 2)
    eye = np.eye(d)
    for g in gens:
        assert g.shape == (d, d)
        assert np.allclose(g, g.conj().T, atol=1e-14)
        assert abs(np.trace(g)) < 1e-14
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            anti = gi @ gj + gj @ gi
            expected = 2.0 * eye if i == j else np.zeros((d, d))
            assert np.allclose(anti, expected, atol=1e-14)


def test_clifford_generator_guard():
    with pytest.raises(ParameterError):
        clifford_generators(0)
    with pytest.raises(ResourceLimitError):
        clifford_generators(15)
    assert len(clifford_generators(13, guard=13)) == 13


def test_maximally_entangled_state():
    for d in (2, 3, 4, 8):
        state = maximally_entangled_state(d)
        assert state.shape == (d * d,)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-14)
        eye = np.eye(d, dtype=complex)
        assert pair_expectation(state, eye, eye) == pytest.approx(1.0, abs=1e-14)


def test_pair_expectation_matches_kron():
    rng = np.random.default_rng(5)
    d = 4
    state = maximally_entangled_state(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    direct = state.conj() @ (np.kron(a, b) @ state)
    assert pair_expectation(state, a, b) == pytest.approx(direct, abs=1e-12)


def test_realize_chsh_settings():
    config = chsh_settings()
    realization = realize(config)
    assert realization.dimension == 4
    report = verify_realization(realization, config)
    assert report.passed
    assert np.allclose(realization.correlation_matrix(), config.gram(), atol=1e-12)
    for a, b in zip(realization.a_operators, realization.b_operators):
        assert np.allclose(b, a.T, atol=1e-15)


@pytest.mark.parametrize("n,dim", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)])
def test_realize_random_configs(n, dim):
    rng = np.random.default_rng(100 + n)
    raw = rng.normal(size=(n, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    config = UnitVectorConfig(raw)
    realization = realize(config)
    assert realization.dimension == 2 ** ((dim + 1) // 2)
    report = verify_realization(realization, config)
    assert report.passed
    assert max(
        report.hermiticity,
        report.involution,
        report.tracelessness,
        report.marginals,
        report.correlation,
        report.anticommutator,
    ) < 1e-10


def test_realize_bouquet():
    config = bouquet(5, 2, 1.02)
    report = verify_realization(realize(config), config)
    assert report.passed


def test_single_vector_self_correlation():
    config = UnitVectorConfig(np.array([[0.6, 0.8]]))
    realization = realize(config)
    assert realization.correlation(0, 0) == pytest.approx(1.0, abs=1e-14)


def test_verify_rejects_mismatched_config():
    config = planar_ring(3)
    realization = realize(config)
    other = UnitVectorConfig(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    report = verify_realization(realization, other)
    assert not report.passed
    assert report.correlation > 1e-3
    with pytest.raises(ParameterError):
        verify_realization(realization, planar_ring(4))


@pytest.mark.parametrize("dim", [1, 9, 13])
def test_report_is_plain_python(dim):
    # The state norm is 1.1e-16 off here, and at 9 and 13 dimensions that
    # is the largest deviation; a numpy bool in passed broke CLI output.
    config = UnitVectorConfig(np.eye(1, dim))
    report = verify_realization(realize(config, guard=dim), config)
    assert type(report.passed) is bool and report.passed
    assert type(report.marginals) is float
