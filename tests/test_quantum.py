"""Unit-vector configurations and quantum values of pairwise inequalities."""

import json
import math

import numpy as np
import pytest

from bellbound import (
    MODE_COMPLETE,
    DimensionError,
    PairwiseInequality,
    ParameterError,
    UnitVectorConfig,
    WebSpec,
    bouquet,
    chsh,
    chsh_settings,
    clique_web_inequality,
    planar_ring,
    quantum_value,
    singlet_correlation,
    triangle,
    v2k1_formula,
    v12_formula,
)

SQRT2 = math.sqrt(2.0)


def test_config_validation_and_gram():
    config = planar_ring(4)
    assert len(config) == 4
    assert config.dim == 2
    gram = config.gram()
    assert np.allclose(gram, gram.T)
    assert np.allclose(np.diag(gram), 1.0)
    with pytest.raises(ParameterError):
        UnitVectorConfig(np.array([[1.0, 1.0]]))
    with pytest.raises(DimensionError):
        UnitVectorConfig(np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        UnitVectorConfig(np.array([[1.0, 0.0], [float("nan"), 0.0]]))
    with pytest.raises(ParameterError):
        UnitVectorConfig([[1.0, 0.0], [0.0]])


def test_config_json_round_trip():
    config = bouquet(5, 2, 0.7)
    data = json.loads(config.to_json())
    back = UnitVectorConfig.from_json_dict(data)
    assert np.allclose(back.vectors, config.vectors, atol=1e-15)
    with pytest.raises(ParameterError):
        UnitVectorConfig.from_json_dict({"dim": 3})


def test_singlet_correlation():
    x = np.array([0.0, 0.0, 1.0])
    assert singlet_correlation(x, x) == -1.0
    assert singlet_correlation(x, np.array([1.0, 0.0, 0.0])) == 0.0
    settings = chsh_settings()
    assert singlet_correlation(settings.vectors[0], settings.vectors[2]) == pytest.approx(
        SQRT2 / 2, abs=1e-15
    )
    with pytest.raises(DimensionError):
        singlet_correlation(x, np.array([1.0, 0.0]))
    with pytest.raises(ParameterError):
        singlet_correlation(x, np.array([2.0, 0.0, 0.0]))


def test_quantum_value_chsh():
    report = quantum_value(chsh(), chsh_settings())
    assert report.value == pytest.approx(SQRT2, abs=1e-12)
    assert report.raw_sum == pytest.approx(SQRT2, abs=1e-12)
    assert report.rhs == 1.0
    assert report.violated
    # bipartite mode always uses the singlet convention
    assert report.transported is False


def test_quantum_value_triangle_transport():
    ring = planar_ring(3)
    transported = quantum_value(triangle(), ring)
    assert transported.value == pytest.approx(1.5, abs=1e-12)
    assert transported.transported is True
    assert transported.violated
    raw = quantum_value(triangle(), ring, transported=False)
    assert raw.value == pytest.approx(-1.5, abs=1e-12)
    assert not raw.violated


def test_quantum_value_validation():
    with pytest.raises(DimensionError):
        quantum_value(triangle(), planar_ring(4))
    bad = triangle()
    bad = type(bad)(bad.mode, bad.n_left, bad.n_right, bad.coefficients, -1.0)
    with pytest.raises(ParameterError):
        quantum_value(bad, planar_ring(3))


def test_planar_ring_gram():
    n = 7
    config = planar_ring(n)
    gram = config.gram()
    for i in range(n):
        for j in range(n):
            assert gram[i, j] == pytest.approx(
                math.cos(2.0 * math.pi * (i - j) / n), abs=1e-12
            )
    shifted = planar_ring(n, phase=0.9)
    assert np.allclose(shifted.gram(), gram, atol=1e-12)
    with pytest.raises(ParameterError):
        planar_ring(0)


def test_bouquet_geometry():
    p, q, theta = 6, 3, 0.8
    config = bouquet(p, q, theta)
    assert len(config) == p + q
    assert config.dim == 3
    gram = config.gram()
    pole = np.array([0.0, 0.0, 1.0])
    for j in range(q):
        assert np.allclose(config.vectors[p + j], pole, atol=1e-15)
    for i in range(p):
        for j in range(q):
            assert gram[i, p + j] == pytest.approx(math.cos(theta), abs=1e-12)
    for a in range(q):
        for b in range(q):
            assert gram[p + a, p + b] == pytest.approx(1.0, abs=1e-12)
    s, c = math.sin(theta), math.cos(theta)
    for i in range(p):
        for j in range(p):
            expected = s * s * math.cos(2.0 * math.pi * (i - j) / p) + c * c
            assert gram[i, j] == pytest.approx(expected, abs=1e-12)


def test_bouquet_validation():
    with pytest.raises(ParameterError):
        bouquet(0, 1, 0.5)
    with pytest.raises(ParameterError):
        bouquet(3, 0, 0.5)
    with pytest.raises(ParameterError):
        bouquet(3, 1, math.pi / 2)
    with pytest.raises(ParameterError):
        bouquet(3, 1, -0.1)
    # theta = 0 collapses the ring onto the pole but stays legal
    assert len(bouquet(3, 1, 0.0)) == 4


@pytest.mark.parametrize("theta", [0.1, 0.32477 * math.pi, 1.0, 1.4])
def test_v12_formula_matches_construction(theta):
    ineq = clique_web_inequality(WebSpec(12, 3, 4))
    report = quantum_value(ineq, bouquet(12, 3, theta))
    assert v12_formula(theta) == pytest.approx(report.value, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("theta", [0.2, math.pi / 3, 1.3])
def test_v2k1_formula_matches_construction(k, theta):
    spec = WebSpec(2 * k + 1, 2, k - 1)
    ineq = clique_web_inequality(spec)
    report = quantum_value(ineq, bouquet(spec.p, spec.q, theta))
    assert v2k1_formula(k, theta) == pytest.approx(report.value, abs=1e-12)


def test_v2k1_requires_positive_k():
    with pytest.raises(ParameterError):
        v2k1_formula(0, 1.0)


def test_quantum_value_phase_invariant():
    ineq = clique_web_inequality(WebSpec(8, 3, 2))
    base = quantum_value(ineq, bouquet(8, 3, 0.9)).value
    shifted = quantum_value(ineq, bouquet(8, 3, 0.9, phase=1.234)).value
    assert shifted == pytest.approx(base, abs=1e-12)


def test_quantum_value_refuses_weights_that_overflow_a_float():
    ineq = PairwiseInequality(MODE_COMPLETE, 3, 0, {(0, 1): 1e308, (0, 2): 1e308, (1, 2): 1e308}, 1.0)
    config = UnitVectorConfig(np.array([[1.0, 0.0]] * 3))
    with pytest.raises(ParameterError, match="overflows a float"):
        quantum_value(ineq, config)
