"""Werner-state noise: symmetry bands, noise quantity, critical visibilities."""

import itertools
import math

import numpy as np
import pytest

from bellbound import (
    CHSH_CRITICAL_ETA,
    MODE_COMPLETE,
    DimensionError,
    ParameterError,
    PairwiseInequality,
    SEPARABILITY_ETA,
    UnitVectorConfig,
    WebSpec,
    WernerParams,
    chsh,
    chsh_settings,
    clique_web_inequality,
    cliqueweb_threshold,
    noise_quantity,
    noisy_violation,
    partitioned_threshold,
    planar_ring,
    quantum_value,
    symmetry_band,
    triangle,
    triangle_threshold,
    werner_correlation,
)


def test_werner_correlation():
    x = np.array([0.0, 0.0, 1.0])
    assert werner_correlation(x, x, 0.5) == -0.5
    assert werner_correlation(x, x, 1.0) == -1.0
    assert werner_correlation(x, np.array([1.0, 0.0, 0.0]), 0.7) == 0.0
    with pytest.raises(ParameterError):
        werner_correlation(x, x, 0.0)
    with pytest.raises(ParameterError):
        werner_correlation(x, x, 1.5)
    with pytest.raises(ParameterError):
        werner_correlation(x, 2.0 * x, 0.5)
    with pytest.raises(DimensionError):
        werner_correlation(x, np.array([1.0, 0.0]), 0.5)


def test_werner_params_domain():
    assert WernerParams(0.5).eta == 0.5
    with pytest.raises(ParameterError):
        WernerParams(0.0)
    with pytest.raises(ParameterError):
        WernerParams(1.0)


def test_symmetry_band():
    low, high = symmetry_band(0.8, -0.4)
    assert low == pytest.approx(0.2, abs=1e-15)
    assert high == pytest.approx(0.6, abs=1e-15)
    # unit visibility pins the product to the transported value
    low, high = symmetry_band(1.0, -0.7)
    assert low == high == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(ParameterError):
        symmetry_band(0.0, 0.0)
    with pytest.raises(ParameterError):
        symmetry_band(0.5, 0.6)


def test_noise_quantity_triangle_and_chsh():
    report = noise_quantity(triangle())
    assert report.value == 1.0
    assert report.total_weight == 3.0
    assert report.max_cut == 2.0
    # bipartite support admits the two-party split, leaving nothing inside
    assert noise_quantity(chsh()).value == 0.0


def _within_block_weight(pairs, signs):
    return sum(w for i, j, w in pairs if signs[i] == signs[j])


@pytest.mark.parametrize("n", [3, 5, 8])
def test_noise_quantity_brute_force(n):
    rng = np.random.default_rng(40 + n)
    coeffs = {
        (i, j): float(rng.uniform(-2.0, 2.0))
        for i in range(n)
        for j in range(i + 1, n)
    }
    ineq = PairwiseInequality(MODE_COMPLETE, n, 0, coeffs, 1.0)
    report = noise_quantity(ineq)
    pairs = [(i, j, abs(w)) for (i, j), w in coeffs.items()]
    best = min(
        _within_block_weight(pairs, (1,) + signs)
        for signs in itertools.product([1, -1], repeat=n - 1)
    )
    assert report.value == pytest.approx(best, abs=1e-12)
    assert report.value == pytest.approx(report.total_weight - report.max_cut, abs=1e-12)
    achieved = _within_block_weight(pairs, report.partition.values)
    assert achieved == pytest.approx(report.value, abs=1e-12)


def _is_bipartite(n, edges):
    color = [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for a, b in edges:
                if u not in (a, b):
                    continue
                v = b if u == a else a
                if color[v] is None:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


@pytest.mark.parametrize("seed", range(8))
def test_zero_noise_quantity_iff_bipartite_support(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    if not edges:
        edges = [(0, 1)]
    coeffs = {e: float(rng.choice([-1.0, 1.0])) for e in edges}
    ineq = PairwiseInequality(MODE_COMPLETE, n, 0, coeffs, 1.0)
    value = noise_quantity(ineq).value
    assert (value < 1e-12) == _is_bipartite(n, edges)


def test_triangle_threshold():
    report = triangle_threshold()
    assert report.eta_threshold == 0.8
    assert report.violation_possible
    assert report.quantum_sum == pytest.approx(1.5, abs=1e-12)
    # three aligned vectors have Q = -3: no violation at any visibility
    flat = UnitVectorConfig(np.tile([0.0, 0.0, 1.0], (3, 1)))
    report = triangle_threshold(flat)
    assert report.eta_threshold == 1.0
    assert not report.violation_possible
    with pytest.raises(ParameterError):
        triangle_threshold(planar_ring(4))


def test_cliqueweb_threshold():
    v = 1.520867791700785
    report = cliqueweb_threshold(WebSpec(12, 3, 4), v)
    expected = 12.0 / (5.0 * v + 7.0)
    assert report.eta_threshold == pytest.approx(expected, abs=1e-15)
    assert report.eta_threshold == pytest.approx(0.8216736159, abs=1e-9)
    assert report.violation_possible
    # rounding the peak to 1.5209 shifts the threshold only in the sixth place
    rounded = cliqueweb_threshold(WebSpec(12, 3, 4), 1.5209)
    assert rounded.eta_threshold == pytest.approx(0.8216645554, abs=1e-9)
    # a quantum value at the classical bound pins the threshold to 1
    report = cliqueweb_threshold(WebSpec(12, 3, 4), 1.0)
    assert report.eta_threshold == pytest.approx(1.0, abs=1e-15)
    assert not report.violation_possible
    with pytest.raises(ParameterError):
        cliqueweb_threshold(WebSpec(12, 3, 4), 0.0)


def test_partitioned_threshold():
    report = partitioned_threshold(triangle(), planar_ring(3))
    assert report.eta_threshold == pytest.approx(0.8, abs=1e-12)
    assert report.violation_possible
    report = partitioned_threshold(chsh(), chsh_settings())
    assert report.eta_threshold == pytest.approx(CHSH_CRITICAL_ETA, abs=1e-12)
    assert report.noise_quantity == 0.0
    with pytest.raises(ParameterError):
        partitioned_threshold(
            clique_web_inequality(WebSpec(5, 2, 1)),
            planar_ring(7),
        )


def test_noisy_violation():
    ring = planar_ring(3)
    assert noisy_violation(triangle(), ring, 0.8) == pytest.approx(1.0, abs=1e-10)
    assert noisy_violation(triangle(), ring, 0.9) == pytest.approx(1.25, abs=1e-12)
    assert noisy_violation(triangle(), ring, 1.0) == pytest.approx(1.5, abs=1e-12)
    assert noisy_violation(triangle(), ring, 0.85) > noisy_violation(
        triangle(), ring, 0.8
    )
    with pytest.raises(ParameterError):
        noisy_violation(triangle(), ring, 0.0)
    with pytest.raises(ParameterError):
        noisy_violation(triangle(), ring, 1.2)


def test_a_quantum_sum_at_the_classical_minimum_does_not_violate():
    # three equal vectors give Q = -3, which all signs +1 attain classically
    flat = UnitVectorConfig(np.tile([0.0, 0.0, 1.0], (3, 1)))
    report = partitioned_threshold(triangle(), flat)
    assert report.quantum_sum == pytest.approx(-3.0, abs=1e-12)
    assert not report.violation_possible
    assert report.violation_possible == quantum_value(triangle(), flat).violated
    assert report.violation_possible == triangle_threshold(flat).violation_possible
    assert report.eta_threshold >= 1.0
    # eta Q - (1 - eta) N with N = 1 stays below the bound at every visibility
    assert noisy_violation(triangle(), flat, 0.9) == pytest.approx(-2.8, abs=1e-12)
    assert noisy_violation(triangle(), flat, 1.0) == pytest.approx(-3.0, abs=1e-12)


def test_reference_visibilities():
    assert SEPARABILITY_ETA == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert CHSH_CRITICAL_ETA == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert SEPARABILITY_ETA < CHSH_CRITICAL_ETA < 0.8
