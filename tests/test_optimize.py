"""Scans, Gram ascent, and sign-versus-vector ratio probes."""

import math

import numpy as np
import pytest

from bellbound import (
    FAMILY_BOUQUET12,
    FAMILY_BOUQUET2K1,
    GROTHENDIECK,
    ParameterError,
    ResourceLimitError,
    golden_section_max,
    gram_ascent,
    optimize,
    ratio_probe,
    scan_theta,
    v12_formula,
)

TRIANGLE_COEFFS = {(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0}


def test_golden_section_max():
    x, fx = golden_section_max(lambda t: 2.0 - (t - 1.0) ** 2, 0.0, 3.0)
    # localization at a quadratic peak saturates near sqrt(eps)
    assert x == pytest.approx(1.0, abs=1e-6)
    assert fx == pytest.approx(2.0, abs=1e-12)


def test_scan_theta_grid_shape():
    result = scan_theta(FAMILY_BOUQUET12, grid_points=200)
    assert result.family == FAMILY_BOUQUET12
    assert result.k is None
    assert len(result.grid) == 200
    thetas = [t for t, _ in result.grid]
    assert 0.0 < thetas[0] < thetas[-1] < math.pi / 2
    for (t, v) in result.grid:
        assert v == v12_formula(t)


def test_scan_theta_refines_peak():
    result = scan_theta(FAMILY_BOUQUET12, grid_points=400)
    theta, value = golden_section_max(v12_formula, 0.9, 1.1)
    assert result.best_value == pytest.approx(value, abs=1e-9)
    assert result.best_theta == pytest.approx(theta, abs=1e-4)
    assert result.best_value >= max(v for _, v in result.grid)


def test_scan_theta_violation_interval():
    result = scan_theta(FAMILY_BOUQUET12, grid_points=400)
    lo, hi = result.violation_interval
    # the curve opens above 1, so the lower endpoint clamps to 0
    assert lo == 0.0
    assert v12_formula(hi) == pytest.approx(1.0, abs=1e-6)
    assert v12_formula(hi + 1e-4) < 1.0
    assert v12_formula(hi - 1e-4) > 1.0


def test_scan_theta_2k1_needs_k():
    result = scan_theta(FAMILY_BOUQUET2K1, k=5, grid_points=200)
    assert result.k == 5
    assert result.best_value > 1.5
    with pytest.raises(ParameterError):
        scan_theta(FAMILY_BOUQUET2K1)
    with pytest.raises(ParameterError):
        scan_theta(FAMILY_BOUQUET2K1, k=0)
    with pytest.raises(ParameterError):
        scan_theta(FAMILY_BOUQUET12, k=3)
    with pytest.raises(ParameterError):
        scan_theta("ring")
    with pytest.raises(ParameterError):
        scan_theta(FAMILY_BOUQUET12, grid_points=5)


def test_gram_ascent_triangle():
    result = gram_ascent(TRIANGLE_COEFFS, 3, dim=2, restarts=8, seed=1)
    assert result.objective == pytest.approx(1.5, abs=1e-9)
    assert result.converged
    assert result.monotone
    assert len(result.restart_objectives) == 8
    norms = np.linalg.norm(result.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # the reported objective must reproduce from the reported vectors
    a = np.zeros((3, 3))
    for (i, j), w in TRIANGLE_COEFFS.items():
        a[i, j] = a[j, i] = w
    gram = result.vectors @ result.vectors.T
    assert 0.5 * float(np.sum(a * gram)) == pytest.approx(result.objective, abs=1e-12)


def test_gram_ascent_degenerate_inputs():
    assert gram_ascent({}, 1, dim=1, restarts=2, seed=0).objective == 0.0
    empty = gram_ascent({}, 3, dim=2, restarts=2, seed=0)
    assert empty.objective == 0.0
    assert np.max(np.abs(np.linalg.norm(empty.vectors, axis=1) - 1.0)) < 1e-12


def test_gram_ascent_validation():
    with pytest.raises(ParameterError):
        gram_ascent(TRIANGLE_COEFFS, 3, dim=4)
    with pytest.raises(ParameterError):
        gram_ascent(TRIANGLE_COEFFS, 3, dim=0)
    with pytest.raises(ParameterError):
        gram_ascent(TRIANGLE_COEFFS, 3, dim=2, restarts=0)
    with pytest.raises(ParameterError):
        gram_ascent({(1, 0): 1.0}, 3, dim=2)
    # a NaN used to run every sweep of every restart and return nan
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            gram_ascent({(0, 1): bad, (1, 2): 1.0}, 3, 2)


def test_gram_ascent_seeded_reproducibility():
    first = gram_ascent(TRIANGLE_COEFFS, 3, dim=3, restarts=4, seed=9)
    second = gram_ascent(TRIANGLE_COEFFS, 3, dim=3, restarts=4, seed=9)
    assert first.objective == second.objective
    assert np.array_equal(first.vectors, second.vectors)
    assert first.restart_objectives == second.restart_objectives


def test_ratio_probe_single_pair():
    summary = ratio_probe(2, instances=10, seed=4)
    assert summary.dim == 2
    assert summary.instances == 10
    assert all(r == pytest.approx(1.0, abs=1e-9) for r in summary.ratios)
    assert summary.violating_count == 0


def test_ratio_probe_exhaustive_n3():
    summary = ratio_probe(3, exhaustive=True, dim=3, restarts=16, seed=3)
    assert summary.exhaustive
    assert summary.seed is None
    assert summary.instances == 8
    assert summary.max_ratio == pytest.approx(1.5, abs=1e-6)
    # the maximizing pattern is a frustrated triangle: odd minus count
    assert list(summary.max_coefficients.values()).count(-1.0) % 2 == 1


def test_ratio_probe_planar_bipartite():
    summary = ratio_probe(6, instances=50, seed=11, restarts=8, bipartite_planar=True)
    assert summary.dim == 2
    assert len(summary.ratios) == 50
    assert summary.max_ratio == max(summary.ratios)
    assert summary.mean_ratio == pytest.approx(sum(summary.ratios) / 50, abs=1e-12)
    assert summary.max_ratio <= GROTHENDIECK.kg2 + 1e-9
    assert summary.violating_count == sum(1 for r in summary.ratios if r > 1.0 + 1e-9)
    assert all(i < 3 <= j for i, j in summary.max_coefficients)


def test_ratio_probe_planar_bipartite_refuses_another_dim():
    for dim in (1, 3, 5):
        with pytest.raises(ParameterError, match="dimension 2"):
            ratio_probe(6, instances=3, seed=1, dim=dim, restarts=2, bipartite_planar=True)
    assert ratio_probe(6, instances=3, seed=1, dim=2, restarts=2, bipartite_planar=True).dim == 2


def test_ratio_probe_refuses_bad_sizes_before_any_work(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before the sizes were checked")

    monkeypatch.setattr(optimize.enumeration, "max_over_signs", no_enumeration)
    # used to raise ZeroDivisionError from mean_ratio and OverflowError from spawn
    for instances in (0, -1):
        with pytest.raises(ParameterError, match="at least one instance"):
            ratio_probe(4, instances=instances)
    with pytest.raises(ParameterError, match="need at least one restart"):
        ratio_probe(4, instances=3, restarts=0)
    for dim in (0, 5):
        with pytest.raises(ParameterError, match=rf"dim must lie in 1\.\.4, got {dim}"):
            ratio_probe(4, instances=3, dim=dim)
    with pytest.raises(ParameterError, match=r"dim must lie in 1\.\.3, got 4"):
        ratio_probe(3, exhaustive=True, dim=4)


def test_ratio_probe_refuses_before_any_ascent(monkeypatch):
    calls = []
    ascend = optimize._ascend
    monkeypatch.setattr(optimize, "_ascend", lambda *args: calls.append(1) or ascend(*args))
    with pytest.raises(ResourceLimitError):
        ratio_probe(8, instances=3, restarts=2, guard=6)
    # one variable has no pairs, so every sign optimum is 0
    with pytest.raises(ParameterError, match="classical bound must be positive"):
        ratio_probe(1, instances=3, restarts=2)
    with pytest.raises(ParameterError, match="classical bound must be positive"):
        ratio_probe(1, exhaustive=True)
    assert calls == []
    ratio_probe(3, instances=2, restarts=2)
    assert calls == [1]


def test_exhaustive_ratio_probe_refuses_more_than_fifteen_pairs(monkeypatch):
    def no_form(*args, **kwargs):
        raise AssertionError("a pattern was built before the pair count was checked")

    monkeypatch.setattr(optimize, "Form", no_form)
    with pytest.raises(ResourceLimitError, match="21 coefficient pairs exceeds the guard of 15"):
        ratio_probe(7, exhaustive=True)
    with pytest.raises(ResourceLimitError, match="16 coefficient pairs exceeds the guard of 15"):
        ratio_probe(8, exhaustive=True, bipartite_planar=True)
    assert optimize.EXHAUSTIVE_PAIR_LIMIT == 15


def test_grothendieck_bounds():
    assert GROTHENDIECK.kg2 == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert GROTHENDIECK.kg3_upper == 1.5163
    assert GROTHENDIECK.kg_upper == pytest.approx(
        math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0))), abs=1e-15
    )
    assert GROTHENDIECK.kg2 <= GROTHENDIECK.kg3_lower <= GROTHENDIECK.kg3_upper
    assert GROTHENDIECK.kg3_upper < GROTHENDIECK.kg_lower <= GROTHENDIECK.kg_upper
