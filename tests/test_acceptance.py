"""Acceptance suite: every headline number, recomputed at its stated tolerance.

Each test covers one acceptance criterion and prints one PASS line with
the recomputed values; run with -s (or read captured output) to see them.
"""

import math

import numpy as np

from bellbound import (
    PolytopeSpec,
    SignAssignment,
    UnitVectorConfig,
    WebSpec,
    ambient_coefficients,
    bell_to_cut,
    bouquet,
    chsh,
    chsh_embedded,
    chsh_settings,
    classical_bound,
    clique_web_inequality,
    cliqueweb_threshold,
    cut_to_bell,
    evaluate,
    evaluate_cut,
    facet_check,
    golden_section_max,
    gram_ascent,
    membership,
    noise_quantity,
    noisy_violation,
    partitioned_threshold,
    planar_ring,
    quantum_value,
    ratio_probe,
    realize,
    scan_theta,
    to_cut_form,
    triangle,
    triangle_threshold,
    v2k1_formula,
    v12_formula,
    verify_alon_theorem,
    verify_realization,
    vertices,
)
from bellbound.optimize import FAMILY_BOUQUET12

SQRT2 = math.sqrt(2.0)


def test_chsh_quantum_value_and_classical_bound():
    report = quantum_value(chsh(), chsh_settings())
    assert abs(report.value - SQRT2) <= 1e-9
    bound = classical_bound(chsh())
    assert bound.max_value == 1.0
    print(f"PASS chsh: quantum value {report.value!r} (sqrt(2) within 1e-9), "
          f"classical bound {bound.max_value} exactly")


def test_triangle_quantum_value_and_classical_bound():
    report = quantum_value(triangle(), planar_ring(3))
    assert abs(report.value - 1.5) <= 1e-12
    bound = classical_bound(triangle())
    assert bound.max_value == 1.0
    assert 1.5 > SQRT2
    print(f"PASS triangle: quantum value {report.value!r} (3/2 within 1e-12), "
          f"classical bound {bound.max_value}, 1.5 > sqrt(2)")


def test_clique_web_classical_bounds_attained():
    expected = {(5, 2, 1): 4.0, (7, 2, 2): 6.0, (12, 3, 4): 15.0}
    for (p, q, r), value in expected.items():
        ineq = clique_web_inequality(WebSpec(p, q, r))
        result = classical_bound(ineq)
        assert result.max_value == value
        assert evaluate(ineq, result.argmax) == ineq.rhs
    print(f"PASS clique-web bounds: exact q(r+1) values {sorted(expected.values())} "
          f"attained at their maximizers")


def test_12_bouquet_peak_beyond_planar_constant():
    value = v12_formula(0.32477 * math.pi)
    assert abs(value - 1.5209) <= 5e-4
    scan = scan_theta(FAMILY_BOUQUET12)
    assert scan.best_value >= 1.5209 - 5e-4
    assert scan.best_value > 1.5163
    print(f"PASS 12-bouquet: value {value:.6f} at 0.32477 pi (1.5209 within 5e-4), "
          f"scan peak {scan.best_value:.6f} > 1.5163")


def test_11_bouquet_peak():
    value = v2k1_formula(5, 0.3303 * math.pi)
    assert abs(value - 1.5168) <= 5e-4
    print(f"PASS 11-bouquet: value {value:.6f} at 0.3303 pi (1.5168 within 5e-4)")


def test_large_k_asymptotics_and_formula_agreement():
    assert abs(v2k1_formula(1000, math.pi / 3.0) - 1.5) <= 2e-3
    worst = 0.0
    for k in range(1, 13):
        spec = WebSpec(2 * k + 1, 2, k - 1)
        ineq = clique_web_inequality(spec)
        for theta in np.linspace(0.005, math.pi / 2 - 0.005, 100):
            constructed = quantum_value(ineq, bouquet(spec.p, spec.q, float(theta)))
            worst = max(worst, abs(v2k1_formula(k, float(theta)) - constructed.value))
    assert worst <= 1e-12
    print(f"PASS asymptotics: k=1000 value {v2k1_formula(1000, math.pi / 3.0):.6f} "
          f"(3/2 within 2e-3); formula vs construction worst gap {worst:.2e} for k <= 12")


def test_operator_realizations_for_random_configs():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(20):
        n = int(rng.integers(1, 7))
        raw = rng.normal(size=(n, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        config = UnitVectorConfig(raw)
        report = verify_realization(realize(config), config)
        assert report.passed
        checked += 1
    assert checked == 20
    print("PASS realizations: 20 seeded configs with n <= 6, "
          "all deviations below 1e-10")


def _assert_verified_outside(spec, point):
    cert = membership(spec, point)
    assert not cert.inside
    normal, offset = cert.separating.normal, cert.separating.offset
    assert normal @ point > offset
    for row in vertices(spec):
        assert normal @ row <= offset + 1e-12
    return cert


def test_membership_separations_and_vertices():
    singlet = np.array([SQRT2 / 2, SQRT2 / 2, SQRT2 / 2, -SQRT2 / 2])
    cert22 = _assert_verified_outside(PolytopeSpec.bell_bipartite(2, 2), singlet)
    cert3 = _assert_verified_outside(
        PolytopeSpec.bell(3), np.array([-0.5, -0.5, -0.5])
    )
    for spec in (PolytopeSpec.bell_bipartite(2, 2), PolytopeSpec.bell(3)):
        for row in vertices(spec):
            inside = membership(spec, row.astype(float))
            assert inside.inside and inside.distance < 1e-10
    print(f"PASS membership: singlet point outside at distance {cert22.distance:.9f}, "
          f"uniform -1/2 point outside at {cert3.distance:.9f}, hyperplanes verified "
          f"against every vertex, all vertices inside")


def test_facets_by_exact_rank():
    spec22 = PolytopeSpec.bell_bipartite(2, 2)
    vec, rhs = ambient_coefficients(spec22, chsh())
    report = facet_check(spec22, vec, rhs)
    assert report.valid and report.is_facet
    assert report.affine_rank == spec22.ambient_dim - 1
    spec3 = PolytopeSpec.bell(3)
    vec, rhs = ambient_coefficients(spec3, triangle())
    report3 = facet_check(spec3, vec, rhs)
    assert report3.valid and report3.is_facet
    assert report3.affine_rank == spec3.ambient_dim - 1
    print(f"PASS facets: 2x2 inequality rank {report.affine_rank}/{spec22.ambient_dim}, "
          f"triangle rank {report3.affine_rank}/{spec3.ambient_dim}, both codimension one")


def test_antiweb_cut_bounds_hold_everywhere():
    checked = 0
    for r in range(1, 4):
        for p in range(2 * r + 3, 13):
            report = verify_alon_theorem(WebSpec(p, p - 2 * r - 1, r))
            assert report.holds
            assert report.violations == ()
            checked += 1
    assert checked == 18
    print(f"PASS antiweb cut bounds: zero violations across {checked} (p, r) cases "
          f"with p <= 12, r <= 3")


def test_werner_thresholds():
    report = triangle_threshold()
    assert report.eta_threshold == 0.8
    peak_theta, peak = golden_section_max(
        lambda t: v2k1_formula(500, t), 0.5, 1.5
    )
    k500 = cliqueweb_threshold(WebSpec(1001, 2, 499), peak)
    assert abs(k500.eta_threshold - 0.8) <= 1e-3
    violation = noisy_violation(triangle(), planar_ring(3), 0.9)
    assert abs(violation - 1.25) <= 1e-12
    assert noise_quantity(chsh()).value == 0.0
    ineq, config = chsh_embedded()
    embedded = partitioned_threshold(ineq, config)
    assert abs(embedded.eta_threshold - 1.0 / SQRT2) <= 1e-9
    print(f"PASS noise thresholds: triangle {report.eta_threshold} exactly, "
          f"k=500 family {k500.eta_threshold:.6f} (0.8 within 1e-3), "
          f"triangle at 0.9 gives {violation!r}, bipartite N = 0, "
          f"embedded 2x2 threshold {embedded.eta_threshold!r} (1/sqrt(2) within 1e-9)")


def test_ratio_properties_replace_growth_claims():
    for seed in (0, 1, 2):
        ascent = gram_ascent(
            {(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0}, 3, dim=3,
            restarts=8, seed=seed,
        )
        assert ascent.monotone
    exhaustive = ratio_probe(3, exhaustive=True, dim=3, restarts=16, seed=3)
    assert abs(exhaustive.max_ratio - 1.5) <= 1e-6
    golden = ratio_probe(5, instances=100, seed=20260818, dim=5, restarts=16)
    assert golden.max_ratio == 1.3975424859373624
    assert golden.max_ratio > 1.0
    planar = ratio_probe(6, instances=200, seed=11, restarts=8, bipartite_planar=True)
    assert planar.max_ratio <= SQRT2 + 1e-9
    print(f"PASS ratio properties: ascent monotone, exhaustive n=3 max "
          f"{exhaustive.max_ratio:.9f}, seeded n=5 golden {golden.max_ratio!r} "
          f"bit-for-bit, planar bipartite max {planar.max_ratio:.9f} <= sqrt(2)")


def test_cut_transforms_round_trip_and_match():
    rng = np.random.default_rng(13)
    for _ in range(100):
        point = rng.uniform(-1.5, 1.5, size=10)
        assert np.max(np.abs(bell_to_cut(cut_to_bell(point)) - point)) < 1e-15
        assert np.max(np.abs(cut_to_bell(bell_to_cut(point)) - point)) < 1e-15
    ineq = clique_web_inequality(WebSpec(5, 2, 1))
    cut = to_cut_form(ineq)
    total = sum(ineq.coefficients.values())
    assert cut.rhs == (ineq.rhs - total) / 2.0
    for pair, w in ineq.coefficients.items():
        assert cut.coefficients[pair] == -w
    n = ineq.variable_count
    for mask in range(1 << n):
        bits = [(mask >> i) & 1 for i in range(n)]
        signs = SignAssignment(values=tuple(1 - 2 * b for b in bits))
        lhs = evaluate(ineq, signs)
        assert lhs == total + 2.0 * evaluate_cut(cut, bits)
        assert (lhs <= ineq.rhs) == (evaluate_cut(cut, bits) <= cut.rhs)
    print(f"PASS transforms: coordinate maps inverse on 100 points, 0/1 form of the "
          f"(5,2,1) inequality matches on all {1 << n} assignments")
