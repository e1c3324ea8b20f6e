"""Acceptance suite: every headline number, recomputed at its stated tolerance.

The headline numbers live in one place, the claim registry of
bellbound.reproduce: one test case per registry claim asserts that its
row passes and prints one PASS line.  The tests after it check what the
registry does not, or checks more loosely: exact equalities, more
instances, and properties over whole families.  Run with -s (or read
captured output) to see the PASS lines.
"""

import math

import numpy as np
import pytest

from bellbound import (
    PolytopeSpec,
    SignAssignment,
    UnitVectorConfig,
    WebSpec,
    bell_to_cut,
    bouquet,
    classical_bound,
    claim_ids,
    clique_web_inequality,
    cut_to_bell,
    evaluate,
    evaluate_cut,
    gram_ascent,
    membership,
    quantum_value,
    ratio_probe,
    realize,
    run_claims,
    to_cut_form,
    triangle_threshold,
    v2k1_formula,
    verify_realization,
    vertices,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def registry_rows():
    return {row.claim_id: row for row in run_claims()}


@pytest.mark.parametrize("claim_id", claim_ids())
def test_recorded_claim(registry_rows, claim_id):
    row = registry_rows[claim_id]
    assert row.error is None
    assert row.passed
    assert abs(row.computed - row.expected) <= row.tolerance
    print(f"PASS {claim_id} [{row.source}]: {row.description}; computed {row.computed!r}, "
          f"expected {row.expected!r} within {row.tolerance:g}")


def test_clique_web_bounds_attained_at_their_maximizers():
    # the registry checks attainment on (12,3,4) only
    for (p, q, r), value in {(5, 2, 1): 4.0, (7, 2, 2): 6.0}.items():
        ineq = clique_web_inequality(WebSpec(p, q, r))
        result = classical_bound(ineq)
        assert result.max_value == value
        assert evaluate(ineq, result.argmax) == ineq.rhs
    print("PASS clique-web attainment: (5,2,1) and (7,2,2) reach 4 and 6 at their maximizers")


def test_bouquet_formula_matches_construction_for_k_up_to_12():
    worst = 0.0
    for k in range(1, 13):
        spec = WebSpec(2 * k + 1, 2, k - 1)
        ineq = clique_web_inequality(spec)
        for theta in np.linspace(0.005, math.pi / 2 - 0.005, 100):
            constructed = quantum_value(ineq, bouquet(spec.p, spec.q, float(theta)))
            worst = max(worst, abs(v2k1_formula(k, float(theta)) - constructed.value))
    assert worst <= 1e-12
    print(f"PASS (2k+1)-bouquet: formula vs construction worst gap {worst:.2e} for k <= 12")


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


def test_triangle_threshold_is_exactly_0_8():
    # the registry row allows 1e-12
    report = triangle_threshold()
    assert report.eta_threshold == 0.8
    print(f"PASS triangle threshold: {report.eta_threshold} exactly")


def test_ratio_properties_replace_growth_claims():
    for seed in (0, 1, 2):
        ascent = gram_ascent(
            {(0, 1): -1.0, (0, 2): -1.0, (1, 2): -1.0}, 3, dim=3,
            restarts=8, seed=seed,
        )
        assert ascent.monotone
    golden = ratio_probe(5, instances=100, seed=20260818, dim=5, restarts=16)
    assert golden.max_ratio == 1.3975424859373624
    planar = ratio_probe(6, instances=200, seed=11, restarts=8, bipartite_planar=True)
    assert planar.max_ratio <= SQRT2 + 1e-9
    print(f"PASS ratio properties: ascent monotone, seeded n=5 golden {golden.max_ratio!r} "
          f"bit-for-bit, 200-instance planar bipartite max {planar.max_ratio:.9f} <= sqrt(2)")


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
