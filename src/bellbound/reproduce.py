"""Registry of the headline numeric claims, runnable as one table.

Each claim binds an expected value, a tolerance, and a closure that
recomputes the number through the public API.  A quantity that several
rows read (a theta scan, the 2x2 singlet-point membership) is computed
once per run_claims call and dropped when the call returns, so every
call recomputes from scratch.  The CLI renders
the table and fails if any row does; the acceptance suite asserts
through the registry so the table and the suite cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BellboundError
from .inequalities import (
    PairwiseInequality,
    SignAssignment,
    chsh,
    classical_bound,
    collapse_bipartite,
    embed_in_complete,
    evaluate,
    evaluate_cut,
    from_cut_form,
    to_cut_form,
    triangle,
)
from .noise import (
    cliqueweb_threshold,
    noise_quantity,
    noisy_violation,
    partitioned_threshold,
    symmetry_band,
    triangle_threshold,
    werner_correlation,
)
from .optimize import (
    FAMILY_BOUQUET12,
    FAMILY_BOUQUET2K1,
    GROTHENDIECK,
    ThetaScanResult,
    gram_ratio,
    ratio_probe,
    scan_theta,
)
from .polytopes import (
    MembershipCertificate,
    PolytopeSpec,
    ambient_coefficients,
    facet_check,
    membership,
)
from .quantum import (
    UnitVectorConfig,
    bouquet,
    planar_ring,
    quantum_value,
    singlet_correlation,
    v12_formula,
    v2k1_formula,
)
from .tsirelson import realize, verify_realization
from .webs import WebSpec, antiweb_edges, clique_web_inequality, verify_alon_theorem, web_edges

SOURCE_PAPER = "PAPER"
SOURCE_DERIVED = "DERIVED"
SOURCE_TRIVIAL = "TRIVIAL"


@dataclass
class ReproductionRow:
    claim_id: str
    description: str
    source: str
    expected: float
    computed: float | None
    tolerance: float
    passed: bool
    error: str | None = None

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def chsh_settings() -> UnitVectorConfig:
    """The standard four settings: two x vectors, then two y vectors."""
    s = math.sqrt(2.0) / 2.0
    return UnitVectorConfig(
        np.array(
            [
                [-s, s, 0.0],
                [s, s, 0.0],
                [0.0, -1.0, 0.0],
                [1.0, 0.0, 0.0],
            ]
        )
    )


def chsh_embedded() -> tuple[PairwiseInequality, UnitVectorConfig]:
    """The 2x2 inequality on four joint variables with transported settings.

    Transport reverses the second party's vectors, after which the
    complete-mode quantum sum reproduces the bipartite singlet value.
    """
    vectors = chsh_settings().vectors.copy()
    vectors[2:] *= -1.0
    return embed_in_complete(chsh()), UnitVectorConfig(vectors)


def _bool(value: bool) -> float:
    return 1.0 if value else 0.0


# Quantities that several rows read.  Each is computed on first use in a
# run_claims call; run_claims clears these caches when it returns.  Shared
# enumerations, such as the (12,3,4) bound, are not cached here: inside the
# CLI's enumeration.walk_memo scope each form is walked once, and a call
# from the API walks each time.


@functools.cache
def _scan(family: str, k: int | None = None) -> ThetaScanResult:
    return scan_theta(family, k=k)


@functools.cache
def _bell22_singlet() -> MembershipCertificate:
    """Membership of the scaled singlet point in the 2x2 polytope."""
    s = math.sqrt(2.0) / 2.0
    return membership(PolytopeSpec.bell_bipartite(2, 2), np.array([s, s, s, -s]))


_SHARED = (_scan, _bell22_singlet)


def _classical(make: Callable[..., PairwiseInequality], *args) -> float:
    return classical_bound(make(*args)).max_value


def _cliqueweb_attained() -> float:
    ineq = clique_web_inequality(WebSpec(12, 3, 4))
    result = classical_bound(ineq)
    return _bool(evaluate(ineq, result.argmax) == ineq.rhs == result.max_value)


def _cut_form_triangle_rhs() -> float:
    return to_cut_form(triangle()).rhs


def _cut_form_matches_xor_form() -> float:
    spec = WebSpec(5, 2, 1)
    ineq = clique_web_inequality(spec)
    cut = to_cut_form(ineq)
    if cut.rhs != 0.0:
        return 0.0
    web = set(web_edges(spec).edges)
    for (i, j), w in cut.coefficients.items():
        in_web = (i, j) in web
        in_poles = i >= spec.p and j >= spec.p
        expected = 1.0 if (in_web or in_poles) else -1.0
        if w != expected:
            return 0.0
    n = spec.p + spec.q
    for mask in range(1 << n):
        bits = tuple((mask >> v) & 1 for v in range(n))
        signs = SignAssignment(tuple(2 * b - 1 for b in bits))
        pm_ok = evaluate(ineq, signs) <= ineq.rhs + 1e-9
        cut_ok = evaluate_cut(cut, bits) <= cut.rhs + 1e-9
        if pm_ok != cut_ok:
            return 0.0
    return 1.0


def _cut_form_round_trip() -> float:
    ineq = clique_web_inequality(WebSpec(12, 3, 4))
    back = from_cut_form(to_cut_form(ineq))
    return _bool(back.coefficients == ineq.coefficients and back.rhs == ineq.rhs)


def _collapse_chsh() -> float:
    collapsed = collapse_bipartite(chsh())
    ok = collapsed.coefficients == {(0, 1): 1.0} and collapsed.rhs == 1.0
    return _bool(ok and classical_bound(collapsed).max_value == 1.0)


def _web_offset_classes() -> float:
    edges = web_edges(WebSpec(12, 3, 4)).edges
    by_distance: dict[int, int] = {}
    for i, j in edges:
        d = min(j - i, 12 - (j - i))
        by_distance[d] = by_distance.get(d, 0) + 1
    return _bool(by_distance == {5: 12, 6: 6})


def _antiweb_is_cycle() -> float:
    edges = set(antiweb_edges(WebSpec(5, 2, 1)).edges)
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    return _bool(edges == cycle)


def _alon_violations() -> float:
    total = 0
    for r in range(1, 4):
        for p in range(2 * r + 3, 13):
            total += len(verify_alon_theorem(WebSpec(p, p - 2 * r - 1, r)).violations)
    return float(total)


def _singlet_equal_settings() -> float:
    x = np.array([1.0, 2.0, 2.0]) / 3.0
    return singlet_correlation(x, x)


def _singlet_component() -> float:
    v = chsh_settings().vectors
    return singlet_correlation(v[0], v[2])


def _chsh_quantum() -> float:
    return quantum_value(chsh(), chsh_settings()).value


def _triangle_quantum() -> float:
    return quantum_value(triangle(), planar_ring(3)).value


def _ring_dot_deviation(
    p: int, q: int, offset: int, closed_form: Callable[[float], float]
) -> float:
    """Largest gap between the p-ring dots x_i . x_(i+offset) and their closed form."""
    worst = 0.0
    for theta in np.linspace(0.01, math.pi / 2 - 0.01, 37):
        gram = bouquet(p, q, float(theta)).gram()
        closed = closed_form(theta)
        for i in range(p):
            worst = max(worst, abs(gram[i, (i + offset) % p] - closed))
    return worst


def _v12_formula_vs_construction() -> float:
    spec = WebSpec(12, 3, 4)
    ineq = clique_web_inequality(spec)
    worst = 0.0
    for theta in np.linspace(0.005, math.pi / 2 - 0.005, 100):
        built = quantum_value(ineq, bouquet(12, 3, float(theta))).value
        worst = max(worst, abs(built - v12_formula(float(theta))))
    return worst


def _tsirelson_single() -> float:
    config = UnitVectorConfig(np.array([[1.0, 2.0, 2.0]]) / 3.0)
    return realize(config).correlation(0, 0)


def _tsirelson_chsh_deviation() -> float:
    config = chsh_settings()
    return verify_realization(realize(config), config).worst


def _bell22_outside() -> float:
    cert = _bell22_singlet()
    if cert.inside or cert.separating is None:
        return 0.0
    # The separating direction recovers the 2x2 coefficient pattern.
    normal = np.asarray(cert.separating.normal)
    pattern = np.array([1.0, 1.0, 1.0, -1.0]) / 2.0
    aligned = abs(float(normal @ pattern)) / float(np.linalg.norm(pattern))
    return _bool(abs(aligned - 1.0) < 1e-7)


def _bell3_outside() -> float:
    cert = membership(PolytopeSpec.bell(3), np.array([-0.5, -0.5, -0.5]))
    return _bool(not cert.inside and cert.separating is not None)


def _is_facet(spec: PolytopeSpec, ineq) -> float:
    coeffs, rhs = ambient_coefficients(spec, ineq)
    return _bool(facet_check(spec, coeffs, rhs).is_facet)


def _werner_equal_settings() -> float:
    x = np.array([0.0, 0.0, 1.0])
    return werner_correlation(x, x, 0.8)


def _band_width_at_unit_visibility() -> float:
    lo, hi = symmetry_band(1.0, -0.4)
    return hi - lo


def _band_example() -> float:
    lo, hi = symmetry_band(0.8, -0.4)
    return _bool(abs(lo - 0.2) < 1e-15 and abs(hi - 0.6) < 1e-15)


def _triangle_threshold_value() -> float:
    return triangle_threshold().eta_threshold


def _cliqueweb_threshold_k500() -> float:
    k = 500
    scan = _scan(FAMILY_BOUQUET2K1, k)
    spec = WebSpec(2 * k + 1, 2, k - 1)
    return cliqueweb_threshold(spec, scan.best_value).eta_threshold


def _chsh_embedded_threshold() -> float:
    ineq, config = chsh_embedded()
    return partitioned_threshold(ineq, config).eta_threshold


def _bipartite_noise_zero() -> float:
    return noise_quantity(chsh()).value


def _noisy_triangle() -> float:
    return noisy_violation(triangle(), planar_ring(3), 0.9)


def _gram_ratio(ineq: PairwiseInequality) -> float:
    """Two-dimensional vector ascent over the classical bound."""
    result, bound = gram_ratio(ineq.coefficients, ineq.variable_count, 2, restarts=16, seed=7)
    return result.objective / bound


def _planar_bipartite_bound() -> float:
    probe = ratio_probe(
        6, instances=60, seed=11, restarts=8, bipartite_planar=True
    )
    return _bool(probe.max_ratio <= GROTHENDIECK.kg2 + 1e-9)


def _exhaustive_n3_max() -> float:
    probe = ratio_probe(3, exhaustive=True, dim=3, restarts=16, seed=3)
    return probe.max_ratio


_SQRT2 = math.sqrt(2.0)

_CLAIMS: list[tuple[str, str, str, float, float, Callable[[], float]]] = [
    ("chsh-classical-bound", "2x2 inequality: exact local bound 1",
     SOURCE_PAPER, 1.0, 0.0, lambda: _classical(chsh)),
    ("chsh-sqrt2", "2x2 inequality at the standard settings reaches sqrt(2)",
     SOURCE_PAPER, _SQRT2, 1e-9, _chsh_quantum),
    ("singlet-equal-settings", "equal settings are perfectly anticorrelated",
     SOURCE_PAPER, -1.0, 1e-15, _singlet_equal_settings),
    ("singlet-standard-component", "one standard-settings correlation equals sqrt(2)/2",
     SOURCE_PAPER, _SQRT2 / 2.0, 1e-12, _singlet_component),
    ("triangle-classical-bound", "three-cycle inequality: exact local bound 1",
     SOURCE_PAPER, 1.0, 0.0, lambda: _classical(triangle)),
    ("triangle-3-2", "three-cycle value 3/2 at coplanar 120-degree settings",
     SOURCE_PAPER, 1.5, 1e-12, _triangle_quantum),
    ("cliqueweb-5-2-1-bound", "clique-web (5,2,1): exact local bound 4",
     SOURCE_DERIVED, 4.0, 0.0, lambda: _classical(clique_web_inequality, WebSpec(5, 2, 1))),
    ("cliqueweb-7-2-2-bound", "clique-web (7,2,2): exact local bound 6",
     SOURCE_DERIVED, 6.0, 0.0, lambda: _classical(clique_web_inequality, WebSpec(7, 2, 2))),
    ("cliqueweb-12-3-4-bound", "clique-web (12,3,4): exact local bound 15",
     SOURCE_PAPER, 15.0, 0.0, lambda: _classical(clique_web_inequality, WebSpec(12, 3, 4))),
    ("cliqueweb-bound-attained", "clique-web (12,3,4): enumeration argmax attains the bound",
     SOURCE_DERIVED, 1.0, 0.0, _cliqueweb_attained),
    ("cut-form-triangle-rhs", "three-cycle cut form has rhs 2",
     SOURCE_DERIVED, 2.0, 0.0, _cut_form_triangle_rhs),
    ("cut-form-cliqueweb-xor", "clique-web (5,2,1) cut form matches the 0/1 shape on all assignments",
     SOURCE_PAPER, 1.0, 0.0, _cut_form_matches_xor_form),
    ("cut-form-round-trip", "cut form round trip is the identity on (12,3,4)",
     SOURCE_TRIVIAL, 1.0, 0.0, _cut_form_round_trip),
    ("collapse-chsh", "2x2 inequality collapses to X1 X2 <= 1",
     SOURCE_DERIVED, 1.0, 0.0, _collapse_chsh),
    ("web-12-3-4-edges", "web (12,3,4) has 18 edges",
     SOURCE_PAPER, 18.0, 0.0, lambda: float(len(web_edges(WebSpec(12, 3, 4)).edges))),
    ("web-12-3-4-offsets", "web (12,3,4) splits as 12 edges at distance 5 and 6 at distance 6",
     SOURCE_PAPER, 1.0, 0.0, _web_offset_classes),
    ("web-8-3-2-edges", "web (8,3,2) has 12 edges",
     SOURCE_PAPER, 12.0, 0.0, lambda: float(len(web_edges(WebSpec(8, 3, 2)).edges))),
    ("web-5-2-1-edges", "web (5,2,1) has 5 edges",
     SOURCE_DERIVED, 5.0, 0.0, lambda: float(len(web_edges(WebSpec(5, 2, 1)).edges))),
    ("antiweb-5-2-1-cycle", "antiweb of (5,2,1) is the 5-cycle",
     SOURCE_DERIVED, 1.0, 0.0, _antiweb_is_cycle),
    ("alon-zero-violations", "antiweb cut bounds hold on all webs with p <= 12, r <= 3",
     SOURCE_PAPER, 0.0, 0.0, _alon_violations),
    ("bouquet-dot-offset6", "12-ring dot at offset 6 equals cos(2 theta)",
     SOURCE_PAPER, 0.0, 1e-12,
     lambda: _ring_dot_deviation(12, 3, 6, lambda t: math.cos(2 * t))),
    ("bouquet-dot-offset5", "12-ring dot at offset 5 equals 1 - 2 cos^2(pi/12) sin^2(theta)",
     SOURCE_PAPER, 0.0, 1e-12,
     lambda: _ring_dot_deviation(
         12, 3, 5, lambda t: 1.0 - 2.0 * math.cos(math.pi / 12) ** 2 * math.sin(t) ** 2)),
    ("bouquet-2k1-dot", "(2k+1)-ring web dot matches its closed form at k = 5",
     SOURCE_PAPER, 0.0, 1e-12,
     lambda: _ring_dot_deviation(
         11, 2, 5, lambda t: 1.0 - 2.0 * math.cos(math.pi / 22) ** 2 * math.sin(t) ** 2)),
    ("v12-peak", "12-vector bouquet value at theta = 0.32477 pi",
     SOURCE_PAPER, 1.5209, 5e-4, lambda: v12_formula(0.32477 * math.pi)),
    ("v11-peak", "11-vector bouquet value at theta = 0.3303 pi",
     SOURCE_PAPER, 1.5168, 5e-4, lambda: v2k1_formula(5, 0.3303 * math.pi)),
    ("v12-formula-construction", "closed form matches the built configuration over a grid",
     SOURCE_DERIVED, 0.0, 1e-12, _v12_formula_vs_construction),
    ("bouquet-limit-3-2", "large-k bouquet value at pi/3 approaches 3/2",
     SOURCE_PAPER, 1.5, 2e-3, lambda: v2k1_formula(1000, math.pi / 3)),
    ("v12-exceeds-kg3-upper", "12-vector bouquet peak exceeds the 3d ratio bound 1.5163",
     SOURCE_PAPER, 1.0, 0.0,
     lambda: _bool(_scan(FAMILY_BOUQUET12).best_value > GROTHENDIECK.kg3_upper)),
    ("scan-b12-peak", "theta scan of the 12-vector bouquet peaks at 1.5209",
     SOURCE_PAPER, 1.5209, 5e-4, lambda: _scan(FAMILY_BOUQUET12).best_value),
    ("scan-b12-theta", "that peak sits at theta = 0.32477 pi",
     SOURCE_PAPER, 0.32477 * math.pi, 1e-3, lambda: _scan(FAMILY_BOUQUET12).best_theta),
    ("scan-b2k1-5-peak", "theta scan at k = 5 peaks at 1.5168",
     SOURCE_PAPER, 1.5168, 5e-4, lambda: _scan(FAMILY_BOUQUET2K1, 5).best_value),
    ("scan-b2k1-1000-peak", "theta scan at k = 1000 peaks near 3/2",
     SOURCE_PAPER, 1.5, 2e-3, lambda: _scan(FAMILY_BOUQUET2K1, 1000).best_value),
    ("scan-b2k1-1000-theta", "that peak sits near theta = pi/3",
     SOURCE_PAPER, math.pi / 3.0, 2e-3, lambda: _scan(FAMILY_BOUQUET2K1, 1000).best_theta),
    ("tsirelson-single-vector", "single-vector realization has correlation 1",
     SOURCE_PAPER, 1.0, 1e-10, _tsirelson_single),
    ("tsirelson-standard-settings", "realization of the standard settings passes all checks",
     SOURCE_DERIVED, 0.0, 1e-10, _tsirelson_chsh_deviation),
    ("bell22-point-outside", "the scaled singlet point lies outside the 2x2 polytope",
     SOURCE_PAPER, 1.0, 0.0, _bell22_outside),
    ("bell22-point-distance", "its hull distance is sqrt(2) - 1",
     SOURCE_DERIVED, _SQRT2 - 1.0, 1e-7, lambda: _bell22_singlet().distance),
    ("bell3-point-outside", "(-1/2,-1/2,-1/2) lies outside the three-variable polytope",
     SOURCE_PAPER, 1.0, 0.0, _bell3_outside),
    ("chsh-facet", "the 2x2 inequality is a facet of its polytope",
     SOURCE_PAPER, 1.0, 0.0, lambda: _is_facet(PolytopeSpec.bell_bipartite(2, 2), chsh())),
    ("triangle-facet", "the three-cycle inequality is a facet of its polytope",
     SOURCE_PAPER, 1.0, 0.0, lambda: _is_facet(PolytopeSpec.bell(3), triangle())),
    ("cliqueweb-cut-facet-5-2-1", "the (5,2,1) cut form is valid and facet-defining on cut(7)",
     SOURCE_DERIVED, 1.0, 0.0,
     lambda: _is_facet(PolytopeSpec.cut(7), to_cut_form(clique_web_inequality(WebSpec(5, 2, 1))))),
    ("werner-equal-settings", "visibility 0.8 correlation at equal settings is -0.8",
     SOURCE_PAPER, -0.8, 1e-15, _werner_equal_settings),
    ("symmetry-band-unit-visibility", "the transported band degenerates at visibility 1",
     SOURCE_PAPER, 0.0, 0.0, _band_width_at_unit_visibility),
    ("symmetry-band-example", "visibility 0.8 with E(XY) = -0.4 allows [0.2, 0.6]",
     SOURCE_DERIVED, 1.0, 0.0, _band_example),
    ("werner-0.8", "three-cycle critical visibility is exactly 0.8",
     SOURCE_PAPER, 0.8, 1e-12, _triangle_threshold_value),
    ("werner-cliqueweb-k500", "(2k+1)-bouquet threshold at k = 500 is near 0.8",
     SOURCE_PAPER, 0.8, 1e-3, _cliqueweb_threshold_k500),
    ("werner-chsh-embedded", "embedded 2x2 critical visibility is 1/sqrt(2)",
     SOURCE_PAPER, 1.0 / _SQRT2, 1e-9, _chsh_embedded_threshold),
    ("noise-bipartite-zero", "bipartite-supported coefficients have noise quantity 0",
     SOURCE_PAPER, 0.0, 0.0, _bipartite_noise_zero),
    ("noisy-triangle-0.9", "three-cycle violation at visibility 0.9 is 1.25",
     SOURCE_DERIVED, 1.25, 1e-12, _noisy_triangle),
    ("gram-triangle-ratio", "vector ascent on the three-cycle reaches ratio 3/2",
     SOURCE_PAPER, 1.5, 1e-6, lambda: _gram_ratio(triangle())),
    ("gram-chsh-ratio", "vector ascent on the embedded 2x2 reaches ratio sqrt(2)",
     SOURCE_PAPER, _SQRT2, 1e-6, lambda: _gram_ratio(chsh_embedded()[0])),
    ("planar-bipartite-kg2", "planar bipartite ratios stay within sqrt(2)",
     SOURCE_PAPER, 1.0, 0.0, _planar_bipartite_bound),
    ("ratio-probe-n3-max", "exhaustive 3-variable probe peaks at ratio 3/2",
     SOURCE_DERIVED, 1.5, 1e-6, _exhaustive_n3_max),
]


def claim_ids() -> list[str]:
    return [c[0] for c in _CLAIMS]


def run_claims(selected: list[str] | None = None) -> list[ReproductionRow]:
    """Recompute every claim (or a named subset) and report row by row.

    A failure in one computation is caught and reported on its row; it
    never aborts the rest of the table.  Shared quantities are computed
    once here and none survives the call.
    """
    wanted = set(selected) if selected is not None else None
    if wanted is not None:
        unknown = wanted - set(claim_ids())
        if unknown:
            raise BellboundError(f"unknown claim ids: {sorted(unknown)}")
    rows = []
    try:
        for claim_id, description, source, expected, tolerance, fn in _CLAIMS:
            if wanted is not None and claim_id not in wanted:
                continue
            try:
                computed = float(fn())
                passed = bool(abs(computed - expected) <= tolerance)
                error = None
            except BellboundError as exc:
                computed = None
                passed = False
                error = str(exc)
            rows.append(
                ReproductionRow(
                    claim_id=claim_id,
                    description=description,
                    source=source,
                    expected=expected,
                    computed=computed,
                    tolerance=tolerance,
                    passed=passed,
                    error=error,
                )
            )
    finally:
        for shared in _SHARED:
            shared.cache_clear()
    return rows
