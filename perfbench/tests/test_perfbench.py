"""Tests of the benchmark itself: seeded inputs, answer checks and tracing.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bellbound as bb  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
NAMES = ("bounds", "geometry", "cli")


def canonical(inputs) -> str:
    return json.dumps(inputs, sort_keys=True, default=lambda x: np.asarray(x).tolist())


def first_cycle(name, seed):
    workload = workloads.Workload(name, seed, REFERENCE)
    return [canonical(workload.request(k).inputs) for k in range(len(workload.slots))]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert first_cycle(name, 7) == first_cycle(name, 7)
    other = first_cycle(name, 8)
    differing = sum(a != b for a, b in zip(first_cycle(name, 7), other))
    # reproduce-paper takes no input, and some cli slots pick from short menus
    assert differing >= 0.75 * len(other)


def test_requests_within_a_run_do_not_repeat():
    workload = workloads.Workload("bounds", 3, REFERENCE)
    seen = [canonical(workload.request(k).inputs) for k in range(2 * len(workload.slots))]
    assert len(set(seen)) == len(seen)


def test_latencies_are_divided_by_the_host_slowdown():
    phase = run.Phase(2)
    request = workloads.Request("slot", {}, None, None)
    phase.record(request, 0.010, 1.0, [], None)
    phase.record(request, 0.030, 1.5, [], None)
    assert phase.latencies == pytest.approx([0.010, 0.020])
    assert phase.busy == pytest.approx(0.040)
    assert phase.passes == 1
    assert phase.throughput == pytest.approx(2 / 0.030)


def dense_exact(n, seed):
    rng = np.random.default_rng(seed)
    weights = workloads.half_integer_weights(rng, n * (n - 1) // 2)
    return [(i, j, float(w)) for (i, j), w in zip(workloads.complete_pairs(n), weights)]


def test_sign_check_accepts_the_program_and_catches_a_planted_wrong_bound():
    n = 11
    pairs = dense_exact(n, 1)
    res = bb.classical_bound(workloads.complete_inequality(n, pairs))
    args = (n, pairs, res.max_value, res.argmax.values, res.evaluations)
    assert checks.check_sign_optimum(*args) == []
    assert checks.check_sign_optimum(n, pairs, res.max_value + 0.5, *args[3:])
    assert checks.check_sign_optimum(n, pairs, res.max_value, res.argmax.values, res.evaluations - 1)


def test_sign_check_catches_a_tied_argmax_out_of_gray_order():
    p, q, r = 7, 2, 2
    n = p + q
    pairs = checks.clique_web_pairs(p, q, r)
    res = bb.classical_bound(workloads.complete_inequality(n, pairs))
    w = checks.symmetric(n, pairs)
    signs = checks.gray_order_signs(n)
    values = [checks.form_value(w, s) for s in signs]
    tied = [tuple(int(v) for v in s) for s, v in zip(signs, values) if v == res.max_value]
    assert len(tied) > 1 and tied[0] == res.argmax.values
    assert checks.check_sign_optimum(n, pairs, res.max_value, tied[0], res.evaluations, 6.0) == []
    assert checks.check_sign_optimum(n, pairs, res.max_value, tied[1], res.evaluations, 6.0)


def test_noise_check_catches_a_wrong_partition():
    n = 10
    pairs = dense_exact(n, 2)
    res = bb.noise_quantity(workloads.complete_inequality(n, pairs))
    assert checks.check_noise_quantity(n, pairs, res, bipartite=False) == []
    wrong = dataclasses.replace(res, value=res.value + 0.5, max_cut=res.max_cut - 0.5)
    assert checks.check_noise_quantity(n, pairs, wrong, bipartite=False)


def test_membership_check_catches_a_wrong_certificate():
    rng = np.random.default_rng(4)
    point = workloads.outside_point(rng, "bell", 6, 0)
    verts = checks.polytope_vertices("bell", 6)
    cert = bb.membership(bb.PolytopeSpec.bell(6), point)
    assert checks.check_membership(cert, point, verts, inside=False) == []
    assert checks.check_membership(cert, point, verts, inside=True)
    sep = cert.separating
    lowered = dataclasses.replace(sep, offset=sep.offset - 0.1)
    assert checks.check_membership(dataclasses.replace(cert, separating=lowered), point, verts, False)
    tilted = dataclasses.replace(sep, normal=-sep.normal)
    assert checks.check_membership(dataclasses.replace(cert, separating=tilted), point, verts, False)


def test_facet_check_catches_a_wrong_rank():
    verts = checks.polytope_vertices("cut", 6)
    c, rhs = workloads.triangle_coefficients(np.random.default_rng(0), "cut", 6, 0)
    rep = bb.facet_check(bb.PolytopeSpec.cut(6), c, rhs)
    assert rep.is_facet and checks.check_facet(rep, verts, c, rhs) == []
    assert checks.check_facet(dataclasses.replace(rep, affine_rank=rep.affine_rank - 1), verts, c, rhs)


def test_own_vertices_match_the_program():
    for kind, n, m in (("bell", 5, 0), ("bell_bipartite", 2, 3), ("cut", 5, 0), ("cor", 4, 0)):
        mine = {tuple(row) for row in checks.polytope_vertices(kind, n, m).tolist()}
        theirs = {tuple(row) for row in bb.vertices(bb.PolytopeSpec(kind, n, m)).tolist()}
        assert mine == theirs


def test_cli_digest_check_catches_changed_output():
    reference = json.loads(json.dumps(REFERENCE))
    workload = workloads.Workload("cli", 1, reference)
    index = workload.slots.index(("reproduce-paper", None))
    request = workload.request(index)
    result = request.call()
    assert request.check(result) == []
    assert request.check((result[0], result[1] + "\n"))
    assert request.check((1, result[1]))


def test_tracer_nests_spans_restores_names_and_leaves_stdout_alone():
    argv = ["classical-bound", "--ineq", "cliqueweb:7,2,2", "--format", "json"]
    plain = workloads.run_cli(argv)
    original = bb.classical_bound
    tracer = Tracer()
    with tracer.installed():
        assert bb.classical_bound is not original
        tracer.begin_request(0)
        traced = workloads.run_cli(argv)
        tracer.finish()
    assert bb.classical_bound is original
    assert traced == plain
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert "cli.main" in names and "enumeration.max_over_signs" in names
    enum = names.index("enumeration.max_over_signs")
    parents = []
    k = tracer.spans[enum][4]
    while k >= 0:
        parents.append(names[k])
        k = tracer.spans[k][4]
    assert "inequalities.classical_bound" in parents and parents[-1] == "cli.main"
    self_s = tracer.self_times()
    main = tracer.spans[names.index("cli.main")]
    assert 0 <= self_s["cli.main"] <= main[3] - main[2]
    assert abs(sum(self_s.values()) - (main[3] - main[2])) < 1e-6
    assert tracer.counters["enumeration.evaluations"] == 2 ** 8
    assert tracer.cubes_per_request == 1


def test_tracer_counts_enumerations_inside_outermost_noise_calls():
    ring = [[1.0, 0.0], [-0.5, 3 ** 0.5 / 2], [-0.5, -(3 ** 0.5) / 2]]
    argv = ["werner", "--ineq", "triangle", "--vectors", json.dumps(ring), "--points", "4"]
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_request(0)
        result = workloads.run_cli(argv)
        tracer.finish()
    assert result.code == 0
    # partitioned_threshold and four noisy_violation rows, two enumerations each;
    # the CLI's own normalization enumerates once more, outside any noise call
    assert tracer.nested_calls("noise.", "enumeration.max_over_signs") == (5, 10)
    assert tracer.counters["enumeration.enumerations"] == 11
    # the triangle is already normalized and min_over_signs negates |b| back
    # to -1 on every pair, so all eleven walks enumerate one and the same form
    assert tracer.cubes_per_request == 1
