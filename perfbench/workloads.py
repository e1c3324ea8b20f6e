"""The benchmark's workloads: seeded requests into bellbound with their checks.

A workload is a fixed cycle of L = 100 slots, one pass of the closed
loop.  Request k runs slot k mod L on inputs drawn from
``default_rng([seed, k])``, so the same seed gives the same inputs, a
different seed different ones, and no request repeats another's
instance.  Each slot fixes the operation and the instance size and the
seed fixes the numbers, so a slot's cost barely moves between its
requests; the run reports each slot's best latency over its passes (see
``run.py``).  The slots of a pass are shuffled once, by a fixed
permutation that does not depend on the seed, so that every kind of
request is spread over the pass.

Inputs are generated here with numpy alone.  The timed ``call`` builds
the program's input objects from them and calls the public API; the
untimed ``check`` compares the answer with the reference computations
in ``checks``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import bellbound as bb
import bellbound.cli
import checks

PROBE_SEED = 20070702


@dataclass
class Request:
    label: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], list]
    # (kind, n, m) of the polytope a geometry request queries
    polytope: tuple | None = None


def half_integer_weights(rng, count):
    return rng.choice([-1.0, -0.5, 0.5, 1.0], size=count)


def complete_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_inequality(n, pairs, rhs=1.0):
    return bb.PairwiseInequality(
        mode=bb.MODE_COMPLETE, n_left=n, n_right=0,
        coefficients={(i, j): w for i, j, w in pairs}, rhs=rhs,
    )


def inequality_json(n, pairs, rhs=1.0):
    return json.dumps({
        "mode": "complete", "n_left": n, "n_right": 0, "rhs": rhs,
        "coefficients": [{"i": i, "j": j, "value": w} for i, j, w in pairs],
    })


def unit_vectors(rng, count, dim):
    x = rng.normal(size=(count, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


def orthonormal_pair(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    return q[:, 0], q[:, 1]


# ============================================================================
# bounds: classical_bound and noise_quantity on unique instances
# ============================================================================

def shuffled(mix) -> list:
    """Expand (entry, count) pairs and shuffle them by a fixed permutation."""
    entries = [entry for entry, count in mix for _ in range(count)]
    return [entries[k] for k in np.random.default_rng(PROBE_SEED).permutation(len(entries))]


# ((family, size, operation), slots per pass); sizes are variable counts
# except for the clique-web (p, q, r) and bipartite (n_left, n_right)
# families.  Fourteen slots of 17-19 variables lie above the 90th
# percentile; the median falls among the 15- and 16-variable ones.
BOUNDS_MIX = [
    (("cliqueweb", (15, 4, 5), "classical"), 1),
    (("cliqueweb", (15, 4, 5), "noise"), 1),
    (("dense_exact", 18, "classical"), 3),
    (("dense_exact", 18, "noise"), 2),
    (("dense_float", 17, "classical"), 2),
    (("dense_float", 17, "noise"), 2),
    (("bipartite", (9, 9), "classical"), 2),
    (("cliqueweb", (15, 2, 6), "classical"), 2),
    (("cliqueweb", (15, 2, 6), "noise"), 1),
    (("dense_float", 16, "classical"), 3),
    (("dense_float", 16, "noise"), 2),
    (("dense_exact", 16, "classical"), 10),
    (("dense_exact", 16, "noise"), 10),
    (("bipartite", (8, 8), "classical"), 3),
    (("bipartite", (8, 8), "noise"), 2),
    (("dense_float", 15, "classical"), 4),
    (("dense_float", 15, "noise"), 3),
    (("dense_exact", 15, "classical"), 5),
    (("dense_exact", 15, "noise"), 5),
    (("dense_float", 14, "classical"), 5),
    (("dense_float", 14, "noise"), 4),
    (("dense_exact", 14, "classical"), 5),
    (("dense_exact", 14, "noise"), 5),
    (("cliqueweb", (12, 3, 4), "classical"), 3),
    (("cliqueweb", (12, 3, 4), "noise"), 2),
    (("cliqueweb", (13, 2, 5), "classical"), 2),
    (("cliqueweb", (13, 2, 5), "noise"), 2),
    (("cliqueweb", (11, 4, 3), "classical"), 1),
    (("cliqueweb", (11, 4, 3), "noise"), 2),
    (("bipartite", (7, 7), "classical"), 3),
    (("bipartite", (7, 7), "noise"), 3),
]
BOUNDS_SLOTS = shuffled(BOUNDS_MIX)


def switched_clique_web(rng, p, q, r):
    """A clique-web relabelled by a random permutation and sign switching.

    Both maps preserve the maximum q(r+1) but make every instance, its
    ties and its Gray-order argmax new.
    """
    n = p + q
    perm = rng.permutation(n)
    switch = rng.choice([-1.0, 1.0], size=n)
    pairs = []
    for i, j, w in checks.clique_web_pairs(p, q, r):
        a, b = sorted((int(perm[i]), int(perm[j])))
        pairs.append((a, b, w * switch[i] * switch[j]))
    return sorted(pairs)


def bounds_request(slot, rng) -> Request:
    family, size, op = slot
    expected = None
    if family == "cliqueweb":
        p, q, r = size
        n = p + q
        pairs = switched_clique_web(rng, p, q, r)
        expected = float(q * (r + 1))
    elif family == "bipartite":
        n_left, n_right = size
        n = n_left + n_right
        weights = half_integer_weights(rng, n_left * n_right)
        cross = [(i, j) for i in range(n_left) for j in range(n_right)]
        bip = {pair: float(w) for pair, w in zip(cross, weights)}
        pairs = [(i, n_left + j, w) for (i, j), w in bip.items()]
    else:
        n = size
        pp = complete_pairs(n)
        weights = rng.normal(size=len(pp)) if family == "dense_float" else half_integer_weights(rng, len(pp))
        pairs = [(i, j, float(w)) for (i, j), w in zip(pp, weights)]

    def make():
        if family == "bipartite":
            return bb.PairwiseInequality(
                mode=bb.MODE_BIPARTITE, n_left=n_left, n_right=n_right, coefficients=bip, rhs=1.0
            )
        return complete_inequality(n, pairs)

    if op == "classical":
        call = lambda: bb.classical_bound(make())
        check = lambda res: checks.check_sign_optimum(
            n, pairs, res.max_value, res.argmax.values, res.evaluations, expected
        )
    else:
        call = lambda: bb.noise_quantity(make())
        check = lambda res: checks.check_noise_quantity(n, pairs, res, family == "bipartite")
    return Request(f"{family}-{n}-{op}", {"pairs": pairs}, call, check)


# ============================================================================
# geometry: membership and facet_check, several queries per polytope
# ============================================================================

# ((kind, n, m, queries), groups per pass); the queries of a group are
# issued in a row against one polytope.
GEOMETRY_MIX = [
    (("bell", 13, 0, ("inside", "outside", "face", "facet_random")), 1),
    (("bell", 13, 0, ("face", "facet_random", "inside", "outside")), 1),
    (("bell", 12, 0, ("inside", "face", "outside", "facet_invalid")), 2),
    (("bell", 11, 0, ("outside", "inside", "facet_triangle", "face")), 1),
    (("bell", 10, 0, ("face", "inside", "outside", "facet_triangle")), 2),
    (("bell", 9, 0, ("inside", "facet_random", "face", "outside")), 1),
    (("bell", 8, 0, ("outside", "inside", "face", "facet_random")), 2),
    (("bell_bipartite", 6, 6, ("inside", "outside", "face", "facet_random")), 2),
    (("bell_bipartite", 6, 5, ("face", "inside", "facet_invalid", "outside")), 1),
    (("bell_bipartite", 5, 5, ("outside", "face", "inside", "facet_triangle")), 2),
    (("cut", 12, 0, ("inside", "face", "outside", "facet_random")), 2),
    (("cut", 11, 0, ("outside", "facet_invalid", "inside", "face")), 1),
    (("cut", 10, 0, ("face", "outside", "inside", "facet_triangle")), 2),
    (("cor", 11, 0, ("inside", "outside", "face", "facet_invalid")), 2),
    (("cor", 10, 0, ("facet_triangle", "face", "outside", "inside")), 1),
    (("cor", 9, 0, ("outside", "inside", "face", "facet_triangle")), 2),
]
GEOMETRY_SLOTS = [(kind, n, m, q) for kind, n, m, qs in shuffled(GEOMETRY_MIX) for q in qs]


# The benchmark's own vertex sets, built once per polytope for the checks.
vertex_table = functools.lru_cache(maxsize=None)(checks.polytope_vertices)


def bell_outside_point(rng, n):
    """Gram point of unit vectors in R^3 with one triple at 120 degrees.

    The triple breaks x_ab + x_ac + x_bc >= -1, valid on every vertex.
    """
    x = unit_vectors(rng, n, 3)
    u, v = orthonormal_pair(rng, 3)
    for k, idx in enumerate(rng.choice(n, size=3, replace=False)):
        angle = 2.0 * math.pi * k / 3.0
        x[idx] = math.cos(angle) * u + math.sin(angle) * v
    gram = x @ x.T
    return np.array([gram[i, j] for i, j in checks.coordinate_pairs("bell", n, 0)])


def bipartite_outside_point(rng, n, m):
    """Singlet correlations -x_i . y_j with one CHSH-optimal 2x2 block."""
    x = unit_vectors(rng, n, 3)
    y = unit_vectors(rng, m, 3)
    u, v = orthonormal_pair(rng, 3)
    a0, a1 = rng.choice(n, size=2, replace=False)
    b0, b1 = rng.choice(m, size=2, replace=False)
    x[a0], x[a1] = u, v
    y[b0], y[b1] = -(u + v) / math.sqrt(2.0), -(u - v) / math.sqrt(2.0)
    return (-(x @ y.T)).reshape(n * m)


def outside_point(rng, kind, n, m):
    if kind == "bell":
        return bell_outside_point(rng, n)
    if kind == "bell_bipartite":
        return bipartite_outside_point(rng, n, m)
    if kind == "cut":
        return (1.0 - bell_outside_point(rng, n)) / 2.0
    return checks.cut_to_cor((1.0 - bell_outside_point(rng, n + 1)) / 2.0, n)


def triangle_coefficients(rng, kind, n, m):
    """A known valid inequality of each family (a facet for the first three)."""
    pairs = checks.coordinate_pairs(kind, n, m)
    index = {pair: k for k, pair in enumerate(pairs)}
    c = np.zeros(len(pairs))
    if kind == "bell_bipartite":
        (a0, a1), (b0, b1) = rng.choice(n, 2, replace=False), rng.choice(m, 2, replace=False)
        for a, b, s in ((a0, b0, 1), (a0, b1, 1), (a1, b0, 1), (a1, b1, -1)):
            c[index[(a, b)]] = s
        return c, 2.0
    a, b, d = sorted(rng.choice(n, 3, replace=False))
    if kind == "bell":
        c[[index[(a, b)], index[(a, d)], index[(b, d)]]] = -1.0
        return c, 1.0
    if kind == "cut":
        c[index[(a, b)]], c[index[(a, d)]], c[index[(b, d)]] = 1.0, -1.0, -1.0
        return c, 0.0
    c[index[(a, b)]] = -1.0
    return c, 0.0


def geometry_request(slot, rng) -> Request:
    kind, n, m, query = slot
    verts = vertex_table(kind, n, m)
    spec = lambda: bb.PolytopeSpec(kind, n, m)
    key = (kind, n, m)
    if query.startswith("facet"):
        if query == "facet_triangle":
            coefficients, rhs = triangle_coefficients(rng, kind, n, m)
        else:
            coefficients = np.zeros(verts.shape[1])
            support = rng.choice(verts.shape[1], size=n, replace=False)
            coefficients[support] = rng.choice([-1.0, 1.0], size=n)
            rhs = float(np.max(verts @ coefficients)) - (1.0 if query == "facet_invalid" else 0.0)
        return Request(
            f"{kind}-{n}-{query}",
            {"coefficients": coefficients, "rhs": rhs},
            lambda: bb.facet_check(spec(), coefficients, rhs),
            lambda rep: checks.check_facet(rep, verts, coefficients, rhs),
            polytope=key,
        )
    if query == "outside":
        point = outside_point(rng, kind, n, m)
    else:
        rows = verts
        if query == "face":
            coord = int(rng.integers(verts.shape[1]))
            rows = verts[verts[:, coord] == verts[:, coord].max()]
        chosen = rows[rng.choice(len(rows), size=min(12, len(rows)), replace=False)]
        point = rng.dirichlet(np.ones(len(chosen))) @ chosen
    inside = query != "outside"
    return Request(
        f"{kind}-{n}-{query}",
        {"point": point},
        lambda: bb.membership(spec(), point),
        lambda cert: checks.check_membership(cert, point, verts, inside),
        polytope=key,
    )


# ============================================================================
# cli: bellbound.cli.main in process, stdout captured
# ============================================================================

# werner runs on three fixed webs, so its cost does not depend on the
# seed; the seed picks the bouquet angle, and every web and angle's output
# digest is in the reference.
WERNER_WEBS = ((12, 3, 4), (10, 3, 3), (8, 3, 2))
WERNER_THETAS = (0.28, 0.30, 0.31, 0.32, 0.33, 0.34, 0.36, 0.38)
CUT_FORM_WEBS = ((5, 2, 1), (7, 2, 2), (6, 3, 1), (8, 3, 2), (9, 2, 3), (7, 4, 1))

# Thirteen werner calls and reproduce-paper are the costliest fourteen
# slots; the 90th percentile falls in the middle of the eight (8, 3, 2)
# werner calls, and the median among maxcut, facet-check and member.
CLI_MIX = [
    (("werner", (12, 3, 4)), 1),
    (("werner", (10, 3, 3)), 4),
    (("werner", (8, 3, 2)), 8),
    (("reproduce-paper", None), 1),
    (("classical-bound", None), 8),
    (("gram", None), 8),
    (("maxcut", None), 14),
    (("member", None), 14),
    (("facet-check", None), 8),
    (("scan-theta", None), 10),
    (("tsirelson", None), 12),
    (("qvalue", None), 12),
]
CLI_SLOTS = shuffled(CLI_MIX)


class CliResult(NamedTuple):
    code: int
    stdout: str


def run_cli(argv) -> CliResult:
    """Run bellbound's CLI in process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = bellbound.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue())


def digest(code, text) -> list:
    return [code, hashlib.sha256(text.encode()).hexdigest()]


def werner_argv(p, q, r, theta_pi):
    vectors = checks.bouquet_vectors(p, q, theta_pi * math.pi).tolist()
    return ["werner", "--ineq", f"cliqueweb:{p},{q},{r}",
            "--vectors", json.dumps({"dim": 3, "vectors": vectors}), "--format", "json"]


def werner_key(p, q, r, theta_pi):
    return f"werner cliqueweb:{p},{q},{r} theta={theta_pi}pi"


def json_answer(check):
    """Wrap a check of the parsed JSON answer with the exit-code test."""
    def run(result):
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        return check(json.loads(text))
    return run


def cli_request(slot, rng, reference) -> Request:
    cmd, web = slot
    if cmd in ("werner", "reproduce-paper"):
        if cmd == "werner":
            theta = WERNER_THETAS[int(rng.integers(len(WERNER_THETAS)))]
            argv, key = werner_argv(*web, theta), werner_key(*web, theta)
        else:
            argv, key = ["reproduce-paper"], "reproduce-paper"
        want = reference["cli"].get(key)
        check = lambda res: [] if digest(*res) == want else [f"{key}: stdout or exit code differs from the reference"]
        return Request(cmd, {"argv": argv}, lambda: run_cli(argv), check)

    if cmd in ("classical-bound", "maxcut", "gram", "qvalue"):
        n = {"classical-bound": 15, "maxcut": 14, "gram": 9, "qvalue": 12}[cmd]
        pp = complete_pairs(n)
        pairs = [(i, j, float(w)) for (i, j), w in zip(pp, half_integer_weights(rng, len(pp)))]
        argv = [cmd, "--ineq", inequality_json(n, pairs, rhs=2.0), "--format", "json"]
        w = checks.symmetric(n, pairs)
        if cmd == "classical-bound":
            check = lambda d: checks.check_sign_optimum(n, pairs, d["max_value"], d["argmax"], d["evaluations"])
        elif cmd == "maxcut":
            total = sum(abs(c) for _, _, c in pairs)
            low, _ = checks.brute_force_max(-np.abs(w), True)
            check = lambda d: [] if checks.close(d["value"], 0.5 * (total - low)) else [f"maxcut value {d['value']!r}"]
        elif cmd == "gram":
            seed = int(rng.integers(1000))
            argv += ["--restarts", "8", "--seed", str(seed)]
            bound, _ = checks.brute_force_max(w, True)

            def check(d):
                x = np.array(d["vectors"])
                objective = 0.5 * float(np.sum(w * (x @ x.T)))
                problems = [] if checks.close(objective, d["objective"], 1e-8) else [f"objective {d['objective']!r}"]
                if d["classical_bound"] != bound:
                    problems.append(f"classical bound {d['classical_bound']!r} != {bound!r}")
                return problems
        else:
            vectors = unit_vectors(rng, n, 3)
            argv += ["--vectors", json.dumps(vectors.tolist())]
            want = 0.5 * float(np.sum(w * (vectors @ vectors.T))) / 2.0
            check = lambda d: [] if checks.close(d["value"], want) else [f"qvalue {d['value']!r} != {want!r}"]
        return Request(cmd, {"argv": argv}, lambda: run_cli(argv), json_answer(check))

    if cmd == "member":
        kind, n = (("bell", 10), ("cut", 9), ("cor", 8))[int(rng.integers(3))]
        verts = checks.polytope_vertices(kind, n)
        inside = bool(rng.integers(2))
        if inside:
            chosen = verts[rng.choice(len(verts), size=10, replace=False)]
            point = rng.dirichlet(np.ones(10)) @ chosen
        else:
            point = outside_point(rng, kind, n, 0)
        argv = ["member", "--polytope", f"{kind}:{n}", "--point", json.dumps(point.tolist()), "--format", "json"]

        def check(d):
            if d["inside"] != inside:
                return [f"member answered inside={d['inside']}, constructed inside={inside}"]
            if inside:
                return []
            normal, offset = np.array(d["separating"]["normal"]), d["separating"]["offset"]
            if float(np.max(verts @ normal)) > offset + 1e-9 or not float(normal @ point) > offset:
                return ["member hyperplane does not separate"]
            return []

        return Request(cmd, {"argv": argv}, lambda: run_cli(argv), json_answer(check))

    if cmd == "facet-check":
        p, q, r = CUT_FORM_WEBS[int(rng.integers(len(CUT_FORM_WEBS)))]
        n = p + q
        argv = ["facet-check", "--polytope", f"cut:{n}", "--ineq", f"cliqueweb:{p},{q},{r}",
                "--cut-form", "--format", "json"]
        pairs = checks.clique_web_pairs(p, q, r)
        index = {pair: k for k, pair in enumerate(checks.coordinate_pairs("cut", n, 0))}
        c = np.zeros(len(index))
        for i, j, w in pairs:
            c[index[(i, j)]] = -w
        rhs = (q * (r + 1) - sum(w for _, _, w in pairs)) / 2.0
        verts = checks.polytope_vertices("cut", n)

        def check(d):
            valid, count, rank = checks.facet_facts(verts, c, rhs)
            got = (d["valid"], d["tight_count"], d["affine_rank"], d["is_facet"])
            want = (valid, count, rank, valid and rank == len(index) - 1)
            return [] if got == want else [f"facet-check {got} != {want}"]

        return Request(cmd, {"argv": argv}, lambda: run_cli(argv), json_answer(check))

    if cmd == "tsirelson":
        count, dim = int(rng.integers(4, 9)), int(rng.integers(3, 9))
        argv = ["tsirelson", "--vectors", json.dumps(unit_vectors(rng, count, dim).tolist()), "--format", "json"]

        def check(d):
            problems = [] if d["passed"] is True else ["tsirelson realization did not pass"]
            if d["dimension"] != 2 ** math.ceil(dim / 2):
                problems.append(f"dimension {d['dimension']}")
            return problems

        return Request(cmd, {"argv": argv}, lambda: run_cli(argv), json_answer(check))

    # scan-theta
    k = int(rng.integers(2, 200))
    points = int(rng.integers(200, 1025))
    argv = ["scan-theta", "--family", "b2k1", "--k", str(k), "--points", str(points), "--format", "json"]

    def check(d):
        curve = checks.bouquet_curve(2 * k + 1, 2, k - 1, d["best_theta"])
        ok = checks.close(curve, d["best_value"], 1e-8) and len(d["grid"]) == points
        return [] if ok else [f"scan-theta best_value {d['best_value']!r} vs bouquet {curve!r}"]

    return Request(cmd, {"argv": argv}, lambda: run_cli(argv), json_answer(check))


# ============================================================================
# workload objects, warm-up and the reference probes
# ============================================================================


class Workload:
    """A named cycle of slots turned into seeded requests."""

    def __init__(self, name, seed, reference):
        self.name = name
        self.seed = seed % 2**64  # SeedSequence takes non-negative entropy
        self.reference = reference
        self.slots = {
            "bounds": BOUNDS_SLOTS,
            "geometry": GEOMETRY_SLOTS,
            "cli": CLI_SLOTS,
        }[name]

    def request(self, index: int) -> Request:
        slot = self.slots[index % len(self.slots)]
        rng = np.random.default_rng([self.seed, index])
        if self.name == "bounds":
            return bounds_request(slot, rng)
        if self.name == "geometry":
            return geometry_request(slot, rng)
        return cli_request(slot, rng, self.reference)

    def probes(self) -> list:
        """Fixed requests whose answers must equal the recorded reference."""
        want = self.reference.get(self.name, {})
        out = []
        for label, call, summarize in PROBES[self.name]():
            def check(result, label=label, summarize=summarize):
                got = summarize(result)
                if label not in want:
                    return [f"probe {label} has no recorded reference"]
                return [] if got == want[label] else [f"probe {label}: {got} != recorded {want[label]}"]
            out.append(Request(f"probe:{label}", {}, call, check))
        return out


def warm_up():
    """Touch every layer once on tiny inputs, BLAS included."""
    spec = bb.PolytopeSpec.bell(3)
    bb.classical_bound(bb.clique_web_inequality(bb.WebSpec(5, 2, 1)))
    bb.noise_quantity(bb.chsh())
    bb.membership(spec, np.zeros(spec.ambient_dim))
    bb.facet_check(spec, *bb.ambient_coefficients(spec, bb.triangle()))
    bb.gram_ascent({(0, 1): 1.0, (1, 2): -1.0}, 3, 3, restarts=2)
    config = bb.UnitVectorConfig(np.eye(12)[:2])
    bb.verify_realization(bb.realize(config), config)
    bb.scan_theta(bb.FAMILY_BOUQUET12, grid_points=16)
    np.linalg.matrix_rank(np.eye(4))
    run_cli(["classical-bound", "--ineq", "chsh", "--format", "json"])


def g12(x) -> str:
    return f"{x:.12g}"


def bound_summary(res):
    return [g12(res.max_value), list(res.argmax.values), res.evaluations]


def bounds_probes():
    rng = np.random.default_rng(PROBE_SEED)
    out = []
    for n in (10, 12, 14):
        pairs = [(i, j, float(w)) for (i, j), w in zip(complete_pairs(n), half_integer_weights(rng, n * (n - 1) // 2))]
        out.append((f"dense-exact-{n}", lambda pairs=pairs, n=n: bb.classical_bound(complete_inequality(n, pairs)), bound_summary))
    for pqr in ((12, 3, 4), (9, 2, 3)):
        pairs = switched_clique_web(rng, *pqr)
        n = pqr[0] + pqr[1]
        out.append((f"cliqueweb-{pqr}", lambda pairs=pairs, n=n: bb.classical_bound(complete_inequality(n, pairs)), bound_summary))
    out.append(("cliqueweb-12-3-4-plain", lambda: bb.classical_bound(bb.clique_web_inequality(bb.WebSpec(12, 3, 4))), bound_summary))
    pairs = [(i, j, float(w)) for (i, j), w in zip(complete_pairs(12), rng.normal(size=66))]
    out.append(("noise-float-12", lambda: bb.noise_quantity(complete_inequality(12, pairs)),
                lambda res: [g12(res.value), list(res.partition.values), res.evaluations]))
    return out


def geometry_probes():
    rng = np.random.default_rng(PROBE_SEED)
    out = []
    for kind, n, m in (("bell", 7, 0), ("cut", 8, 0), ("cor", 6, 0), ("bell_bipartite", 3, 4)):
        verts = checks.polytope_vertices(kind, n, m)
        for name in ("triangle", "random"):
            if name == "triangle":
                c, rhs = triangle_coefficients(rng, kind, n, m)
            else:
                c = rng.choice([-1.0, 0.0, 1.0], size=verts.shape[1])
                rhs = float(np.max(verts @ c))
            out.append((f"facet-{kind}-{n}-{m}-{name}",
                        lambda spec=bb.PolytopeSpec(kind, n, m), c=c, rhs=rhs: bb.facet_check(spec, c, rhs),
                        lambda rep: [rep.valid, rep.tight_count, rep.affine_rank, rep.ambient_dim]))
        point = outside_point(rng, kind, n, m)
        out.append((f"member-{kind}-{n}-{m}",
                    lambda spec=bb.PolytopeSpec(kind, n, m), point=point: bb.membership(spec, point),
                    lambda cert: [cert.inside, f"{cert.distance:.6g}"]))
    return out


def api_vector_probes():
    """Seeded Gram and ratio objectives and the 12-vector scan, via the API."""
    rng = np.random.default_rng(PROBE_SEED)
    out = []
    for n, dim in ((8, 8), (12, 3)):
        coefficients = {pair: float(w) for pair, w in zip(complete_pairs(n), rng.normal(size=n * (n - 1) // 2))}
        out.append((f"gram-{n}-{dim}", lambda c=coefficients, n=n, dim=dim: bb.gram_ascent(c, n, dim, restarts=6, seed=5),
                    lambda res: [g12(res.objective), res.sweeps, [g12(v) for v in res.restart_objectives]]))
    out.append(("ratio-7-4", lambda: bb.ratio_probe(7, 4, seed=3, restarts=4),
                lambda res: [g12(res.max_ratio), [g12(r) for r in res.ratios]]))
    out.append(("scan-b12", lambda: bb.scan_theta(bb.FAMILY_BOUQUET12),
                lambda res: [g12(res.best_theta), g12(res.best_value)]))
    return out


def cli_probes():
    commands = {
        "classical-bound cliqueweb:12,3,4": ["classical-bound", "--ineq", "cliqueweb:12,3,4"],
        "facet-check cut:7 cliqueweb:5,2,1": ["facet-check", "--polytope", "cut:7", "--ineq", "cliqueweb:5,2,1", "--cut-form"],
        "gram chsh": ["gram", "--ineq", "chsh", "--restarts", "16", "--seed", "7", "--format", "csv"],
        "member bell22": ["member", "--polytope", "bell22", "--point", "[0.7071, 0.7071, 0.7071, -0.7071]"],
        "bad polytope": ["member", "--polytope", "bell:x", "--point", "[0]"],
    }
    cli = [(label, lambda argv=argv: run_cli(argv), lambda res: digest(*res)) for label, argv in commands.items()]
    return cli + api_vector_probes()


PROBES = {"bounds": bounds_probes, "geometry": geometry_probes, "cli": cli_probes}


def record_reference() -> dict:
    """Answers of the current program to every probe and menu command."""
    reference = {}
    for name, make in PROBES.items():
        reference[name] = {label: summarize(call()) for label, call, summarize in make()}
    menu = {werner_key(*web, t): werner_argv(*web, t) for web in WERNER_WEBS for t in WERNER_THETAS}
    menu["reproduce-paper"] = ["reproduce-paper"]
    reference["cli"].update({key: digest(*run_cli(argv)) for key, argv in menu.items()})
    return reference
