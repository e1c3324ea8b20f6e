"""End-to-end command-line behavior, run in process."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from bellbound import (
    PairwiseInequality,
    UnitVectorConfig,
    WebSpec,
    clique_web_inequality,
    realize,
    vertices,
    web_edges,
)
from bellbound.cli import main, parse_polytope

SQRT2 = math.sqrt(2.0)

RING3 = json.dumps(
    {
        "vectors": [
            [1.0, 0.0],
            [-0.5, math.sqrt(3.0) / 2.0],
            [-0.5, -math.sqrt(3.0) / 2.0],
        ]
    }
)

CHSH_VECTORS = json.dumps(
    {
        "vectors": [
            [-SQRT2 / 2, SQRT2 / 2, 0.0],
            [SQRT2 / 2, SQRT2 / 2, 0.0],
            [0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],
        ]
    }
)

SINGLET_POINT = json.dumps([SQRT2 / 2, SQRT2 / 2, SQRT2 / 2, -SQRT2 / 2])


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_web_json(capsys):
    code, out, _ = run(
        capsys, ["web", "--p", "5", "--q", "2", "--r", "1", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out) == web_edges(WebSpec(5, 2, 1)).to_json_dict()


def test_web_csv_keeps_its_header_without_edges(capsys):
    code, out, _ = run(capsys, ["web", "--p", "4", "--q", "3", "--r", "0", "--antiweb",
                                "--format", "csv"])
    assert code == 0
    assert out == "i,j\n"
    code, out, _ = run(capsys, ["web", "--p", "5", "--q", "2", "--r", "1", "--antiweb",
                                "--format", "csv"])
    assert code == 0
    assert out == "i,j\n0,1\n0,4\n1,2\n2,3\n3,4\n"


def test_web_table_keeps_its_header_without_edges(capsys):
    code, out, _ = run(capsys, ["web", "--p", "4", "--q", "3", "--r", "0", "--antiweb"])
    assert code == 0
    assert out == "n: 4\nedges: []\ni  j\n"


def test_cliqueweb_json_round_trip(capsys):
    code, out, _ = run(
        capsys, ["cliqueweb", "--p", "7", "--q", "2", "--r", "2", "--format", "json"]
    )
    assert code == 0
    back = PairwiseInequality.from_json_dict(json.loads(out))
    assert back == clique_web_inequality(WebSpec(7, 2, 2))


def test_classical_bound_chsh(capsys):
    code, out, _ = run(capsys, ["classical-bound", "--ineq", "chsh", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["max_value"] == 1.0
    assert len(data["argmax"]) == 4


def test_qvalue_triangle(capsys):
    code, out, _ = run(
        capsys,
        ["qvalue", "--ineq", "triangle", "--vectors", RING3, "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1.5
    assert data["violated"] is True
    assert data["transported"] is True


def test_qvalue_raw_singlet(capsys):
    code, out, _ = run(
        capsys,
        [
            "qvalue",
            "--ineq",
            "triangle",
            "--vectors",
            RING3,
            "--raw-singlet",
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == -1.5
    assert data["violated"] is False


def test_member_singlet_point(capsys):
    code, out, _ = run(
        capsys,
        ["member", "--polytope", "bell22", "--point", SINGLET_POINT, "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["inside"] is False
    assert data["distance"] == pytest.approx(SQRT2 - 1.0, abs=1e-7)
    assert data["separating"]["normal"] == [0.5, 0.5, 0.5, -0.5]


def test_member_far_point_is_verified_outside(capsys):
    # squared distances to this point overflow; it is projected from a
    # scaled copy, and the hyperplane is still checked on every vertex
    code, out, err = run(
        capsys, ["member", "--polytope", "bell:3", "--point", "[1e300,0,0]", "--format", "json"]
    )
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert data["inside"] is False
    assert data["distance"] == 1e300
    assert data["separating"]["offset"] == 1.0
    assert data["separating"]["normal"][0] == 1.0


# sha256 of member --format json over MEMBER_POLYTOPES x five seeded points,
# recorded before the Grothendieck ratio and the Werner terms had one owner each
MEMBER_SHA256 = "e19dbebd02ecc8b0860b8cbaf603677fc9bfdf72313ce7d464578f4fee8cfbd7"
MEMBER_POLYTOPES = (
    "bell:4", "bell:5", "bell:6", "bell:7", "bell:8", "bell:9", "cut:6", "cor:5", "bell:3,4",
)


def _member_points(rng, verts):
    """Two inside points, one on an edge, and two outside, in that order.

    Each coordinate is one correctly rounded operation on integers or
    dyadic fractions, so the queries are the same bits everywhere.
    """
    rows = len(verts)
    centroid = verts.sum(axis=0) / rows
    weights = (rng.random(rows) * 16).astype(np.int64) + 1
    a = int(rng.random() * rows)
    b = (a + 1 + int(rng.random() * (rows - 1))) % rows
    v = verts[int(rng.random() * rows)]
    w = verts[int(rng.random() * rows)]
    # any two vertices of these polytopes span an edge; a vertex pushed
    # away from the centroid leaves the polytope
    return (
        centroid,
        (weights @ verts) / weights.sum(),
        (verts[a] + verts[b]) / 2,
        v + (v - centroid) / 64,
        w + 2 * (w - centroid),
    )


def test_member_output_is_unchanged(capsys):
    rng = np.random.default_rng(20261018)
    lines = []
    for name in MEMBER_POLYTOPES:
        for point in _member_points(rng, vertices(parse_polytope(name))):
            argv = ["member", "--polytope", name, "--point", json.dumps(point.tolist()),
                    "--format", "json"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            lines.append(out)
    assert [json.loads(line)["inside"] for line in lines] == ([True] * 3 + [False] * 2) * 9
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == MEMBER_SHA256


def test_facet_check_chsh(capsys):
    code, out, _ = run(
        capsys,
        ["facet-check", "--polytope", "bell22", "--ineq", "chsh", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["is_facet"] is True


def test_facet_check_cut_form(capsys):
    code, out, _ = run(
        capsys,
        [
            "facet-check",
            "--polytope",
            "cut7",
            "--ineq",
            "cliqueweb:5,2,1",
            "--cut-form",
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["is_facet"] is True


def test_tsirelson_passes(capsys):
    code, out, _ = run(
        capsys, ["tsirelson", "--vectors", CHSH_VECTORS, "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["dimension"] == 4
    assert data["correlation"] < 1e-10


def test_tsirelson_honours_the_guard(capsys, monkeypatch):
    # 13 coordinates need 13 generators, one past the default of 12
    vectors = json.dumps([[1.0] + [0.0] * 12])
    monkeypatch.delenv("BELLBOUND_GUARD", raising=False)
    code, out, err = run(capsys, ["tsirelson", "--vectors", vectors, "--format", "json"])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimitError"
    assert "guard of 12" in payload["message"]
    code, out, _ = run(
        capsys, ["tsirelson", "--vectors", vectors, "--guard", "13", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 128
    assert data["passed"] is True


# sha256 of tsirelson --dump-operators on CHSH_VECTORS, per format
DUMP_PINNED = {
    "json": "87cd558e3a9a30c8499656e4cdba2f5f31d1ae830f8ab3af4564bd7cca852709",
    "table": "9cb2e701b0cd63c9a4d4ce2fdac6ba9fdf27b4f0fdde5b041ef03d5b1f599844",
}


@pytest.mark.parametrize("fmt", sorted(DUMP_PINNED))
def test_tsirelson_dump_operators_is_pinned(capsys, fmt):
    argv = ["tsirelson", "--vectors", CHSH_VECTORS, "--dump-operators", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_PINNED[fmt]


def test_tsirelson_dump_operators_matches_the_realization(capsys):
    argv = ["tsirelson", "--vectors", CHSH_VECTORS, "--dump-operators", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    dumped = json.loads(out)["operators"]
    realization = realize(UnitVectorConfig.from_json_dict(json.loads(CHSH_VECTORS)))
    round12 = np.vectorize(lambda x: float(f"{x:.12g}"))

    def pairs(z):
        return round12(np.stack([np.real(z), np.imag(z)], axis=-1))

    assert np.array_equal(dumped["a"], pairs(realization.a_operators))
    assert np.array_equal(dumped["b"], pairs(realization.b_operators))
    assert np.array_equal(dumped["state"], pairs(realization.state))


def test_werner_single_eta(capsys):
    code, out, _ = run(
        capsys,
        [
            "werner",
            "--ineq",
            "triangle",
            "--vectors",
            RING3,
            "--eta",
            "0.9",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eta,violation"
    assert lines[1] == "0.9,1.25"


def test_werner_table_and_threshold(capsys):
    code, out, _ = run(
        capsys,
        [
            "werner",
            "--ineq",
            "triangle",
            "--vectors",
            RING3,
            "--points",
            "10",
            "--format",
            "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["eta_threshold"] == 0.8
    assert data["violation_possible"] is True
    assert len(data["table"]) == 10


@pytest.mark.parametrize("points", ["0", "-3"])
def test_werner_refuses_an_empty_table(capsys, points):
    argv = ["werner", "--ineq", "triangle", "--vectors", RING3, "--points", points,
            "--format", "json"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert "--points" in payload["message"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_json_prints_a_non_finite_threshold_as_null(capsys):
    # three equal vectors give N + Q <= 0 on the triangle: no finite threshold
    argv = ["werner", "--ineq", "triangle", "--vectors", "[[0,0,1],[0,0,1],[0,0,1]]",
            "--points", "2"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    data = json.loads(out, parse_constant=_refuse_constant)
    assert data["eta_threshold"] is None
    assert data["violation_possible"] is False
    # the table keeps inf
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "eta_threshold: inf" in out.splitlines()


def test_malformed_cliqueweb_name_is_not_read_as_a_file(capsys):
    code, out, err = run(capsys, ["classical-bound", "--ineq", "cliqueweb:5,2"])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert "cliqueweb:p,q,r" in payload["message"]


def test_maxcut_triangle(capsys):
    code, out, _ = run(capsys, ["maxcut", "--ineq", "triangle", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1.0
    assert data["max_cut"] == 2.0


def test_scan_theta_b12(capsys):
    code, out, _ = run(
        capsys, ["scan-theta", "--family", "b12", "--points", "128", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["grid"]) == 128
    assert data["best_value"] == pytest.approx(1.5209, abs=5e-4)
    assert data["violation_interval"][0] == 0.0


def test_gram_chsh_ratio(capsys):
    code, out, _ = run(
        capsys, ["gram", "--ineq", "chsh", "--restarts", "8", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] == pytest.approx(SQRT2, abs=1e-6)
    assert data["classical_bound"] == 1.0
    vectors = np.asarray(data["vectors"])
    assert np.max(np.abs(np.linalg.norm(vectors, axis=1) - 1.0)) < 1e-9


def test_gram_byte_determinism(capsys):
    argv = ["gram", "--ineq", "triangle", "--restarts", "6", "--seed", "3",
            "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# sha256 of gram --restarts 70 --seed 5 stdout, per inequality and format;
# chsh is bipartite, so it pins the ascent on the joint variable list
GRAM_PINNED = {
    ("chsh", "csv"): "411e9b5dde32b73edaeab804774dd85dcf8d1cfc7fcb7703d5713f2b3b444234",
    ("chsh", "json"): "6fd09b5dccb1109548e6041b9962382110e75cf54f4fd75a27c47e903a3dbaf7",
    ("chsh", "table"): "c1a65ea4964a6618302337fa016664baa3f62f6c67dfa89b6d326a7d90313efd",
    ("triangle", "csv"): "c89329c0cfd1871549de2639f6523044782838131f10e2e255bc04ab1b5b7a11",
    ("triangle", "json"): "5f2eaf7e625ec7664126a26e5e3368e3baef46f4b52cbe9482ef401e004e225f",
    ("triangle", "table"): "3d5fb077dcd6e59b913d92c510ccb5795a5a3da5787c4f4cf94a4138de6424d9",
    ("cliqueweb:5,2,1", "csv"): "f00d465ba8de82fa09bce32975e70202db21f945df49a0d7e93a7ff91b45e368",
    ("cliqueweb:5,2,1", "json"): "bca093eb134eddac6870d09266b545103d1b412b66e00cc4381748e5a5c56e34",
    ("cliqueweb:5,2,1", "table"): "519fb7bf56c65ac843d630f1505dce1c05ba7380b8129f77bbb721b07027ac7b",
}


@pytest.mark.parametrize("ineq, fmt", sorted(GRAM_PINNED))
def test_gram_output_is_pinned(capsys, ineq, fmt):
    argv = ["gram", "--ineq", ineq, "--restarts", "70", "--seed", "5", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GRAM_PINNED[ineq, fmt]


def test_gram_refuses_an_oversized_inequality_before_the_ascent(capsys, monkeypatch):
    def ascent_must_not_run(*args, **kwargs):
        raise AssertionError("gram_ascent ran before the guard refused")

    monkeypatch.delenv("BELLBOUND_GUARD", raising=False)
    monkeypatch.setattr("bellbound.optimize.gram_ascent", ascent_must_not_run)
    code, out, err = run(capsys, ["gram", "--ineq", "cliqueweb:61,2,29"])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"


def test_gram_refuses_bad_sizes_before_the_enumeration(capsys, monkeypatch):
    def enumeration_must_not_run(*args, **kwargs):
        raise AssertionError("the sign optimum was enumerated before the sizes were checked")

    monkeypatch.setattr("bellbound.enumeration.max_over_signs", enumeration_must_not_run)
    for flags, message in ((["--dim", "0"], "dim must lie in 1..4, got 0"),
                           (["--restarts", "0"], "need at least one restart")):
        code, out, err = run(capsys, ["gram", "--ineq", "chsh"] + flags)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "ParameterError", "message": message}


def test_twelve_digit_formatting(capsys):
    _, out, _ = run(
        capsys,
        ["qvalue", "--ineq", "chsh", "--vectors", CHSH_VECTORS, "--format", "json"],
    )
    assert "1.41421356237" in out


def test_reproduce_subset(capsys):
    code, out, _ = run(
        capsys, ["reproduce-paper", "--claims", "chsh-sqrt2,werner-0.8"]
    )
    assert code == 0
    assert "2/2 claims pass" in out


REPRODUCE_PINNED = {
    "csv": (
        "claim_id,description,source,expected,computed,tolerance,passed,error\n"
        "chsh-classical-bound,2x2 inequality: exact local bound 1,PAPER,1,1,0,true,\n"
        "werner-0.8,three-cycle critical visibility is exactly 0.8,PAPER,0.8,0.8,1e-12,true,\n"
    ),
    "json": (
        '[{"claim_id": "chsh-classical-bound", "computed": 1.0, '
        '"description": "2x2 inequality: exact local bound 1", "error": null, '
        '"expected": 1.0, "passed": true, "source": "PAPER", "tolerance": 0.0}, '
        '{"claim_id": "werner-0.8", "computed": 0.8, '
        '"description": "three-cycle critical visibility is exactly 0.8", "error": null, '
        '"expected": 0.8, "passed": true, "source": "PAPER", "tolerance": 1e-12}]\n'
    ),
}


@pytest.mark.parametrize("fmt", sorted(REPRODUCE_PINNED))
def test_reproduce_output_is_pinned(capsys, fmt):
    argv = ["reproduce-paper", "--claims", "chsh-classical-bound,werner-0.8", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == REPRODUCE_PINNED[fmt]


def test_reproduce_all_claims(capsys):
    code, out, _ = run(capsys, ["reproduce-paper", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 40
    assert all(row["passed"] for row in rows)


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_computational_error_exit_code(capsys):
    code, out, err = run(
        capsys, ["classical-bound", "--ineq", "cliqueweb:61,2,29", "--format", "json"]
    )
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "ResourceLimitError"


def test_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BELLBOUND_GUARD", "10")
    code, _, err = run(
        capsys, ["classical-bound", "--ineq", "cliqueweb:12,3,4", "--format", "json"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "ResourceLimitError"
    monkeypatch.setenv("BELLBOUND_GUARD", "24")
    code, out, _ = run(
        capsys, ["classical-bound", "--ineq", "cliqueweb:12,3,4", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["max_value"] == 15.0


def test_guard_env_is_read_on_every_call(capsys, monkeypatch):
    # main builds its parser once per process and reads BELLBOUND_GUARD at
    # each call, so each call sees the environment as it is at that call
    argv = ["classical-bound", "--ineq", "cliqueweb:12,3,4", "--format", "json"]
    monkeypatch.delenv("BELLBOUND_GUARD", raising=False)
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["max_value"] == 15.0
    monkeypatch.setenv("BELLBOUND_GUARD", "10")
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert "guard of 10" in json.loads(err)["message"]
    monkeypatch.setenv("BELLBOUND_GUARD", "15")
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["evaluations"] == 2**14
    monkeypatch.setenv("BELLBOUND_GUARD", "abc")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err
    assert "Traceback" not in captured.err
    monkeypatch.setenv("BELLBOUND_GUARD", "10")
    code, _, err = run(capsys, argv)
    assert code == 1 and "guard of 10" in json.loads(err)["message"]
    monkeypatch.delenv("BELLBOUND_GUARD")
    code, _, err = run(capsys, argv + ["--guard", "14"])
    assert code == 1 and "guard of 14" in json.loads(err)["message"]


BAD_VALUE_INEQ = json.dumps(
    {"mode": "complete", "n_left": 2, "n_right": 0, "rhs": 1.0,
     "coefficients": [{"i": 0, "j": 1, "value": "x"}]}
)


ZERO_BOUND_INEQ = json.dumps(
    {"mode": "complete", "n_left": 3, "n_right": 0, "coefficients": [], "rhs": 1}
)


def _ineq_json(n_left=3, i=0, j=1, value=1, rhs=1):
    return json.dumps(
        {"mode": "complete", "n_left": n_left, "n_right": 0, "rhs": rhs,
         "coefficients": [{"i": i, "j": j, "value": value}]}
    )


STRING_NUMBERS_INEQ = json.dumps(
    {"mode": "complete", "n_left": 3, "n_right": 0, "rhs": "1",
     "coefficients": [{"i": 0, "j": 1, "value": "1.5"}, {"i": 1, "j": 2, "value": True}]}
)


@pytest.mark.parametrize(
    "oversized, small",
    [
        (["member", "--polytope", "bell:17", "--point", json.dumps([0.0] * 136)],
         ["member", "--polytope", "bell3", "--point", "[0, 0, 0]"]),
        (["facet-check", "--polytope", "bell:17", "--ineq", _ineq_json(n_left=17)],
         ["facet-check", "--polytope", "bell3", "--ineq", _ineq_json()]),
    ],
    ids=["member", "facet-check"],
)
def test_geometry_commands_default_to_the_vertex_guard(capsys, monkeypatch, oversized, small):
    # Vertex tables are built whole, so member and facet-check refuse 17
    # variables at the API's guard of 16 before building anything, where
    # the enumeration commands allow 24.
    monkeypatch.delenv("BELLBOUND_GUARD", raising=False)
    code, out, err = run(capsys, oversized)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimitError"
    assert "guard of 16" in payload["message"]
    # an explicit guard, by flag or environment, still wins
    code, _, err = run(capsys, small + ["--guard", "2"])
    assert code == 1
    assert "guard of 2" in json.loads(err)["message"]
    monkeypatch.setenv("BELLBOUND_GUARD", "2")
    code, _, err = run(capsys, small)
    assert code == 1
    assert "guard of 2" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "guard_env, argv, expected",
    [
        ("abc", ["classical-bound", "--ineq", "chsh"], 2),
        (None, ["qvalue", "--ineq", "triangle", "--vectors", RING3, "--transported"], 2),
        (None, ["tsirelson", "--vectors", CHSH_VECTORS, "--report", "json"], 2),
        (None, ["classical-bound", "--ineq", "[1, 2]"], 1),
        (None, ["classical-bound", "--ineq", BAD_VALUE_INEQ], 1),
        (None, ["qvalue", "--ineq", "triangle", "--vectors", "[[1, 0], [0], [0, 1]]"], 1),
        (None, ["qvalue", "--ineq", "triangle", "--vectors", "[[1, 0], [NaN, 0], [0, 1]]"], 1),
        (None, ["member", "--polytope", "bell3", "--point", '["a", 0, 0]'], 1),
        (None, ["member", "--polytope", "bell3", "--point", "[NaN, 0, 0]"], 1),
        (None, ["member", "--polytope", "bell3", "--point", "[true, 0, 0]"], 1),
        (None, ["qvalue", "--ineq", "chsh", "--vectors",
                '{"vectors": [["1", 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]}'], 1),
        (None, ["member", "--polytope", "bell:4", "--point", "[1e308,1e308,-1e308,1e308,1e308,1e308]"], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(j=1.5)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(n_left=3.7)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(i=True, j=2)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(j="1")], 1),
        (None, ["classical-bound", "--ineq", STRING_NUMBERS_INEQ], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(value="1.5")], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(value=True)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(rhs="1")], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(rhs=False)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(value=10**400)], 1),
        ("", ["classical-bound", "--ineq", "chsh"], 2),
        (None, ["member", "--polytope", "cut:3,4", "--point", "[0, 0, 0]"], 1),
        (None, ["classical-bound", "--ineq", "cliqueweb:5,2"], 1),
        (None, ["gram", "--ineq", ZERO_BOUND_INEQ], 1),
    ],
)
def test_bad_input_exits_without_traceback(capsys, monkeypatch, guard_env, argv, expected):
    if guard_env is None:
        monkeypatch.delenv("BELLBOUND_GUARD", raising=False)
    else:
        monkeypatch.setenv("BELLBOUND_GUARD", guard_env)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert "Traceback" not in captured.err
    if expected == 1:
        assert set(json.loads(captured.err)) == {"error", "message"}
    else:
        assert "usage:" in captured.err


OVERFLOWING_WEIGHTS = [
    [(0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308)],
    [(0, 1, 1.7e308), (0, 2, -1.7e308), (1, 2, 0.3)],
    [(0, 1, 1.7e308), (0, 2, 1.7e308), (1, 2, 0.3)],
]


@pytest.mark.parametrize("pairs", OVERFLOWING_WEIGHTS)
def test_weights_that_overflow_a_float_are_refused(capsys, pairs):
    ineq = json.dumps(
        {"mode": "complete", "n_left": 3, "n_right": 0, "rhs": 1,
         "coefficients": [{"i": i, "j": j, "value": w} for i, j, w in pairs]}
    )
    code, out, err = run(capsys, ["classical-bound", "--ineq", ineq])
    assert code == 1
    assert out == ""
    assert json.loads(err) == {
        "error": "ParameterError",
        "message": "the absolute sum of the weights overflows a float",
    }


@pytest.mark.parametrize("pairs", OVERFLOWING_WEIGHTS)
def test_qvalue_refuses_weights_that_overflow_a_float(capsys, pairs):
    # the quantum sum would overflow to inf and report a violation
    ineq = json.dumps(
        {"mode": "complete", "n_left": 3, "n_right": 0, "rhs": 1,
         "coefficients": [{"i": i, "j": j, "value": w} for i, j, w in pairs]}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["qvalue", "--ineq", ineq, "--vectors", RING3])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ParameterError",
        "message": "the absolute sum of the weights overflows a float",
    }


@pytest.mark.parametrize(
    "argv",
    [["qvalue", "--ineq", "triangle"], ["werner", "--ineq", "triangle", "--points", "2"], ["tsirelson"]],
    ids=lambda argv: argv[0],
)
def test_vectors_json_dim_must_match_the_vectors(capsys, argv):
    vectors = [[1.0, 0.0, 0.0], [-0.5, math.sqrt(3.0) / 2.0, 0.0], [-0.5, -math.sqrt(3.0) / 2.0, 0.0]]

    def call(data):
        return run(capsys, argv + ["--vectors", json.dumps(data)])

    plain = call({"vectors": vectors})
    assert plain[0] == 0
    assert call({"dim": 3, "vectors": vectors}) == plain
    for dim, error in ((7, "DimensionError"), (2, "DimensionError"), (True, "ParameterError")):
        code, out, err = call({"dim": dim, "vectors": vectors})
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error


def test_ineq_from_file(capsys, tmp_path):
    path = tmp_path / "ineq.json"
    path.write_text(clique_web_inequality(WebSpec(5, 2, 1)).to_json())
    code, out, _ = run(
        capsys, ["classical-bound", "--ineq", str(path), "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["max_value"] == 4.0


# one accepted call per subcommand; the guarded ones read --guard and BELLBOUND_GUARD
SUBCOMMAND_CALLS = [
    ["web", "--p", "5", "--q", "2", "--r", "1"],
    ["cliqueweb", "--p", "5", "--q", "2", "--r", "1"],
    ["bouquet", "--p", "3", "--q", "2", "--theta-pi", "0.3"],
    ["qvalue", "--ineq", "triangle", "--vectors", RING3],
    ["scan-theta", "--family", "b12", "--points", "16"],
    ["reproduce-paper", "--claims", "chsh-classical-bound"],
    ["classical-bound", "--ineq", "chsh"],
    ["member", "--polytope", "bell22", "--point", SINGLET_POINT],
    ["facet-check", "--polytope", "bell22", "--ineq", "chsh"],
    ["tsirelson", "--vectors", CHSH_VECTORS],
    ["werner", "--ineq", "triangle", "--vectors", RING3, "--points", "2"],
    ["maxcut", "--ineq", "triangle"],
    ["gram", "--ineq", "chsh", "--restarts", "2"],
]
GUARDED = {"classical-bound", "member", "facet-check", "tsirelson", "werner", "maxcut", "gram"}


def _exit(capsys, argv):
    """(exit code, stdout, stderr) of a call that may end in a usage error."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", SUBCOMMAND_CALLS, ids=lambda argv: argv[0])
def test_each_subcommand_takes_only_the_options_it_reads(capsys, monkeypatch, argv):
    command = argv[0]
    monkeypatch.delenv("BELLBOUND_GUARD", raising=False)
    plain = _exit(capsys, argv)
    assert plain[0] == 0
    for option, reads in ((["--seed", "0"], command == "gram"),
                          (["--guard", "24"], command in GUARDED)):
        code, out, err = _exit(capsys, argv + option)
        if reads:
            assert code == 0
        else:
            assert code == 2 and out == ""
            assert "usage:" in err and f"unrecognized arguments: {option[0]}" in err
            assert "Traceback" not in err
    monkeypatch.setenv("BELLBOUND_GUARD", "abc")
    code, out, err = _exit(capsys, argv)
    if command in GUARDED:
        assert code == 2 and out == ""
        assert "usage:" in err and "BELLBOUND_GUARD must be an integer" in err
        assert "Traceback" not in err
    else:
        assert (code, out, err) == plain
    code, out, _ = _exit(capsys, [command, "--help"])
    assert code == 0 and out.startswith(f"usage: bellbound {command}")
