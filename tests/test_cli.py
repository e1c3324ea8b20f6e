"""End-to-end command-line behavior, run in process."""

import json
import math

import numpy as np
import pytest

from bellbound import (
    PairwiseInequality,
    WebSpec,
    clique_web_inequality,
    web_edges,
)
from bellbound.cli import main

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


BAD_VALUE_INEQ = json.dumps(
    {"mode": "complete", "n_left": 2, "n_right": 0, "rhs": 1.0,
     "coefficients": [{"i": 0, "j": 1, "value": "x"}]}
)


def _ineq_json(n_left=3, i=0, j=1):
    return json.dumps(
        {"mode": "complete", "n_left": n_left, "n_right": 0, "rhs": 1,
         "coefficients": [{"i": i, "j": j, "value": 1}]}
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
        (None, ["classical-bound", "--ineq", _ineq_json(j=1.5)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(n_left=3.7)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(i=True, j=2)], 1),
        (None, ["classical-bound", "--ineq", _ineq_json(j="1")], 1),
        (None, ["classical-bound", "--ineq", "cliqueweb:5,2"], 1),
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


def test_ineq_from_file(capsys, tmp_path):
    path = tmp_path / "ineq.json"
    path.write_text(clique_web_inequality(WebSpec(5, 2, 1)).to_json())
    code, out, _ = run(
        capsys, ["classical-bound", "--ineq", str(path), "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["max_value"] == 4.0
