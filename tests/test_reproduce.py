"""The recorded-claims registry recomputes every number it reports."""

import inspect

import pytest

from bellbound import (
    BellboundError,
    PolytopeSpec,
    claim_ids,
    reproduce,
    run_claims,
)
from bellbound.optimize import FAMILY_BOUQUET12, FAMILY_BOUQUET2K1
from bellbound.reproduce import SOURCE_DERIVED, SOURCE_PAPER, SOURCE_TRIVIAL


def test_claim_ids_unique_and_nonempty():
    ids = claim_ids()
    assert len(ids) > 40
    assert len(set(ids)) == len(ids)


def test_selected_subset_runs_in_registry_order():
    rows = run_claims(["triangle-3-2", "chsh-sqrt2"])
    assert [r.claim_id for r in rows] == ["chsh-sqrt2", "triangle-3-2"]
    for row in rows:
        assert row.passed
        assert row.error is None
        assert abs(row.computed - row.expected) <= row.tolerance


def test_unknown_claim_rejected():
    with pytest.raises(BellboundError):
        run_claims(["chsh-sqrt2", "nonsense"])


def test_sources_are_tagged():
    sources = {row.source for row in run_claims()}
    assert sources == {SOURCE_PAPER, SOURCE_DERIVED, SOURCE_TRIVIAL}


def test_row_serialization():
    row = run_claims(["chsh-classical-bound"])[0]
    data = row.to_json_dict()
    assert data["claim_id"] == "chsh-classical-bound"
    assert data["passed"] is True
    assert isinstance(data["computed"], float)


def test_shared_quantities_are_computed_once_per_call(monkeypatch):
    calls = {"scan_theta": [], "membership": []}
    for name, log in calls.items():
        original = getattr(reproduce, name)

        def recording(*args, _original=original, _log=log, **kwargs):
            bound = inspect.signature(_original).bind(*args, **kwargs)
            bound.apply_defaults()
            _log.append(bound.arguments)
            return _original(*args, **kwargs)

        monkeypatch.setattr(reproduce, name, recording)
    bell22 = PolytopeSpec.bell_bipartite(2, 2)

    def counts():
        return (
            sum(a["family"] == FAMILY_BOUQUET12 for a in calls["scan_theta"]),
            sum(a["family"] == FAMILY_BOUQUET2K1 and a["k"] == 1000 for a in calls["scan_theta"]),
            sum(a["spec"] == bell22 for a in calls["membership"]),
        )

    assert all(row.passed for row in run_claims())
    assert counts() == (1, 1, 1)
    # nothing is kept between calls: a second call recomputes each one
    assert all(row.passed for row in run_claims())
    assert counts() == (2, 2, 2)
