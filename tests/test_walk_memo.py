"""The per-command walk memo: same answers, one walk per distinct form."""

import hashlib
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from bellbound import ParameterError, ResourceLimitError, bouquet, enumeration
from bellbound.cli import main
from bellbound.enumeration import max_over_signs, min_over_signs, walk_memo

SEED = 20261018


@pytest.fixture
def walks(monkeypatch):
    """The work tuples of every Gray walk taken while the test runs."""
    log = []
    original = enumeration._walk

    def recording(n_vars, work):
        log.append(work)
        return original(n_vars, work)

    monkeypatch.setattr(enumeration, "_walk", recording)
    return log


def _forms(rng, n):
    """Float and half-integer forms on n variables; variable n-1 is left
    out of one of each, which plants a tie between every optimum and its
    flip of that variable."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for planted_tie in (False, True):
        kept = [(i, j) for i, j in pairs if not (planted_tie and j == n - 1)]
        out.append([(i, j, float(w)) for (i, j), w in zip(kept, rng.normal(size=len(kept)))])
        halves = rng.integers(-2, 3, size=len(kept)) / 2.0
        out.append([(i, j, float(w)) for (i, j), w in zip(kept, halves)])
    return out


@pytest.mark.parametrize("n", range(2, 15))
def test_results_inside_a_scope_equal_unscoped_results_bit_for_bit(n, walks):
    forms = _forms(np.random.default_rng([SEED, n]), n)
    for pairs in forms:
        for search in (max_over_signs, min_over_signs):
            plain = search(n, pairs)
            with walk_memo():
                first = search(n, pairs)
                again = search(n, pairs)
            # repr tells every float bit apart, the sign of zero included
            assert repr(first) == repr(again) == repr(plain)
    # unscoped calls walk; inside a scope only the first call of a form does
    assert len(walks) == 2 * 2 * len(forms)


def test_int_float_and_numpy_weights_share_one_walk(walks):
    triangle = [(0, 1, -1), (0, 2, -1), (1, 2, -1)]
    spellings = [
        triangle,
        [(i, j, float(w)) for i, j, w in triangle],
        [(i, j, np.float64(w)) for i, j, w in triangle],
        [(np.int64(i), np.int64(j), np.int32(w)) for i, j, w in triangle],
    ]
    # the same pairs on a fourth, free variable are another form
    calls = [(3, pairs) for pairs in spellings] + [(4, triangle)]
    plain = [max_over_signs(*call) for call in calls]
    del walks[:]
    with walk_memo():
        scoped = [max_over_signs(*call) for call in calls]
    assert repr(scoped) == repr(plain)
    assert len(walks) == 2


def test_nothing_survives_the_block(walks):
    pairs = [(0, 1, 1.0), (1, 2, -0.5)]
    with walk_memo():
        max_over_signs(3, pairs)
        max_over_signs(3, pairs)
    assert enumeration._memo.get() is None
    assert len(walks) == 1
    max_over_signs(3, pairs)
    max_over_signs(3, pairs)
    assert len(walks) == 3
    with walk_memo():
        max_over_signs(3, pairs)
    assert len(walks) == 4


def test_a_nested_block_walks_again_and_keeps_the_outer_memo(walks):
    pairs = [(0, 1, 1.0), (1, 2, -0.5)]
    with walk_memo():
        outer = enumeration._memo.get()
        first = max_over_signs(3, pairs)
        with walk_memo():
            assert enumeration._memo.get() is not outer
            assert repr(max_over_signs(3, pairs)) == repr(first)
        # leaving the inner block puts back the outer memo and what it stored
        assert enumeration._memo.get() is outer
        assert repr(max_over_signs(3, pairs)) == repr(first)
    assert len(walks) == 2
    assert enumeration._memo.get() is None


def test_an_exception_still_drops_the_memo(walks):
    pairs = [(0, 1, 1.0)]
    with pytest.raises(RuntimeError):
        with walk_memo():
            max_over_signs(2, pairs)
            raise RuntimeError("inside the block")
    assert enumeration._memo.get() is None
    with walk_memo():
        outer = enumeration._memo.get()
        with pytest.raises(RuntimeError):
            with walk_memo():
                raise RuntimeError("inside the nested block")
        assert enumeration._memo.get() is outer
    assert enumeration._memo.get() is None


def test_refusals_still_raise_on_a_repeated_form(walks):
    pairs = [(i, i + 1, 1.0) for i in range(5)]
    with walk_memo():
        max_over_signs(6, pairs)
        with pytest.raises(ResourceLimitError):
            max_over_signs(6, pairs, guard=5)
        with pytest.raises(ResourceLimitError):
            min_over_signs(6, pairs, guard=5)
        for _ in range(2):
            with pytest.raises(ParameterError):
                max_over_signs(6, pairs + [(5, 5, 1.0)])
            with pytest.raises(ParameterError):
                max_over_signs(6, pairs + [(0, 5, float("nan"))])
    assert len(walks) == 1


BOUQUET_12_3 = json.dumps(bouquet(12, 3, 0.32477 * math.pi).to_json_dict())
WERNER_12_3_4 = ["werner", "--ineq", "cliqueweb:12,3,4", "--vectors", BOUQUET_12_3]


def test_werner_walks_each_distinct_form_once(monkeypatch, walks, capsys):
    calls = []
    original = enumeration.max_over_signs

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(enumeration, "max_over_signs", counting)
    assert main(WERNER_12_3_4) == 0
    # the normalizing bound, then the bound and N in partitioned_threshold
    # and in each of the 20 rows: 43 calls on three forms (the integer
    # form, the form over 15, and minus its absolute value)
    assert len(calls) == 43
    assert len(walks) == 3
    assert enumeration._memo.get() is None


# sha256 of the werner stdout before the memo existed
WERNER_12_3_4_SHA256 = {
    "table": "b03cfa5b7d8b28a9dde5165fefd724127f247f061c032974d8ec6ba39b7ce568",
    "csv": "4726e4f142155843561a41cf49ccdc198fa1a9a46c579432593b34de0541546d",
    "json": "6bfc3626fd35f3ab289eae413c03730564f1eceb067dcafab38b244c4af53c32",
}


@pytest.mark.parametrize("fmt", sorted(WERNER_12_3_4_SHA256))
def test_werner_output_is_unchanged(fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(WERNER_12_3_4 + ["--format", fmt]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == WERNER_12_3_4_SHA256[fmt]
