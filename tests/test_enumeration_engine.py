"""The blocked int64 engine against the scalar Gray walk, bit for bit."""

import numpy as np
import pytest

from bellbound import PairwiseInequality, WebSpec, classical_bound, clique_web_inequality, enumeration
from bellbound.enumeration import max_over_signs

SEED = 20261018


def _work(rng, n, kind, density=0.7, lone=None, shuffle=False):
    """Integer work on n variables, as max_over_signs builds it.

    kind "pm1" has weights +-1, "01" weights 0 or 1 and "half" the
    numerators of the half-integers -1 .. 1.  Variable lone has no edges,
    which ties every optimum with its flip of that variable.
    """
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if lone not in (i, j) and rng.random() < density
    ]
    if kind == "pm1":
        weights = rng.choice([-1, 1], size=len(pairs))
    elif kind == "01":
        weights = rng.integers(0, 2, size=len(pairs))
    else:
        weights = rng.integers(-2, 3, size=len(pairs))
    work = [(i, j, int(w)) for (i, j), w in zip(pairs, weights)]
    if shuffle:
        work = [work[k] for k in rng.permutation(len(work))]
    return tuple(work)


def _assert_same(n, work):
    engine = enumeration._blocked_walk(n, work)
    walk = enumeration._gray_walk(n, work)
    assert repr(engine) == repr(walk)
    value, argmax, evaluations = engine
    # Python ints, as the walk gives, not numpy scalars
    assert all(type(v) is int for v in (value, evaluations) + argmax)
    assert evaluations == 2 ** (n - 1)
    assert argmax[0] == 1 and len(argmax) == n and set(argmax) <= {-1, 1}
    assert value == sum(w * argmax[i] * argmax[j] for i, j, w in work)


@pytest.mark.parametrize("n", range(1, 17))
@pytest.mark.parametrize("kind", ["pm1", "01", "half"])
def test_engine_matches_the_walk(n, kind):
    rng = np.random.default_rng([SEED, n, ord(kind[0])])
    for lone in (None, int(rng.integers(n))):
        for shuffle in (False, True):
            _assert_same(n, _work(rng, n, kind, lone=lone, shuffle=shuffle))


@pytest.mark.parametrize("n, kind", [(17, "01"), (18, "pm1"), (20, "half")])
def test_engine_matches_the_walk_on_dense_forms(n, kind):
    # The last variable is the top bit of the high block: at n = 20 the
    # engine takes the high block in two chunks, one with that variable
    # at +1 and one at -1, so leaving it without edges ties across chunks.
    rng = np.random.default_rng([SEED, n])
    _assert_same(n, _work(rng, n, kind, density=1.0, lone=n - 1, shuffle=True))


@pytest.mark.parametrize("n", [1, 2, 6, 13, 14])
def test_engine_on_an_empty_form(n):
    _assert_same(n, ())
    assert enumeration._blocked_walk(n, ()) == (0, (1,) * n, 2 ** (n - 1))


@pytest.fixture
def engines(monkeypatch):
    """The name of each engine that ran while the test runs."""
    log = []
    for name in ("_blocked_walk", "_gray_walk"):
        original = getattr(enumeration, name)

        def recording(n_vars, work, name=name, original=original):
            log.append(name)
            return original(n_vars, work)

        monkeypatch.setattr(enumeration, name, recording)
    return log


def test_int64_boundary_picks_the_engine_and_both_agree(engines):
    n = 8
    ring = [(i, i + 1, (-1) ** i) for i in range(n - 1)]
    for total, route in ((2**62 - 1, "_blocked_walk"), (2**62, "_gray_walk")):
        big = total - (n - 1)
        work = tuple(sorted(ring + [(0, n - 1, -big)]))
        assert sum(abs(w) for _, _, w in work) == total
        del engines[:]
        result = max_over_signs(n, work)
        assert engines == [route]
        assert result[0] == float(big + n - 1)
        _assert_same(n, work)


def test_floats_take_the_walk_and_half_integers_the_engine(engines):
    max_over_signs(8, [(0, 1, 0.1), (1, 7, -1.0)])
    max_over_signs(8, [(0, 1, 0.5), (1, 7, -1.0)])
    max_over_signs(2, [(0, 1, 3)])
    assert engines == ["_gray_walk", "_blocked_walk", "_blocked_walk"]


@pytest.mark.parametrize("p, q, r", [(19, 4, 7), (21, 2, 9)])
def test_switched_clique_web_at_23_variables(p, q, r, engines):
    # A relabelling and a sign switch keep the maximum q(r+1) but move
    # the argmax.  At 23 variables the engine searches 2^22 assignments
    # in about 0.1 s, where the scalar walk takes several seconds.
    rng = np.random.default_rng([SEED, p, q, r])
    n = p + q
    perm = rng.permutation(n)
    switch = rng.choice([-1.0, 1.0], size=n)
    coefficients = {}
    for (i, j), w in clique_web_inequality(WebSpec(p, q, r)).coefficients.items():
        a, b = sorted((int(perm[i]), int(perm[j])))
        coefficients[(a, b)] = float(w * switch[i] * switch[j])
    ineq = PairwiseInequality("complete", n, 0, coefficients, 1.0)
    result = classical_bound(ineq)
    assert engines == ["_blocked_walk"]
    assert result.max_value == q * (r + 1)
    assert result.evaluations == 2**22
    x = result.argmax.values
    assert sum(w * x[i] * x[j] for (i, j), w in coefficients.items()) == result.max_value
