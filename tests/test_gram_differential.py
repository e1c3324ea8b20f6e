"""Seeded differential test of the stacked Gram ascent against its per-restart original.

reference_ascent is the ascent as it stood before the restarts were
stacked: each restart ran alone, from its own seed stream, to its own
convergence.  The stacked ascent must give the same result in every
field, bit for bit: objective, vectors, converged flag, sweeps,
monotone flag and every restart objective.
"""

import numpy as np
import pytest

from bellbound import gram_ascent, optimize
from bellbound.optimize import (
    ASCENT_BLOCK,
    ASCENT_SWEEP_CAP,
    ASCENT_TOLERANCE,
    GramAscentResult,
    _symmetric_matrix,
)


def reference_ascent(coefficients, n, dim, restarts, seed, cap=ASCENT_SWEEP_CAP):
    """The round-robin ascent with one restart at a time."""
    a = _symmetric_matrix(n, coefficients)

    def objective(x):
        return 0.5 * float(np.sum(a * (x @ x.T)))

    best = None
    monotone = True
    restart_objectives = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        x = rng.normal(size=(n, dim))
        norms = np.linalg.norm(x, axis=1)
        degenerate = norms < 1e-12
        norms[degenerate] = 1.0
        x /= norms[:, None]
        x[degenerate] = np.eye(1, dim)[0]

        value = objective(x)
        converged = False
        sweeps = 0
        for sweeps in range(1, cap + 1):
            for i in range(n):
                g = a[i] @ x
                norm = np.linalg.norm(g)
                if norm > 1e-14:
                    x[i] = g / norm
            new_value = objective(x)
            if new_value < value - 1e-12:
                monotone = False
            improvement = new_value - value
            value = new_value
            if improvement < ASCENT_TOLERANCE:
                converged = True
                break
        restart_objectives.append(value)
        if best is None or value > best[0]:
            best = (value, x.copy(), converged, sweeps)
    return GramAscentResult(
        objective=best[0],
        vectors=best[1],
        converged=best[2],
        sweeps=best[3],
        monotone=monotone,
        restart_objectives=tuple(restart_objectives),
    )


def half_integer_form(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = rng.integers(-4, 5, size=len(pairs)) / 2.0
    return dict(zip(pairs, weights.tolist()))


def gaussian_form(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return dict(zip(pairs, rng.normal(size=len(pairs)).tolist()))


def isolated_form(rng, n):
    """A Gaussian form on all but the last variable, whose gradient stays zero."""
    return gaussian_form(rng, n - 1)


FORMS = {"half_integer": half_integer_form, "gaussian": gaussian_form, "isolated": isolated_form}


def assert_identical(got, want):
    assert type(got.objective) is float and got.objective == want.objective
    assert got.vectors.dtype == want.vectors.dtype
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.converged is want.converged
    assert type(got.sweeps) is int and got.sweeps == want.sweeps
    assert got.monotone is want.monotone
    assert all(type(v) is float for v in got.restart_objectives)
    assert np.array(got.restart_objectives).tobytes() == np.array(want.restart_objectives).tobytes()


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_ascent_matches_per_restart_reference(form, n):
    rng = np.random.default_rng([n, len(form)])
    coefficients = FORMS[form](rng, n)
    for dim in range(1, n + 1):
        restarts = int(rng.integers(1, 9))
        seed = int(rng.integers(1000))
        got = gram_ascent(coefficients, n, dim, restarts=restarts, seed=seed)
        assert_identical(got, reference_ascent(coefficients, n, dim, restarts, seed))


@pytest.mark.parametrize("restarts", [ASCENT_BLOCK - 1, ASCENT_BLOCK, ASCENT_BLOCK + 1, 2 * ASCENT_BLOCK + 3])
def test_restarts_across_blocks_match_the_reference(restarts):
    rng = np.random.default_rng(restarts)
    coefficients = half_integer_form(rng, 5)
    got = gram_ascent(coefficients, 5, 3, restarts=restarts, seed=11)
    assert len(got.restart_objectives) == restarts
    assert_identical(got, reference_ascent(coefficients, 5, 3, restarts, 11))


def test_ties_across_blocks_go_to_the_first_restart():
    # every restart of a form with no coefficients ends at objective 0,
    # so the first restart's vectors are returned whatever the block
    got = gram_ascent({}, 4, 2, restarts=ASCENT_BLOCK + 2, seed=3)
    want = reference_ascent({}, 4, 2, ASCENT_BLOCK + 2, 3)
    assert_identical(got, want)
    assert got.sweeps == 1 and got.converged


def test_restarts_at_the_sweep_cap_match_the_reference(monkeypatch):
    monkeypatch.setattr(optimize, "ASCENT_SWEEP_CAP", 3)
    rng = np.random.default_rng(5)
    coefficients = gaussian_form(rng, 9)
    got = gram_ascent(coefficients, 9, 4, restarts=12, seed=2)
    assert_identical(got, reference_ascent(coefficients, 9, 4, 12, 2, cap=3))
    assert got.sweeps == 3 and not got.converged
