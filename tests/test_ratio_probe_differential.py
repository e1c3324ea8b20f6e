"""Seeded differential test of the stacked ratio probe against its per-instance original.

reference_probe is ratio_probe as it stood before the instances were
stacked: one gram_ratio call (sign optimum, then a gram_ascent over the
instance's restarts) per instance.  The stacked probe must give the
same summary in every field, compared by repr: ratios, max_ratio,
mean_ratio, max_coefficients and violating_count.
"""

import itertools
import math

import numpy as np
import pytest

from bellbound import optimize, ratio_probe
from bellbound.optimize import (
    ASCENT_BLOCK,
    ASCENT_SWEEP_CAP,
    ASCENT_TOLERANCE,
    GROTHENDIECK,
    RATIO_VIOLATION_TOL,
    RatioProbeSummary,
    _ascend,
    gram_ratio,
)


def reference_probe(n, instances=100, seed=0, dim=None, restarts=16, exhaustive=False, bipartite_planar=False):
    """The ratio probe with one gram_ratio call per instance."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if bipartite_planar:
        half = n // 2
        pairs = [(i, j) for i in range(half) for j in range(half, n)]
        dim = 2
    if dim is None:
        dim = n

    patterns = []
    if exhaustive:
        for signs in itertools.product([1.0, -1.0], repeat=len(pairs)):
            patterns.append(dict(zip(pairs, signs)))
        seed_values = [seed] * len(patterns)
    else:
        children = np.random.SeedSequence(seed).spawn(instances)
        seed_values = []
        for child in children:
            rng = np.random.default_rng(child)
            signs = rng.integers(0, 2, size=len(pairs)) * 2.0 - 1.0
            patterns.append(dict(zip(pairs, signs)))
            seed_values.append(int(rng.integers(0, 2**31 - 1)))

    ratios = []
    max_ratio = -math.inf
    max_coefficients = {}
    for coeffs, inst_seed in zip(patterns, seed_values):
        ascent, bound = gram_ratio(coeffs, n, dim, restarts=restarts, seed=inst_seed)
        ratio = ascent.objective / bound
        ratios.append(ratio)
        if ratio > max_ratio:
            max_ratio = ratio
            max_coefficients = dict(coeffs)

    return RatioProbeSummary(
        n=n,
        dim=dim,
        instances=len(patterns),
        seed=None if exhaustive else seed,
        exhaustive=exhaustive,
        ratios=tuple(ratios),
        max_ratio=max_ratio,
        mean_ratio=sum(ratios) / len(ratios),
        max_coefficients=max_coefficients,
        violating_count=sum(1 for r in ratios if r > 1.0 + RATIO_VIOLATION_TOL),
        bounds=GROTHENDIECK,
    )


FIELDS = ("n", "dim", "instances", "seed", "exhaustive", "ratios", "max_ratio",
          "mean_ratio", "max_coefficients", "violating_count", "bounds")


def assert_same_summary(kwargs):
    got = ratio_probe(**kwargs)
    want = reference_probe(**kwargs)
    for field in FIELDS:
        assert repr(getattr(got, field)) == repr(getattr(want, field)), field


@pytest.mark.parametrize("n", range(2, 9))
def test_sampled_probes_match_the_reference(n):
    for dim in sorted({1, max(1, n // 2), n}):
        assert_same_summary(dict(n=n, instances=6, seed=100 * n + dim, dim=dim, restarts=5))


def test_planar_bipartite_probe_matches_the_reference():
    assert_same_summary(dict(n=6, instances=60, seed=11, restarts=8, bipartite_planar=True))


def test_exhaustive_probe_matches_the_reference():
    assert_same_summary(dict(n=3, exhaustive=True, dim=3, restarts=16, seed=3))


@pytest.mark.parametrize("restarts", [1, ASCENT_BLOCK - 1, ASCENT_BLOCK, ASCENT_BLOCK + 1])
def test_restart_counts_around_the_block_match_the_reference(restarts):
    assert_same_summary(dict(n=4, instances=3, seed=restarts, dim=3, restarts=restarts))


@pytest.mark.parametrize("instances, restarts", [(14, 5), (10, 7), (3, 30)])
def test_instances_split_across_blocks_match_the_reference(instances, restarts):
    # some instance's restarts straddle a multiple of ASCENT_BLOCK
    assert any(
        k * restarts < first < (k + 1) * restarts
        for k in range(instances)
        for first in range(ASCENT_BLOCK, instances * restarts, ASCENT_BLOCK)
    )
    assert_same_summary(dict(n=5, instances=instances, seed=instances, dim=3, restarts=restarts))


def ascend_alone(a, x):
    """The round-robin ascent on one configuration, as gram_ascent ran it alone."""

    def objective(x):
        return 0.5 * float(np.sum(a * (x @ x.T)))

    value = objective(x)
    monotone = True
    for sweeps in range(1, ASCENT_SWEEP_CAP + 1):
        for i in range(len(a)):
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
            return value, sweeps, True, monotone
    return value, ASCENT_SWEEP_CAP, False, monotone


def test_zero_gradient_beside_live_configurations():
    rng = np.random.default_rng(17)
    n, dim, count = 5, 3, 6
    a = rng.normal(size=(count, n, n))
    a = a + a.transpose(0, 2, 1)
    a[:, np.arange(n), np.arange(n)] = 0.0
    # configuration 2 has no coefficient on variable 4: its gradient stays zero
    a[2, 4, :] = 0.0
    a[2, :, 4] = 0.0
    x = rng.normal(size=(count, n, dim))
    x /= np.linalg.norm(x, axis=2)[..., None]

    stack = x.copy()
    values, sweeps, converged, monotone = _ascend(a, stack)
    assert stack[2, 4].tobytes() == x[2, 4].tobytes()
    for c in range(count):
        alone = x[c].copy()
        value, want_sweeps, want_converged, want_monotone = ascend_alone(a[c], alone)
        assert stack[c].tobytes() == alone.tobytes()
        assert values[c] == value
        assert (sweeps[c], converged[c], monotone[c]) == (want_sweeps, want_converged, want_monotone)
    assert len(set(sweeps.tolist())) > 1


def test_configurations_at_the_sweep_cap_match_the_reference(monkeypatch):
    monkeypatch.setattr(optimize, "ASCENT_SWEEP_CAP", 3)
    kwargs = dict(n=7, instances=4, seed=8, dim=4, restarts=5)
    got = ratio_probe(**kwargs)
    want = reference_probe(**kwargs)
    assert repr(got.ratios) == repr(want.ratios)
