"""The array-form web helpers and Alon check against the walks they replace.

The references below are the earlier definitions: the web as a set of
offsets, the antiweb as the web's complement in K_p, and the Alon check
as a walk over every bitmask with Python bit arithmetic.
"""

import pytest

from bellbound import WebSpec, antiweb_edges, verify_alon_theorem, web_edges
from bellbound import webs
from bellbound.webs import AlonViolation


def _web_reference(spec):
    edges = set()
    for i in range(spec.p):
        for off in range(spec.r + 1, spec.r + spec.q + 1):
            j = (i + off) % spec.p
            edges.add((min(i, j), max(i, j)))
    return tuple(sorted(edges))


def _antiweb_reference(spec):
    web = set(_web_reference(spec))
    return tuple(
        (i, j) for i in range(spec.p) for j in range(i + 1, spec.p) if (i, j) not in web
    )


def _walk(spec, edges=None):
    """((subsets_checked, equality_small, equality_large, violations), found).

    found counts every violation, past the 32 that are recorded.  The
    adjacency is the circulant at distances 1..r, or the given edges.
    """
    p, r = spec.p, spec.r
    full = (1 << p) - 1
    adjacency = []
    for i in range(p):
        mask = 0
        for d in range(1, r + 1):
            mask |= 1 << ((i + d) % p)
            mask |= 1 << ((i - d) % p)
        adjacency.append(mask)
    if edges is not None:
        adjacency = [0] * p
        for i, j in edges:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i

    checked = 0
    equality_small = 0
    equality_large = 0
    violations = []
    found = 0

    for s_mask in range(1, 1 << p):
        size = s_mask.bit_count()
        if size > p // 2:
            continue
        checked += 1
        cut = 0
        rest = s_mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cut += (adjacency[i] & ~s_mask & full).bit_count()

        if size <= r:
            bound = size * (2 * r + 1 - size)
            condition = all(
                (s_mask & ~(1 << i)) & ~adjacency[i] == 0
                for i in range(p)
                if s_mask >> i & 1
            )
            if cut == bound:
                equality_small += 1
        else:
            bound = r * (r + 1)
            rotated = ((s_mask << 1) | (s_mask >> (p - 1))) & full
            condition = (s_mask ^ rotated).bit_count() == 2
            if cut == bound:
                equality_large += 1

        if cut < bound or (cut == bound) != condition:
            found += 1
            if len(violations) < 32:
                subset = tuple(i for i in range(p) if s_mask >> i & 1)
                violations.append(AlonViolation(subset, cut, bound, condition))

    return (checked, equality_small, equality_large, tuple(violations)), found


def _fields(report):
    return (
        report.subsets_checked,
        report.equality_small,
        report.equality_large,
        report.violations,
    )


def _specs(max_p, min_r):
    return [
        WebSpec(q + 2 * r + 1, q, r)
        for r in range(min_r, max_p)
        for q in range(2, max_p - 2 * r)
    ]


def test_spec_lists_cover_the_stated_ranges():
    assert len(_specs(16, 1)) == 42
    assert all(spec.p <= 16 and spec.r >= 1 for spec in _specs(16, 1))
    assert max(spec.p for spec in _specs(30, 0)) == 30


def test_edges_match_the_offset_and_complement_definitions():
    for spec in _specs(30, 0):
        assert web_edges(spec).edges == _web_reference(spec)
        assert antiweb_edges(spec).edges == _antiweb_reference(spec)


@pytest.mark.parametrize("spec", _specs(16, 1), ids=lambda s: f"{s.p}-{s.q}-{s.r}")
def test_alon_check_matches_the_walk(spec):
    assert _fields(verify_alon_theorem(spec)) == _walk(spec)[0]


def test_alon_check_matches_the_walk_at_21_vertices():
    spec = WebSpec(21, 2, 9)
    report = verify_alon_theorem(spec, guard=21)
    assert _fields(report) == _walk(spec)[0]
    assert report.holds


@pytest.mark.parametrize("chunk", [webs._ALON_CHUNK, 5])
def test_planted_missing_edge_gives_the_same_violations(monkeypatch, chunk):
    # a chunk of 5 masks spreads the violations over many chunks, so the
    # cap of 32 is applied across chunk boundaries
    spec = WebSpec(14, 3, 5)
    faulty = webs.EdgeSet(n=spec.p, edges=antiweb_edges(spec).edges[1:])
    monkeypatch.setattr(webs, "antiweb_edges", lambda _spec: faulty)
    monkeypatch.setattr(webs, "_ALON_CHUNK", chunk)
    expected, found = _walk(spec, faulty.edges)
    assert found > 32
    report = verify_alon_theorem(spec)
    assert _fields(report) == expected
    assert len(report.violations) == 32
