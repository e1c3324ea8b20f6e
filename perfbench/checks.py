"""Reference computations the benchmark checks the program's answers against.

Everything here is written from the mathematical definitions with numpy
alone and imports nothing from bellbound, so a defect in the program
cannot hide in a shared helper.  Each ``check_*`` function returns a list
of problems; an empty list means the answer is correct.
"""

from __future__ import annotations

import numpy as np

# Above this many variables the benchmark does not enumerate the cube
# itself; it still re-evaluates the form at the reported argmax.
BRUTE_FORCE_MAX_VARS = 16
REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def symmetric(n: int, pairs) -> np.ndarray:
    """Symmetric weight matrix with zero diagonal from (i, j, w) triples."""
    w = np.zeros((n, n))
    for i, j, value in pairs:
        w[i, j] += value
        w[j, i] += value
    return w


def form_value(w: np.ndarray, signs) -> float:
    """sum_{i<j} w_ij s_i s_j for one sign vector."""
    s = np.asarray(signs, dtype=float)
    return 0.5 * float(s @ w @ s)


def gray_order_signs(n: int) -> np.ndarray:
    """All sign vectors with s_0 = +1, row k being step k of the Gray walk.

    Step k of the reflected Gray code has code word k ^ (k >> 1); bit b of
    the word set means free variable b + 1 is -1.
    """
    k = np.arange(1 << (n - 1), dtype=np.int64)
    code = k ^ (k >> 1)
    bits = (code[:, None] >> np.arange(n - 1, dtype=np.int64)) & 1
    signs = np.ones((k.size, n), dtype=np.int64)
    signs[:, 1:] = 1 - 2 * bits
    return signs


def brute_force_max(w: np.ndarray, exact: bool):
    """(max value, first maximizer in Gray order) over the folded cube."""
    n = w.shape[0]
    signs = gray_order_signs(n)
    if exact:
        doubled = np.rint(2.0 * w).astype(np.int64)
        values = ((signs @ doubled) * signs).sum(axis=1) // 2
        best = int(np.argmax(values))
        return float(values[best]) / 2.0, tuple(int(v) for v in signs[best])
    values = 0.5 * ((signs @ w) * signs).sum(axis=1)
    best = int(np.argmax(values))
    return float(values[best]), tuple(int(v) for v in signs[best])


def is_half_integer(pairs) -> bool:
    return all(abs(2.0 * w - round(2.0 * w)) <= 1e-9 for _, _, w in pairs)


def check_sign_optimum(
    n: int,
    pairs,
    value: float,
    argmax,
    evaluations: int,
    expected: float | None = None,
) -> list[str]:
    """Check a reported maximum of a pairwise form over sign vectors.

    Every size: the argmax is a folded sign vector, the form at it equals
    the value, no single flip improves it, and the walk visited 2^(n-1)
    points.  Up to BRUTE_FORCE_MAX_VARS the cube is enumerated here too;
    in exact mode the argmax must then be the first maximizer in Gray
    order, which pins the documented tie-break.
    """
    problems = []
    w = symmetric(n, pairs)
    exact = is_half_integer(pairs)
    signs = tuple(argmax)
    if len(signs) != n or any(s not in (-1, 1) for s in signs) or signs[0] != 1:
        return [f"argmax {signs} is not a folded sign vector on {n} variables"]
    if evaluations != 1 << (n - 1):
        problems.append(f"evaluations {evaluations} != 2^{n - 1}")
    at_argmax = form_value(w, signs)
    if not (at_argmax == value if exact else close(at_argmax, value)):
        problems.append(f"value {value!r} but the form at the argmax is {at_argmax!r}")
    s = np.asarray(signs, dtype=float)
    flip_gain = -2.0 * s * (w @ s)
    if float(flip_gain.max()) > REL_TOL * max(1.0, abs(value)):
        problems.append("a single sign flip improves the reported argmax")
    if expected is not None and value != expected:
        problems.append(f"value {value!r} != known optimum {expected!r}")
    if n <= BRUTE_FORCE_MAX_VARS:
        best, first = brute_force_max(w, exact)
        if not (best == value if exact else close(best, value)):
            problems.append(f"value {value!r} != brute-force maximum {best!r}")
        if exact and first != signs:
            problems.append(f"argmax {signs} is not the first Gray-order maximizer {first}")
    return problems


def check_noise_quantity(n: int, pairs, result, bipartite: bool) -> list[str]:
    """N = min over splits of the |b| weight kept inside a block."""
    abs_pairs = [(i, j, abs(w)) for i, j, w in pairs]
    total = sum(w for _, _, w in abs_pairs)
    problems = []
    if not close(result.total_weight, total):
        problems.append(f"total_weight {result.total_weight!r} != {total!r}")
    if not close(result.max_cut, total - result.value):
        problems.append("max_cut != total_weight - value")
    w = symmetric(n, abs_pairs)
    z = tuple(result.partition.values)
    kept = 0.5 * (total + form_value(w, z))
    if not close(kept, result.value):
        problems.append(f"value {result.value!r} but the partition keeps {kept!r}")
    if bipartite and result.value != 0.0:
        problems.append(f"bipartite coefficients must give N = 0, got {result.value!r}")
    if result.evaluations != 1 << (n - 1):
        problems.append(f"evaluations {result.evaluations} != 2^{n - 1}")
    if n <= BRUTE_FORCE_MAX_VARS:
        low, _ = brute_force_max(-w, is_half_integer(abs_pairs))
        expected = 0.5 * (total - low)
        if not close(expected, result.value):
            problems.append(f"value {result.value!r} != brute-force minimum {expected!r}")
    return problems


# ----------------------------------------------------------------------------
# clique-web family
# ----------------------------------------------------------------------------


def web_pairs(p: int, q: int, r: int):
    """Web W(p, r): vertices joined at circular distance r+1 .. r+q."""
    edges = set()
    for i in range(p):
        for off in range(r + 1, r + q + 1):
            j = (i + off) % p
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def clique_web_pairs(p: int, q: int, r: int):
    """+1 on X-Z cross pairs, -1 on web edges and inside the Z clique."""
    pairs = [(i, p + j, 1.0) for i in range(p) for j in range(q)]
    pairs += [(i, j, -1.0) for i, j in web_pairs(p, q, r)]
    pairs += [(p + a, p + b, -1.0) for a in range(q) for b in range(a + 1, q)]
    return pairs


def bouquet_vectors(p: int, q: int, theta: float) -> np.ndarray:
    """p ring vectors at polar angle theta, then q poles, in R^3."""
    azimuth = 2.0 * np.pi * np.arange(p) / p
    ring = np.column_stack(
        [np.sin(theta) * np.cos(azimuth), np.sin(theta) * np.sin(azimuth), np.full(p, np.cos(theta))]
    )
    return np.vstack([ring, np.tile([0.0, 0.0, 1.0], (q, 1))])


def bouquet_curve(p: int, q: int, r: int, theta: float) -> float:
    """Normalized transported value of the clique-web at its bouquet."""
    x = bouquet_vectors(p, q, theta)
    w = symmetric(p + q, clique_web_pairs(p, q, r))
    return 0.5 * float(np.sum(w * (x @ x.T))) / (q * (r + 1))


# ----------------------------------------------------------------------------
# polytopes
# ----------------------------------------------------------------------------


def coordinate_pairs(kind: str, n: int, m: int):
    if kind == "bell_bipartite":
        return [(i, j) for i in range(n) for j in range(m)]
    if kind == "cor":
        return [(i, j) for i in range(n) for j in range(i, n)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def polytope_vertices(kind: str, n: int, m: int = 0) -> np.ndarray:
    """Vertex rows in lexicographic pair coordinates, as integers."""
    ii, jj = (np.array(c, dtype=np.int64) for c in zip(*coordinate_pairs(kind, n, m)))
    if kind == "cor":
        k = np.arange(1 << n, dtype=np.int64)
        bits = (k[:, None] >> np.arange(n, dtype=np.int64)) & 1
        return bits[:, ii] * bits[:, jj]
    total = n + m if kind == "bell_bipartite" else n
    k = np.arange(1 << (total - 1), dtype=np.int64)
    bits = np.zeros((k.size, total), dtype=np.int64)
    bits[:, 1:] = (k[:, None] >> np.arange(total - 1, dtype=np.int64)) & 1
    if kind == "cut":
        return bits[:, ii] ^ bits[:, jj]
    signs = 1 - 2 * bits
    if kind == "bell_bipartite":
        return signs[:, ii] * signs[:, n + jj]
    return signs[:, ii] * signs[:, jj]


def check_membership(cert, point: np.ndarray, verts: np.ndarray, inside: bool) -> list[str]:
    """Check a hull-membership answer against the construction of the point.

    Inside answers must come with a witness at the point.  Outside
    answers must carry a hyperplane that every vertex generated here
    satisfies and the point violates.
    """
    if cert.inside != inside:
        return [f"answered inside={cert.inside}, constructed inside={inside}"]
    gap = float(np.linalg.norm(point - np.asarray(cert.witness)))
    if inside:
        if cert.distance > 1e-7 or gap > 1e-7:
            return [f"inside answer with distance {cert.distance!r}, witness gap {gap!r}"]
        return []
    sep = cert.separating
    if sep is None:
        return ["outside answer without a separating hyperplane"]
    normal = np.asarray(sep.normal, dtype=float)
    problems = []
    if not close(float(np.linalg.norm(normal)), 1.0):
        problems.append("separating normal is not a unit vector")
    worst = float(np.max(verts @ normal))
    if worst > sep.offset + 1e-9:
        problems.append(f"a vertex reaches {worst!r} beyond the offset {sep.offset!r}")
    if not float(normal @ point) > sep.offset:
        problems.append("the point does not violate its separating hyperplane")
    if not close(gap, cert.distance, 1e-6):
        problems.append(f"distance {cert.distance!r} but the witness is {gap!r} away")
    return problems


def facet_facts(verts: np.ndarray, coefficients: np.ndarray, rhs: float):
    """(valid, tight count, affine rank of the tight set) for c . v <= rhs."""
    values = verts @ coefficients
    valid = bool(np.all(values <= rhs))
    tight = verts[values == rhs]
    if len(tight) == 0:
        return valid, 0, -1
    if len(tight) == 1:
        return valid, 1, 0
    return valid, len(tight), int(np.linalg.matrix_rank((tight[1:] - tight[0]).astype(float)))


def check_facet(report, verts: np.ndarray, coefficients: np.ndarray, rhs: float) -> list[str]:
    valid, count, rank = facet_facts(verts, coefficients, rhs)
    got = (report.valid, report.tight_count, report.affine_rank, report.ambient_dim)
    want = (valid, count, rank, verts.shape[1])
    return [] if got == want else [f"facet report {got} != {want}"]


def cut_to_cor(cut_point: np.ndarray, n: int) -> np.ndarray:
    """Covariance map from cut(n+1) onto cor(n), with node 0 as the root."""
    index = {pair: k for k, pair in enumerate(coordinate_pairs("cut", n + 1, 0))}
    d = lambda a, b: cut_point[index[(min(a, b), max(a, b))]]
    out = []
    for i, j in coordinate_pairs("cor", n, 0):
        if i == j:
            out.append(d(0, i + 1))
        else:
            out.append(0.5 * (d(0, i + 1) + d(0, j + 1) - d(i + 1, j + 1)))
    return np.array(out)
