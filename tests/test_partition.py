import random

import numpy as np
import pytest

from versegraph import partition
from versegraph.core import EdgeRecord, GraphView
from versegraph.errors import ValidationError

from conftest import make_view, random_simple_edges


def clique_pair(m):
    """Two m-cliques joined by a single bridge edge (0..m-1 and m..2m-1)."""
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(u, v) for u in range(m, 2 * m) for v in range(u + 1, 2 * m)]
    edges.append((m - 1, m))
    return make_view(2 * m, edges)


def test_laplacian_k2():
    L = partition.laplacian(make_view(2, [(0, 1)]))
    assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_empty_graph():
    L = partition.laplacian(make_view(3, []))
    assert np.array_equal(L, np.zeros((3, 3)))


def test_laplacian_row_sums_and_symmetry():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 10)
        g = make_view(n, random_simple_edges(n, 0.5, rng))
        L = partition.laplacian(g)
        assert np.allclose(L.sum(axis=1), 0.0)
        assert np.array_equal(L, L.T)


def test_laplacian_psd():
    rng = random.Random(4)
    g = make_view(8, random_simple_edges(8, 0.4, rng))
    L = partition.laplacian(g)
    rand = np.random.default_rng(0)
    for _ in range(100):
        v = rand.normal(size=8)
        assert v @ L @ v >= -1e-8


def test_fiedler_k2():
    lam, v = partition.fiedler_vector(partition.laplacian(make_view(2, [(0, 1)])))
    assert lam == pytest.approx(2.0)
    assert v == pytest.approx(np.array([1, -1]) / np.sqrt(2))


def test_fiedler_p3():
    g = make_view(3, [(0, 1), (1, 2)])
    lam, v = partition.fiedler_vector(partition.laplacian(g))
    assert lam == pytest.approx(1.0)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_fiedler_disconnected_lambda_zero():
    g = make_view(4, [(0, 1), (2, 3)])
    lam, _ = partition.fiedler_vector(partition.laplacian(g))
    assert abs(lam) <= 1e-8


def test_fiedler_contract():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 12)
        g = make_view(n, random_simple_edges(n, 0.5, rng))
        L = partition.laplacian(g)
        lam, v = partition.fiedler_vector(L)
        assert np.linalg.norm(L @ v - lam * v) <= 1e-8
        assert abs(v.sum() / np.sqrt(n)) <= 1e-6 or abs(lam) < 1e-10
        assert np.linalg.norm(v) == pytest.approx(1.0)
        nz = v[np.abs(v) > 1e-12]
        if len(nz):
            assert nz[0] > 0


def test_bisection_k2():
    part = partition.spectral_bisection(make_view(2, [(0, 1)]))
    assert sorted(part.block_sizes) == [1, 1]


def test_bisection_two_cliques():
    g = clique_pair(4)
    part = partition.spectral_bisection(g)
    blocks = {b: {v for v, bb in part.assignment.items() if bb == b} for b in (0, 1)}
    assert {frozenset(blocks[0]), frozenset(blocks[1])} == {
        frozenset(range(4)), frozenset(range(4, 8))
    }
    assert part.cut_edges == 1


def test_bisection_even_cycle():
    g = make_view(6, [(i, (i + 1) % 6) for i in range(6)])
    part = partition.spectral_bisection(g)
    assert sorted(part.block_sizes) == [3, 3]
    assert part.cut_edges == 2
    # blocks are contiguous arcs
    for b in (0, 1):
        members = sorted(v for v, bb in part.assignment.items() if bb == b)
        diffs = [(members[(i + 1) % 3] - members[i]) % 6 for i in range(3)]
        assert sorted(diffs) in ([1, 1, 4],)


def test_bisection_disconnected_errors():
    with pytest.raises(ValidationError):
        partition.spectral_bisection(make_view(4, [(0, 1), (2, 3)]))


def test_cut_count_matches_recount():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(4, 12)
        edges = random_simple_edges(n, 0.5, rng)
        g = make_view(n, edges)
        try:
            part = partition.spectral_bisection(g)
        except ValidationError:
            continue
        recount = sum(1 for u, v in ((e.src, e.dst) for e in g.edges)
                      if part.assignment[u] != part.assignment[v])
        assert part.cut_edges == recount


def _laplacian_reference(g):
    """The per-vertex loop the Laplacian used to be, on distinct non-loop pairs
    taken from the edge list."""
    pairs = {frozenset((e.src, e.dst)) for e in g.edges if e.src != e.dst}
    L = np.zeros((g.n, g.n))
    for pair in pairs:
        i, j = (g.index[v] for v in pair)
        L[i, j] = L[j, i] = -1.0
        L[i, i] += 1.0
        L[j, j] += 1.0
    return L


def _cut_count_reference(g, assignment):
    seen = set()
    cut = 0
    for e in g.edges:
        key = (min(e.src, e.dst), max(e.src, e.dst))
        if e.src != e.dst and key not in seen and assignment[e.src] != assignment[e.dst]:
            cut += 1
        seen.add(key)
    return cut


@pytest.mark.parametrize("seed", range(10))
def test_laplacian_and_cut_count_match_loop_references(seed):
    # parallel edges, self-loops and mixed directions, on ids that are not positions
    rng = random.Random(seed)
    ids = sorted(rng.sample(range(50), rng.randint(1, 14)))
    edges = [(rng.choice(ids), rng.choice(ids), 1.0, rng.random() < 0.5)
             for _ in range(rng.randint(0, 30))]
    g = GraphView(ids, [EdgeRecord(i, u, v, 0, 0, d, w, "", 0, None)
                        for i, (u, v, w, d) in enumerate(edges + edges[:3])])
    assert np.array_equal(partition.laplacian(g), _laplacian_reference(g))
    for _ in range(5):
        assignment = {v: rng.randrange(3) for v in ids}
        assert partition._cut_count(g, assignment) == _cut_count_reference(g, assignment)


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_planted_partition_recovery(m):
    part = partition.spectral_bisection(clique_pair(m))
    blocks = {b: frozenset(v for v, bb in part.assignment.items() if bb == b) for b in (0, 1)}
    assert {blocks[0], blocks[1]} == {frozenset(range(m)), frozenset(range(m, 2 * m))}


def test_kway_ring_of_triangles():
    # four triangles, consecutive ones joined by one edge in a ring
    edges = []
    for t in range(4):
        base = 3 * t
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    for t in range(4):
        edges.append((3 * t + 2, (3 * t + 3) % 12))
    g = make_view(12, edges)
    part = partition.spectral_kway(g, 4)
    groups = {}
    for v, b in part.assignment.items():
        groups.setdefault(b, set()).add(v)
    assert sorted(len(s) for s in groups.values()) == [3, 3, 3, 3]
    assert set(map(frozenset, groups.values())) == {
        frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8}), frozenset({9, 10, 11})
    }


def test_kway_equals_n_singletons():
    g = make_view(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    part = partition.spectral_kway(g, 4)
    assert sorted(part.block_sizes) == [1, 1, 1, 1]


def test_kway_two_matches_bisection():
    g = clique_pair(4)
    a = partition.spectral_kway(g, 2)
    b = partition.spectral_bisection(g)
    pa = {frozenset(v for v, x in a.assignment.items() if x == blk) for blk in set(a.assignment.values())}
    pb = {frozenset(v for v, x in b.assignment.items() if x == blk) for blk in set(b.assignment.values())}
    assert pa == pb


def test_kway_rejects_bad_k():
    g = make_view(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(ValidationError):
        partition.spectral_kway(g, 3)
    with pytest.raises(ValidationError):
        partition.spectral_kway(g, 1)
    with pytest.raises(ValidationError):
        partition.spectral_kway(g, 8)


def test_bisection_beats_or_matches_exhaustive_on_cliques():
    # exhaustive minimum-ratio-cut search agrees with the spectral split
    g = clique_pair(4)
    n = g.n
    best = None
    for mask in range(1, 2 ** (n - 1)):
        S = {v for v in range(n) if mask >> v & 1}
        if not S or len(S) == n:
            continue
        cut = sum(1 for e in g.edges if (e.src in S) != (e.dst in S))
        ratio = cut / (len(S) * (n - len(S)))
        if best is None or ratio < best[0]:
            best = (ratio, S)
    part = partition.spectral_bisection(g)
    S = {v for v, b in part.assignment.items() if b == 0}
    assert S in (best[1], set(range(n)) - best[1])
