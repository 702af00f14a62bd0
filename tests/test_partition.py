import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from versegraph import cli, io, partition
from versegraph.core import EdgeRecord
from versegraph.errors import ConvergenceError, ValidationError

from conftest import make_view, pipeline_params, random_simple_edges
from record_graph import graph_view


def clique_pair(m):
    """Two m-cliques joined by a single bridge edge (0..m-1 and m..2m-1)."""
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    edges += [(u, v) for u in range(m, 2 * m) for v in range(u + 1, 2 * m)]
    edges.append((m - 1, m))
    return make_view(2 * m, edges)


def _as_dense(L):
    """The operator applied to every unit vector: its matrix, column by column."""
    return L @ np.eye(L.shape[0])


def test_laplacian_k2():
    L = partition.laplacian(make_view(2, [(0, 1)]))
    assert np.array_equal(_as_dense(L), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_empty_graph():
    L = partition.laplacian(make_view(3, []))
    assert np.array_equal(_as_dense(L), np.zeros((3, 3)))


def test_laplacian_row_sums_and_symmetry():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 10)
        g = make_view(n, random_simple_edges(n, 0.5, rng))
        L = _as_dense(partition.laplacian(g))
        assert np.allclose(L.sum(axis=1), 0.0)
        assert np.array_equal(L, L.T)


def test_laplacian_psd():
    rng = random.Random(4)
    g = make_view(8, random_simple_edges(8, 0.4, rng))
    L = partition.laplacian(g)
    rand = np.random.default_rng(0)
    for _ in range(100):
        v = rand.normal(size=8)
        assert v @ (L @ v) >= -1e-8


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
    g = graph_view(ids, [EdgeRecord(i, u, v, 0, 0, d, w, "", 0, None)
                         for i, (u, v, w, d) in enumerate(edges + edges[:3])])
    L = partition.laplacian(g)
    assert np.array_equal(L @ np.eye(g.n), _laplacian_reference(g))
    x = np.random.default_rng(seed).normal(size=(g.n, 3))
    assert np.allclose(L @ x, _laplacian_reference(g) @ x, rtol=0, atol=1e-12)
    assert np.array_equal(L @ x[:, 0], (L @ x)[:, 0])
    for _ in range(5):
        assignment = {v: rng.randrange(3) for v in ids}
        block = np.array([assignment[v] for v in ids])
        assert partition._cut_count(L, block) == _cut_count_reference(g, assignment)


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


def _star(leaves):
    return make_view(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def _spider(legs, length):
    """A center (vertex 0) with ``legs`` paths of ``length`` vertices each."""
    edges = []
    for leg in range(legs):
        first = 1 + leg * length
        edges += [(0, first)] + [(v, v + 1) for v in range(first, first + length - 1)]
    return make_view(1 + legs * length, edges)


# a sign split of a star or a spider leaves blocks whose leaves or legs hang
# apart, so recursive bisection peels those blocks by component
@pytest.mark.parametrize("g, k, assignment, cut, sizes", [
    (_star(9), 4, [0, 1, 2, 3, 0, 3, 3, 3, 0, 1], 7, (3, 2, 1, 4)),
    (_star(9), 8, [0, 1, 2, 3, 4, 5, 6, 6, 7, 1], 9, (1, 2, 1, 1, 1, 1, 2, 1)),
    (_star(17), 4, [0, 1, 0, 1, 2, 1, 0, 0, 3, 3, 3, 0, 3, 1, 3, 3, 3, 3], 13, (5, 4, 1, 8)),
    (_star(17), 8, [0, 1, 2, 1, 3, 1, 0, 0, 4, 5, 6, 2, 7, 1, 7, 7, 7, 7], 15,
     (3, 4, 2, 1, 1, 1, 1, 5)),
    (_spider(4, 3), 4, [0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 0, 0], 3, (4, 3, 3, 3)),
    (_spider(4, 3), 8, [0, 1, 2, 2, 3, 4, 4, 5, 6, 6, 0, 7, 7], 7, (2, 1, 2, 1, 2, 1, 2, 2)),
])
def test_kway_peels_disconnected_blocks(g, k, assignment, cut, sizes):
    part = partition.spectral_kway(g, k)
    assert [part.assignment[v] for v in g.vertices] == assignment
    assert part.cut_edges == cut and part.block_sizes == sizes


def test_long_path_with_an_isolated_vertex_is_refused():
    g = make_view(40_001, [(v, v + 1) for v in range(39_999)])
    with pytest.raises(ValidationError, match="^spectral bisection requires a connected graph$"):
        partition.spectral_bisection(g)
    with pytest.raises(ValidationError, match="^spectral k-way requires a connected graph$"):
        partition.spectral_kway(g, 4)


def test_kway_rejects_bad_k():
    g = make_view(6, [(i, i + 1) for i in range(5)])
    with pytest.raises(ValidationError):
        partition.spectral_kway(g, 3)
    with pytest.raises(ValidationError):
        partition.spectral_kway(g, 1)
    with pytest.raises(ValidationError):
        partition.spectral_kway(g, 8)


def test_kway_rejects_a_k_that_is_not_an_integer():
    g = make_view(6, [(i, i + 1) for i in range(5)])
    for k in (2.0, 4.5, "2", None, True):
        with pytest.raises(ValidationError, match="^k must be an integer"):
            partition.spectral_kway(g, k)
    assert partition.spectral_kway(g, np.int64(2)) == partition.spectral_kway(g, 2)


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


# -- the LOBPCG solver against the dense oracle -------------------------------

def _matrix_from_csr(L):
    """The dense matrix of an operator, built from its CSR for the eigh
    oracle (applying L to the identity would gather n times every arc)."""
    n = L.shape[0]
    D = np.zeros((n, n))
    D[np.repeat(np.arange(n), np.diff(L.indptr)), L.indices] = -1.0
    D[np.diag_indices(n)] = L.diagonal()
    return D


def _assert_matches_oracle(D, lam, v):
    """The solver's contract, and lambda_2 and |v| as dense eigh gives them;
    where lambda_2 is not simple, v lies in its eigenspace instead."""
    w, U = np.linalg.eigh(D)
    n = len(w)
    assert lam == pytest.approx(w[1], rel=1e-12, abs=1e-12)
    assert np.linalg.norm(D @ v - lam * v) <= partition.DEFAULT_TOL
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v.sum()) <= 1e-12
    assert v[np.abs(v) > 1e-12][0] > 0
    if w[1] - w[0] > 1e-3 and (n == 2 or w[2] - w[1] > 1e-3):
        assert np.abs(np.abs(v) - np.abs(U[:, 1])).max() <= 1e-8
    else:
        space = U[:, np.abs(w - w[1]) <= 1e-9]
        assert np.linalg.norm(v - space @ (space.T @ v)) <= 1e-8


def _shapes(n, rng):
    """Edge lists on vertices 0..n-1: path, cycle, star, complete and random."""
    yield [(i, i + 1) for i in range(n - 1)]
    yield [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    yield [(0, i) for i in range(1, n)]
    yield [(i, j) for i in range(n) for j in range(i + 1, n)]
    for p in (0.3, 0.6):
        for _ in range(3):
            yield random_simple_edges(n, p, rng)


@pytest.mark.parametrize("n", range(2, 13))
def test_fiedler_small_views_match_dense_oracle(n):
    # n <= 3 * BLOCK + 1: the Rayleigh-Ritz basis can fill the whole space
    rng = random.Random(500 + n)
    for edges in _shapes(n, rng):
        g = make_view(n, edges)
        D = _laplacian_reference(g)
        _assert_matches_oracle(D, *partition.fiedler_vector(partition.laplacian(g)))


@pytest.mark.parametrize("n, edges", [
    (6, [(0, 1), (1, 2)]),  # trailing rows with no arcs
    (5, [(0, 1), (3, 4)]),  # an empty row between rows with arcs
    (7, [(1, 2), (2, 3), (3, 1), (5, 6)]),  # a leading empty row
    (4, []),  # no arcs at all
    (30, [(i, i + 1) for i in range(0, 28, 2)]),  # 14 pairs and two isolated vertices
])
def test_isolated_vertices(n, edges):
    g = make_view(n, edges)
    L, D = partition.laplacian(g), _laplacian_reference(g)
    x = np.random.default_rng(n).normal(size=(n, 3))
    assert np.allclose(L @ x, D @ x, rtol=0, atol=1e-12)
    assert np.allclose(L @ x[:, 1], D @ x[:, 1], rtol=0, atol=1e-12)
    # reduceat gives an empty segment the value at its start: a row with no
    # arcs must read deg * x = 0 all the same
    empty = np.diff(L.indptr) == 0
    assert empty.any() and not (L @ x)[empty].any() and not (L @ x[:, 0])[empty].any()
    lam, v = partition.fiedler_vector(L)
    assert abs(lam) <= 1e-12
    _assert_matches_oracle(D, lam, v)


@pytest.mark.parametrize("parts", [[3, 3], [4, 5, 6], [20, 30]])
def test_disconnected_view_lambda_zero(parts):
    # each part a cycle; the null space holds one indicator per part
    edges, base = [], 0
    for size in parts:
        edges += [(base + i, base + (i + 1) % size) for i in range(size)]
        base += size
    g = make_view(base, edges)
    lam, v = partition.fiedler_vector(partition.laplacian(g))
    assert abs(lam) <= 1e-12
    _assert_matches_oracle(_laplacian_reference(g), lam, v)


def test_fiedler_random_views_match_dense_oracle():
    rng = random.Random(77)
    for n in (20, 60, 150):
        for p in (0.05, 0.2):
            g = make_view(n, random_simple_edges(n, p, rng))
            _assert_matches_oracle(_laplacian_reference(g),
                                   *partition.fiedler_vector(partition.laplacian(g)))


def _connected_view(n, rng):
    """A random spanning tree on 0..n-1 plus random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 2)}
    return make_view(n, sorted(edges))


@pytest.mark.parametrize("seed", range(6))
def test_multigrid_levels_are_galerkin_products(monkeypatch, seed):
    """Every level is a Laplacian: the first is the view's own, each next
    one is P^T L P of the level before it, P the piecewise-constant
    prolongation of that level's aggregates, and the coarsest pseudo-inverse
    is that of the last level's Galerkin product written out."""
    monkeypatch.setattr(partition, "MAX_COARSE", 6)
    rng = random.Random(seed)
    L = partition.laplacian(_connected_view(rng.randint(60, 160), rng))
    levels, coarsest = partition._build_multigrid(L)
    assert len(levels) >= 2 and levels[0].L is L
    y_rng = np.random.default_rng(seed)
    for prev, level in zip(levels, levels[1:]):
        assert isinstance(level.L, partition.Laplacian)
        assert level.L.shape[0] == prev.m < prev.L.shape[0]
        # integer entries: every sum is exact, so the two orders agree bitwise
        y = y_rng.integers(-9, 10, size=prev.m).astype(np.float64)
        galerkin = np.bincount(prev.agg, weights=prev.L @ y[prev.agg], minlength=prev.m)
        assert np.array_equal(level.L @ y, galerkin)
    last = levels[-1]
    P = np.eye(last.m)[last.agg]
    dense = P.T @ (last.L @ P)
    assert last.m <= partition.MAX_COARSE
    assert np.array_equal(coarsest, np.linalg.pinv(dense, rcond=1e-10, hermitian=True))


def test_multigrid_of_a_small_view_is_its_dense_pseudo_inverse():
    g = make_view(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
    levels, coarsest = partition._build_multigrid(partition.laplacian(g))
    assert levels == []
    want = np.linalg.pinv(_laplacian_reference(g), rcond=1e-10, hermitian=True)
    assert np.array_equal(coarsest, want)


def test_weighted_laplacian_and_its_induced_blocks():
    """With arc weights, L = D - W, D the weighted degrees; a block cut out
    of it keeps the weights of the arcs inside it."""
    rng = np.random.default_rng(3)
    n = 9
    W = np.triu(rng.integers(0, 4, size=(n, n)), 1).astype(np.float64)
    W += W.T
    rows, cols = np.nonzero(W)
    L = partition.Laplacian(np.searchsorted(rows, np.arange(n + 1)), cols, W[rows, cols])
    assert np.array_equal(L @ np.eye(n), np.diag(W.sum(1)) - W)
    keep = np.array([0, 2, 3, 7, 8])
    sub = W[np.ix_(keep, keep)]
    assert np.array_equal(partition._induced(L, keep) @ np.eye(len(keep)),
                          np.diag(sub.sum(1)) - sub)


def test_iteration_cap_raises_convergence_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(partition, "MAX_ITER", 2)
    g = make_view(40, [(i, i + 1) for i in range(39)])
    with pytest.raises(ConvergenceError, match="did not converge in 2 iterations"):
        partition.fiedler_vector(partition.laplacian(g))
    # the CLI maps it to exit code 4
    path = str(tmp_path / "g.json")
    assert cli.run(["gen", "--scenario", "network", "--seed", "1", "--out", path]) == 0
    assert cli.run(["partition", "--in", path, "--k", "2", "--out", str(tmp_path / "p.json")]) == 4
    assert "did not converge" in capsys.readouterr().err


def test_tol_below_rounding_is_met_at_the_rounding_floor():
    # a residual under about eps * ||L|| cannot be reached: such a tol asks
    # for 64 * eps * (2 * max degree) instead of running into the cap
    rng = random.Random(3)
    for n, edges in [(50, [(i, i + 1) for i in range(49)]),
                     (200, random_simple_edges(200, 0.5, rng))]:
        L = partition.laplacian(make_view(n, edges))
        lam, v = partition.fiedler_vector(L, tol=1e-30)
        floor = 64 * np.finfo(np.float64).eps * 2 * L.diagonal().max()
        assert np.linalg.norm(L @ v - lam * v) <= floor


def test_fiedler_rejects_bad_input():
    with pytest.raises(ValidationError):
        partition.fiedler_vector(partition.laplacian(make_view(3, [(0, 1)])), tol=0.0)
    with pytest.raises(ValidationError):
        partition.fiedler_vector(partition.laplacian(make_view(1, [])))
    with pytest.raises(ValidationError):
        partition.laplacian(make_view(0, []))
    # a tol that is not a finite number > 0: inf would return an unconverged
    # vector, nan would run to the iteration cap
    g = make_view(40, [(i, i + 1) for i in range(39)])
    for tol in (float("inf"), float("nan"), -1e-8, True, "1e-8", None, 10**400):
        with pytest.raises(ValidationError, match="^tol must be a finite number > 0"):
            partition.fiedler_vector(partition.laplacian(g), tol=tol)
        with pytest.raises(ValidationError, match="^tol must be a finite number > 0"):
            partition.spectral_bisection(g, tol=tol)
        with pytest.raises(ValidationError, match="^tol must be a finite number > 0"):
            partition.spectral_kway(g, 4, tol=tol)


# -- long chains ---------------------------------------------------------------

def _chain(shape, n):
    """Edges of a path, a cycle or a ladder (two paths of n/2 joined rung by
    rung) on 0..n-1, in chain order."""
    half = n // 2
    return {
        "path": [(i, i + 1) for i in range(n - 1)],
        "cycle": [(i, (i + 1) % n) for i in range(n)],
        "ladder": [(i, i + 1) for rail in (0, half) for i in range(rail, rail + half - 1)]
        + [(i, half + i) for i in range(half)],
    }[shape]


@pytest.mark.parametrize("shape, cut2, cut4", [("path", 1, 3), ("cycle", 2, 4), ("ladder", 2, 6)])
def test_long_chains_bisect_and_split(shape, cut2, cut4):
    """Chains of 10^4 vertices in shuffled id order converge within
    ``MAX_ITER`` and split into equal contiguous runs."""
    n = 10_000
    ids = list(range(n))
    random.Random(n).shuffle(ids)
    g = make_view(n, [(ids[u], ids[v]) for u, v in _chain(shape, n)])
    halves = partition.spectral_bisection(g)
    assert (halves.cut_edges, halves.block_sizes) == (cut2, (n // 2, n // 2))
    quarters = partition.spectral_kway(g, 4)
    assert (quarters.cut_edges, quarters.block_sizes) == (cut4, (n // 4,) * 4)
    if shape == "path":  # one change of side along the path
        side = [halves.assignment[ids[i]] for i in range(n)]
        assert sum(a != b for a, b in zip(side, side[1:])) == 1


def test_fiedler_on_a_path_of_100k_vertices():
    n = 100_000
    order = np.random.default_rng(n).permutation(n)
    u, v = order[:-1], order[1:]
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    arcs = np.lexsort((cols, rows))
    L = partition.Laplacian(np.searchsorted(rows[arcs], np.arange(n + 1)), cols[arcs])
    lam, x = partition.fiedler_vector(L)
    assert lam == pytest.approx(4 * np.sin(np.pi / (2 * n)) ** 2, rel=1e-9)
    assert np.linalg.norm(L @ x - lam * x) <= partition.DEFAULT_TOL * partition.TIGHTEN
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert abs(x.sum()) <= 1e-12
    assert x[np.abs(x) > 1e-12][0] > 0


# -- the cli-pipeline graphs ---------------------------------------------------

# sha256 of `versegraph partition --k 4` on `gen --scenario multilayer` at the
# cli-pipeline params (1x, 1,160 vertices) and four times its counts (4x,
# 4,640 vertices), written when the Fiedler vector came from a dense eigh
PARTITION_SHA256 = {
    (1, 1): "b23bd32f8fce626e0a1a12bb995c3bfae6b8955099a8ce832962d28b9d3aba26",
    (1, 2): "9a17cb39eae1377d85f36aa89d5d7fe93375b69821bea7db76a27149bd900290",
    (1, 3): "9710641af89956824b940ab9c6924e1bdea23c6bf928a9ecaa6a41c249e3f973",
    (1, 4): "ff89646bed2b8560f3c41e44904e760c0d5f5d718716a95f5ac0e4a63bdf4791",
    (1, 5): "917a5ca0e1e93e716ce20d6f17cad832600915b7ae1dc7fbeb9949de4ce67602",
    (1, 6): "ad52eca92b43870296485f0762eb4e85ae7cb017ccc446249fad8f9474ec5165",
    (1, 7): "3fcf93e8de967ca206260c0cb3735231b1cb65d5b51f352a89911a3d53442fbb",
    (1, 8): "e2c70db159059abcad2f8b3ffb3176b4f24885b8c11def271cc9b477eda6711c",
    (1, 9): "5d0573097e3c07c9d14e881ce42670580c7637b90ec59e2d329d063377c4a7c6",
    (1, 10): "c94fd8964b54e1a9d2557176a8ac71921fe52757cce161e05e8e261c41344a96",
    (1, 7919): "41942a9c61c68d9725f6f9b268b52d5ec88fb1d14cb699476632cde0079e13d3",
    (4, 7919): "825ae13b60c7416ffdf239b246f016d688de575897475c03e8ea2eb04de7227e",
}


@pytest.fixture(scope="module")
def pipeline_graph(tmp_path_factory):
    """``pipeline_graph(scale, seed)``: the path of that graph file, written
    by `gen` on first use."""
    work = tmp_path_factory.mktemp("pipeline")
    paths = {}

    def get(scale, seed):
        if (scale, seed) not in paths:
            params, path = work / f"p{scale}.json", work / f"g{scale}_{seed}.json"
            params.write_text(json.dumps(pipeline_params(scale)))
            assert cli.run(["gen", "--scenario", "multilayer", "--seed", str(seed),
                            "--params", str(params), "--out", str(path)]) == 0
            paths[scale, seed] = str(path)
        return paths[scale, seed]
    return get


@pytest.mark.parametrize("scale, seed", sorted(PARTITION_SHA256))
def test_pipeline_partition_bytes_pinned(pipeline_graph, tmp_path, scale, seed):
    out = tmp_path / "p.json"
    assert cli.run(["partition", "--in", pipeline_graph(scale, seed), "--k", "4",
                    "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PARTITION_SHA256[scale, seed]


# sha256 of `versegraph analyze --metrics degree,betweenness,clustering,components`
# on the 1x cli-pipeline graph, taken when the sampler still kept its np.delete pool
ANALYZE_SHA256 = {
    1: "841646155669e787f52c29adaae4d371f15a5fbd82ac4dc679ecb7254c2e7446",
    7919: "23dee465fca43f9444ba2d180e4bce44b4533ce69d04beacdffa7974156bea74",
}


@pytest.mark.parametrize("seed", sorted(ANALYZE_SHA256))
def test_pipeline_analyze_bytes_pinned(pipeline_graph, tmp_path, seed):
    out = tmp_path / "a.csv"
    assert cli.run(["analyze", "--in", pipeline_graph(1, seed), "--metrics",
                    "degree,betweenness,clustering,components", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ANALYZE_SHA256[seed]


@pytest.mark.parametrize("seed", [*range(1, 11), 7919])
def test_fiedler_sign_margin_on_pipeline_graphs(pipeline_graph, monkeypatch, seed):
    """In each of the three solves of a k=4 partition, the smallest |v_i| is
    at least 10^3 times the largest error of v against dense eigh, so every
    sign of the split is the exact eigenvector's: a change that eats into the
    margin fails here before it moves a vertex."""
    solves = []
    solve = partition.fiedler_vector

    def record(L, tol=partition.DEFAULT_TOL):
        lam, v = solve(L, tol)
        solves.append((L, lam, v))
        return lam, v
    monkeypatch.setattr(partition, "fiedler_vector", record)
    view = io.import_graph(pipeline_graph(1, seed)).snapshot_at(0).flatten()
    partition.spectral_kway(view, 4)
    assert [L.shape[0] for L, _, _ in solves][0] == view.n and len(solves) == 3
    for L, lam, v in solves:
        w, U = np.linalg.eigh(_matrix_from_csr(L))
        u = U[:, 1] * np.sign(U[:, 1] @ v)
        assert lam == pytest.approx(w[1], rel=1e-9)
        assert np.abs(v).min() >= 1e3 * np.abs(v - u).max()


@pytest.mark.parametrize("seed", [1, 7919])
def test_kway_blocks_are_cut_from_their_parents(pipeline_graph, monkeypatch, seed):
    """The first split solves on the view's Laplacian itself; every later
    block's Laplacian is cut from its parent block's, and every one solved
    equals the one cut straight from the view's on the same rows."""
    cuts, solves = [], []
    induced, solve = partition._induced, partition.fiedler_vector

    def cut(L, keep):
        sub = induced(L, keep)
        cuts.append((L, keep, sub))
        return sub

    def record(L, tol=partition.DEFAULT_TOL):
        solves.append(L)
        return solve(L, tol)
    monkeypatch.setattr(partition, "_induced", cut)
    monkeypatch.setattr(partition, "fiedler_vector", record)
    view = io.import_graph(pipeline_graph(1, seed)).snapshot_at(0).flatten()
    partition.spectral_kway(view, 8)
    root = solves[0]
    assert root.indices is view.csr("both")[1]
    known = [(root, np.arange(view.n))]  # each Laplacian with its rows in the view
    for parent, keep, sub in cuts:
        rows = next(r for M, r in known if M is parent)
        assert len(keep) < len(rows)
        known.append((sub, rows[keep]))
    assert len(solves) >= 3
    for L in solves[1:]:
        want = induced(root, next(r for M, r in known if M is L))
        for name in ("indptr", "indices", "arc_rows"):
            assert np.array_equal(getattr(L, name), getattr(want, name))
        assert L.wts is None and want.wts is None
        assert np.array_equal(L.diagonal(), want.diagonal())


def test_kway_peak_memory_below_one_dense_laplacian(pipeline_graph):
    """No n x n float64 array on the partition path: the traced peak of a
    k=4 partition of the 1x flattened graph stays under n^2 * 8 bytes."""
    view = io.import_graph(pipeline_graph(1, 1)).snapshot_at(0).flatten()
    tracemalloc.start()
    try:
        partition.spectral_kway(view, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert view.n == 1160
    assert peak < view.n ** 2 * 8
