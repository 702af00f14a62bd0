"""Kernels against independent oracles: networkx for betweenness and hop
distances, a dense Laplacian loop for consensus.  Graphs have a few hundred
vertices, so every BFS runs over several source blocks, and trailing
isolated vertices give CSR rows without arcs.  The BFS kernels are also held
bit for bit to a full pull over every row, kept here as the reference."""

import json
import tracemalloc

import numpy as np
import pytest

from versegraph import kernels

from conftest import make_view, pipeline_params, random_simple_edges


@pytest.fixture
def nx():
    return pytest.importorskip("networkx")


def _random_view(n, avg_degree, seed, directed=False, isolated=3):
    """Sparse random graph on 0..n-1 plus ``isolated`` arc-less vertices.
    When ``directed``, each edge is a directed arc with a random orientation,
    and a fifth of them stay undirected."""
    rng = np.random.default_rng(seed)
    edges = []
    for a, b in random_simple_edges(n, avg_degree / (n - 1), rng):
        if directed and rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, 1.0, directed and rng.random() < 0.8))
    return make_view(n + isolated, edges)


def _nx_graph(nx, view):
    G = nx.DiGraph() if view.directed else nx.Graph()
    G.add_nodes_from(view.vertices)
    for e in view.edges:
        G.add_edge(e.src, e.dst)
        if view.directed and not e.directed:
            G.add_edge(e.dst, e.src)
    return G


def test_backend_flag_is_exposed():
    assert kernels.USING_NUMBA is False


@pytest.mark.parametrize("seed", range(5))
def test_betweenness_backend_matches_reference(seed, nx):
    """Undirected: half the ordered-pair sums are networkx's unnormalized scores."""
    view = _random_view(200 + 20 * seed, 3.0, seed)
    indptr, indices = view.csr("both")
    got = kernels.betweenness_raw(indptr, indices, indptr, indices, view.n) / 2.0
    ref = nx.betweenness_centrality(_nx_graph(nx, view), normalized=False)
    np.testing.assert_allclose(got, [ref[v] for v in view.vertices], rtol=1e-12, atol=1e-9)
    assert got.sum() > 0


@pytest.mark.parametrize("seed", range(3))
def test_betweenness_directed_matches_networkx(seed, nx):
    view = _random_view(180 + 30 * seed, 4.0, 100 + seed, directed=True)
    assert view.directed
    indptr, indices = view.csr("out")
    rindptr, rindices = view.csr("in")
    got = kernels.betweenness_raw(indptr, indices, rindptr, rindices, view.n)
    ref = nx.betweenness_centrality(_nx_graph(nx, view), normalized=False)
    np.testing.assert_allclose(got, [ref[v] for v in view.vertices], rtol=1e-12, atol=1e-9)
    assert got.sum() > 0


def _nx_hops(nx, view):
    ref = np.full((view.n, view.n), -1, dtype=np.int64)
    for s, lengths in nx.all_pairs_shortest_path_length(_nx_graph(nx, view)):
        for t, d in lengths.items():
            ref[s, t] = d
    return ref


@pytest.mark.parametrize("seed", range(5))
def test_hop_distances_backend_matches_reference(seed, nx):
    """Undirected, often disconnected: -1 marks the unreachable pairs."""
    view = _random_view(150 + 25 * seed, 1.5, seed)
    indptr, indices = view.csr("both")
    got = kernels.hop_distances(indptr, indices, view.n)
    ref = _nx_hops(nx, view)
    assert (ref == -1).any()
    assert np.array_equal(got, ref)


def test_hop_distances_directed_matches_networkx(nx):
    view = _random_view(220, 3.0, 7, directed=True)
    indptr, indices = view.csr("out")
    got = kernels.hop_distances(indptr, indices, view.n)
    ref = _nx_hops(nx, view)
    assert not np.array_equal(ref, ref.T)
    assert np.array_equal(got, ref)


def test_hop_distances_unreachable():
    view = make_view(4, [(0, 1), (2, 3)])
    indptr, indices = view.csr("both")
    hops = kernels.hop_distances(indptr, indices, 4)
    assert hops.dtype == np.int32
    assert hops[0, 1] == 1 and hops[0, 2] == -1
    assert np.array_equal(hops, hops.T)


# -- full-pull reference: every level sums every row -------------------------

def _ref_puller(indptr, indices):
    if len(indices) == 0:
        return np.zeros_like
    rows = np.flatnonzero(indptr[:-1] < indptr[1:])
    starts = indptr[rows]

    def pull(x):
        out = np.zeros_like(x)
        out[rows] = np.add.reduceat(x[indices], starts, axis=0)
        return out

    return pull


def _ref_bfs(pull, sources, n):
    cols = np.arange(len(sources))
    dist = np.full((n, len(sources)), -1, dtype=np.int64)
    sigma = np.zeros((n, len(sources)))
    dist[sources, cols] = 0
    sigma[sources, cols] = 1.0
    frontier = sigma.copy()
    level = 0
    while True:
        reach = pull(frontier)
        new = (reach > 0) & (dist < 0)
        if not new.any():
            return dist, sigma
        level += 1
        dist[new] = level
        sigma[new] = reach[new]
        frontier = np.where(new, reach, 0.0)


def _ref_betweenness_raw(indptr, indices, rindptr, rindices, n):
    bc = np.zeros(n)
    fwd = _ref_puller(rindptr, rindices)
    back = _ref_puller(indptr, indices)
    for lo in range(0, n, 64):
        dist, sigma = _ref_bfs(fwd, np.arange(lo, min(lo + 64, n)), n)
        inv_sigma = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0)
        delta = np.zeros_like(sigma)
        for d in range(int(dist.max()), 1, -1):
            z = np.where(dist == d, (1.0 + delta) * inv_sigma, 0.0)
            delta += np.where(dist == d - 1, sigma * back(z), 0.0)
        bc += delta.sum(axis=1)
    return bc


def _ref_hop_distances(indptr, indices, n):
    out = np.empty((n, n), dtype=np.int64)
    pull = _ref_puller(indptr, indices)
    for lo in range(0, n, 64):
        out[:, lo:lo + 64] = _ref_bfs(pull, np.arange(lo, min(lo + 64, n)), n)[0]
    return out


def _hub_view(n, seed, directed):
    """Two disconnected random parts on 0..n-4, each with a hub joined both
    ways to up to 14 vertices and a self-loop, then three isolated vertices.
    When ``directed``, four in five edges are directed arcs."""
    rng = np.random.default_rng(seed)
    live = n - 3
    edges = []
    for lo, hi in ((0, live // 2), (live // 2, live)):
        edges += [tuple(rng.integers(lo, hi, 2)) for _ in range(2 * (hi - lo))]
        spokes = rng.choice(np.arange(lo + 1, hi), min(hi - lo - 1, 14), replace=False)
        edges += [e for v in spokes for e in ((lo, v), (v, lo))]
        edges.append((hi - 1, hi - 1))
    return make_view(n, [(int(a), int(b), 1.0, directed and rng.random() < 0.8)
                         for a, b in edges])


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n", [13, 40, 63, 64, 65, 150])
def test_bfs_kernels_equal_full_pull_bitwise(n, directed):
    """Row-restricted pulls give every bit of the full pull: directed and
    symmetric CSR, self-loops kept ("out"/"in") or dropped ("both"), hubs
    whose rows sum pairwise, blocks shorter than 64 and a partial last one."""
    view = _hub_view(n, 1000 + n, directed)
    assert view.directed == directed
    for fwd, back in (("out", "in"), ("both", "both")):
        indptr, indices = view.csr(fwd)
        rindptr, rindices = view.csr(back)
        if n >= 40:
            assert np.diff(indptr).max() >= 9 and np.diff(rindptr).max() >= 9
        got = kernels.betweenness_raw(indptr, indices, rindptr, rindices, n)
        ref = _ref_betweenness_raw(indptr, indices, rindptr, rindices, n)
        assert ref.sum() > 0
        assert np.array_equal(got, ref)
    for direction in ("out", "in", "both"):
        indptr, indices = view.csr(direction)
        hops = kernels.hop_distances(indptr, indices, n)
        assert (hops == -1).any()
        assert np.array_equal(hops, _ref_hop_distances(indptr, indices, n))


_HUB_ARCS = (8, 9, 16, 17, 128, 129, 230)


def _degree_view(directed):
    """A sparse random graph on 0..299 plus hubs 300..306 whose rows hold
    exactly 8, 9, 16, 17, 128, 129 and 230 arcs: directed out- and in-arcs
    from and to distinct random vertices, or undirected edges.  numpy's sum
    order changes at 8 and 9 terms and its pairwise blocks at 128 and 129."""
    rng = np.random.default_rng(11)
    edges = [(a, b, 1.0, directed) for a, b in random_simple_edges(300, 3.0 / 299, rng)]
    for h, k in enumerate(_HUB_ARCS, start=300):
        edges += [(h, int(v), 1.0, directed) for v in rng.choice(300, k, replace=False)]
        if directed:
            edges += [(int(v), h, 1.0, True) for v in rng.choice(300, k, replace=False)]
    return make_view(300 + len(_HUB_ARCS), edges)


@pytest.mark.parametrize("directed", [False, True])
def test_bfs_kernels_exact_where_numpy_sum_order_changes(directed):
    view = _degree_view(directed)
    n = view.n
    pairs = (("out", "in"),) if directed else (("both", "both"),)
    for fwd, back in pairs:
        indptr, indices = view.csr(fwd)
        rindptr, rindices = view.csr(back)
        for ptr in (indptr, rindptr):
            assert set(_HUB_ARCS) <= set(np.diff(ptr)[300:].tolist())
        got = kernels.betweenness_raw(indptr, indices, rindptr, rindices, n)
        assert np.array_equal(got, _ref_betweenness_raw(indptr, indices, rindptr, rindices, n))
        for direction in {fwd, back}:
            ip, ix = view.csr(direction)
            assert np.array_equal(kernels.hop_distances(ip, ix, n), _ref_hop_distances(ip, ix, n))


def _layered_dag():
    """Source 0 feeds layer 0; 40 layers of 6 vertices, each taking 2-5 arcs
    from distinct vertices of the layer before.  Path counts exceed 2**53,
    so the order of their sums shows in the bits."""
    rng = np.random.default_rng(5)
    edges = [(0, 1 + j, 1.0, True) for j in range(6)]
    for layer in range(1, 40):
        for j in range(6):
            for u in rng.choice(6, int(rng.integers(2, 6)), replace=False):
                edges.append((1 + 6 * (layer - 1) + int(u), 1 + 6 * layer + j, 1.0, True))
    return make_view(1 + 6 * 40, edges)


def test_bfs_kernels_exact_on_huge_path_counts():
    """Any forward pass that adds path counts in another order than
    ``np.add.reduceat`` (a push BFS, say) gives other bits here."""
    view = _layered_dag()
    n = view.n
    indptr, indices = view.csr("out")
    rindptr, rindices = view.csr("in")
    sigma = _ref_bfs(_ref_puller(rindptr, rindices), np.array([0]), n)[1][:, 0]
    assert sigma.max() > 2.0 ** 53
    # the same counts added left to right
    left = np.zeros(n)
    left[0] = 1.0
    for v in range(1, n):
        for u in rindices[rindptr[v]:rindptr[v + 1]]:
            left[v] += left[u]
    assert (left != sigma).sum() >= 10
    got = kernels.betweenness_raw(indptr, indices, rindptr, rindices, n)
    assert np.array_equal(got, _ref_betweenness_raw(indptr, indices, rindptr, rindices, n))
    assert np.array_equal(kernels.hop_distances(indptr, indices, n),
                          _ref_hop_distances(indptr, indices, n))


def test_betweenness_working_set_on_the_pipeline_graph(tmp_path):
    """The tracemalloc peak of one betweenness call on the seed-7919 1x
    ``cli-pipeline`` graph, which sets the pipeline's peak memory: about
    3.6 MB, against 8.4 MB with a distance matrix and an (arcs x 64) gather
    per level."""
    from versegraph import cli, io

    (tmp_path / "p.json").write_text(json.dumps(pipeline_params(1)))
    path = str(tmp_path / "g.json")
    assert cli.run(["gen", "--scenario", "multilayer", "--seed", "7919",
                    "--params", str(tmp_path / "p.json"), "--out", path]) == 0
    view = io.import_graph(path).snapshot_at(0).flatten()
    args = (*view.csr("out"), *view.csr("in"), view.n)
    tracemalloc.start()
    try:
        kernels.betweenness_raw(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert view.n == 1160
    assert peak <= 6_000_000


def _pulled_hop_distances(indptr, indices, n):
    """Hop distances read off the levels of the path-counting BFS that
    betweenness runs: the reference for the bits-only BFS."""
    out = np.empty((n, n), dtype=np.int32)
    indptr, indices = kernels._as_csr(indptr, indices)
    pull = kernels._puller(indptr, indices)
    for targets in kernels._blocks(n, len(indices)):
        out[:, targets] = -1
        for d, (rows, bits) in enumerate(kernels._bfs(pull, targets, n)[1]):
            at, cols = np.nonzero(kernels._unpack(bits, len(targets)))
            out[rows[at], targets[cols]] = d
    return out


@pytest.mark.parametrize("seed", [1, 7919])
def test_hop_distances_equal_the_path_counting_bfs(tmp_path, monkeypatch, seed):
    """On the ``cli-pipeline`` graph's network layer (the view `simulate
    --kind cdn` reads) and its flattened view, on small graphs with hubs,
    self-loops, isolated vertices or no arcs, and with blocks of 7 sources."""
    from versegraph import cli, io

    (tmp_path / "p.json").write_text(json.dumps(pipeline_params(1)))
    path = str(tmp_path / "g.json")
    assert cli.run(["gen", "--scenario", "multilayer", "--seed", str(seed),
                    "--params", str(tmp_path / "p.json"), "--out", path]) == 0
    g = io.import_graph(path)
    snap = g.snapshot_at(0)
    views = [snap.layer_subgraph(g.layer_id("network")), snap.flatten(),
             _hub_view(70, seed, True), _degree_view(False), make_view(5, [])]
    for cells in (None, 7):
        for view in views:
            for direction in ("out", "in", "both"):
                indptr, indices = view.csr(direction)
                if cells:
                    monkeypatch.setattr(kernels, "_GATHER_CELLS", cells * max(len(indices), 1))
                got = kernels.hop_distances(indptr, indices, view.n)
                assert got.dtype == np.int32
                assert np.array_equal(got, _pulled_hop_distances(indptr, indices, view.n))


def _consensus_inputs(n, seed):
    """A random tree plus extra edges (connected), Metropolis weights."""
    rng = np.random.default_rng(seed)
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    pairs |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(n)}
    eu, ev = np.array(sorted(pairs)).T
    deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    w = 1.0 / (1.0 + np.maximum(deg[eu], deg[ev]))
    return eu, ev, w, rng.normal(0.0, 10.0, n)


def _dense_consensus(eu, ev, w, x0, tol, max_rounds):
    n = len(x0)
    lap = np.zeros((n, n))
    np.add.at(lap, (eu, ev), -w)
    np.add.at(lap, (ev, eu), -w)
    lap[np.arange(n), np.arange(n)] = -lap.sum(axis=1)
    x, spreads = x0.copy(), [np.ptp(x0)]
    while len(spreads) <= max_rounds and spreads[-1] > tol:
        x = x - lap @ x
        spreads.append(np.ptp(x))
    return len(spreads) - 1, x, spreads


def test_consensus_backend_matches_reference():
    """Against x <- x - L_w x with the weighted Laplacian L_w."""
    eu, ev, w, x0 = _consensus_inputs(250, 3)
    spreads = []
    rounds, x = kernels.consensus_run(eu, ev, w, x0, 1e-6, 100_000, spreads)
    ref_rounds, ref_x, ref_spreads = _dense_consensus(eu, ev, w, x0, 1e-6, 100_000)
    assert 10 < rounds == ref_rounds < 100_000
    assert len(spreads) == rounds + 1
    np.testing.assert_allclose(spreads, ref_spreads, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-9)
    assert np.ptp(x) <= 1e-6
    assert np.mean(x) == pytest.approx(np.mean(x0), abs=1e-12)


def test_consensus_round_cap_matches_reference():
    eu, ev, w, x0 = _consensus_inputs(200, 11)
    spreads = []
    rounds, x = kernels.consensus_run(eu, ev, w, x0, 1e-6, 25, spreads)
    ref_rounds, ref_x, ref_spreads = _dense_consensus(eu, ev, w, x0, 1e-6, 25)
    assert rounds == ref_rounds == 25
    assert len(spreads) == 26 and spreads[-1] > 1e-6
    np.testing.assert_allclose(spreads, ref_spreads, rtol=1e-12)
    np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-12)


def test_consensus_hits_round_cap():
    eu = np.array([0], dtype=np.int64)
    ev = np.array([1], dtype=np.int64)
    rounds, x = kernels.consensus_run(eu, ev, np.array([0.0]), np.array([0.0, 1.0]),
                                      1e-9, 10)
    assert rounds == 10 and x[0] == 0.0 and x[1] == 1.0


def test_empty_inputs():
    assert kernels.betweenness_raw(np.zeros(1), np.zeros(0), np.zeros(1), np.zeros(0), 0).shape == (0,)
    assert kernels.hop_distances(np.zeros(1), np.zeros(0), 0).shape == (0, 0)
