"""Kernels against independent oracles: networkx for betweenness and hop
distances, a dense Laplacian loop for consensus.  Graphs have a few hundred
vertices, so every BFS runs over several source blocks, and trailing
isolated vertices give CSR rows without arcs.  The BFS kernels are also held
bit for bit to a full pull over every row, kept here as the reference.
Components are held to networkx and to label propagation to a fixpoint."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from versegraph import analytics, kernels
from versegraph.core import TemporalMultiLayerGraph
from versegraph.errors import ValidationError

from conftest import make_view, oracle_components_label_propagation, pipeline_params, random_simple_edges


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


@pytest.mark.parametrize("directed", [False, True])
def test_bfs_kernels_raise_no_float_errors(directed):
    """Masks are products, and a product that meets inf * 0 or 0 / 0 in a
    column it drops must not happen on finite counts: no overflow, division
    by zero or invalid operation, on graphs where most pairs are unreachable."""
    view = _hub_view(150, 7, directed)
    with np.errstate(all="raise"):
        for fwd, back in (("out", "in"), ("both", "both")):
            kernels.betweenness_raw(*view.csr(fwd), *view.csr(back), view.n)
            kernels.hop_distances(*view.csr(fwd), view.n)


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


def _doubling_ladder(layers):
    """Layer i is vertices 2i and 2i + 1, with all four arcs to layer i + 1:
    from either vertex of layer i, a vertex of layer i + k has 2**(k - 1)
    shortest paths, which pass 2**1024 after 1,025 layers."""
    return make_view(2 * layers, [(2 * i + a, 2 * i + 2 + c, 1.0, True)
                                  for i in range(layers - 1) for a in (0, 1) for c in (0, 1)])


def test_betweenness_bytes_where_path_counts_overflow():
    """Path counts pass 2**1024 on a ladder of 1,100 layers, so they hold inf
    and the column masks meet inf * 0.  The bytes are pinned, NaNs included
    (2,196 of them), since the full-pull reference turns two more scores
    into NaN."""
    view = _doubling_ladder(1100)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernels.betweenness_raw(*view.csr("out"), *view.csr("in"), view.n)
    assert np.isnan(got).sum() == 2196
    assert hashlib.sha256(got.tobytes()).hexdigest() == (
        "27ad3bd10d6271752e28d5edd98851366f56a6a8dcd6f45fa7d2da7a3c5eb3a3")


def test_path_counts_that_overflow_stay_inf():
    """The forward pass keeps a column by a product with its mask, and
    inf * 0 is NaN: a count that overflowed in one column must still read
    inf, not NaN, after a later level pulls its row for another column."""
    view = _doubling_ladder(1100)
    sources = np.arange(64)
    pull = kernels._puller(*kernels._as_csr(*view.csr("in")))
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = kernels._bfs(pull, sources, view.n)[0]
        gap = np.arange(view.n)[:, None] // 2 - sources // 2
        want = np.where(gap > 0, np.ldexp(1.0, gap - 1), 0.0)
    want[sources, sources] = 1.0
    assert np.isinf(want).sum() > 1000
    assert np.array_equal(sigma, want)


def test_dependencies_where_a_path_count_overflows_off_level():
    """s1 reaches v through a doubling ladder of 1,024 layers, so v has inf
    paths from s1 and at most 2**1023 from any other vertex; w sits at level
    2 from s1 (through x) and from s2 (through v).  Pulling v's row for s2
    multiplies v's inf by w's dependency in s1's column, which the mask must
    zero, not turn into NaN.  Every score is finite, and v's is 2,049: v is
    on the one shortest path to w from each ladder vertex and from s2."""
    view, v = _off_level_ladder(1024)
    with np.errstate(over="ignore", invalid="ignore"):
        got = kernels.betweenness_raw(*view.csr("out"), *view.csr("in"), view.n)
    assert np.isfinite(got).all()
    assert got[v] == 2 * 1024 + 1


def _off_level_ladder(layers):
    """The view of the test above and its vertex v."""
    s1, s2, v, w, x = 0, 1, 2 * layers + 2, 2 * layers + 3, 2 * layers + 4
    arcs = [(s1, 2), (s1, 3), (s1, x), (x, w), (s2, v), (v, w), (v - 2, v), (v - 1, v)]
    arcs += [(2 * i + a, 2 * i + 2 + c) for i in range(1, layers) for a in (0, 1) for c in (0, 1)]
    return make_view(2 * layers + 5, [(a, b, 1.0, True) for a, b in arcs]), v


def test_betweenness_refuses_path_counts_that_overflow(tmp_path, capsys):
    """The API returned 2,196 NaN scores of 2,200 on the 1,100-layer ladder,
    with RuntimeWarnings on stderr; it raises, and analyze exits 2 with one
    error line and no CSV."""
    from versegraph import cli, io

    with np.errstate(all="raise"), pytest.raises(ValidationError, match="overflow float64"):
        analytics.betweenness_centrality(_doubling_ladder(1100))
    g = TemporalMultiLayerGraph()
    net = g.create_layer("net")
    for _ in range(2 * 1100):
        g.add_vertex({"x"}, {net})
    for e in _doubling_ladder(1100).edges:
        g.add_edge(e.src, e.dst, net, net)
    io.export_graph(g, str(tmp_path / "g.json"))
    capsys.readouterr()
    out = tmp_path / "m.csv"
    assert cli.run(["analyze", "--in", str(tmp_path / "g.json"), "--metrics", "betweenness",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_betweenness_returns_where_only_an_off_level_count_overflows():
    """On the 1,024-layer case above every score is finite, so the API
    returns them, without a float error escaping."""
    view, v = _off_level_ladder(1024)
    with np.errstate(all="raise"):
        scores = analytics.betweenness_centrality(view).scores
    assert np.isfinite(list(scores.values())).all()
    assert scores[v] == (2 * 1024 + 1) / ((view.n - 1) * (view.n - 2))


def test_betweenness_working_set_on_the_pipeline_graph(tmp_path):
    """The tracemalloc peak of one betweenness call on the seed-7919 1x
    ``cli-pipeline`` graph, which sets the pipeline's peak memory: about
    2.9 MB with two (n x 64) float arrays per block of sources, against
    3.6 MB with a third for the frontier and 8.4 MB with a distance matrix
    and an (arcs x 64) gather per level.  One more (n x 64) array would
    add 0.59 MB."""
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
    assert peak <= 3_200_000


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


def _symmetric_csr(n, u, v):
    """CSR over 0..n-1 with both arcs of every edge (u[i], v[i])."""
    tails, heads = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((heads, tails))
    return np.searchsorted(tails[order], np.arange(n + 1)), heads[order]


def _assert_least_labels(view, label):
    """``label`` gives each position the least position of its component:
    the label-propagation oracle's least id, as view ids ascend by position."""
    want = oracle_components_label_propagation(view)
    assert label.shape == (view.n,)
    assert [view.vertices[r] for r in label.tolist()] == [want[v] for v in view.vertices]
    blocks = {}
    for pos, r in enumerate(label.tolist()):
        blocks.setdefault(r, []).append(pos)
    assert all(r == min(block) for r, block in blocks.items())


def _messy_view(n, seed):
    """Random edges on 0..n-1, too few for a giant component, so there are
    many components and isolated vertices; half the edges are directed, and
    self-loops and parallel copies are mixed in."""
    rng = np.random.default_rng(seed)
    m = n * 2 // 5
    ends = rng.integers(n, size=(m, 2)).tolist()
    edges = [(a, b, 1.0, bool(d)) for (a, b), d in zip(ends, rng.random(m) < 0.5)]
    edges += [(a, a) for a in rng.integers(n, size=5).tolist()] + edges[:10]
    return make_view(n, edges)


@pytest.mark.parametrize("seed", range(6))
def test_components_match_oracles_on_messy_views(seed, nx):
    view = _messy_view(300, seed)
    indptr, indices = view.csr("both")
    label = kernels.components(indptr, indices)
    _assert_least_labels(view, label)
    G = nx.Graph()
    G.add_nodes_from(view.vertices)
    G.add_edges_from((e.src, e.dst) for e in view.edges)
    blocks = {}
    for v, r in zip(view.vertices, label.tolist()):
        blocks.setdefault(r, set()).add(v)
    assert {frozenset(b) for b in blocks.values()} == {frozenset(c) for c in nx.connected_components(G)}
    assert len(blocks) > 10 and (np.diff(indptr) == 0).any()
    assert analytics.weakly_connected_components(view).count == len(blocks)


def test_components_on_layers_with_scattered_ids():
    """Each layer_subgraph of a three-layer graph holds ids that are not its
    positions; inter-layer edges stay out of it."""
    rng = np.random.default_rng(5)
    g = TemporalMultiLayerGraph()
    layers = [g.create_layer(name) for name in ("a", "b", "c")]
    home = rng.integers(3, size=300).tolist()
    ids = [g.add_vertex(["node"], [layers[h]]) for h in home]
    for a, b in rng.integers(300, size=(250, 2)).tolist():
        g.add_edge(ids[a], ids[b], layers[home[a]], layers[home[b]], directed=bool(a % 2))
    snap = g.snapshot_at(0)
    for lid in layers:
        view = snap.layer_subgraph(lid)
        assert view.vertices != tuple(range(view.n))
        _assert_least_labels(view, kernels.components(*view.csr("both")))
        assert analytics.weakly_connected_components(view).labels == oracle_components_label_propagation(view)


@pytest.mark.parametrize("n, edges", [(0, []), (1, []), (1, [(0, 0)])])
def test_components_of_no_or_one_vertex(n, edges):
    view = make_view(n, edges)
    _assert_least_labels(view, kernels.components(*view.csr("both")))
    assert analytics.weakly_connected_components(view).count == n


def test_components_of_ten_thousand_shuffled_cycles():
    rng = np.random.default_rng(10)
    cycles = rng.permutation(100_000).reshape(10_000, 10)  # each row one cycle, in order
    label = kernels.components(*_symmetric_csr(100_000, cycles.ravel(), np.roll(cycles, -1, axis=1).ravel()))
    want = np.empty(100_000, dtype=np.int64)
    want[cycles] = cycles.min(axis=1, keepdims=True)
    assert np.array_equal(label, want)


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_components_of_a_shuffled_path(n):
    order = np.random.default_rng(n).permutation(n)
    label = kernels.components(*_symmetric_csr(n, order[:-1], order[1:]))
    assert label.shape == (n,) and not label.any()


def test_components_rounds_grow_with_log_n(monkeypatch):
    """A hooking round calls ``np.minimum.at`` once.  Every tree joins
    another within two rounds, so a shuffled path of 10⁵ vertices needs at
    most 2 log2 n of them, where a scheme bound by the diameter needs
    thousands."""
    rounds = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        class minimum:
            @staticmethod
            def at(*args):
                rounds.append(1)
                np.minimum.at(*args)

    monkeypatch.setattr(kernels, "np", CountingNumpy())
    order = np.random.default_rng(7).permutation(100_000)
    assert not kernels.components(*_symmetric_csr(100_000, order[:-1], order[1:])).any()
    assert 1 <= len(rounds) <= 2 * np.log2(100_000)


def _frontier_bfs(indptr, heads, sources, allowed=None, usable=None):
    """``kernels.bfs`` as checked arrays: the levels as lists, and every
    level's ``reached`` and ``slots`` joined, each int64."""
    levels = list(kernels.bfs(np.array(indptr, dtype=np.int64), np.array(heads, dtype=np.int64),
                              sources, allowed, usable))
    reached = np.concatenate([r for r, _ in levels] or [np.empty(0, np.int64)])
    slots = np.concatenate([s for _, s in levels] or [np.empty(0, np.int64)])
    assert reached.dtype == slots.dtype == np.int64
    return [(r.tolist(), s.tolist()) for r, s in levels], reached, slots


# rows: 0 -> 1, 2 | 1 -> 2, 3, 3 | 2 -> (none) | 3 -> 0, 4 | 4 -> (none)
_CSR = ([0, 2, 5, 5, 7, 7], [1, 2, 2, 3, 3, 0, 4])


@pytest.mark.parametrize("sources, allowed, usable", [
    ([], None, None),  # no sources
    ([2], None, None),  # a source with no arcs
    ([0, 1], np.zeros(5, bool), None),  # every head disallowed
    ([0, 1, 3], None, np.zeros(7, bool)),  # no usable slot
])
def test_bfs_reaching_nothing_yields_no_level(sources, allowed, usable):
    levels, reached, slots = _frontier_bfs(*_CSR, sources, allowed, usable)
    assert levels == [] and len(reached) == len(slots) == 0


def test_bfs_levels_and_first_arcs():
    # from 0: level 1 is 1 (slot 0) and 2 (slot 1, not its row's first arc);
    # level 2 is 3, first by slot 3 of the two parallel arcs 1 -> 3
    assert _frontier_bfs(*_CSR, [0])[0] == [([1, 2], [0, 1]), ([3], [3]), ([4], [6])]
    # frontier order decides, not slot order alone: from 3 and 1 (given in
    # any order), 2 is first reached by row 1, 0 and 4 by row 3
    assert _frontier_bfs(*_CSR, [3, 1, 3])[0] == [([0, 2, 4], [5, 2, 6])]
    # masks: without slot 3 the other parallel arc reaches 3; a disallowed 2
    # is never entered, and a source is never reached again
    usable = np.ones(7, bool)
    usable[3] = False
    assert _frontier_bfs(*_CSR, [1], None, usable)[0] == [([2, 3], [2, 4]), ([0, 4], [5, 6])]
    allowed = np.array([True, True, False, True, True])
    assert _frontier_bfs(*_CSR, [0], allowed)[0] == [([1], [0]), ([3], [3]), ([4], [6])]


def test_bfs_stops_where_the_caller_breaks():
    seen = []
    for reached, _ in kernels.bfs(*map(np.array, _CSR), [0]):
        seen.append(reached.tolist())
        if 3 in seen[-1]:
            break
    assert seen == [[1, 2], [3]]


@pytest.mark.parametrize("seed", range(4))
def test_bfs_matches_a_queue_of_first_discoverers(seed):
    """On random multigraph CSRs with masks: every position reached at its
    level, through the first usable arc from the lowest frontier position."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        rows = [sorted(rng.integers(0, n, int(rng.integers(0, 5))).tolist()) for _ in range(n)]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        heads = [h for r in rows for h in r]
        allowed = rng.random(n) < 0.8
        usable = rng.random(len(heads)) < 0.8
        sources = rng.integers(0, n, int(rng.integers(0, 3))).tolist()
        frontier, seen, want = sorted(set(sources)), set(sources), []
        while frontier:
            level = {}
            for u in frontier:
                for slot in range(indptr[u], indptr[u + 1]):
                    h = heads[slot]
                    if usable[slot] and allowed[h] and h not in seen and h not in level:
                        level[h] = slot
            if level:
                want.append((sorted(level), [level[h] for h in sorted(level)]))
            frontier = sorted(level)
            seen.update(level)
        assert _frontier_bfs(indptr, heads, sources, allowed, usable)[0] == want


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
