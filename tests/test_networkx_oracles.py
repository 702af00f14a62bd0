"""netopt, components and the Fiedler value against networkx at n in the low
hundreds, beyond the reach of the brute-force oracles in conftest."""

import numpy as np
import pytest

from versegraph import analytics, netopt, partition

from conftest import make_view, random_simple_edges


@pytest.fixture
def nx():
    return pytest.importorskip("networkx")


def _weighted_view(n, avg_degree, seed, directed=False, connected=True):
    """Seeded random graph on 0..n-1 with weights in [0.5, 5].  When
    ``connected``, a random Hamiltonian path (both directions when directed)
    makes every vertex reachable from every other."""
    rng = np.random.default_rng(seed)
    edges = random_simple_edges(n, avg_degree / (n - 1), rng, weighted=True)
    if directed:
        edges = [(b, a, w) if rng.random() < 0.5 else (a, b, w) for a, b, w in edges]
    if connected:
        order = rng.permutation(n).tolist()
        for a, b in zip(order, order[1:]):
            w = round(float(rng.uniform(0.5, 5.0)), 3)
            edges.append((a, b, w))
            if directed:
                edges.append((b, a, w))
    return make_view(n, edges, directed=directed)


def _nx_graph(nx, view):
    G = nx.MultiDiGraph() if view.directed else nx.MultiGraph()
    G.add_nodes_from(view.vertices)
    for e in view.edges:
        G.add_edge(e.src, e.dst, weight=e.weight)
    return G


def _simple_nx_graph(nx, view):
    """Parallel edges merged by summing weights, as max-flow capacities add."""
    G = nx.DiGraph() if view.directed else nx.Graph()
    G.add_nodes_from(view.vertices)
    for e in view.edges:
        cap = G.edges[e.src, e.dst]["capacity"] if G.has_edge(e.src, e.dst) else 0.0
        G.add_edge(e.src, e.dst, capacity=cap + e.weight)
    return G


@pytest.mark.parametrize("seed", range(3))
def test_mst_weight_matches_networkx(seed, nx):
    view = _weighted_view(200 + 50 * seed, 4.0, seed)
    got = netopt.minimum_spanning_tree(view)
    ref = nx.minimum_spanning_tree(_nx_graph(nx, view), weight="weight")
    assert got.total_weight == pytest.approx(ref.size(weight="weight"), rel=1e-12)
    assert len(got.edge_ids) == view.n - 1


@pytest.mark.parametrize("directed", [False, True])
def test_max_flow_value_matches_networkx(directed, nx):
    view = _weighted_view(200, 4.0, 10 + directed, directed=directed)
    G = _simple_nx_graph(nx, view)
    for s, t in ((0, view.n - 1), (17, 123)):
        got = netopt.max_flow_min_cut(view, s, t)
        ref = nx.maximum_flow_value(G, s, t, capacity="capacity")
        assert got.value == pytest.approx(ref, rel=1e-9)
        cut_capacity = sum(e.weight for e in view.edges if e.id in got.cut_edges)
        assert cut_capacity == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("directed", [False, True])
def test_dijkstra_weight_matches_networkx(directed, nx):
    view = _weighted_view(300, 3.0, 20 + directed, directed=directed)
    lengths = nx.single_source_dijkstra_path_length(_nx_graph(nx, view), 0, weight="weight")
    weight = {e.id: e.weight for e in view.edges}
    for t in range(1, view.n, 13):
        got = netopt.shortest_path(view, 0, t)
        assert got.total_weight == pytest.approx(lengths[t], rel=1e-12)
        assert sum(weight[eid] for eid in got.edge_ids) == pytest.approx(got.total_weight, rel=1e-12)
        assert got.vertices[0] == 0 and got.vertices[-1] == t


@pytest.mark.parametrize("directed", [False, True])
def test_components_match_networkx(directed, nx):
    """Sparse graphs below the connectivity threshold, so there are many
    components, isolated vertices among them."""
    view = _weighted_view(300, 0.9, 30 + directed, directed=directed, connected=False)
    G = _nx_graph(nx, view)
    ref = nx.weakly_connected_components(G) if directed else nx.connected_components(G)
    ref = {frozenset(c) for c in ref}
    got = analytics.weakly_connected_components(view)
    blocks: dict[int, set] = {}
    for v, label in got.labels.items():
        blocks.setdefault(label, set()).add(v)
    assert {frozenset(b) for b in blocks.values()} == ref
    assert got.count == len(ref) > 10
    assert all(label == min(blocks[label]) for label in blocks)


@pytest.mark.parametrize("seed", range(3))
def test_algebraic_connectivity_matches_networkx(seed, nx):
    pytest.importorskip("scipy")
    view = _weighted_view(150 + 50 * seed, 3.0, 40 + seed)
    lam, vec = partition.fiedler_vector(partition.laplacian(view))
    # the Laplacian is unweighted with parallel edges collapsed, as in nx.Graph
    G = nx.Graph([(e.src, e.dst) for e in view.edges])
    ref = nx.algebraic_connectivity(G, weight=None, normalized=False,
                                    tol=1e-10, method="tracemin_lu", seed=seed)
    assert lam == pytest.approx(ref, rel=1e-7)
    assert lam > 0
    assert abs(vec.sum()) < 1e-8 and np.linalg.norm(vec) == pytest.approx(1.0)
