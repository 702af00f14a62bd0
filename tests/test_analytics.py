import random
import re

import numpy as np
import pytest

import analytics_reference as reference
from versegraph import analytics, netopt
from versegraph.core import EdgeRecord, TemporalMultiLayerGraph
from versegraph.errors import ValidationError
from versegraph.scenario import trust_path

from conftest import (
    make_view,
    oracle_betweenness,
    oracle_components_label_propagation,
    random_simple_edges,
)
from record_graph import graph_view


def test_degree_star():
    g = make_view(4, [(0, 1), (0, 2), (0, 3)])
    rep = analytics.degree_centrality(g)
    assert rep.scores[0] == 1.0
    assert rep.scores[1] == pytest.approx(1 / 3)


def test_degree_isolated_vertex():
    g = make_view(5, [(0, 1), (1, 2), (2, 3)])
    assert analytics.degree_centrality(g).scores[4] == 0.0


def test_degree_requires_two_vertices():
    with pytest.raises(ValidationError):
        analytics.degree_centrality(make_view(1, []))


def test_degree_random_recount():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = make_view(n, random_simple_edges(n, 0.4, rng))
        rep = analytics.degree_centrality(g)
        for v in g.vertices:
            assert rep.scores[v] == pytest.approx(len(g.neighbors(v, "both")) / (n - 1))


def test_betweenness_path():
    g = make_view(3, [(0, 1), (1, 2)])
    rep = analytics.betweenness_centrality(g)
    assert rep.scores[1] == pytest.approx(1.0)
    assert rep.scores[0] == 0.0


def test_betweenness_complete_graph_zero():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    rep = analytics.betweenness_centrality(make_view(4, edges))
    assert all(abs(s) < 1e-12 for s in rep.scores.values())


def test_betweenness_needs_three():
    with pytest.raises(ValidationError):
        analytics.betweenness_centrality(make_view(2, [(0, 1)]))


@pytest.mark.parametrize("directed", [False, True])
def test_betweenness_matches_enumeration(directed):
    rng = random.Random(99 if directed else 31)
    for trial in range(25):
        n = rng.randint(3, 9)
        edges = random_simple_edges(n, 0.45, rng)
        g = make_view(n, edges, directed=directed)
        got = analytics.betweenness_centrality(g).scores
        want = oracle_betweenness(g)
        for v in g.vertices:
            assert got[v] == pytest.approx(want[v], abs=1e-9), (trial, n, edges)


def test_clustering_triangle_and_star():
    tri = make_view(3, [(0, 1), (1, 2), (0, 2)])
    assert analytics.clustering_coefficient(tri, 0) == 1.0
    star = make_view(4, [(0, 1), (0, 2), (0, 3)])
    assert analytics.clustering_coefficient(star, 0) == 0.0
    assert analytics.clustering_coefficient(star, 1) == 0.0  # k < 2


def test_clustering_matches_enumeration():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = make_view(n, random_simple_edges(n, 0.5, rng))
        for v in g.vertices:
            ns = g.neighbors(v, "both")
            k = len(ns)
            tri = sum(
                1
                for i in range(k)
                for j in range(i + 1, k)
                if ns[j] in g.neighbors(ns[i], "both")
            )
            want = 0.0 if k < 2 else tri / (k * (k - 1) / 2)
            assert analytics.clustering_coefficient(g, v) == pytest.approx(want)


def test_components_two_triangles():
    g = make_view(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    lab = analytics.weakly_connected_components(g)
    assert lab.count == 2
    assert lab.labels[2] == 0 and lab.labels[5] == 3


def test_components_empty():
    lab = analytics.weakly_connected_components(make_view(0, []))
    assert lab.count == 0


def test_components_match_label_propagation():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 12)
        g = make_view(n, random_simple_edges(n, 0.2, rng))
        got = analytics.weakly_connected_components(g).labels
        assert got == oracle_components_label_propagation(g)


def test_forest_component_count():
    # component count = n - edges for any forest
    g = make_view(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
    assert analytics.weakly_connected_components(g).count == 7 - 4


def test_adding_edge_never_increases_components():
    rng = random.Random(3)
    n = 10
    edges = []
    prev = analytics.weakly_connected_components(make_view(n, edges)).count
    for _ in range(15):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
        cur = analytics.weakly_connected_components(make_view(n, edges)).count
        assert cur <= prev
        prev = cur


def test_bfs_path_distances():
    g = make_view(3, [(0, 1), (1, 2)])
    order, dist = analytics.bfs_order(g, 0)
    assert order == [0, 1, 2]
    assert dist == {0: 0, 1: 1, 2: 2}


def test_bfs_unreachable_absent():
    g = make_view(4, [(0, 1)])
    order, dist = analytics.bfs_order(g, 0)
    assert 3 not in dist and 3 not in order


def test_bfs_unknown_root():
    with pytest.raises(ValidationError):
        analytics.bfs_order(make_view(2, []), 9)


def test_bfs_levels_sources_direction_and_within():
    g = make_view(6, [(0, 1, 1.0, True), (1, 2, 1.0, True), (3, 2, 1.0, True),
                      (4, 3, 1.0, True), (5, 4, 1.0, True)])
    # several sources share level 0; each level in ascending id
    assert list(analytics.bfs_levels(g, [5, 0]).items()) == [(0, 0), (5, 0), (1, 1), (4, 1),
                                                             (2, 2), (3, 2)]
    assert analytics.bfs_levels(g, [2], "in") == {2: 0, 1: 1, 3: 1, 0: 2, 4: 2, 5: 3}
    assert analytics.bfs_levels(g, [0], "both", within={0, 1, 3}) == {0: 0, 1: 1}
    assert analytics.bfs_levels(g, []) == {}
    # an unknown direction is refused whatever the sources, none included
    for sources in ([], [0]):
        with pytest.raises(ValidationError, match="bad direction 'sideways'"):
            analytics.bfs_levels(g, sources, "sideways")


def test_bfs_matches_unit_dijkstra():
    from versegraph import netopt

    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 10)
        g = make_view(n, random_simple_edges(n, 0.4, rng))
        _, dist = analytics.bfs_order(g, 0)
        for t in g.vertices:
            if t == 0:
                continue
            if t in dist:
                assert netopt.shortest_path(g, 0, t).total_weight == pytest.approx(dist[t])


def test_normalized_centralities_in_unit_interval():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(3, 10)
        g = make_view(n, random_simple_edges(n, 0.5, rng))
        for rep in (analytics.degree_centrality(g), analytics.betweenness_centrality(g)):
            assert all(0.0 <= s <= 1.0 + 1e-12 for s in rep.scores.values())


def _messy_view(rng, case):
    """A multigraph on up to 16 vertices whose ids are not their positions:
    parallel edges and self-loops, all edges undirected, all directed, or
    mixed."""
    n = rng.randint(0, 16)
    vids = rng.sample(range(60), n)
    p_directed = [0, 0.5, 1][case % 3]
    edges = []
    for _ in range(rng.randint(0, 3 * n) if n else 0):
        u, v = rng.choice(vids), rng.choice(vids)
        if rng.random() < 0.1:
            v = u
        for _ in range(rng.choice([1, 1, 2])):  # parallel copies
            edges.append((u, v, rng.random() < p_directed))
    records = [EdgeRecord(i, u, v, 0, 0, d, 1.0, "", 0, None)
               for i, (u, v, d) in zip(rng.sample(range(10 * len(edges) + 1), len(edges)), edges)]
    return graph_view(vids, records)


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except ValidationError as exc:
        return "ValidationError", str(exc)
    return list(result.items()) if isinstance(result, dict) else result


def test_bfs_levels_and_trust_path_match_reference():
    """The kernel-based traversals give the set-and-dict loops' items in
    their order, and their trust paths, on 1,200 seeded random multigraphs:
    several sources (an unknown one at times), every direction, and
    ``within`` sets that hold ids outside the view."""
    rng = random.Random(2027)
    for case in range(1200):
        g = _messy_view(rng, case)
        for direction in ("out", "in", "both"):
            sources = rng.sample(g.vertices, min(g.n, rng.choice([0, 1, 1, 2, 3])))
            if rng.random() < 0.05:
                sources.append(60)  # in no view
            within = None
            if rng.random() < 0.5:
                within = set(rng.sample(g.vertices, rng.randint(0, g.n)))
                within |= set(rng.sample(range(60, 70), 2))
            assert (_outcome(analytics.bfs_levels, g, sources, direction, within)
                    == _outcome(reference.bfs_levels, g, sources, direction, within))
        for _ in range(8 if g.n else 0):
            a, b = rng.choice(g.vertices), rng.choice(g.vertices + (60,))
            assert _outcome(trust_path, g, a, b) == _outcome(reference.trust_path, g, a, b)


@pytest.mark.parametrize("call", [
    lambda g: analytics.bfs_levels(g, [True]),
    lambda g: analytics.bfs_levels(g, [0.0]),
    lambda g: analytics.bfs_levels(g, ["a", 1]),
    lambda g: analytics.bfs_order(g, 1.0),
    lambda g: trust_path(g, 0, 0.0),
    lambda g: trust_path(g, True, 1),
    lambda g: netopt.shortest_path(g, 0, None),
    lambda g: netopt.max_flow_min_cut(g, True, 1),
    lambda g: netopt.max_flow_min_cut(g, 0, 2.0),
], ids=["bfs-true", "bfs-float", "bfs-str", "order-float", "trust-float", "trust-true",
        "path-none", "flow-true", "flow-float"])
def test_traversal_vertex_arguments_must_be_integers(call):
    g = make_view(3, [(0, 1), (1, 2)])
    with pytest.raises(ValidationError, match="^vertex must be an integer, got "):
        call(g)


def _triangle_with_pendant():
    """The view 0-1, 1-2, 0-2, 2-3 and a snapshot whose flattened view it is."""
    graph = TemporalMultiLayerGraph()
    layer = graph.create_layer("net")
    vs = [graph.add_vertex({"node"}, {layer}) for _ in range(4)]
    for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
        graph.add_edge(vs[u], vs[v], layer, layer, directed=False)
    snap = graph.snapshot_at(0)
    return snap.flatten(), snap


@pytest.mark.parametrize("call, want", [
    (lambda g, snap, v: analytics.clustering_coefficient(g, v), (1.0, 1 / 3)),
    (lambda g, snap, v: g.neighbors(v), ((0, 2), (0, 1, 3))),
    (lambda g, snap, v: g.degree(v), (2, 3)),
    (lambda g, snap, v: snap.neighbors(v), ((0, 2), (0, 1, 3))),
], ids=["clustering", "neighbors", "degree", "snapshot-neighbors"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "cached"])
def test_view_api_reads_vertex_ids_as_position_does(call, want, warm):
    """A bool, a float or an unhashable id is refused, not matched by hash
    to the vertex it equals, whether or not the view's rows are cached; a
    numpy int reads as its int, and an unknown int stays unknown."""
    g, snap = _triangle_with_pendant()
    if warm:
        g.neighbors(0)
    for bad in (True, 2.0, [1], "1", None):
        message = f"^vertex must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValidationError, match=message):
            call(g, snap, bad)
    assert (call(g, snap, 1), call(g, snap, np.int64(2))) == want
    with pytest.raises(ValidationError, match="^unknown vertex 9$"):
        call(g, snap, 9)


def test_traversal_vertex_arguments_read_as_ints():
    g = make_view(3, [(0, 1), (1, 2)])
    levels = analytics.bfs_levels(g, [np.int64(0)])
    assert list(levels.items()) == [(0, 0), (1, 1), (2, 2)]
    assert all(type(v) is int for v in levels)
    assert trust_path(g, np.int64(0), np.int64(2)) == [0, 1, 2]
    assert netopt.max_flow_min_cut(g, np.int64(0), 2).value == 1.0
    for call in (lambda: analytics.bfs_levels(g, [1, 9]), lambda: analytics.bfs_order(g, 9),
                 lambda: trust_path(g, 0, 9), lambda: netopt.shortest_path(g, 9, 0)):
        with pytest.raises(ValidationError, match="^unknown vertex 9$"):
            call()
