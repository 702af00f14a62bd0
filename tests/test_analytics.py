import random

import pytest

from versegraph import analytics
from versegraph.errors import ValidationError

from conftest import (
    make_view,
    oracle_betweenness,
    oracle_components_label_propagation,
    random_simple_edges,
)


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
