"""GraphView adjacency against a brute-force oracle built from the edge list.

The oracles in ``conftest.py`` read ``neighbors()``, which is derived from
``csr()``; this file checks ``csr``, ``neighbors`` and ``degree`` against sets
built straight from the edge records, with no code shared with ``core``.
"""

import random

import numpy as np
import pytest

from versegraph.core import EdgeRecord, TemporalMultiLayerGraph
from versegraph.errors import ValidationError

from record_graph import graph_view

DIRECTIONS = ("out", "in", "both")


def _oracle(vertices, edges):
    """{direction: {vertex: neighbor id set}}: "out" and "in" keep self-loops and
    take both arcs of an undirected edge; "both" takes both arcs of every edge
    and drops self-loops."""
    adj = {d: {v: set() for v in vertices} for d in DIRECTIONS}
    for e in edges:
        adj["out"][e.src].add(e.dst)
        adj["in"][e.dst].add(e.src)
        if not e.directed:
            adj["out"][e.dst].add(e.src)
            adj["in"][e.src].add(e.dst)
        if e.src != e.dst:
            adj["both"][e.src].add(e.dst)
            adj["both"][e.dst].add(e.src)
    return adj


def _edges(pairs):
    """EdgeRecords from (src, dst, directed) triples, ids in list order."""
    return [EdgeRecord(i, s, d, 0, 0, directed, 1.0, "", 0, None)
            for i, (s, d, directed) in enumerate(pairs)]


def _check(vertices, edges):
    view = graph_view(vertices, edges)
    adj = _oracle(view.vertices, edges)
    for d in DIRECTIONS:
        indptr, indices = view.csr(d)
        for a in (indptr, indices):
            assert a.dtype == np.int64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[:1] = 0
        again = view.csr(d)
        assert again[0] is indptr and again[1] is indices
        assert len(indptr) == view.n + 1 and indptr[0] == 0 and indptr[-1] == len(indices)
        for i, v in enumerate(view.vertices):
            want = sorted(adj[d][v])
            assert [view.vertices[j] for j in indices[indptr[i]:indptr[i + 1]]] == want
            assert view.neighbors(v, d) == tuple(want)
    for v in view.vertices:
        assert view.degree(v) == len(adj["both"][v])
    return view


def test_hand_built_view():
    # ids are not positions; 20 is isolated; parallel edges, a directed and an
    # undirected self-loop, and an undirected edge beside a directed one
    edges = _edges([(5, 7, True), (5, 7, True), (7, 5, False), (2, 2, True), (11, 11, False),
                    (2, 11, False), (11, 2, False), (7, 2, True)])
    view = _check([20, 2, 5, 7, 11], edges)
    assert view.neighbors(2, "out") == (2, 11)
    assert view.neighbors(2, "in") == (2, 7, 11)
    assert view.neighbors(2, "both") == (7, 11)
    assert view.neighbors(11, "out") == (2, 11)
    assert view.neighbors(7, "out") == (2, 5)
    assert view.neighbors(5, "in") == (7,)
    assert view.neighbors(20, "both") == ()
    assert [view.degree(v) for v in (2, 5, 7, 11, 20)] == [2, 1, 2, 1, 0]


@pytest.mark.parametrize("seed", range(25))
def test_random_views(seed):
    rng = random.Random(seed)
    vertices = rng.sample(range(40), rng.randint(1, 15))
    pairs = [(rng.choice(vertices), rng.choice(vertices), rng.random() < 0.5)
             for _ in range(rng.randint(0, 40))]
    pairs += pairs[: rng.randint(0, 5)]  # parallel copies
    _check(vertices, _edges(pairs))


def test_empty_view_and_view_without_edges():
    empty = _check([], [])
    for d in DIRECTIONS:
        indptr, indices = empty.csr(d)
        assert indptr.tolist() == [0] and indices.tolist() == []
    lonely = _check([3, 1], [])
    assert lonely.csr("out")[0].tolist() == [0, 0, 0]


def test_bad_direction_and_unknown_vertex():
    view = graph_view([0, 1], _edges([(0, 1, True)]))
    with pytest.raises(ValidationError, match="direction"):
        view.csr("sideways")
    with pytest.raises(ValidationError, match="direction"):
        view.neighbors(0, "sideways")
    with pytest.raises(ValidationError, match="unknown vertex"):
        view.neighbors(5)
    with pytest.raises(ValidationError, match="unknown vertex"):
        view.degree(5)


def _check_columns(view, records):
    """The view's public edge columns hold the records' fields in id order,
    with positions for endpoints, and refuse writes."""
    recs = sorted(records, key=lambda e: e.id)
    want = {"edge_ids": (np.int64, [e.id for e in recs]),
            "src": (np.int64, [view.index[e.src] for e in recs]),
            "dst": (np.int64, [view.index[e.dst] for e in recs]),
            "edge_directed": (np.bool_, [e.directed for e in recs]),
            "weights": (np.float64, [e.weight for e in recs])}
    for name, (dtype, values) in want.items():
        col = getattr(view, name)
        assert col.dtype == dtype and col.tolist() == values
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[:1] = 0
        assert getattr(view, name) is col


@pytest.mark.parametrize("seed", range(10))
def test_edge_columns_match_records(seed):
    rng = random.Random(seed)
    vertices = rng.sample(range(40), rng.randint(1, 15))
    ids = rng.sample(range(100), rng.randint(0, 40))
    records = [EdgeRecord(i, rng.choice(vertices), rng.choice(vertices), 0, 0, rng.random() < 0.5,
                          rng.choice([0.0, 0.1, 2.5]), "", 0, None) for i in ids]
    _check_columns(graph_view(vertices, records), records)
    # a snapshot's views, read from the graph's columns
    g = TemporalMultiLayerGraph()
    layers = [g.create_layer("a"), g.create_layer("b")]
    vs = [g.add_vertex(set(), rng.sample(layers, rng.randint(1, 2))) for _ in range(10)]
    for _ in range(25):
        u, v = rng.choice(vs), rng.choice(vs)
        lu, lv = (rng.choice(sorted(g.vertex_records[x].layers)) for x in (u, v))
        eid = g.add_edge(u, v, lu, lv, rng.random() < 0.5, rng.choice([0.0, 0.3, 4.0]),
                         t_start=rng.randint(0, 2))
        if rng.random() < 0.3:
            g.retire_edge(eid, 2)
    snap = g.snapshot_at(rng.randint(0, 3))
    for view in (snap.layer_subgraph(layers[0]), snap.layer_subgraph(layers[1]), snap.flatten()):
        _check_columns(view, view.edges)


def test_edge_columns_of_empty_views():
    _check_columns(graph_view([], []), [])
    _check_columns(graph_view([3, 1], []), [])
    g = TemporalMultiLayerGraph()
    layer = g.create_layer("a")
    snap = g.snapshot_at(0)
    for view in (snap.layer_subgraph(layer), snap.flatten()):
        assert view.n == 0
        _check_columns(view, [])
