import json
from types import MappingProxyType

import numpy as np
import pytest

from versegraph import io
from versegraph.core import EdgeRecord, TemporalMultiLayerGraph, VertexRecord
from versegraph.errors import ValidationError

from record_graph import graph_from_records, graph_to_dict, graph_view


@pytest.fixture
def g():
    return TemporalMultiLayerGraph()


def test_create_layer_ids(g):
    assert g.create_layer("network") == 0
    assert g.create_layer("compute") == 1
    with pytest.raises(ValidationError):
        g.create_layer("network")


def test_eight_named_layers(g):
    names = ["network", "compute", "storage", "keys", "content", "ui", "interaction", "io"]
    ids = [g.create_layer(n) for n in names]
    assert len(set(ids)) == 8


def test_add_vertex_basic(g):
    net = g.create_layer("network")
    v = g.add_vertex({"server"}, {net}, {}, 0)
    assert v == 0
    assert v in g.snapshot_at(0).vertices


def test_add_vertex_empty_layers(g):
    with pytest.raises(ValidationError):
        g.add_vertex({"server"}, set(), {}, 0)
    with pytest.raises(ValidationError):
        g.add_vertex({"server"}, {99}, {}, 0)


def test_vertex_validity_start(g):
    net = g.create_layer("network")
    v = g.add_vertex({"server"}, {net}, {}, 5)
    assert v not in g.snapshot_at(4).vertices
    assert v in g.snapshot_at(5).vertices


def test_add_edge_intra_and_parallel(g):
    net = g.create_layer("network")
    a = g.add_vertex({"server"}, {net})
    b = g.add_vertex({"router"}, {net})
    e1 = g.add_edge(a, b, net, net, weight=4)
    e2 = g.add_edge(a, b, net, net, weight=7)
    assert e1 != e2
    assert len(g.snapshot_at(0).edges) == 2


def test_add_edge_layer_membership(g):
    net = g.create_layer("network")
    con = g.create_layer("content")
    a = g.add_vertex({"server"}, {net})
    c = g.add_vertex({"content-item"}, {con})
    with pytest.raises(ValidationError):
        g.add_edge(a, c, net, net)  # c not in network
    with pytest.raises(ValidationError):
        g.add_edge(c, a, net, con)  # c not in network either
    assert g.add_edge(a, c, net, con) is not None


def test_add_edge_negative_weight(g):
    net = g.create_layer("network")
    a = g.add_vertex({"server"}, {net})
    b = g.add_vertex({"server"}, {net})
    with pytest.raises(ValidationError):
        g.add_edge(a, b, net, net, weight=-1)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_add_edge_non_finite_weight(g, weight):
    net = g.create_layer("network")
    a = g.add_vertex({"server"}, {net})
    b = g.add_vertex({"server"}, {net})
    with pytest.raises(ValidationError, match="non-finite"):
        g.add_edge(a, b, net, net, weight=weight)
    assert not g.edge_records


def test_retire_half_open(g):
    net = g.create_layer("network")
    v = g.add_vertex({"server"}, {net}, {}, 0)
    g.retire_vertex(v, 10)
    assert v in g.snapshot_at(9).vertices
    assert v not in g.snapshot_at(10).vertices
    with pytest.raises(ValidationError):
        g.retire_vertex(v, 12)


def test_retire_cascades_to_edges(g):
    net = g.create_layer("network")
    vs = [g.add_vertex({"server"}, {net}) for _ in range(4)]
    for u in vs[1:]:
        g.add_edge(vs[0], u, net, net)
    g.retire_vertex(vs[0], 7)
    snap = g.snapshot_at(7)
    assert len(snap.edges) == 0
    assert len(g.snapshot_at(6).edges) == 3


def test_retire_rejects_edge_starting_later(g):
    """Retiring v at t would stamp t_end = t on an open edge that starts after
    t; the call is refused before anything changes."""
    net = g.create_layer("network")
    a = g.add_vertex({"server"}, {net}, {}, 0)
    b = g.add_vertex({"server"}, {net}, {}, 0)
    c = g.add_vertex({"server"}, {net}, {}, 0)
    g.add_edge(a, b, net, net, t_start=2)
    g.add_edge(c, a, net, net, t_start=5)
    before = (dict(g.vertex_records), dict(g.edge_records), list(g.events))
    with pytest.raises(ValidationError, match="start later"):
        g.retire_vertex(a, 4)
    assert (dict(g.vertex_records), dict(g.edge_records), list(g.events)) == before
    g.retire_vertex(a, 5)  # same tick as the later edge's start stays legal
    assert {e.t_end for e in g.edge_records.values()} == {5}


def test_no_dangling_edges_ever(g):
    net = g.create_layer("network")
    vs = [g.add_vertex({"server"}, {net}) for _ in range(5)]
    for i in range(4):
        g.add_edge(vs[i], vs[i + 1], net, net)
    g.retire_vertex(vs[2], 3)
    for t in range(6):
        snap = g.snapshot_at(t)
        for e in snap.edges:
            assert e.src in snap.vertices and e.dst in snap.vertices


def test_snapshot_matches_log_scan(g):
    # oracle: replay the public event log by hand
    net = g.create_layer("network")
    added = []
    starts = []
    for i in range(20):
        v = g.add_vertex({"device"}, {net}, {}, i % 5)
        added.append(v)
        starts.append(i % 5)
        if i > 2:
            g.add_edge(added[i - 1], v, net, net, t_start=max(starts[i - 1], starts[i]))
    g.retire_vertex(added[3], 4)
    for t in range(8):
        expected = set()
        retired = {}
        for ev in g.events:
            if ev[0] == "vertex+" and ev[5] <= t:
                expected.add(ev[1])
            elif ev[0] == "vertex-" and ev[2] <= t:
                expected.discard(ev[1])
        assert set(g.snapshot_at(t).vertices) == expected


def test_snapshot_tick_must_be_an_integer(g):
    """A tick is read as the other tick boundaries read it: a bool, a float
    or a string is refused, not truncated or let through as a raw error."""
    net = g.create_layer("network")
    v = g.add_vertex({"a"}, {net}, t_start=2)
    for bad in (2.7, True, float("nan"), float("inf"), None, "3"):
        with pytest.raises(ValidationError, match="snapshot tick must be an integer"):
            g.snapshot_at(bad)
    assert g.snapshot_at(np.int64(2)).time == 2 and v in g.snapshot_at(np.int64(2)).vertices
    # ticks beyond every stored one compare as they should: v is still open
    assert v in g.snapshot_at(2 ** 70).vertices and v not in g.snapshot_at(-(2 ** 70)).vertices


def test_snapshot_determinism(g):
    net = g.create_layer("network")
    a = g.add_vertex({"server"}, {net}, {}, 2)
    g.retire_vertex(a, 7)
    s1 = [sorted(g.snapshot_at(t).vertices) for t in range(10)]
    s2 = [sorted(g.snapshot_at(t).vertices) for t in range(10)]
    assert s1 == s2
    assert a in g.snapshot_at(6).vertices and a not in g.snapshot_at(7).vertices


def test_layer_subgraph_excludes_inter_layer(g):
    net = g.create_layer("network")
    con = g.create_layer("content")
    a = g.add_vertex({"server"}, {net})
    c = g.add_vertex({"content-item"}, {con})
    g.add_edge(a, c, net, con)
    snap = g.snapshot_at(0)
    assert len(snap.layer_subgraph(net).edges) == 0
    assert len(snap.layer_subgraph(con).edges) == 0
    assert len(snap.flatten().edges) == 1


def test_shared_vertex_in_both_subgraphs(g):
    net = g.create_layer("network")
    con = g.create_layer("content")
    v = g.add_vertex({"server"}, {net, con})
    snap = g.snapshot_at(0)
    assert v in snap.layer_subgraph(net).vertices
    assert v in snap.layer_subgraph(con).vertices
    # flatten counts the shared vertex once
    assert snap.flatten().n == 1


def test_flatten_connects_layers(g):
    net = g.create_layer("network")
    con = g.create_layer("content")
    a = g.add_vertex({"server"}, {net})
    b = g.add_vertex({"content-item"}, {con})
    g.add_edge(a, b, net, con)
    flat = g.snapshot_at(0).flatten()
    assert flat.neighbors(a, "both") == (b,)


def test_edge_partition_invariant(g):
    net = g.create_layer("network")
    con = g.create_layer("content")
    a = g.add_vertex({"server"}, {net})
    b = g.add_vertex({"server"}, {net})
    c = g.add_vertex({"content-item"}, {con})
    g.add_edge(a, b, net, net)
    g.add_edge(a, c, net, con)
    snap = g.snapshot_at(0)
    intra = {e.id for e in snap.layer_subgraph(net).edges} | {e.id for e in snap.layer_subgraph(con).edges}
    inter = {e.id for e in snap.inter_layer_edges}
    assert intra & inter == set()
    assert intra | inter == {e.id for e in snap.flatten().edges}


def test_neighbors_direction_and_filter(g):
    net = g.create_layer("network")
    con = g.create_layer("content")
    hub = g.add_vertex({"server"}, {net})
    leaves = [g.add_vertex({"device"}, {net}) for _ in range(3)]
    for v in leaves:
        g.add_edge(hub, v, net, net, directed=False)
    item = g.add_vertex({"content-item"}, {con})
    g.add_edge(hub, item, net, con, directed=True)
    snap = g.snapshot_at(0)
    assert snap.neighbors(hub, "both") == tuple(leaves) + (item,)
    assert snap.neighbors(hub, "both", layer=net) == tuple(leaves)
    # directed u->v excluded from in-neighborhood of u
    assert item not in snap.neighbors(hub, "in")
    with pytest.raises(ValidationError):
        snap.neighbors(999)


def test_snapshot_views_built_once(g):
    """A snapshot keeps its flattened and per-layer views; neighbors reads
    them and answers as a freshly built view does."""
    net = g.create_layer("network")
    con = g.create_layer("content")
    vs = [g.add_vertex({"server"}, {net}) for _ in range(4)] + [g.add_vertex({"item"}, {con, net})]
    for a, b, la, lb, d in [(0, 1, net, net, False), (1, 2, net, net, True), (2, 3, net, net, False),
                            (3, 4, net, con, True), (4, 0, net, net, False)]:
        g.add_edge(vs[a], vs[b], la, lb, directed=d)
    snap = g.snapshot_at(0)
    assert snap.flatten() is snap.flatten()
    assert snap.layer_subgraph(net) is snap.layer_subgraph(net)
    assert snap.layer_subgraph(con) is snap.layer_subgraph(con)
    assert snap.layer_subgraph(net) is not snap.layer_subgraph(con)
    fresh = {None: graph_view(snap.vertices.keys(), snap.edges),
             net: graph_view(snap.layer_vertices(net),
                             [e for e in snap.edges if e.intra_layer and e.layer_src == net]),
             con: graph_view(snap.layer_vertices(con), [])}
    for layer, view in fresh.items():
        for v in vs:
            for direction in ("out", "in", "both"):
                want = view.neighbors(v, direction) if v in view.index else ()
                assert snap.neighbors(v, direction, layer=layer) == want
    assert snap.neighbors(vs[0], layer=con) == ()
    with pytest.raises(ValidationError):
        snap.neighbors(vs[0], layer=7)


def test_validate_bipartite(g):
    con = g.create_layer("content")
    admins = [g.add_vertex({"admin"}, {con}) for _ in range(2)]
    items = [g.add_vertex({"content-item"}, {con}) for _ in range(3)]
    for it in items:
        g.add_edge(admins[0], it, con, con)
    snap = g.snapshot_at(0)
    ok, bad = snap.validate_bipartite(con, {"admin"}, {"content-item"})
    assert ok and bad == []
    e = g.add_edge(admins[0], admins[1], con, con)
    ok, bad = g.snapshot_at(0).validate_bipartite(con, {"admin"}, {"content-item"})
    assert not ok and [b.id for b in bad] == [e]
    with pytest.raises(ValidationError):
        snap.validate_bipartite(con, {"admin"}, {"admin"})
    # any collection of roles; a string would be a set of letters
    assert snap.validate_bipartite(con, ["admin"], ("content-item",)) == (True, [])
    with pytest.raises(ValidationError, match="overlap"):
        snap.validate_bipartite(con, ["admin"], ["admin"])
    for part in ("admin", b"admin"):
        with pytest.raises(ValidationError, match="not a string"):
            snap.validate_bipartite(con, part, {"content-item"})
        with pytest.raises(ValidationError, match="not a string"):
            snap.validate_bipartite(con, {"content-item"}, part)
    for part in (5, [["admin"]]):
        with pytest.raises(ValidationError, match="collections of roles"):
            snap.validate_bipartite(con, {"content-item"}, part)


def test_validate_bipartite_empty_layer(g):
    empty = g.create_layer("ui")
    ok, bad = g.snapshot_at(0).validate_bipartite(empty, {"a"}, {"b"})
    assert ok and bad == []


def test_inter_layer_self_coupling_allowed(g):
    net = g.create_layer("network")
    con = g.create_layer("content")
    v = g.add_vertex({"server"}, {net, con})
    eid = g.add_edge(v, v, net, con)
    assert eid in {e.id for e in g.snapshot_at(0).edges}


# -- one set of record rules ------------------------------------------------

def test_add_edge_rejects_endpoint_retired_later(g):
    """An open edge may not start on a vertex that is already retired, even
    at a tick the vertex was still active."""
    net = g.create_layer("network")
    a = g.add_vertex({"router"}, {net})
    b = g.add_vertex({"server"}, {net})
    g.retire_vertex(a, 5)
    with pytest.raises(ValidationError, match="endpoint 0 inactive"):
        g.add_edge(a, b, net, net, t_start=3)
    assert not g.edge_records
    for t in range(8):
        g.snapshot_at(t).flatten()


def test_retire_vertex_rejects_edge_ending_later(g):
    net = g.create_layer("network")
    a = g.add_vertex({"router"}, {net})
    b = g.add_vertex({"server"}, {net})
    e = g.add_edge(a, b, net, net)
    g.retire_edge(e, 8)
    with pytest.raises(ValidationError, match="end later"):
        g.retire_vertex(a, 5)
    g.retire_vertex(a, 8)
    assert g.vertex_records[a].t_end == 8 and g.edge_records[e].t_end == 8


def test_roles_and_relation_must_be_strings(g):
    net = g.create_layer("network")
    with pytest.raises(ValidationError, match="role"):
        g.add_vertex({1, "a"}, {net})
    a = g.add_vertex({"a"}, {net})
    with pytest.raises(ValidationError, match="relation"):
        g.add_edge(a, a, net, net, relation=3)
    assert list(g.vertex_records) == [a] and g.events[-1][0] == "vertex+"


@pytest.mark.parametrize("roles, layers", [
    ("router", None),  # one role per character
    ({"a"}, 0),  # an int is no collection
    ({"a"}, "0"),
    ({"a"}, b"\x00"),  # one layer id per byte
    ([["a"]], None),  # unhashable roles
    ({"a"}, [{0}]),
])
def test_add_vertex_refuses_bad_roles_and_layers(g, roles, layers):
    net = g.create_layer("network")
    with pytest.raises(ValidationError, match="vertex 0: roles and layers"):
        g.add_vertex(roles, {net} if layers is None else layers)
    assert not g.vertex_records and len(g.events) == 1


def test_strings_must_encode_as_utf8(g):
    # a lone surrogate, which a JSON \ud800 escape can carry, is refused
    # wherever a graph keeps a string; other non-ASCII text is kept
    with pytest.raises(ValidationError, match="layer name"):
        g.create_layer("net\ud800")
    net = g.create_layer("n\u00e9t")
    with pytest.raises(ValidationError, match="vertex 0: role"):
        g.add_vertex({"ok", "r\udfff"}, {net})
    with pytest.raises(ValidationError, match="vertex 0: attr key"):
        g.add_vertex({"a"}, {net}, {"k\udc00": 1})
    with pytest.raises(ValidationError, match="vertex 0: attr 'k' value"):
        g.add_vertex({"a"}, {net}, {"k": "v\ud83d"})
    a = g.add_vertex({"caf\u00e9"}, {net}, {"\u00fc": "\U0001f600"})
    with pytest.raises(ValidationError, match="edge 0: relation"):
        g.add_edge(a, a, net, net, relation="x\udbff")
    g.add_edge(a, a, net, net, relation="\u00fcber")
    assert list(g.layer_names.values()) == ["n\u00e9t"] and len(g.events) == 3
    bad = EdgeRecord(0, 0, 0, 0, 0, True, 1.0, "\ud800", 0, None)
    vs = [VertexRecord(0, frozenset({"a"}), frozenset({0}), {}, 0, None)]
    with pytest.raises(ValidationError, match="edge 0: relation"):
        graph_from_records(["net"], vs, [bad])


@pytest.mark.parametrize("attrs", [
    {"x": float("nan")}, {"x": float("inf")}, {1: 2, "a": 3}, {"x": [1]}, {"x": None},
    {"x": {"y": 1}}, 5, [1, 2],  # not a mapping: dict() raised TypeError
])
def test_attrs_must_be_json_scalars(g, attrs):
    net = g.create_layer("network")
    with pytest.raises(ValidationError, match="vertex 0: attrs"):
        g.add_vertex({"a"}, {net}, attrs)
    bad = VertexRecord(0, frozenset({"a"}), frozenset({net}), attrs, 0, None)
    with pytest.raises(ValidationError, match="vertex 0: attrs"):
        graph_from_records(["network"], [bad], [])
    assert not g.vertex_records


def test_scalar_attrs_round_trip(g):
    net = g.create_layer("network")
    g.add_vertex({"a"}, {net}, {"s": "x", "b": True, "i": 10 ** 30, "f": -2.5})
    doc = graph_to_dict(g)
    assert graph_to_dict(io.graph_from_dict(doc)) == doc


def test_record_views_are_read_only_and_live(g):
    net = g.create_layer("network")
    views = (g.layer_names, g.vertex_records, g.edge_records)
    a = g.add_vertex({"a"}, {net})
    g.add_edge(a, a, net, net)
    assert [len(v) for v in views] == [1, 1, 1]
    for view in views:
        with pytest.raises(TypeError):
            view[7] = None


def _records():
    vs = [VertexRecord(4, frozenset({"r"}), frozenset({0}), {}, 2, 9),
          VertexRecord(1, frozenset({"s"}), frozenset({0, 1}), {"k": 1}, 0, None)]
    es = [EdgeRecord(6, 1, 4, 1, 0, True, 1.5, "x", 3, 7),
          EdgeRecord(2, 4, 1, 0, 0, False, 0.0, "", 2, 9)]
    return vs, es


def test_from_records_canonical_log_and_next_ids(monkeypatch):
    # records are taken as they are, never replayed through add_*
    for name in ("add_vertex", "add_edge", "retire_vertex", "retire_edge"):
        monkeypatch.setattr(TemporalMultiLayerGraph, name, None)
    vs, es = _records()
    g = graph_from_records(["net", "soc"], vs, es)
    assert dict(g.vertex_records) == {v.id: v for v in vs}
    assert dict(g.edge_records) == {e.id: e for e in es}
    assert [ev[:2] for ev in g.events] == [
        ("layer", 0), ("layer", 1), ("vertex+", 1), ("vertex+", 4), ("edge+", 2), ("edge+", 6),
        ("vertex-", 4), ("edge-", 6), ("edge-", 2)]
    assert (g._next_vertex, g._next_edge) == (5, 7)


@pytest.mark.parametrize("patch, match", [
    (lambda vs, es: vs.append(vs[0]), "duplicate vertex id 4"),
    (lambda vs, es: es.append(es[0]), "duplicate edge id 6"),
    (lambda vs, es: vs.__setitem__(0, VertexRecord(4, frozenset(), frozenset({5}), {}, 0, None)),
     "unregistered layers"),
    (lambda vs, es: es.__setitem__(1, EdgeRecord(2, 4, 1, 0, 0, False, 0.0, "", 2, None)),
     "edge 2: endpoint 4 inactive"),
    (lambda vs, es: es.__setitem__(0, EdgeRecord(6, 1, 4, 0, 1, True, 1.0, "", 3, 7)),
     "edge 6: endpoint 4 not in layer 1"),
])
def test_from_records_applies_the_add_rules(patch, match):
    vs, es = _records()
    patch(vs, es)
    with pytest.raises(ValidationError, match=match):
        graph_from_records(["net", "soc"], vs, es)


def _types(rec) -> list[type]:
    return [type(x) for x in (*rec, *getattr(rec, "layers", ()))]


def test_ids_and_ticks_must_be_integers(g):
    # each call was stored as given, or truncated, and the graph then
    # exported a file that import refuses, or did not export at all
    assert pytest.raises(ValidationError, g.create_layer, 5).match("layer name must be a string")
    net = g.create_layer("network")
    with pytest.raises(ValidationError, match="layer id must be an integer, got True"):
        g.add_vertex({"x"}, {True})
    with pytest.raises(ValidationError, match="t_start must be an integer, got 2.7"):
        g.add_vertex({"x"}, {net}, t_start=2.7)
    a = g.add_vertex({"x"}, {np.int64(net)}, t_start=np.int64(1))
    with pytest.raises(ValidationError, match="dst must be an integer, got True"):
        g.add_edge(np.int64(a), True, 0, 0, t_start=1)
    with pytest.raises(ValidationError, match="t_start must be an integer, got 1.0"):
        g.add_edge(a, a, net, net, t_start=1.0)
    with pytest.raises(ValidationError, match="directed must be a boolean, got 1"):
        g.add_edge(a, a, net, net, directed=1, t_start=1)
    e = g.add_edge(np.int64(a), np.int32(a), np.int8(net), net, directed=np.True_, weight=3,
                   t_start=np.int64(2))
    with pytest.raises(ValidationError, match="retirement tick must be an integer, got 5.5"):
        g.retire_edge(e, 5.5)
    g.retire_vertex(np.int64(a), np.int64(5))
    assert _types(g.vertex_records[a]) == [int, frozenset, frozenset, MappingProxyType, int, int, int]
    assert _types(g.edge_records[e]) == [int, int, int, int, int, bool, float, str, int, int]
    assert g.events == [("layer", 0, "network"), ("vertex+", 0, frozenset({"x"}), frozenset({0}), {}, 1),
                        ("edge+", 0, 0, 0, 0, 0, True, 3.0, "", 2), ("vertex-", 0, 5), ("edge-", 0, 5)]
    assert all(type(x) in (str, int, bool, float, frozenset, MappingProxyType)
               for ev in g.events for x in ev)
    assert io.graph_to_json(g) == json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n"


# values the API stored where the file format refuses them: directed="no"
# as directed, weight="2.5" or True as a number, roles={"a": 1} as {"a"} and
# attrs=[] as no attrs
MISTYPED = [
    ("edge", 5, "no", "directed must be a boolean, got 'no'"),
    ("edge", 5, 1, "directed must be a boolean, got 1"),
    ("edge", 5, [], r"directed must be a boolean, got \[\]"),
    ("edge", 6, "2.5", "weight must be a finite number, got '2.5'"),
    ("edge", 6, True, "weight must be a finite number, got True"),
    ("vertex", 1, {"a": 1}, "roles and layers must be collections, not a string or a mapping"),
    ("vertex", 2, {0: 1}, "roles and layers must be collections, not a string or a mapping"),
    ("vertex", 3, [], r"attrs must be a mapping, got \[\]"),
]


@pytest.mark.parametrize("kind, field, value, match", MISTYPED)
def test_add_refuses_mistyped_fields(g, kind, field, value, match):
    net = g.create_layer("network")
    a = g.add_vertex({"x"}, {net})
    # the arguments of add_edge or add_vertex: the record's fields after its id
    args = [a, a, net, net, True, 1.0, "", 0] if kind == "edge" else [{"x"}, {net}, {}, 0]
    args[field - 1] = value
    call = g.add_edge if kind == "edge" else g.add_vertex
    before = list(g.events), dict(g.vertex_records), dict(g.edge_records)
    with pytest.raises(ValidationError, match=match):
        call(*args)
    assert (list(g.events), dict(g.vertex_records), dict(g.edge_records)) == before


def _good_columns(numpy_ids: bool) -> tuple[list, list]:
    """Two vertices and an edge.  With plain values the array checks of
    from_columns take every column whole; np.int64 ids are not plain, so
    every record goes through the per-record checks."""
    ids = np.int64 if numpy_ids else int
    vertices = [[ids(0), ids(1)], [["r"], []], [[0], [0]], [{}, {"k": 1}], [0, 0], [None, None]]
    edges = [[ids(0)], [0], [1], [0], [0], [True], [1], [""], [0], [None]]
    return vertices, edges


@pytest.mark.parametrize("numpy_ids", [False, True], ids=["whole-column", "per-record"])
# add_vertex reads attrs=None as no attrs; a record's attrs must be a mapping
@pytest.mark.parametrize("kind, field, value, match", [
    *MISTYPED, ("vertex", 3, None, "attrs must be a mapping, got None")])
def test_from_columns_refuses_mistyped_fields(monkeypatch, numpy_ids, kind, field, value, match):
    vertices, edges = _good_columns(numpy_ids)
    put = []
    for name in ("_put_vertex", "_put_edge"):
        method = getattr(TemporalMultiLayerGraph, name)
        monkeypatch.setattr(TemporalMultiLayerGraph, name,
                            lambda self, fields, method=method: put.append(fields) or method(self, fields))
    good = TemporalMultiLayerGraph.from_columns(["network"], vertices, edges)
    assert len(put) == (3 if numpy_ids else 0)
    assert good.edge_records[0].weight == 1.0 and type(good.edge_records[0].weight) is float
    (vertices if kind == "vertex" else edges)[field][-1] = value
    with pytest.raises(ValidationError, match=match):
        TemporalMultiLayerGraph.from_columns(["network"], vertices, edges)


@pytest.mark.parametrize("method, rid, match", [
    ("retire_vertex", True, "vertex id must be an integer, got True"),
    ("retire_vertex", 1.0, "vertex id must be an integer, got 1.0"),
    ("retire_vertex", [0], r"vertex id must be an integer, got \[0\]"),
    ("retire_edge", np.float64(0), "edge id must be an integer, got np.float64"),
    ("retire_edge", False, "edge id must be an integer, got False"),
])
def test_retirement_ids_must_be_integers(g, method, rid, match):
    # a bool or a float found the record of the equal int, and a list
    # escaped as a bare TypeError
    net = g.create_layer("network")
    a, b = g.add_vertex({"x"}, {net}), g.add_vertex({"x"}, {net})
    g.add_edge(a, b, net, net)
    before = list(g.events), dict(g.vertex_records), dict(g.edge_records)
    with pytest.raises(ValidationError, match=match):
        getattr(g, method)(rid, 3)
    assert (g.events, dict(g.vertex_records), dict(g.edge_records)) == before


def test_retirement_reads_numpy_ids_as_ints(g):
    net = g.create_layer("network")
    a = g.add_vertex({"x"}, {net})
    e = g.add_edge(a, a, net, net)
    g.retire_edge(np.int64(e), np.int64(4))
    g.retire_vertex(np.int32(a), 6)
    assert g.events[-2:] == [("edge-", e, 4), ("vertex-", a, 6)]
    assert all(type(x) is int for ev in g.events[-2:] for x in ev[1:])
    # the first retirement of a graph built from records derives its log
    # before the row changes, so the retirement is logged once
    vs, es = _records()
    g = graph_from_records(["net", "soc"], vs, es)
    g.retire_vertex(np.int64(1), np.int64(9))
    assert g.events == graph_from_records(["net", "soc"], vs, es).events + [("vertex-", 1, 9)]
    assert g.vertex_records[1].t_end == 9


@pytest.mark.parametrize("patch, match", [
    (lambda vs, es: vs.__setitem__(0, vs[0]._replace(id=True)), "vertex id must be an integer"),
    (lambda vs, es: vs.__setitem__(0, vs[0]._replace(t_start=2.0)), "vertex 4: t_start"),
    (lambda vs, es: vs.__setitem__(1, vs[1]._replace(layers=frozenset({0, True}))),
     "vertex 1: layer id must be an integer, got True"),
    (lambda vs, es: vs.__setitem__(1, vs[1]._replace(layers=frozenset({0.0}))), "vertex 1: layer id"),
    (lambda vs, es: es.__setitem__(0, es[0]._replace(t_end=False)), "edge 6: t_end"),
    (lambda vs, es: es.__setitem__(0, es[0]._replace(src="1")), "edge 6: src"),
    (lambda vs, es: es.__setitem__(0, es[0]._replace(weight="x")), "edge 6: weight must be a finite"),
    (lambda vs, es: es.__setitem__(0, es[0]._replace(weight=10 ** 400)), "edge 6: weight must be a finite"),
])
def test_from_records_applies_the_integer_rule(patch, match):
    vs, es = _records()
    patch(vs, es)
    with pytest.raises(ValidationError, match=match):
        graph_from_records(["net", "soc"], vs, es)
    with pytest.raises(ValidationError, match="layer name must be a string"):
        graph_from_records(["net", 1], *_records())


def test_from_records_stores_plain_ints_and_private_attrs():
    vs, es = _records()
    attrs = {"k": 1}
    vs[1] = vs[1]._replace(id=np.int64(1), attrs=attrs, layers=[np.int16(0), 1])
    es[0] = es[0]._replace(src=np.int64(1), weight=np.float32(1.5), directed=np.bool_(True))
    g = graph_from_records(["net", "soc"], vs, es)
    attrs["k"] = 2
    assert _types(g.vertex_records[1]) == [int, frozenset, frozenset, MappingProxyType, int,
                                           type(None), int, int]
    assert _types(g.edge_records[6]) == [int, int, int, int, int, bool, float, str, int, int]
    assert dict(g.vertex_records[1].attrs) == {"k": 1}
    # records are built from the columns on first read, then kept
    assert g.edge_records[2] == es[1] and g.edge_records[2] is g.edge_records[2]


def test_stored_attrs_are_read_only(g):
    net = g.create_layer("network")
    attrs = {"k": 1.5}
    v = g.add_vertex({"a"}, {net}, attrs)
    attrs["k"] = float("nan")  # the caller's dict is not the stored one
    before = io.graph_to_json(g)
    with pytest.raises(TypeError):
        g.vertex_records[v].attrs["k"] = float("nan")
    with pytest.raises(TypeError):
        g.vertex_records[v].attrs["new"] = 1
    with pytest.raises(AttributeError):
        g.vertex_records[v].attrs.clear()
    assert io.graph_to_json(g) == before
    assert graph_to_dict(g)["vertices"][0]["attrs"] == {"k": 1.5}
    g2 = io.graph_from_dict(graph_to_dict(g))
    with pytest.raises(TypeError):
        g2.vertex_records[v].attrs["k"] = 0
