"""Property test: whatever the live graph API accepts can be exported,
imported and snapshotted.

Random sequences of ``add_vertex``, ``add_edge`` (also onto vertices that
are retired, or retired later), ``retire_vertex`` and ``retire_edge`` run
on one graph whose layer names, roles, relations and attrs are drawn from
text that needs escaping and from every JSON scalar type; ids and ticks are
sometimes given as bools, floats or numpy integers.  Calls the API refuses
are skipped.  The graph that results must export to the bytes of
``json.dumps(graph_to_dict(g), indent=2, sort_keys=True)``, import and
export again to the same bytes, and every snapshot of it and of its
re-import must flatten into a view.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from versegraph import io  # noqa: E402
from versegraph.core import TemporalMultiLayerGraph  # noqa: E402
from versegraph.errors import ValidationError  # noqa: E402

from record_graph import graph_to_dict  # noqa: E402

LAYERS = ["network", "social", "content"]
TICKS = range(0, 12)

# text that json.dumps escapes: non-ASCII, quote, backslash, control
# characters, a line separator, an astral character (written as a surrogate
# pair) and a lone surrogate, which the API refuses
TEXT = st.one_of(st.text(max_size=4),
                 st.sampled_from(["net\"work", "up\"link\\", "r\"x", "caf\u00e9", "\u2028",
                                  "\ud800", "tab\there", "\x00\x1f", "\U0001f600"]))
ATTR = st.one_of(st.booleans(), st.integers(-3, 3), st.sampled_from([2 ** 70, -(2 ** 70)]),
                 st.sampled_from([-0.0, 5e-324, 0.1, 1e16, 1e22, -2.5]), TEXT)
# ids and ticks of the types the API must refuse, or store as plain ints
ODD = st.sampled_from([True, False, 2.5, np.int64(1), np.int64(0)])
TICK = st.one_of(st.integers(0, 10), st.integers(0, 10), ODD)
PICK = st.integers(0, 10 ** 6)  # an index taken modulo the number of candidates
VERTEX = st.tuples(
    st.just("vertex"), st.sets(st.one_of(st.sampled_from(["router", "server", "user"]), TEXT),
                               max_size=2),
    st.sets(st.one_of(st.integers(0, len(LAYERS) - 1), ODD), min_size=1, max_size=2),
    st.dictionaries(st.one_of(st.sampled_from("ab"), TEXT), ATTR, max_size=3), TICK)
EDGE = st.tuples(st.just("edge"), PICK, PICK, PICK, PICK, st.booleans(), st.floats(0.0, 5.0),
                 st.one_of(st.sampled_from(["", "uplink"]), TEXT), TICK, st.booleans())
# edges drawn twice as often as the other operations
OP = st.one_of(VERTEX, EDGE, EDGE, st.tuples(st.just("retire_vertex"), PICK, TICK),
               st.tuples(st.just("retire_edge"), PICK, TICK))


def _dump(g: TemporalMultiLayerGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n"


def _apply(g: TemporalMultiLayerGraph, op: tuple) -> None:
    kind, *args = op
    vs, es = list(g.vertex_records), list(g.edge_records)
    if kind == "vertex":
        roles, layers, attrs, t = args
        g.add_vertex(roles, layers, attrs, t)
    elif kind == "edge" and vs:
        a, b, ls, ld, directed, weight, relation, t, numpy_ids = args
        src, dst = g.vertex_records[vs[a % len(vs)]], g.vertex_records[vs[b % len(vs)]]
        # each end in one of its vertex's layers, so most edges pass the layer rule
        ls, ld = (sorted(v.layers)[i % len(v.layers)] for v, i in ((src, ls), (dst, ld)))
        ends = (src.id, dst.id, ls, ld)
        g.add_edge(*(map(np.int64, ends) if numpy_ids else ends), directed, weight, relation, t)
    elif kind == "retire_vertex" and vs:
        g.retire_vertex(vs[args[0] % len(vs)], args[1])
    elif kind == "retire_edge" and es:
        g.retire_edge(es[args[0] % len(es)], args[1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(names=st.lists(TEXT, min_size=len(LAYERS), max_size=len(LAYERS), unique=True),
       ops=st.lists(OP, min_size=4, max_size=30))
# an edge added at t=3 onto a vertex that was retired at t=5
@example(names=LAYERS, ops=[
    ("vertex", {"router"}, {0}, {}, 0), ("vertex", {"server"}, {0}, {}, 0),
    ("retire_vertex", 0, 5), ("edge", 0, 1, 0, 0, True, 1.0, "", 3, False)])
# a vertex retired at t=5 while an edge on it was retired at t=8
@example(names=LAYERS, ops=[
    ("vertex", {"router"}, {0}, {}, 0), ("vertex", {"server"}, {0}, {}, 0),
    ("edge", 0, 1, 0, 0, True, 1.0, "", 0, False), ("retire_edge", 0, 8),
    ("retire_vertex", 0, 5)])
# every case of the writer at once, and ids and ticks the file cannot hold
@example(names=["net\"work", "caf\u00e9\u2028", "\U0001f600\\"], ops=[
    ("vertex", {"r\"x", "\x00"}, {0, 2}, {"b": True, "i": 2 ** 70, "f": -0.0, "s": "\\\""}, 0),
    ("vertex", set(), {1}, {"\u00e9": 5e-324, "n": -3, "g": 1e22}, 1),
    ("vertex", {"user"}, {True}, {}, 2.7),
    ("edge", 0, 1, 0, 1, False, 0.1, "up\"link\\", 1, True),
    ("edge", 1, 0, 0, 0, True, 1.0, "", True, False),
    ("retire_vertex", 1, 9)])
def test_accepted_operations_round_trip(tmp_path_factory, names, ops):
    g = TemporalMultiLayerGraph()
    for name in names:
        try:
            g.create_layer(name)
        except ValidationError:
            pass
    for op in ops:
        try:
            _apply(g, op)
        except ValidationError:
            pass
    path = tmp_path_factory.mktemp("graph") / "g.json"
    io.export_graph(g, str(path))
    text = path.read_bytes().decode("ascii")
    assert text == _dump(g)
    g2 = io.import_graph(str(path))
    assert io.graph_to_json(g2) == text
    for graph in (g, g2):
        for t in TICKS:
            snap = graph.snapshot_at(t)
            snap.flatten()
            for lid in snap.layers:
                snap.layer_subgraph(lid)
