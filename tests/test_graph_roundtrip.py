"""Property test: whatever the live graph API accepts can be exported,
imported and snapshotted.

Random sequences of ``add_vertex``, ``add_edge`` (also onto vertices that
are retired, or retired later), ``retire_vertex`` and ``retire_edge`` run
on one graph; calls the API refuses are skipped.  The graph that results
must export, import and export again to the same bytes, and every snapshot
of it and of its re-import must flatten into a view.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from versegraph import io  # noqa: E402
from versegraph.core import TemporalMultiLayerGraph  # noqa: E402
from versegraph.errors import ValidationError  # noqa: E402

LAYERS = ["network", "social", "content"]
TICKS = range(0, 12)

TICK = st.integers(0, 10)
PICK = st.integers(0, 10 ** 6)  # an index taken modulo the number of candidates
VERTEX = st.tuples(
    st.just("vertex"), st.sets(st.sampled_from(["router", "server", "user"]), max_size=2),
    st.sets(st.integers(0, len(LAYERS) - 1), min_size=1, max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(-3, 3), max_size=2), st.integers(0, 5))
EDGE = st.tuples(st.just("edge"), PICK, PICK, PICK, PICK, st.booleans(), st.floats(0.0, 5.0),
                 st.sampled_from(["", "uplink"]), TICK)
# edges drawn twice as often as the other operations
OP = st.one_of(VERTEX, EDGE, EDGE, st.tuples(st.just("retire_vertex"), PICK, TICK),
               st.tuples(st.just("retire_edge"), PICK, TICK))


def _dump(g: TemporalMultiLayerGraph) -> str:
    return json.dumps(io.graph_to_dict(g), indent=2, sort_keys=True)


def _apply(g: TemporalMultiLayerGraph, op: tuple) -> None:
    kind, *args = op
    vs, es = list(g.vertex_records), list(g.edge_records)
    if kind == "vertex":
        roles, layers, attrs, t = args
        g.add_vertex(roles, layers, attrs, t)
    elif kind == "edge" and vs:
        a, b, ls, ld, directed, weight, relation, t = args
        src, dst = g.vertex_records[vs[a % len(vs)]], g.vertex_records[vs[b % len(vs)]]
        # each end in one of its vertex's layers, so most edges pass the layer rule
        ls, ld = (sorted(v.layers)[i % len(v.layers)] for v, i in ((src, ls), (dst, ld)))
        g.add_edge(src.id, dst.id, ls, ld, directed, weight, relation, t)
    elif kind == "retire_vertex" and vs:
        g.retire_vertex(vs[args[0] % len(vs)], args[1])
    elif kind == "retire_edge" and es:
        g.retire_edge(es[args[0] % len(es)], args[1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ops=st.lists(OP, min_size=4, max_size=30))
# an edge added at t=3 onto a vertex that was retired at t=5
@example(ops=[("vertex", {"router"}, {0}, {}, 0), ("vertex", {"server"}, {0}, {}, 0),
              ("retire_vertex", 0, 5), ("edge", 0, 1, 0, 0, True, 1.0, "", 3)])
# a vertex retired at t=5 while an edge on it was retired at t=8
@example(ops=[("vertex", {"router"}, {0}, {}, 0), ("vertex", {"server"}, {0}, {}, 0),
              ("edge", 0, 1, 0, 0, True, 1.0, "", 0), ("retire_edge", 0, 8),
              ("retire_vertex", 0, 5)])
def test_accepted_operations_round_trip(ops):
    g = TemporalMultiLayerGraph()
    for name in LAYERS:
        g.create_layer(name)
    for op in ops:
        try:
            _apply(g, op)
        except ValidationError:
            pass
    text = _dump(g)
    g2 = io.graph_from_dict(json.loads(text))
    assert _dump(g2) == text
    for graph in (g, g2):
        for t in TICKS:
            snap = graph.snapshot_at(t)
            snap.flatten()
            for lid in snap.layers:
                snap.layer_subgraph(lid)
