"""The columnar graph store against the record-based one it replaced.

``record_graph`` keeps the old store: records in dicts, a log appended on
every write, snapshots and views built by passes over records, and the
record-by-record importer and DOT writer.  Seeded random operations, record
lists and graph documents, good and bad, go to both; they must give the same
records in the same order, the same event log, snapshots, layer views and
their CSR arrays, exported JSON and DOT bytes, and the same error messages.
"""

import copy
import json
import random

import numpy as np
import pytest

from record_graph import RecordGraph, graph_from_records, graph_to_dict
from record_graph import graph_from_dict as record_graph_from_dict
from record_graph import snapshot_to_dot as record_snapshot_to_dot
from versegraph import io
from versegraph.core import TemporalMultiLayerGraph
from versegraph.errors import ValidationError

TICKS = range(-1, 12)
# values each operation draws from: ordinary ones, and ones the store refuses
# or must convert
LAYER_NAMES = ["network", "social", "content", "net\"work", "café", "\ud800", 5]
ROLES = ["router", "server", "user", "r\"x", "é", ""]
BAD_ROLES = ["\udfff", 3, "router"]
ATTRS = [{}, {}, {}, {"k": 1}, {"a": "x", "b": True}, {"f": 1.5, "i": -2, "big": 2 ** 70},
         {"é": "\U0001f600"}]
BAD_ATTRS = [{"bad": float("nan")}, {"x": [1]}, {"v": "\ud83d"}, {1: 2}]
BAD_TICKS = [-1, True, 2.5, np.int64(4), 2 ** 62, -(2 ** 62) + 1, "1"]
WEIGHTS = [1.0, 1.0, 0.0, 2.5, 3, np.float32(1.5)]
BAD_WEIGHTS = [-1.0, float("nan"), float("inf"), "x"]
RELATIONS = ["", "", "uplink", "é", "up\"link\\"]
BAD_RELATIONS = ["\ud800", 3, None]


def _draw(rng, good, bad, p=0.06):
    """A value of ``good`` or, with probability ``p``, of ``bad``."""
    return rng.choice(bad if rng.random() < p else good)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return "error", str(exc)


def _same_snapshot(a, b):
    assert a.time == b.time and a.layers == b.layers
    assert list(a.vertices.items()) == list(b.vertices.items())
    assert a.edges == b.edges and a.inter_layer_edges == b.inter_layer_edges
    assert io.snapshot_to_dot(a) == record_snapshot_to_dot(b)
    for layer in [None, *b.layers]:
        if layer is None:
            va, vb = a.flatten(), b.flatten()
        else:
            assert a.layer_vertices(layer) == b.layer_vertices(layer)
            va, vb = a.layer_subgraph(layer), b.layer_subgraph(layer)
        assert va.vertices == vb.vertices and va.edges == vb.edges and va.directed == vb.directed
        for direction in ("out", "in", "both"):
            for x, y in zip(va.csr(direction), vb.csr(direction)):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def _same_graph(new: TemporalMultiLayerGraph, old: RecordGraph):
    assert list(new.layer_names.items()) == list(old.layer_names.items())
    assert list(new.vertex_records.items()) == list(old.vertex_records.items())
    assert list(new.edge_records.items()) == list(old.edge_records.items())
    assert new.events == old.events
    for t in TICKS:
        _same_snapshot(new.snapshot_at(t), old.snapshot_at(t))
    assert io.graph_to_json(new) == json.dumps(graph_to_dict(old), indent=2, sort_keys=True) + "\n"


def _random_op(rng, old: RecordGraph) -> tuple:
    """A method name and its arguments: mostly calls the store accepts."""
    vs, es = list(old.vertex_records), list(old.edge_records)
    nlayers = len(old.layer_names)
    tick = _draw(rng, range(8), BAD_TICKS)
    kind = rng.choice(["layer"] + ["vertex"] * 4 + ["edge"] * 8 + ["retire_vertex"] * 2
                      + ["retire_edge"])
    if kind == "layer":
        return "create_layer", (rng.choice(LAYER_NAMES),)
    if kind == "vertex" or not vs:
        roles = {_draw(rng, ROLES, BAD_ROLES) for _ in range(rng.choice([0, 1, 1, 2]))}
        layers = set(rng.sample(range(nlayers), min(nlayers, rng.choice([1, 1, 2]))))
        roles, layers = _draw(rng, [(roles, layers)], [
            ("router", layers), (roles, set()), (roles, [np.int64(0)]), (roles, {True}),
            ([["a"]], layers), (roles, {nlayers}), (roles, "0")])
        return "add_vertex", (roles, layers, dict(_draw(rng, ATTRS, BAD_ATTRS)), tick)
    if kind == "edge":
        ends = [_draw(rng, vs, [99, -1, True]) for _ in range(2)]
        recs = [old.vertex_records.get(v) for v in ends]
        layers = [rng.choice(sorted(r.layers)) if r else 0 for r in recs]
        layers[rng.randrange(2)] = _draw(rng, [layers[0]], [nlayers, -1, True])
        start = max([r.t_start for r in recs if r] + [0]) + rng.choice([0, 0, 1, 2])
        return "add_edge", (*ends, *layers, _draw(rng, [True, False, 1], [None]),
                            _draw(rng, WEIGHTS, BAD_WEIGHTS), _draw(rng, RELATIONS, BAD_RELATIONS),
                            _draw(rng, [start], BAD_TICKS + [0]))
    if kind == "retire_vertex":
        return "retire_vertex", (_draw(rng, vs, [99]), tick)
    return "retire_edge", (_draw(rng, es or [0], [99]), tick)


def _run_ops(rng, new, old, count):
    for _ in range(count):
        name, args = _random_op(rng, old)
        assert _outcome(getattr(new, name), *args) == _outcome(getattr(old, name), *args), (name, args)
        # a record read now is kept; a later retirement must replace it
        for new_records, old_records in ((new.vertex_records, old.vertex_records),
                                         (new.edge_records, old.edge_records)):
            if old_records:
                key = rng.choice(list(old_records))
                assert new_records[key] == old_records[key]


@pytest.mark.parametrize("seed", range(60))
def test_operations_match_the_record_store(seed):
    rng = random.Random(seed)
    new, old = TemporalMultiLayerGraph(), RecordGraph()
    for name in ("network", "social", "content")[:rng.randint(1, 3)]:
        new.create_layer(name), old.create_layer(name)
    _run_ops(rng, new, old, rng.randint(5, 60))
    # snapshots taken now must not see later writes
    early = [(new.snapshot_at(t), old.snapshot_at(t)) for t in TICKS]
    _run_ops(rng, new, old, rng.randint(5, 40))
    _same_graph(new, old)
    for a, b in early:
        _same_snapshot(a, b)


# snapshot ticks: refused, converted, and beyond every stored tick and OPEN
SNAPSHOT_TICKS = [2.7, True, float("nan"), float("inf"), None, "3", 2.0, np.int64(3), 2 ** 62,
                  2 ** 63, 2 ** 70, -(2 ** 70)]


@pytest.mark.parametrize("seed", range(5))
def test_snapshot_ticks_match_the_record_store(seed):
    rng = random.Random(seed)
    new, old = TemporalMultiLayerGraph(), RecordGraph()
    for name in ("network", "social"):
        new.create_layer(name), old.create_layer(name)
    _run_ops(rng, new, old, 40)
    for t in SNAPSHOT_TICKS:
        got, want = _outcome(new.snapshot_at, t), _outcome(old.snapshot_at, t)
        if want[0] == "ok":
            assert got[0] == "ok" and type(got[1].time) is int
            _same_snapshot(got[1], want[1])
        else:
            assert got == want == ("error", f"snapshot tick must be an integer, got {t!r}")


# field values that break a record, by field position
BAD_VERTEX = {0: [True, 2.5, "1", 2 ** 63, 2 ** 62], 1: ["ab", [["a"]], {1}, ["\ud800"]],
              2: [set(), {7}, {True}, "0", [0.0]], 3: [{"x": None}, {1: 2}],
              4: [2.5, None, 2 ** 62, 6], 5: [-5, False, 2 ** 63 - 1, 1, 3]}
# a layer id, tick or end may also be one another record's lifetime or
# layers do not allow
BAD_EDGE = {0: [True, "3", 2 ** 62], 1: [99, -1, 1.0], 2: [99, None], 3: [7, -1, 0, 1, 2],
            4: [7, True, 0, 1, 2], 6: [-1.0, float("nan"), 10 ** 400, "w"], 7: [None, 5, "\udfff"],
            8: [-3, 2.5, 100, 0, 5], 9: [-5, 2 ** 63 - 1, 0.5, None, 11]}


def _corrupt(rng, records, bad):
    """Replace one field of one record, duplicate one, or drop one."""
    if not records:
        return
    i = rng.randrange(len(records))
    choice = rng.random()
    if choice < 0.15:
        records.insert(rng.randrange(len(records) + 1), records[i])
    elif choice < 0.25:
        del records[i]
    else:
        field = rng.choice(sorted(bad))
        rec = list(records[i])
        rec[field] = rng.choice(bad[field])
        records[i] = tuple(rec)


@pytest.mark.parametrize("seed", range(150))
def test_from_records_matches_the_record_store(seed):
    rng = random.Random(1000 + seed)
    # the writes go to a graph whose log is derived, then appended to
    names = ["network", "social", "content"]
    old = RecordGraph.from_records(names, [], [])
    _run_ops(rng, graph_from_records(names, [], []), old, 40)
    names = list(old.layer_names.values())
    vs, es = list(old.vertex_records.values()), list(old.edge_records.values())
    rng.shuffle(vs), rng.shuffle(es)
    for _ in range(rng.choice([0, 1, 1, 2])):
        _corrupt(rng, *rng.choice([(vs, BAD_VERTEX), (es, BAD_EDGE)]))
    got = _outcome(graph_from_records, names, vs, es)
    want = _outcome(RecordGraph.from_records, names, vs, es)
    assert got[0] == want[0] and (got[0] == "ok" or got == want), (got, want)
    if got[0] == "ok":
        _same_graph(got[1], want[1])
        # writes after a derived log append to it
        _run_ops(rng, got[1], want[1], 20)
        _same_graph(got[1], want[1])


def _sample_records():
    """The records of a random graph with retired vertices and edges."""
    rng = random.Random(7)
    new, old = TemporalMultiLayerGraph(), RecordGraph()
    for name in ("network", "social", "content"):
        new.create_layer(name), old.create_layer(name)
    _run_ops(rng, new, old, 150)
    return list(old.layer_names.values()), list(old.vertex_records.values()), list(old.edge_records.values())


@pytest.mark.parametrize("kind, field, value", [
    (kind, field, value) for kind, bad in (("vertex", BAD_VERTEX), ("edge", BAD_EDGE))
    for field, values in sorted(bad.items()) for value in values])
def test_each_bad_field_matches_the_record_store(kind, field, value):
    names, vs, es = _sample_records()
    records = vs if kind == "vertex" else es
    for i in (0, len(records) // 2, len(records) - 1):
        rec = list(records[i])
        rec[field] = value
        args = (names, vs[:i] + [tuple(rec)] + vs[i + 1:], es) if kind == "vertex" else \
            (names, vs, es[:i] + [tuple(rec)] + es[i + 1:])
        got = _outcome(graph_from_records, *args)
        want = _outcome(RecordGraph.from_records, *args)
        assert got[0] == want[0] and (got[0] == "ok" or got == want), (got, want)
        if got[0] == "ok":
            _same_graph(got[1], want[1])


@pytest.mark.parametrize("kind, field, dtype", [
    (None, None, None), ("vertex", 0, np.int64), ("vertex", 4, np.int64), ("vertex", 0, np.float64),
    ("edge", 0, np.int64), ("edge", 1, np.int64), ("edge", 5, bool), ("edge", 6, np.float64),
    ("edge", 6, np.int64), ("edge", 5, np.int64), ("edge", 8, np.uint8)])
def test_array_columns_match_the_record_store(kind, field, dtype):
    """A numeric field may be given as an array: one of the column's dtype is
    taken as it is, any other is checked value by value."""
    names, vs, es = _sample_records()
    columns = {"vertex": [list(c) for c in zip(*vs)], "edge": [list(c) for c in zip(*es)]}
    if kind:
        columns[kind][field] = np.array(columns[kind][field], dtype)
        given = columns[kind][field].copy()
    got = _outcome(TemporalMultiLayerGraph.from_columns, names, columns["vertex"], columns["edge"])
    want = _outcome(RecordGraph.from_records, names, zip(*columns["vertex"]), zip(*columns["edge"]))
    assert got[0] == want[0] and (got[0] == "ok" or got == want), (got, want)
    if got[0] == "ok":
        _same_graph(got[1], want[1])
    assert not kind or np.array_equal(columns[kind][field], given)  # the caller's array is kept


JUNK = [None, True, 0.5, "x", [], {}, -1, 10 ** 30, 10 ** 400, 2 ** 62, [1, "a"], [[1]], {"z": 1}, "\ud800"]


def _places(doc):
    """Every (container, key) pair below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for k, v in items:
        out.append((doc, k))
        out.extend(_places(v))
    return out


@pytest.mark.parametrize("seed", range(120))
def test_import_matches_the_record_importer(seed):
    rng = random.Random(2000 + seed)
    new, old = TemporalMultiLayerGraph(), RecordGraph()
    for name in ("network", "social", "content"):
        new.create_layer(name), old.create_layer(name)
    _run_ops(rng, new, old, 50)
    doc = graph_to_dict(old)
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        container, key = rng.choice(_places(doc))
        edit = rng.random()
        if edit < 0.2 and isinstance(container, dict):
            del container[key]
        elif edit < 0.3 and isinstance(container, dict):
            container["t_ned" if rng.random() < 0.5 else "extra"] = 1
        else:
            container[key] = copy.deepcopy(rng.choice(JUNK))
    got = _outcome(io.graph_from_dict, copy.deepcopy(doc))
    want = _outcome(record_graph_from_dict, copy.deepcopy(doc))
    assert got[0] == want[0] and (got[0] == "ok" or got == want), (got, want)
    if got[0] == "ok":
        _same_graph(got[1], want[1])


@pytest.mark.parametrize("key, field", [(key, field) for key, fields in (
    ("vertices", ("id", "roles", "layers", "attrs", "t_start", "t_end")),
    ("edges", ("id", "src", "dst", "layer_src", "layer_dst", "directed", "weight", "relation",
               "t_start", "t_end"))) for field in fields])
def test_each_bad_json_field_matches_the_record_importer(key, field):
    names, vs, es = _sample_records()
    doc = graph_to_dict(RecordGraph.from_records(names, vs, es))
    for value in JUNK:
        for i in (0, len(doc[key]) // 2, len(doc[key]) - 1):
            bad = copy.deepcopy(doc)
            bad[key][i][field] = copy.deepcopy(value)
            got = _outcome(io.graph_from_dict, copy.deepcopy(bad))
            want = _outcome(record_graph_from_dict, bad)
            assert got[0] == want[0] and (got[0] == "ok" or got == want), (value, got, want)

