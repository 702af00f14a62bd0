"""Only ``core`` writes graph state.  Every record reaches a graph through
``add_*``, ``retire_*`` or ``TemporalMultiLayerGraph.from_columns``, which
check it; this test fails if another package module assigns to a graph's
column stores, its id and set indexes, its record caches or its event log,
or writes into any of them, also through a column or a cell."""

import ast
from pathlib import Path

import versegraph

PRIVATE = {"_vertices", "_edges", "_next_vertex", "_next_edge", "_vertex_row", "_edge_row",
           "_sets", "_set_code", "_vertex_cache", "_edge_cache", "_incident", "_events"}
LIST_DICT_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
                      "update", "setdefault", "popitem", "__setitem__", "__delitem__"}


def _state(node) -> str | None:
    """The state attribute ``node`` names or reaches into: ``x._vertices``,
    ``x._vertices[k]``, ``x._vertices.data[k][i]`` or ``x.events``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE | {"events"}:
            return node.attr
        node = node.value
    return None


def _violations(source: str, filename: str) -> list[str]:
    """Describe each write to graph state in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for part in target.elts if isinstance(target, ast.Tuple) else [target]:
                if name := _state(part):
                    found.append(f"{where}: writes {name}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in LIST_DICT_MUTATORS and (name := _state(node.func.value))):
            found.append(f"{where}: {name}.{node.func.attr}()")
    return found


def test_only_core_writes_graph_state():
    sources = sorted(Path(versegraph.__file__).parent.glob("*.py"))
    assert {"core.py", "io.py"} <= {p.name for p in sources}
    found = [v for p in sources if p.name != "core.py"
             for v in _violations(p.read_text(), p.name)]
    assert found == []


def test_guard_flags_each_write():
    bad = """
def load(g, vrecs, erecs):
    g._vertices = vrecs
    g._edges[0] = erecs[0]
    g._next_vertex, g._next_edge = 3, 4
    g._next_edge += 1
    g.events.append(("layer", 0, "x"))
    g.events.extend([])
    del g._vertices[0]
    g._vertices["t_end"][3] = 5
    g._edges.data["weight"][0] += 1.0
    g._vertex_row[7] = 0
    g._incident.setdefault(0, []).append(1)
    g._events = None
"""
    found = _violations(bad, "io.py")
    assert sorted(int(v.split(":")[1]) for v in found) == [3, 4, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                                           14], found
    ok = """
def read(g):
    n = len(g.events)
    recs = dict(g.vertex_records)
    recs[0] = None
    events = list(g.events)
    events.append(("layer", 0, "x"))
    ends = g._vertices["t_end"].copy()
    ends[0] = 1
    return g._vertices.get(0), sorted(g.events), g._sets[0]
"""
    assert _violations(ok, "io.py") == []
