"""File formats: JSON graph interchange, DOT export, scenario and report files.

The interchange document is versioned and round-trips: importing an exported
graph and exporting again yields byte-identical JSON.  Open-ended validity is
encoded by omitting ``t_end``.
"""

from __future__ import annotations

import json
import operator
import os
import sys
from collections import Counter
from itertools import chain, repeat
from typing import Optional

import numpy as np

from .core import Scalar, SnapshotView, TemporalMultiLayerGraph
from .crossopt import (
    CouplingEdge,
    DomainSpec,
    OptimizationReport,
    Scenario,
    SharedLink,
    SharedNode,
    auto_coupling,
)
from .errors import ValidationError

FORMAT_VERSION = 1


# The bytes of json.dumps(graph_to_dict(g), indent=2, sort_keys=True), where
# graph_to_dict is the record-by-record oracle in tests/record_graph.py: one
# template per record with its keys in sorted order.  Strings go through the
# C escaper json.dumps uses; a graph stores plain ints, bools and floats, so
# %d and %r write what int.__repr__ and float.__repr__ write.
_str = json.encoder.encode_basestring_ascii
_BOOL = ("false", "true")
_GRAPH = '{\n  "edges": %s,\n  "layers": %s,\n  "version": %d,\n  "vertices": %s\n}\n'
_LAYER = '    {\n      "id": %d,\n      "name": %s\n    }'
_VERTEX = ('    {\n      "attrs": %s,\n      "id": %d,\n      "layers": %s,\n      "roles": %s,\n'
           '%s      "t_start": %d\n    }')
_EDGE = ('    {\n      "directed": %s,\n      "dst": %d,\n      "id": %d,\n      "layer_dst": %d,\n'
         '      "layer_src": %d,\n      "relation": %s,\n      "src": %d,\n%s      "t_start": %d,\n'
         '      "weight": %r\n    }')
_T_END = '      "t_end": %d,\n'


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON array, or object, of items already written one level deeper
    than ``indent``."""
    return "%s\n%s\n%s%s" % (brackets[0], ",\n".join(items), indent, brackets[1]) if items else brackets


def _scalar(value: Scalar) -> str:
    """An attr value as json.dumps writes it; its type order puts bool before int."""
    if isinstance(value, str):
        return _str(value)
    if isinstance(value, bool):
        return _BOOL[value]
    return int.__repr__(value) if isinstance(value, int) else float.__repr__(value)


def graph_to_json(g: TemporalMultiLayerGraph) -> str:
    """``json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\\n"``, with
    ``graph_to_dict`` the oracle in ``tests/record_graph.py``, written record
    by record from fixed templates over the graph's columns."""
    layers = [_LAYER % (lid, _str(name)) for lid, name in sorted(g.layer_names.items())]
    ids, roles, layer_sets, attrs, starts, ends = g.vertex_columns()
    # a graph keeps one object per distinct role or layer set
    role_block = {s: _block(["        " + _str(r) for r in sorted(s)], "      ") for s in set(roles)}
    layer_block = {s: _block(["        %d" % lid for lid in sorted(s)], "      ")
                   for s in set(layer_sets)}
    vertices = [_VERTEX % (
        _block(["        %s: %s" % (_str(k), _scalar(x)) for k, x in sorted(a.items())], "      ", "{}")
        if a else "{}",
        vid, layer_block[ls], role_block[rs], "" if t_end is None else _T_END % t_end, t_start)
        for vid, rs, ls, a, t_start, t_end in zip(ids, roles, layer_sets, attrs, starts, ends)]
    edges = [_EDGE % (_BOOL[directed], dst, eid, ld, ls, _str(rel), src,
                      "" if t_end is None else _T_END % t_end, t_start, w)
             for eid, src, dst, ls, ld, directed, w, rel, t_start, t_end in zip(*g.edge_columns())]
    return _GRAPH % (_block(edges, "  "), _block(layers, "  "), FORMAT_VERSION,
                     _block(vertices, "  "))


INT, NUMBER, STR, BOOL, LIST, OBJECT = (int,), (float, int), (str,), (bool,), (list,), (dict,)
_TYPE_NAMES = {INT: "an integer", NUMBER: "a number", STR: "a string", BOOL: "a boolean",
               LIST: "a list", OBJECT: "a JSON object"}


def json_value(value, kind: tuple, what: str):
    """``value`` if its type is one of ``kind``, such as ``INT``.  The type must
    match exactly, as JSON parsing makes it: 0.7 and ``true`` are not integers."""
    if type(value) not in kind:
        raise ValidationError(f"{what} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _known(obj: dict, keys, what: str) -> dict:
    """``obj``, a JSON object, if it holds no key outside ``keys``."""
    unknown = sorted(json_value(obj, OBJECT, what).keys() - set(keys))
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}")
    return obj


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number that a float holds finitely."""
    # abs() compares exactly, so NaN, the infinities and integers too large
    # for a float all fail it
    if type(value) not in NUMBER or not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def graph_from_dict(doc: dict) -> TemporalMultiLayerGraph:
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported interchange version {version!r}")
    try:
        layers, vertices, edges = _parse_graph(doc)
    except (ValidationError, AttributeError, TypeError, OverflowError) as exc:
        raise ValidationError(f"malformed graph file: {exc}") from exc
    return TemporalMultiLayerGraph.from_columns(layers, vertices, edges)


# the fields of each record, in the order of the record's constructor, with
# their JSON types; an optional field may be absent or null, which reads as
# its default.  The relation's type is left to core, which checks it for API
# callers too.
_OPTIONAL = {"roles": (), "attrs": {}, "relation": "", "t_end": None}
# the array a required field of these JSON types is read into, once its
# values pass; integers too large for int64 stay in a list, for core to refuse
_ARRAYS = {INT: np.int64, BOOL: bool, NUMBER: np.float64}
_FIELDS = {
    "layers": {"id": INT, "name": STR},
    "vertices": {"id": INT, "roles": LIST, "layers": LIST, "attrs": OBJECT, "t_start": INT,
                 "t_end": INT},
    "edges": {"id": INT, "src": INT, "dst": INT, "layer_src": INT, "layer_dst": INT,
              "directed": BOOL, "weight": NUMBER, "relation": None, "t_start": INT, "t_end": INT},
}


def _check_record(rec, kinds: dict, what: str) -> None:
    """Raise if ``rec`` is not a JSON object of these fields with these types."""
    values = list(map(rec.get, kinds))  # as a record is read: a list or number has no .get
    _known(rec, kinds, what)
    for (k, kind), value in zip(kinds.items(), values):
        if kind and type(value) not in kind and not (value is None and k in _OPTIONAL):
            json_value(value, kind, f"{what}.{k}")


def _columns(doc: dict, key: str) -> list[list]:
    """The values of each field of the records under ``key``, one list per
    field, type-checked, absent or null read as the default.  Each check runs
    over a whole field; a record that fails one is checked again on its own,
    in record order, so the error is the first bad record's."""
    kinds = _FIELDS[key]
    records = json_value(doc.get(key, []), LIST, key)
    odd = {i for i, rec in enumerate(records) if type(rec) is not dict}
    dicts = [{} if i in odd else rec for i, rec in enumerate(records)] if odd else records
    columns = [[rec.get(k) for rec in dicts] for k in kinds]
    # keys + nulls = len(kinds) for a record whose absent fields are the
    # optional ones: an unknown key or an explicit null makes it more, and
    # the record is checked on its own
    keys = np.fromiter(map(len, dicts), np.int64, len(dicts))
    nulls = []
    for (k, kind), column in zip(kinds.items(), columns):
        types = set(map(type, column))
        if type(None) in types and k in _OPTIONAL:
            keys += np.fromiter(map(operator.is_, column, repeat(None)), bool, len(column))
            types.discard(type(None))
            nulls.append((k, column))
        if kind and not types <= set(kind):
            odd.update(i for i, v in enumerate(column) if type(v) not in kind)
    odd.update(np.flatnonzero(keys != len(kinds)).tolist())
    for i in sorted(odd):
        _check_record(records[i], kinds, f"{key}[{i}]")
    for k, column in nulls:
        if _OPTIONAL[k] is not None:
            column[:] = [_OPTIONAL[k] if v is None else v for v in column]
    for j, (k, kind) in enumerate(kinds.items()):
        if kind in _ARRAYS and k not in _OPTIONAL:
            try:
                columns[j] = np.array(columns[j], _ARRAYS[kind])
            except OverflowError:
                if kind is NUMBER:  # as float() refuses an integer too large for a float
                    raise
    return columns


_INT_TYPE, _STR_TYPE = frozenset({int}), frozenset({str})


def _parse_graph(doc: dict) -> tuple[list[str], list[list], list[list]]:
    """The layer names and the vertex and edge fields of the document, with
    their JSON types checked.  Whether they form a valid graph is for
    ``TemporalMultiLayerGraph.from_columns``."""
    _known(doc, ("version", *_FIELDS), "graph")
    lids, names = _columns(doc, "layers")
    for i, lid in enumerate(lids):
        if lid != i:
            raise ValidationError(f"layer ids must be dense and ordered; got {lid} at {i}")
    vertices = _columns(doc, "vertices")
    ids, roles, layer_ids = vertices[:3]
    if not (_INT_TYPE.issuperset(map(type, chain.from_iterable(layer_ids)))
            and _STR_TYPE.issuperset(map(type, chain.from_iterable(roles)))):
        for vid, rs, ls in zip(ids, roles, layer_ids):
            if not all(type(lid) is int for lid in ls):
                raise ValidationError(f"vertex {vid}: layer ids must be integers, got {ls!r}")
            frozenset(rs)  # a TypeError names an unhashable role
    return names, vertices, _columns(doc, "edges")


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, overwriting the file in place.

    The file is opened without ``O_TRUNC`` and cut to the new length only if
    it was longer.  On ext4, truncating a just-written file makes the next
    truncate or unlink of it wait for writeback; rewriting in place does not.
    The inode is kept, so symlinks are followed, hard links see the new
    bytes and an existing file keeps its mode.  New files get 0o666 & ~umask.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def dump_json(doc, path: str) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_json(path: str):
    """Parse a JSON file; ``NaN`` and ``Infinity`` literals and a key that
    repeats within one object are rejected."""

    def non_finite(name: str):
        raise ValidationError(f"{path}: {name} found; every number must be finite")

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
            raise ValidationError(f"{path}: key {key!r} repeats within one object")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=non_finite, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def export_graph(g: TemporalMultiLayerGraph, path: str) -> None:
    write_text(path, graph_to_json(g))


def import_graph(path: str) -> TemporalMultiLayerGraph:
    return graph_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def _dot_str(text: str) -> str:
    """``text`` for a quoted DOT string: backslash and double quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def snapshot_to_dot(
    s: SnapshotView, edge_highlights: Optional[dict[int, str]] = None
) -> str:
    """Render a snapshot as a digraph with one DOT cluster per layer.

    A vertex is drawn inside its lowest-id layer's cluster.  Undirected edges
    are drawn with ``dir=none``.  ``edge_highlights`` maps edge ids to a color.
    """
    edge_highlights = edge_highlights or {}
    ids, roles, layers = s.vertex_columns()[:3]
    label = {r: _dot_str(",".join(sorted(r))) for r in set(roles)}
    home = {ls: min(ls) for ls in set(layers)}
    members: dict[int, list[str]] = {lid: [] for lid in s.layers}
    for vid, rs, ls in zip(ids, roles, layers):
        # \n in a DOT label is a line break
        members[home[ls]].append(f'    v{vid} [label="{vid}\\n{label[rs]}"];')
    lines = ["digraph snapshot {"]
    for lid in sorted(s.layers):
        lines.append(f'  subgraph cluster_{lid} {{')
        lines.append(f'    label="{_dot_str(s.layers[lid])}";')
        lines += members[lid]
        lines.append("  }")
    for eid, src, dst, ls, ld, directed, _, relation, _, _ in zip(*s.edge_columns()):
        attrs = [f'label="{_dot_str(relation)}"'] if relation else []
        if not directed:
            attrs.append("dir=none")
        if ls != ld:
            attrs.append("style=dashed")
        if eid in edge_highlights:
            attrs.append(f'color="{_dot_str(edge_highlights[eid])}"')
        attr_str = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f"  v{src} -> v{dst}{attr_str};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Optimization scenario and report files
# ---------------------------------------------------------------------------

def _field(obj: dict, key: str, kind: tuple, what: str, default=None):
    """``obj[key]`` read as ``kind``, a NUMBER as a finite float.  An absent
    key reads as ``default``; without one it is an error."""
    what = f"{what}.{key}".lstrip(".")
    if key not in obj and default is None:
        raise ValidationError(f"{what} is missing")
    value = obj.get(key, default)
    return json_number(value, what) if kind is NUMBER else json_value(value, kind, what)


def _objects(obj: dict, key: str, keys: tuple, what: str = "",
             default=None) -> list[tuple[dict, str]]:
    """``(item, name)`` for each item of the list ``obj[key]``, which must be
    objects holding no key outside ``keys``."""
    items = _field(obj, key, LIST, what, default)
    what = f"{what}.{key}".lstrip(".")
    return [(_known(x, keys, f"{what}[{i}]"), f"{what}[{i}]") for i, x in enumerate(items)]


def scenario_from_dict(doc: dict) -> Scenario:
    """A scenario read with the JSON type rules.  Without explicit coupling
    edges (``"coupling": "auto"`` or no key) they are derived."""
    # only the reads are wrapped: the range checks of the specs built below
    # keep their own messages
    try:
        doc = _known(doc, ("domains", "links", "nodes", "coupling"), "scenario")
        numbers = ("gamma", "lambda", "r_min", "r_max")
        domains = [(_field(d, "id", STR, w), *(_field(d, k, NUMBER, w) for k in numbers))
                   for d, w in _objects(doc, "domains", ("id", *numbers))]
        links = [(_field(l, "id", STR, w), _field(l, "capacity", NUMBER, w),
                  {k: json_number(a, f"{w}.coeffs.{k}")
                   for k, a in _field(l, "coeffs", OBJECT, w, {}).items()})
                 for l, w in _objects(doc, "links", ("id", "capacity", "coeffs"), default=[])]
        nodes = [(_field(n, "id", STR, w), _field(n, "eps_tx", NUMBER, w),
                  _field(n, "eps_rx", NUMBER, w), _incident(n, w))
                 for n, w in _objects(doc, "nodes", ("id", "eps_tx", "eps_rx", "incident"), default=[])]
        coupling = doc.get("coupling", "auto")
        edges = [] if coupling == "auto" else [
            _coupling_edge(e, w)
            for e, w in _objects(_known(coupling, ("edges",), "coupling"), "edges",
                                 ("m", "n", "utility", "weights", "sign"), "coupling", [])]
    except ValidationError as exc:
        raise ValidationError(f"malformed scenario file: {exc}") from exc
    scenario = Scenario([DomainSpec(*d) for d in domains], [SharedLink(*l) for l in links],
                        [SharedNode(*n) for n in nodes], [CouplingEdge(*e) for e in edges])
    if coupling == "auto":
        scenario.coupling = auto_coupling(scenario)
    return scenario


def _incident(node: dict, what: str) -> dict[str, float]:
    """A node's ``incident`` list as link id -> distance; a link listed twice
    is refused, since one distance would silently replace the other."""
    incident: dict[str, float] = {}
    for i, wi in _objects(node, "incident", ("link", "distance"), what, []):
        link = _field(i, "link", STR, wi)
        if link in incident:
            raise ValidationError(f"{wi}.link {link!r} repeats")
        incident[link] = _field(i, "distance", NUMBER, wi)
    return incident


def _coupling_edge(e: dict, what: str) -> tuple:
    """The ``CouplingEdge`` arguments of one coupling entry."""
    weights = _field(e, "weights", LIST, what, [1.0, 1.0, 1.0])
    if len(weights) != 3:
        raise ValidationError(f"{what}.weights must hold 3 numbers, got {len(weights)}")
    return (_field(e, "m", STR, what), _field(e, "n", STR, what),
            _field(e, "utility", BOOL, what, False),
            *(json_number(x, f"{what}.weights[{j}]") for j, x in enumerate(weights)),
            _field(e, "sign", NUMBER, what, 1.0))


def load_scenario(path: str) -> Scenario:
    return scenario_from_dict(load_json(path))


def report_to_dict(rep: OptimizationReport) -> dict:
    return {
        "seed": rep.seed,
        "r_isolated": list(rep.r_isolated),
        "r_coupled": list(rep.r_coupled),
        "objectives": rep.objectives,
        "slack_isolated": rep.slack_isolated,
        "slack_coupled": rep.slack_coupled,
        "gap": rep.gap,
    }


def trace_to_csv(trace: list[tuple[int, float, float]]) -> str:
    lines = ["iter,objective,max_violation"]
    for it, obj, viol in trace:
        lines.append(f"{it},{obj!r},{viol!r}")
    return "\n".join(lines) + "\n"
