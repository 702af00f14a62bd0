"""File formats: JSON graph interchange, DOT export, scenario and report files.

The interchange document is versioned and round-trips: importing an exported
graph and exporting again yields byte-identical JSON.  Open-ended validity is
encoded by omitting ``t_end``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

from .core import EdgeRecord, SnapshotView, TemporalMultiLayerGraph, VertexRecord
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


def _record_dict(rec: VertexRecord | EdgeRecord) -> dict:
    """A record as its JSON object, sets sorted; an open ``t_end`` is left out."""
    out = {k: v for k, v in vars(rec).items() if not (k == "t_end" and v is None)}
    if isinstance(rec, VertexRecord):
        out.update(roles=sorted(rec.roles), layers=sorted(rec.layers),
                   attrs=dict(sorted(rec.attrs.items())))
    return out


def graph_to_dict(g: TemporalMultiLayerGraph) -> dict:
    return {
        "version": FORMAT_VERSION,
        "layers": [{"id": lid, "name": name} for lid, name in sorted(g.layer_names.items())],
        "vertices": [_record_dict(v) for _, v in sorted(g.vertex_records.items())],
        "edges": [_record_dict(e) for _, e in sorted(g.edge_records.items())],
    }


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
    return TemporalMultiLayerGraph.from_records(layers, vertices, edges)


# the fields of each record, in the order of the record's constructor, with
# their JSON types; an optional field may be absent or null.  The relation's
# type is left to core, which checks it for API callers too.
_OPTIONAL = frozenset({"roles", "attrs", "relation", "t_end"})
_FIELDS = {
    "layers": {"id": INT, "name": STR},
    "vertices": {"id": INT, "roles": LIST, "layers": LIST, "attrs": OBJECT, "t_start": INT,
                 "t_end": INT},
    "edges": {"id": INT, "src": INT, "dst": INT, "layer_src": INT, "layer_dst": INT,
              "directed": BOOL, "weight": NUMBER, "relation": None, "t_start": INT, "t_end": INT},
}


def _records(doc: dict, key: str):
    """The field values of each record under ``key``, type-checked; absent reads as null."""
    kinds = _FIELDS[key]
    # the keys, then the field types, of records seen to pass: validity
    # depends on nothing else, and the field count is fixed per kind
    valid = set()
    for i, rec in enumerate(json_value(doc.get(key, []), LIST, key)):
        values = list(map(rec.get, kinds))
        sig = (*rec, *map(type, values))
        if sig not in valid:
            _known(rec, kinds, f"{key}[{i}]")
            for (k, kind), value in zip(kinds.items(), values):
                if kind and type(value) not in kind and not (value is None and k in _OPTIONAL):
                    json_value(value, kind, f"{key}[{i}].{k}")
            valid.add(sig)
        yield values


def _parse_graph(doc: dict) -> tuple[list[str], list[VertexRecord], list[EdgeRecord]]:
    """The document's records with their JSON types checked.  Whether they
    form a valid graph is for ``TemporalMultiLayerGraph.from_records``."""
    _known(doc, ("version", *_FIELDS), "graph")
    layers = []
    for lid, name in _records(doc, "layers"):
        if lid != len(layers):
            raise ValidationError(f"layer ids must be dense and ordered; got {lid} at {len(layers)}")
        layers.append(name)
    vertices = []
    for vid, roles, layer_ids, attrs, t_start, t_end in _records(doc, "vertices"):
        if not all(type(lid) is int for lid in layer_ids):
            raise ValidationError(f"vertex {vid}: layer ids must be integers, got {layer_ids!r}")
        vertices.append(VertexRecord(vid, frozenset(roles or ()), frozenset(layer_ids),
                                     dict(attrs or {}), t_start, t_end))
    edges = [EdgeRecord(eid, src, dst, ls, ld, directed, float(w), "" if rel is None else rel, t0, t1)
             for eid, src, dst, ls, ld, directed, w, rel, t0, t1 in _records(doc, "edges")]
    return layers, vertices, edges


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
    """Parse a JSON file; ``NaN`` and ``Infinity`` literals are rejected."""

    def non_finite(name: str):
        raise ValidationError(f"{path}: {name} found; every number must be finite")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def export_graph(g: TemporalMultiLayerGraph, path: str) -> None:
    dump_json(graph_to_dict(g), path)


def import_graph(path: str) -> TemporalMultiLayerGraph:
    return graph_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def snapshot_to_dot(
    s: SnapshotView, edge_highlights: Optional[dict[int, str]] = None
) -> str:
    """Render a snapshot as a digraph with one DOT cluster per layer.

    A vertex is drawn inside its lowest-id layer's cluster.  Undirected edges
    are drawn with ``dir=none``.  ``edge_highlights`` maps edge ids to a color.
    """
    edge_highlights = edge_highlights or {}
    lines = ["digraph snapshot {"]
    for lid in sorted(s.layers):
        lines.append(f'  subgraph cluster_{lid} {{')
        lines.append(f'    label="{s.layers[lid]}";')
        for vid, v in s.vertices.items():
            if min(v.layers) == lid:
                roles = ",".join(sorted(v.roles))
                lines.append(f'    v{vid} [label="{vid}\\n{roles}"];')
        lines.append("  }")
    for e in s.edges:
        attrs = [f'label="{e.relation}"'] if e.relation else []
        if not e.directed:
            attrs.append("dir=none")
        if not e.intra_layer:
            attrs.append("style=dashed")
        if e.id in edge_highlights:
            attrs.append(f'color="{edge_highlights[e.id]}"')
        attr_str = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f"  v{e.src} -> v{e.dst}{attr_str};")
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
                  _field(n, "eps_rx", NUMBER, w),
                  {_field(i, "link", STR, wi): _field(i, "distance", NUMBER, wi)
                   for i, wi in _objects(n, "incident", ("link", "distance"), w, [])})
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
