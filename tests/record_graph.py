"""The record-based graph store that the columnar one in ``versegraph.core``
replaced, kept as the oracle for it: records held in dicts, an event log
appended on every write, snapshots and views built by passes over records,
and the importer, JSON document and DOT writer that read a graph record by
record.  Ids and ticks follow the same range rule as the columns.
``tests/test_columnar_core.py`` checks that the two agree on every record,
event, snapshot, view, exported byte and error message.

Here too are the builders that give the package's own structures from
records: :func:`graph_from_records` and :func:`graph_view`.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from versegraph.core import EdgeRecord, GraphView, Scalar, TemporalMultiLayerGraph, VertexRecord
from versegraph.errors import ValidationError
from versegraph.io import FORMAT_VERSION, LIST, _known, json_value

_LIMIT = 2 ** 62


def _index(value, what: str) -> int:
    """``value`` as a plain int, read by ``operator.index``; a bool is refused."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _int(value, what: str) -> int:
    """An id or tick the graph stores: within (-2**62, 2**62)."""
    value = _index(value, what)
    if not -_LIMIT < value < _LIMIT:
        raise ValidationError(f"{what} must be an integer between -2**62 and 2**62, got {value!r}")
    return value


def _plain_edge(eid, src, dst, layer_src, layer_dst, directed, weight, relation, t_start,
                t_end) -> tuple:
    """The fields of an edge with its ids and ticks as plain ints, ``directed``
    as a bool and ``weight`` as a float: a bool is no weight, and neither is
    a string, nor an int as ``directed``."""
    eid = _int(eid, "edge id")
    src, dst, layer_src, layer_dst = (
        _index(x, f"edge {eid}: {name}") for name, x in (
            ("src", src), ("dst", dst), ("layer_src", layer_src), ("layer_dst", layer_dst)))
    t_start = _int(t_start, f"edge {eid}: t_start")
    t_end = None if t_end is None else _int(t_end, f"edge {eid}: t_end")
    if not isinstance(directed, (bool, np.bool_)):
        raise ValidationError(f"edge {eid}: directed must be a boolean, got {directed!r}")
    if type(weight) is not float:
        real = isinstance(weight, numbers.Real) and not isinstance(weight, bool)
        try:
            finite = real and math.isfinite(weight)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValidationError(f"edge {eid}: weight must be a finite number, got {weight!r}")
        weight = float(weight)
    return eid, src, dst, layer_src, layer_dst, bool(directed), weight, relation, t_start, t_end


def _utf8(text: str, what: str) -> None:
    """Refuse a string that UTF-8 cannot encode: one holding a surrogate code
    point, which a JSON ``\\ud800`` escape can carry but no output file can.
    Callers skip ASCII strings, which always encode."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{what} {text!r} cannot be encoded as UTF-8") from None


_INT, _STR = frozenset({int}), frozenset({str})
_NO_ATTRS: Mapping[str, Scalar] = MappingProxyType({})  # shared by every vertex without attrs


def active_at(rec: VertexRecord | EdgeRecord, t: int) -> bool:
    """Whether the record's validity ``[t_start, t_end)`` covers tick ``t``."""
    return rec.t_start <= t and (rec.t_end is None or t < rec.t_end)


def graph_from_records(layer_names: Iterable[str], vertices: Iterable[VertexRecord],
                       edges: Iterable[EdgeRecord]) -> TemporalMultiLayerGraph:
    """The columnar graph of exactly these records, as ``from_columns`` builds
    it.  A record may also be given as the tuple of its fields."""
    return TemporalMultiLayerGraph.from_columns(layer_names, list(zip(*vertices)) or [()] * 6,
                                                list(zip(*edges)) or [()] * 10)


def graph_view(vertices: Iterable[int], edges: Iterable[EdgeRecord]) -> GraphView:
    """The package's view of these vertex ids and edge records, built by its
    one constructor from their columns; its ``edges`` are these records,
    sorted by id."""
    edges = tuple(sorted(edges, key=lambda e: e.id))
    cols = list(zip(*((e.id, e.src, e.dst, e.directed, e.weight) for e in edges))) or [()] * 5
    return GraphView(np.array(sorted(set(vertices)), dtype=np.int64),
                     list(map(np.array, cols, (np.int64, np.int64, np.int64, bool, np.float64))),
                     lambda: edges)


class RecordView:
    """A static single-graph slice of a snapshot, built from edge records."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[EdgeRecord]):
        self.vertices: tuple[int, ...] = tuple(sorted(set(vertices)))
        self.edges: tuple[EdgeRecord, ...] = tuple(sorted(edges, key=lambda e: e.id))
        vs = set(self.vertices)
        for e in self.edges:
            if e.src not in vs or e.dst not in vs:
                raise ValidationError(f"edge {e.id} references vertex outside view")
        self._csr: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def directed(self) -> bool:
        return any(e.directed for e in self.edges)

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def csr(self, direction: str = "both") -> tuple[np.ndarray, np.ndarray]:
        """Compact adjacency (indptr, indices) over positional vertex indices.

        Parallel edges are collapsed and each row is sorted.  ``direction`` is
        "out" or "in", where an undirected edge gives both arcs and self-loops
        stay, or "both", where every edge gives both arcs and self-loops go.
        Built once per direction; every call returns the same read-only
        int64 arrays.
        """
        if direction not in self._csr:
            if direction not in ("out", "in", "both"):
                raise ValidationError(f"bad direction {direction!r}")
            pos = self.index
            src = np.array([pos[e.src] for e in self.edges], dtype=np.int64)
            dst = np.array([pos[e.dst] for e in self.edges], dtype=np.int64)
            if direction == "in":
                src, dst = dst, src
            if direction == "both":
                src, dst = src[src != dst], dst[src != dst]
                back = np.ones(len(src), dtype=bool)
            else:
                back = np.array([not e.directed for e in self.edges], dtype=bool)
            # sorted unique arc keys tail * n + head: rows in order, heads ascending
            # (not np.unique, whose first call imports numpy.ma: 0.7 MB resident)
            arcs = np.sort(np.concatenate([src * self.n + dst, dst[back] * self.n + src[back]]))
            arcs = arcs[np.diff(arcs, prepend=-1) != 0]
            indptr = np.searchsorted(arcs, np.arange(self.n + 1) * self.n)
            indices = arcs % self.n
            indptr.flags.writeable = indices.flags.writeable = False
            self._csr[direction] = (indptr, indices)
        return self._csr[direction]


class RecordSnapshot:
    """Immutable picture of every layer at one tick."""

    def __init__(
        self,
        time: int,
        layers: Mapping[int, str],
        vertices: Iterable[VertexRecord],
        edges: Iterable[EdgeRecord],
    ):
        self.time = time
        self.layers = dict(layers)
        self.vertices: dict[int, VertexRecord] = {v.id: v for v in sorted(vertices, key=lambda v: v.id)}
        self.edges: tuple[EdgeRecord, ...] = tuple(sorted(edges, key=lambda e: e.id))
        self._views: dict[Optional[int], RecordView] = {}  # layer id, None = flattened

    @property
    def inter_layer_edges(self) -> tuple[EdgeRecord, ...]:
        return tuple(e for e in self.edges if not e.intra_layer)

    def layer_vertices(self, layer: int) -> tuple[int, ...]:
        if layer not in self.layers:
            raise ValidationError(f"unknown layer {layer}")
        return tuple(v.id for v in self.vertices.values() if layer in v.layers)

    def layer_subgraph(self, layer: int) -> RecordView:
        """Single-layer view: V_i plus only the intra-layer edges of ``layer``.
        Built on the first call per layer; later calls return the same view."""
        if layer not in self._views:
            vs = self.layer_vertices(layer)
            es = [e for e in self.edges if e.intra_layer and e.layer_src == layer]
            self._views[layer] = RecordView(vs, es)
        return self._views[layer]

    def flatten(self) -> RecordView:
        """Union of all layer vertex sets with every intra- and inter-layer edge.
        Built on the first call; later calls return the same view."""
        if None not in self._views:
            self._views[None] = RecordView(self.vertices.keys(), self.edges)
        return self._views[None]

def _created(rec: VertexRecord | EdgeRecord) -> tuple:
    """The creation event of a record: its fields up to ``t_start``."""
    return ("vertex+" if isinstance(rec, VertexRecord) else "edge+", *rec[:-1])


_BY_START = operator.attrgetter("t_start", "id")


class RecordGraph:
    """Append-only event log of layer/vertex/edge lifecycle, with snapshots.

    Events are tuples ``(kind, payload...)``; replaying the log reproduces the
    graph exactly, which the test suite exploits as an oracle.  Every record,
    from ``add_*`` or :meth:`from_records`, is built by ``_vertex`` or
    ``_edge``, which check it, so no edge outlives an endpoint.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self._layer_ids: dict[str, int] = {}
        self._layer_names: dict[int, str] = {}
        self._vertices: dict[int, VertexRecord] = {}
        self._edges: dict[int, EdgeRecord] = {}
        self._next_vertex = 0
        self._next_edge = 0

    @classmethod
    def from_records(cls, layer_names: Iterable[str], vertices: Iterable[VertexRecord],
                     edges: Iterable[EdgeRecord]) -> RecordGraph:
        """A graph of exactly these records, checked as ``add_*`` checks them, with
        unique ids; layer ``i`` is the ``i``-th name.  A record may also be given
        as the tuple of its fields; each is stored as built by ``add_*``, with
        plain ints and a private copy of its attrs.  The event log is canonical:
        layers, creations by ``(t_start, id)``, then retirements by ``(t, id)``."""
        g = cls()
        for name in layer_names:
            g.create_layer(name)
        for v in map(g._vertex, vertices):
            if v.id in g._vertices:
                raise ValidationError(f"duplicate vertex id {v.id}")
            g._vertices[v.id] = v
        for e in map(g._edge, edges):
            if e.id in g._edges:
                raise ValidationError(f"duplicate edge id {e.id}")
            g._edges[e.id] = e
        g._next_vertex = max(g._vertices, default=-1) + 1
        g._next_edge = max(g._edges, default=-1) + 1
        recs = {"vertex": g._vertices.values(), "edge": g._edges.values()}
        g.events += [_created(r) for rs in recs.values() for r in sorted(rs, key=_BY_START)]
        g.events += [(kind + "-", i, t) for kind, rs in recs.items()
                     for t, i in sorted((r.t_end, r.id) for r in rs if r.t_end is not None)]
        return g

    # -- checks ------------------------------------------------------------

    def _vertex(self, fields: Iterable) -> VertexRecord:
        """The record to store for a vertex's fields, if they pass the checks.
        It holds plain ints, frozensets and a read-only private copy of the
        attrs: values that the interchange file holds exactly."""
        vid, roles, layers, attrs, t_start, t_end = fields
        vid = _int(vid, "vertex id")
        # a string is iterable, but as roles it would give one role per
        # character, as bytes give one layer id per byte; a mapping would
        # give its keys
        if isinstance(roles, (str, bytes, Mapping)) or isinstance(layers, (str, bytes, Mapping)):
            raise ValidationError(f"vertex {vid}: roles and layers must be collections, "
                                  f"not a string or a mapping")
        try:
            layers, roles = frozenset(layers), frozenset(roles)
        except TypeError:
            raise ValidationError(f"vertex {vid}: roles and layers must be collections of "
                                  f"hashable values, got {roles!r} and {layers!r}") from None
        if not isinstance(attrs, Mapping):
            raise ValidationError(f"vertex {vid}: attrs must be a mapping, got {attrs!r}")
        attrs = MappingProxyType(dict(attrs)) if attrs else _NO_ATTRS
        if not _INT.issuperset(map(type, layers)):
            layers = frozenset(_index(lid, f"vertex {vid}: layer id") for lid in layers)
        t_start = _int(t_start, f"vertex {vid}: t_start")
        if t_end is not None:
            t_end = _int(t_end, f"vertex {vid}: t_end")
        if not layers:
            raise ValidationError(f"vertex {vid} has an empty layer set")
        if not self._layer_names.keys() >= layers:
            unknown = sorted(layers - self._layer_names.keys())
            raise ValidationError(f"vertex {vid} references unregistered layers {unknown}")
        if not _STR.issuperset(map(type, roles)) and not all(isinstance(r, str) for r in roles):
            raise ValidationError(f"vertex {vid}: every role must be a string")
        if not "".join(roles).isascii():
            for role in roles:
                _utf8(role, f"vertex {vid}: role")
        for key, value in attrs.items():
            # JSON scalars that the interchange file can hold
            finite = not isinstance(value, float) or math.isfinite(value)
            if not (isinstance(key, str) and isinstance(value, (str, int, float)) and finite):
                raise ValidationError(f"vertex {vid}: attrs must map strings to strings, "
                                      f"booleans, integers or finite numbers; got {key!r}: {value!r}")
            if not key.isascii():
                _utf8(key, f"vertex {vid}: attr key")
            if isinstance(value, str) and not value.isascii():
                _utf8(value, f"vertex {vid}: attr {key!r} value")
        if t_end is not None and t_end < t_start:
            raise ValidationError(f"vertex {vid}: t_end must not precede t_start")
        return VertexRecord(vid, roles, layers, attrs, t_start, t_end)

    def _edge(self, fields: Iterable) -> EdgeRecord:
        """The record to store for an edge's fields, if they pass the checks:
        plain ints, a bool and a float, as for a vertex."""
        e = EdgeRecord._make(_plain_edge(*fields))
        eid, src, dst, layer_src, layer_dst, _, weight, relation, t_start, t_end = e
        if not 0.0 <= weight < math.inf:
            raise ValidationError(f"edge {eid}: non-finite weight {weight}" if not math.isfinite(weight)
                                  else f"edge {eid}: negative weight {weight}")
        if not isinstance(relation, str):
            raise ValidationError(f"edge {eid}: relation must be a string, got {relation!r}")
        if not relation.isascii():
            _utf8(relation, f"edge {eid}: relation")
        if t_end is not None and t_end < t_start:
            raise ValidationError(f"edge {eid}: t_end must not precede t_start")
        for vid, layer in ((src, layer_src), (dst, layer_dst)):
            v = self._vertices.get(vid)
            if v is None:
                raise ValidationError(f"edge {eid}: dangling endpoint {vid}")
            if layer not in v.layers:
                raise ValidationError(f"edge {eid}: endpoint {vid} not in layer {layer}")
            # the vertex's lifetime must cover the edge's [t_start, t_end)
            if v.t_start > t_start or v.t_end is not None and (t_end is None or t_end > v.t_end):
                raise ValidationError(f"edge {eid}: endpoint {vid} inactive during the edge's validity")
        return e

    # -- construction ------------------------------------------------------

    def create_layer(self, name: str) -> int:
        if not isinstance(name, str):
            raise ValidationError(f"layer name must be a string, got {name!r}")
        if not name.isascii():
            _utf8(name, "layer name")
        if name in self._layer_ids:
            raise ValidationError(f"duplicate layer name {name!r}")
        lid = len(self._layer_ids)
        self._layer_ids[name] = lid
        self._layer_names[lid] = name
        self.events.append(("layer", lid, name))
        return lid

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            raise ValidationError(f"unknown layer {name!r}")
        return self._layer_ids[name]

    def add_vertex(
        self,
        roles: Iterable[str],
        layers: Iterable[int],
        attrs: Optional[Mapping[str, Scalar]] = None,
        t_start: int = 0,
    ) -> int:
        rec = self._vertex((self._next_vertex, roles, layers, {} if attrs is None else attrs,
                            t_start, None))
        self._next_vertex += 1
        self._vertices[rec.id] = rec
        self.events.append(_created(rec))
        return rec.id

    def add_edge(
        self,
        src: int,
        dst: int,
        layer_src: int,
        layer_dst: int,
        directed: bool = True,
        weight: float = 1.0,
        relation: str = "",
        t_start: int = 0,
    ) -> int:
        """An open edge: both endpoints must exist from ``t_start`` on, unretired."""
        rec = self._edge((self._next_edge, src, dst, layer_src, layer_dst, directed, weight,
                          relation, t_start, None))
        self._next_edge += 1
        self._edges[rec.id] = rec
        self.events.append(_created(rec))
        return rec.id

    def retire_vertex(self, vid: int, t: int) -> None:
        rec = self._vertices.get(vid)
        if rec is None:
            raise ValidationError(f"unknown vertex {vid}")
        t = _int(t, "retirement tick")
        if rec.t_end is not None:
            raise ValidationError(f"vertex {vid} already retired")
        if not active_at(rec, t):
            raise ValidationError(f"vertex {vid} not active at t={t}")
        # open incident edges retire at t, so must start by then; others must end by then
        incident = [e for e in self._edges.values() if vid in (e.src, e.dst)]
        late = [e.id for e in incident if (e.t_start if e.t_end is None else e.t_end) > t]
        if late:
            raise ValidationError(
                f"vertex {vid} cannot retire at t={t}: edges {late} start later or end later"
            )
        self._vertices[rec.id] = rec._replace(t_end=t)
        self.events.append(("vertex-", rec.id, t))
        for e in incident:
            if e.t_end is None:
                self._edges[e.id] = e._replace(t_end=t)
                self.events.append(("edge-", e.id, t))

    def retire_edge(self, eid: int, t: int) -> None:
        rec = self._edges.get(eid)
        if rec is None:
            raise ValidationError(f"unknown edge {eid}")
        t = _int(t, "retirement tick")
        if rec.t_end is not None:
            raise ValidationError(f"edge {eid} already retired")
        if not active_at(rec, t):
            raise ValidationError(f"edge {eid} not active at t={t}")
        self._edges[rec.id] = rec._replace(t_end=t)
        self.events.append(("edge-", rec.id, t))

    # -- queries -----------------------------------------------------------

    def snapshot_at(self, t: int) -> RecordSnapshot:
        t = _index(t, "snapshot tick")
        return RecordSnapshot(
            t,
            self._layer_names,
            (v for v in self._vertices.values() if active_at(v, t)),
            (e for e in self._edges.values() if active_at(e, t)),
        )

    # read-only views that follow later changes; nothing is copied
    @property
    def layer_names(self) -> Mapping[int, str]:
        return MappingProxyType(self._layer_names)

    @property
    def vertex_records(self) -> Mapping[int, VertexRecord]:
        return MappingProxyType(self._vertices)

    @property
    def edge_records(self) -> Mapping[int, EdgeRecord]:
        return MappingProxyType(self._edges)


# -- the record-by-record importer ---------------------------------------------

def graph_from_dict(doc: dict) -> RecordGraph:
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported interchange version {version!r}")
    try:
        return RecordGraph.from_records(*_parse_graph(doc))
    except ValidationError as exc:
        raise ValidationError(f"malformed graph file: {exc}") from exc


# the fields of each record, in the order of the record's constructor, with
# the default of each optional one, which may be absent or null
_FIELDS = {
    "layers": {"id": None, "name": None},
    "vertices": {"id": None, "roles": (), "layers": None, "attrs": {}, "t_start": None,
                 "t_end": None},
    "edges": {"id": None, "src": None, "dst": None, "layer_src": None, "layer_dst": None,
              "directed": None, "weight": None, "relation": "", "t_start": None, "t_end": None},
}


def _records(doc: dict, key: str) -> list[tuple]:
    """The field values of each JSON object listed under ``key``, absent or
    null read as the field's default, as a tuple per record."""
    defaults = _FIELDS[key]
    records = json_value(doc.get(key, []), LIST, key)
    for i, rec in enumerate(records):
        _known(rec, defaults, f"{key}[{i}]")
    return [tuple(default if rec.get(k) is None else rec[k] for k, default in defaults.items())
            for rec in records]


def _parse_graph(doc: dict) -> tuple[list, list[tuple], list[tuple]]:
    """The layer names and the vertex and edge field tuples of the document:
    only its shape is checked here.  Every value is judged by
    ``RecordGraph.from_records``."""
    _known(doc, ("version", *_FIELDS), "graph")
    layers = _records(doc, "layers")
    for i, (lid, _) in enumerate(layers):
        if type(lid) is not int or lid != i:
            raise ValidationError(f"layer ids must be dense and ordered; got {lid!r} at {i}")
    return [name for _, name in layers], _records(doc, "vertices"), _records(doc, "edges")


# -- the record-by-record JSON document -----------------------------------------

def _record_dict(rec: VertexRecord | EdgeRecord) -> dict:
    """A record as its JSON object, sets sorted; an open ``t_end`` is left out."""
    out = {k: v for k, v in rec._asdict().items() if not (k == "t_end" and v is None)}
    if isinstance(rec, VertexRecord):
        out.update(roles=sorted(rec.roles), layers=sorted(rec.layers),
                   attrs=dict(sorted(rec.attrs.items())))
    return out


def graph_to_dict(g) -> dict:
    """The interchange document of a graph, either store, built record by
    record: ``io.graph_to_json(g)`` must equal
    ``json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\\n"``."""
    return {
        "version": FORMAT_VERSION,
        "layers": [{"id": lid, "name": name} for lid, name in sorted(g.layer_names.items())],
        "vertices": [_record_dict(v) for _, v in sorted(g.vertex_records.items())],
        "edges": [_record_dict(e) for _, e in sorted(g.edge_records.items())],
    }


# -- the record-by-record DOT writer --------------------------------------------

def _dot_str(text: str) -> str:
    """``text`` for a quoted DOT string: backslash and double quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def snapshot_to_dot(
    s: RecordSnapshot, edge_highlights: Optional[dict[int, str]] = None
) -> str:
    """Render a snapshot as a digraph with one DOT cluster per layer.

    A vertex is drawn inside its lowest-id layer's cluster.  Undirected edges
    are drawn with ``dir=none``.  ``edge_highlights`` maps edge ids to a color.
    """
    edge_highlights = edge_highlights or {}
    lines = ["digraph snapshot {"]
    for lid in sorted(s.layers):
        lines.append(f'  subgraph cluster_{lid} {{')
        lines.append(f'    label="{_dot_str(s.layers[lid])}";')
        for vid, v in s.vertices.items():
            if min(v.layers) == lid:
                roles = _dot_str(",".join(sorted(v.roles)))
                # \n in a DOT label is a line break
                lines.append(f'    v{vid} [label="{vid}\\n{roles}"];')
        lines.append("  }")
    for e in s.edges:
        attrs = [f'label="{_dot_str(e.relation)}"'] if e.relation else []
        if not e.directed:
            attrs.append("dir=none")
        if not e.intra_layer:
            attrs.append("style=dashed")
        if e.id in edge_highlights:
            attrs.append(f'color="{_dot_str(edge_highlights[e.id])}"')
        attr_str = f' [{", ".join(attrs)}]' if attrs else ""
        lines.append(f"  v{e.src} -> v{e.dst}{attr_str};")
    lines.append("}")
    return "\n".join(lines) + "\n"
