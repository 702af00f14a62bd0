"""Event-sourced temporal multi-layer graph.

The container records layer registrations, vertex/edge creations and
retirements as an append-only event log.  ``snapshot_at(t)`` materializes an
immutable :class:`SnapshotView` holding exactly the records whose half-open
validity interval ``[t_start, t_end)`` covers ``t``.  All analytics run on
snapshots or on the :class:`GraphView` objects derived from them, never on the
live log.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import ValidationError

Scalar = str | float | int | bool


class VertexRecord(NamedTuple):
    id: int
    roles: frozenset[str]
    layers: frozenset[int]
    attrs: Mapping[str, Scalar]  # read-only; a graph stores a private copy
    t_start: int
    t_end: Optional[int]  # None = still open

    def active_at(self, t: int) -> bool:
        return self.t_start <= t and (self.t_end is None or t < self.t_end)


class EdgeRecord(NamedTuple):
    id: int
    src: int
    dst: int
    layer_src: int
    layer_dst: int
    directed: bool
    weight: float
    relation: str
    t_start: int
    t_end: Optional[int]

    @property
    def intra_layer(self) -> bool:
        return self.layer_src == self.layer_dst

    def active_at(self, t: int) -> bool:
        return self.t_start <= t and (self.t_end is None or t < self.t_end)


def _int(value, what: str) -> int:
    """``value`` as a plain int, read by ``operator.index``; a bool is refused."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _plain_edge(eid, src, dst, layer_src, layer_dst, directed, weight, relation, t_start,
                t_end) -> tuple:
    """The fields of an edge with its ids and ticks as plain ints, ``directed``
    as a bool and ``weight`` as a float."""
    eid = _int(eid, "edge id")
    src, dst, layer_src, layer_dst, t_start = (
        _int(x, f"edge {eid}: {name}") for name, x in (
            ("src", src), ("dst", dst), ("layer_src", layer_src), ("layer_dst", layer_dst),
            ("t_start", t_start)))
    t_end = None if t_end is None else _int(t_end, f"edge {eid}: t_end")
    try:
        weight = float(weight)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"edge {eid}: weight must be a finite number, got {weight!r}") from None
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
# the field types of an edge that need no conversion
_EDGE_TYPES = frozenset((int, int, int, int, int, bool, float, str, int, t_end)
                        for t_end in (int, type(None)))


class GraphView:
    """A static single-graph slice of a snapshot: vertices plus an edge multiset.

    Produced by :meth:`SnapshotView.layer_subgraph` and
    :meth:`SnapshotView.flatten`.  Immutable; its one adjacency structure is
    :meth:`csr`, built on first use per direction.
    """

    def __init__(self, vertices: Iterable[int], edges: Iterable[EdgeRecord]):
        self.vertices: tuple[int, ...] = tuple(sorted(set(vertices)))
        self.edges: tuple[EdgeRecord, ...] = tuple(sorted(edges, key=lambda e: e.id))
        vs = set(self.vertices)
        for e in self.edges:
            if e.src not in vs or e.dst not in vs:
                raise ValidationError(f"edge {e.id} references vertex outside view")
        self._csr: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._rows: dict[str, dict[int, tuple[int, ...]]] = {}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def directed(self) -> bool:
        return any(e.directed for e in self.edges)

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def neighbors(self, v: int, direction: str = "both") -> tuple[int, ...]:
        """Distinct neighbor ids in ascending order: row ``v`` of :meth:`csr`,
        kept as a tuple of ids once a direction is first read here."""
        try:
            return self._rows[direction][v]
        except KeyError:
            pass
        if v not in self.index:
            raise ValidationError(f"unknown vertex {v}")
        indptr, indices = self.csr(direction)
        # the id objects of self.vertices, which dict lookups match by identity
        ids = list(map(self.vertices.__getitem__, indices.tolist()))
        ptr = indptr.tolist()
        self._rows[direction] = {u: tuple(ids[a:b]) for u, a, b in zip(self.vertices, ptr, ptr[1:])}
        return self._rows[direction][v]

    def degree(self, v: int) -> int:
        """Distinct-neighbor count, direction-agnostic, self-loops excluded."""
        return len(self.neighbors(v, "both"))

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


class SnapshotView:
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
        self._views: dict[Optional[int], GraphView] = {}  # layer id, None = flattened

    @property
    def inter_layer_edges(self) -> tuple[EdgeRecord, ...]:
        return tuple(e for e in self.edges if not e.intra_layer)

    def layer_vertices(self, layer: int) -> tuple[int, ...]:
        if layer not in self.layers:
            raise ValidationError(f"unknown layer {layer}")
        return tuple(v.id for v in self.vertices.values() if layer in v.layers)

    def layer_subgraph(self, layer: int) -> GraphView:
        """Single-layer view: V_i plus only the intra-layer edges of ``layer``.
        Built on the first call per layer; later calls return the same view."""
        if layer not in self._views:
            vs = self.layer_vertices(layer)
            es = [e for e in self.edges if e.intra_layer and e.layer_src == layer]
            self._views[layer] = GraphView(vs, es)
        return self._views[layer]

    def flatten(self) -> GraphView:
        """Union of all layer vertex sets with every intra- and inter-layer edge.
        Built on the first call; later calls return the same view."""
        if None not in self._views:
            self._views[None] = GraphView(self.vertices.keys(), self.edges)
        return self._views[None]

    def neighbors(
        self, v: int, direction: str = "both", layer: Optional[int] = None
    ) -> tuple[int, ...]:
        if v not in self.vertices:
            raise ValidationError(f"unknown vertex {v}")
        view = self.flatten() if layer is None else self.layer_subgraph(layer)
        return view.neighbors(v, direction) if v in view.index else ()

    def validate_bipartite(
        self, layer: int, part_a: set[str], part_b: set[str]
    ) -> tuple[bool, list[EdgeRecord]]:
        """Check every intra-layer edge joins a part_a-role vertex to a part_b one."""
        if set(part_a) & set(part_b):
            raise ValidationError("bipartite role sets overlap")
        sub = self.layer_subgraph(layer)
        violations = []
        for e in sub.edges:
            ra = self.vertices[e.src].roles
            rb = self.vertices[e.dst].roles
            ok = (ra & part_a and rb & part_b) or (ra & part_b and rb & part_a)
            if not ok:
                violations.append(e)
        return (not violations), violations


def _created(rec: VertexRecord | EdgeRecord) -> tuple:
    """The creation event of a record: its fields up to ``t_start``."""
    return ("vertex+" if isinstance(rec, VertexRecord) else "edge+", *rec[:-1])


_BY_START = operator.attrgetter("t_start", "id")


class TemporalMultiLayerGraph:
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
                     edges: Iterable[EdgeRecord]) -> TemporalMultiLayerGraph:
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
        if type(vid) is not int:
            vid = _int(vid, "vertex id")
        # a string is iterable, but as roles it would give one role per
        # character, as bytes give one layer id per byte
        if isinstance(roles, (str, bytes)) or isinstance(layers, (str, bytes)):
            raise ValidationError(f"vertex {vid}: roles and layers must be collections, "
                                  f"not a string")
        try:
            layers, roles = frozenset(layers), frozenset(roles)
        except TypeError:
            raise ValidationError(f"vertex {vid}: roles and layers must be collections of "
                                  f"hashable values, got {roles!r} and {layers!r}") from None
        attrs = MappingProxyType(dict(attrs)) if attrs else _NO_ATTRS
        if not _INT.issuperset(map(type, layers)):
            layers = frozenset(_int(lid, f"vertex {vid}: layer id") for lid in layers)
        if type(t_start) is not int:
            t_start = _int(t_start, f"vertex {vid}: t_start")
        if t_end is not None and type(t_end) is not int:
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
        plain ints, a bool and a float, as for a vertex.  A record that holds
        them already is stored as it is."""
        if tuple(map(type, fields)) not in _EDGE_TYPES:
            fields = _plain_edge(*fields)
        e = fields if type(fields) is EdgeRecord else EdgeRecord._make(fields)
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
        rec = self._vertex((self._next_vertex, roles, layers, attrs or {}, t_start, None))
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
        if not rec.active_at(t):
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
        if not rec.active_at(t):
            raise ValidationError(f"edge {eid} not active at t={t}")
        self._edges[rec.id] = rec._replace(t_end=t)
        self.events.append(("edge-", rec.id, t))

    # -- queries -----------------------------------------------------------

    def snapshot_at(self, t: int) -> SnapshotView:
        return SnapshotView(
            int(t),
            self._layer_names,
            (v for v in self._vertices.values() if v.active_at(t)),
            (e for e in self._edges.values() if e.active_at(t)),
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
