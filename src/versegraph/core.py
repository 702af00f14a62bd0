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
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import ValidationError

Scalar = str | float | int | bool


@dataclass(frozen=True)
class VertexRecord:
    id: int
    roles: frozenset[str]
    layers: frozenset[int]
    attrs: Mapping[str, Scalar]
    t_start: int
    t_end: Optional[int]  # None = still open

    def active_at(self, t: int) -> bool:
        return self.t_start <= t and (self.t_end is None or t < self.t_end)


@dataclass(frozen=True)
class EdgeRecord:
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
    """The creation event of a record."""
    if isinstance(rec, VertexRecord):
        return ("vertex+", rec.id, rec.roles, rec.layers, rec.attrs, rec.t_start)
    return ("edge+", rec.id, rec.src, rec.dst, rec.layer_src, rec.layer_dst, rec.directed,
            rec.weight, rec.relation, rec.t_start)


class TemporalMultiLayerGraph:
    """Append-only event log of layer/vertex/edge lifecycle, with snapshots.

    Events are tuples ``(kind, payload...)``; replaying the log reproduces the
    graph exactly, which the test suite exploits as an oracle.  Every record,
    from ``add_*`` or :meth:`from_records`, passes ``_check_vertex`` or
    ``_check_edge`` before it is stored, so no edge outlives an endpoint.
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
        unique ids; layer ``i`` is the ``i``-th name.  The event log is canonical:
        layers, creations by ``(t_start, id)``, then retirements by ``(t, id)``."""
        g = cls()
        for name in layer_names:
            g.create_layer(name)
        for v in vertices:
            if v.id in g._vertices:
                raise ValidationError(f"duplicate vertex id {v.id}")
            g._check_vertex(v)
            g._vertices[v.id] = v
        for e in edges:
            if e.id in g._edges:
                raise ValidationError(f"duplicate edge id {e.id}")
            g._check_edge(e)
            g._edges[e.id] = e
        g._next_vertex = max(g._vertices, default=-1) + 1
        g._next_edge = max(g._edges, default=-1) + 1
        recs = {"vertex": g._vertices.values(), "edge": g._edges.values()}
        g.events += [_created(r) for rs in recs.values()
                     for r in sorted(rs, key=lambda r: (r.t_start, r.id))]
        g.events += [(kind + "-", i, t) for kind, rs in recs.items()
                     for t, i in sorted((r.t_end, r.id) for r in rs if r.t_end is not None)]
        return g

    # -- checks ------------------------------------------------------------

    def _check_vertex(self, v: VertexRecord) -> None:
        if not v.layers:
            raise ValidationError(f"vertex {v.id} has an empty layer set")
        unknown = sorted(v.layers - self._layer_names.keys())
        if unknown:
            raise ValidationError(f"vertex {v.id} references unregistered layers {unknown}")
        if not all(isinstance(r, str) for r in v.roles):
            raise ValidationError(f"vertex {v.id}: every role must be a string")
        for key, value in v.attrs.items():
            # JSON scalars that the interchange file can hold
            finite = not isinstance(value, float) or math.isfinite(value)
            if not (isinstance(key, str) and isinstance(value, (str, int, float)) and finite):
                raise ValidationError(f"vertex {v.id}: attrs must map strings to strings, "
                                      f"booleans, integers or finite numbers; got {key!r}: {value!r}")
        if v.t_end is not None and v.t_end < v.t_start:
            raise ValidationError(f"vertex {v.id}: t_end must not precede t_start")

    def _check_edge(self, e: EdgeRecord) -> None:
        if not math.isfinite(e.weight):
            raise ValidationError(f"edge {e.id}: non-finite weight {e.weight}")
        if e.weight < 0:
            raise ValidationError(f"edge {e.id}: negative weight {e.weight}")
        if not isinstance(e.relation, str):
            raise ValidationError(f"edge {e.id}: relation must be a string, got {e.relation!r}")
        if e.t_end is not None and e.t_end < e.t_start:
            raise ValidationError(f"edge {e.id}: t_end must not precede t_start")
        for vid, layer in ((e.src, e.layer_src), (e.dst, e.layer_dst)):
            v = self._vertices.get(vid)
            if v is None:
                raise ValidationError(f"edge {e.id}: dangling endpoint {vid}")
            if layer not in v.layers:
                raise ValidationError(f"edge {e.id}: endpoint {vid} not in layer {layer}")
            # the vertex's lifetime must cover the edge's [t_start, t_end)
            if v.t_start > e.t_start or v.t_end is not None and (e.t_end is None or e.t_end > v.t_end):
                raise ValidationError(f"edge {e.id}: endpoint {vid} inactive during the edge's validity")

    # -- construction ------------------------------------------------------

    def create_layer(self, name: str) -> int:
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
        rec = VertexRecord(self._next_vertex, frozenset(roles), frozenset(layers),
                           dict(attrs or {}), int(t_start), None)
        self._check_vertex(rec)
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
        rec = EdgeRecord(self._next_edge, src, dst, layer_src, layer_dst, bool(directed),
                         float(weight), relation, int(t_start), None)
        self._check_edge(rec)
        self._next_edge += 1
        self._edges[rec.id] = rec
        self.events.append(_created(rec))
        return rec.id

    def retire_vertex(self, vid: int, t: int) -> None:
        rec = self._vertices.get(vid)
        if rec is None:
            raise ValidationError(f"unknown vertex {vid}")
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
        self._vertices[vid] = replace(rec, t_end=int(t))
        self.events.append(("vertex-", vid, int(t)))
        for e in incident:
            if e.t_end is None:
                self._edges[e.id] = replace(e, t_end=int(t))
                self.events.append(("edge-", e.id, int(t)))

    def retire_edge(self, eid: int, t: int) -> None:
        rec = self._edges.get(eid)
        if rec is None:
            raise ValidationError(f"unknown edge {eid}")
        if rec.t_end is not None:
            raise ValidationError(f"edge {eid} already retired")
        if not rec.active_at(t):
            raise ValidationError(f"edge {eid} not active at t={t}")
        self._edges[eid] = replace(rec, t_end=int(t))
        self.events.append(("edge-", eid, int(t)))

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
