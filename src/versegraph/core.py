"""Event-sourced temporal multi-layer graph, stored as columns.

The container records layer registrations, vertex/edge creations and
retirements as an append-only event log.  Its vertices and edges are held as
numpy columns, one row per record in the order the records were added; a
record is built from its row when it is first read.  ``snapshot_at(t)``
materializes an immutable :class:`SnapshotView` holding exactly the rows
whose half-open validity interval ``[t_start, t_end)`` covers ``t``.  All
analytics run on snapshots or on the :class:`GraphView` objects derived from
them, never on the live log.

This module is the only judge of a record's values, for API callers and for
files alike: ``io`` reads a graph file's shape and hands its values here.
The checks are as strict as the file format, so ``directed=1``,
``weight="2.5"``, ``roles={"a": 1}`` and ``attrs=[]`` are refused.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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


# Ids and ticks are stored as int64 and must lie strictly within ±2**62; an
# open t_end is stored as OPEN, above every tick.
_LIMIT = 2 ** 62
OPEN = int(np.iinfo(np.int64).max)


def _int(value, what: str, *args) -> int:
    """``value`` as a plain int, read by ``operator.index``; a bool is refused.
    The error names ``what % args``."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValidationError(f"{what % args} must be an integer, got {value!r}")


def _is_finite(value) -> bool:
    """True for a real number, not a bool, that a float holds finitely."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        # as a double: comparing a numpy float32 with a Python float would
        # cast the float down, and the largest one would become inf
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _stored_int(value, what: str, *args) -> int:
    """An id or tick that a column stores: an int within (-2**62, 2**62).
    Endpoints and layer ids need no such check: they must name what exists."""
    if type(value) is not int:
        value = _int(value, what, *args)
    if -_LIMIT < value < _LIMIT:
        return value
    raise ValidationError(f"{what % args} must be an integer between -2**62 and 2**62, got {value!r}")


def _plain_edge(eid, src, dst, layer_src, layer_dst, directed, weight, relation, t_start,
                t_end) -> tuple:
    """The fields of an edge with its ids and ticks as plain ints, ``directed``
    as a bool and ``weight`` as a float.  As in the file format, ``directed``
    must be a bool and ``weight`` a number: ``1``, ``"no"``, ``True`` and
    ``"2.5"`` are refused, not converted."""
    eid = _stored_int(eid, "edge id")
    src = _int(src, "edge %s: src", eid)
    dst = _int(dst, "edge %s: dst", eid)
    layer_src = _int(layer_src, "edge %s: layer_src", eid)
    layer_dst = _int(layer_dst, "edge %s: layer_dst", eid)
    t_start = _stored_int(t_start, "edge %s: t_start", eid)
    t_end = None if t_end is None else _stored_int(t_end, "edge %s: t_end", eid)
    if type(directed) is not bool and type(directed) is not np.bool_:
        raise ValidationError(f"edge {eid}: directed must be a boolean, got {directed!r}")
    if type(weight) is not float:
        if not _is_finite(weight):
            raise ValidationError(f"edge {eid}: weight must be a finite number, got {weight!r}")
        weight = float(weight)
    return eid, src, dst, layer_src, layer_dst, bool(directed), weight, relation, t_start, t_end


def _encodes(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: not if it holds a surrogate code
    point, which a JSON ``\\ud800`` escape can carry but no output file can."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _utf8(text: str, what: str) -> None:
    """Refuse a string that UTF-8 cannot encode.  Callers skip ASCII
    strings, which always encode."""
    if not _encodes(text):
        raise ValidationError(f"{what} {text!r} cannot be encoded as UTF-8")


_INT, _STR = frozenset({int}), frozenset({str})
_NO_ATTRS: Mapping[str, Scalar] = MappingProxyType({})  # shared by every vertex without attrs

# The columns of each kind of record, in the order of its fields.  Role and
# layer sets are stored as codes into the graph's table of distinct sets.
_VERTEX_COLUMNS = {"id": np.int64, "roles": np.int64, "layers": np.int64, "attrs": object,
                   "t_start": np.int64, "t_end": np.int64}
_EDGE_COLUMNS = {"id": np.int64, "src": np.int64, "dst": np.int64, "layer_src": np.int64,
                 "layer_dst": np.int64, "directed": bool, "weight": np.float64, "relation": object,
                 "t_start": np.int64, "t_end": np.int64}
# the role and layer collections that from_columns stores whole
_SETS = frozenset({list, tuple, set, frozenset})


class _Columns:
    """Numpy columns of one kind of record, one row per record in the order
    the records were added.  Appended rows wait in a list until a column is
    next read, then are written into arrays that keep room to grow."""

    def __init__(self, dtypes: Mapping[str, type]):
        self.n = 0  # rows, stored or waiting
        self.data = {name: np.empty(0, dtype) for name, dtype in dtypes.items()}
        self._stored = 0
        self._tail: list[tuple] = []

    def __getitem__(self, name: str) -> np.ndarray:
        """The rows of a column, as a view: writes to it are stored."""
        if self._tail:
            self._store()
        return self.data[name][:self.n]

    def _store(self) -> None:
        start, n = self._stored, self.n
        for (name, col), values in zip(list(self.data.items()), zip(*self._tail)):
            if n > len(col):
                room = np.empty(max(n, 2 * start) - start, col.dtype)
                col = self.data[name] = np.concatenate([col[:start], room])
            col[start:n] = np.fromiter(values, col.dtype, n - start)
        self._stored, self._tail = n, []

    def span(self, row: int) -> tuple:
        """The ``layers``, ``t_start`` and ``t_end`` of one vertex row, read
        without storing the waiting rows or reading any other field."""
        waiting = row - self._stored
        if waiting >= 0:
            _, _, layers, _, start, end = self._tail[waiting]
            return layers, start, end
        d = self.data
        return d["layers"].item(row), d["t_start"].item(row), d["t_end"].item(row)

    def append(self, values: tuple) -> int:
        """Add one row of field values; returns its row number."""
        self._tail.append(values)
        self.n += 1
        return self.n - 1

    def extend(self, columns: Mapping[str, np.ndarray], rows: dict[int, int]) -> None:
        """Store full columns, given by name, as the rows of empty columns,
        and the row of each id in ``rows``."""
        self.data = dict(columns)
        self.n = self._stored = len(columns["id"])
        rows.update(zip(columns["id"].tolist(), range(self.n)))


def _attrs(attrs: Mapping, vid: int) -> Mapping[str, Scalar]:
    """A read-only private copy of a vertex's attrs, if they are a mapping,
    even an empty one, of strings to JSON scalars that the interchange file
    holds exactly."""
    if not isinstance(attrs, Mapping):
        raise ValidationError(f"vertex {vid}: attrs must be a mapping, got {attrs!r}")
    if not attrs:
        return _NO_ATTRS
    attrs = MappingProxyType(dict(attrs))
    for key, value in attrs.items():
        finite = not isinstance(value, float) or math.isfinite(value)
        if not (isinstance(key, str) and isinstance(value, (str, int, float)) and finite):
            raise ValidationError(f"vertex {vid}: attrs must map strings to strings, "
                                  f"booleans, integers or finite numbers; got {key!r}: {value!r}")
        if not key.isascii():
            _utf8(key, f"vertex {vid}: attr key")
        if isinstance(value, str) and not value.isascii():
            _utf8(value, f"vertex {vid}: attr {key!r} value")
    return attrs


def _column(values: Sequence, dtype, kinds: set = _INT) -> Optional[np.ndarray]:
    """A new array of ``values`` if each has one of the types ``kinds`` and
    ``dtype`` holds it, or if they are an array of ``dtype``; else None."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values.copy() if values.dtype == dtype else None
    if kinds.issuperset(map(type, values)):
        try:
            return np.fromiter(values, dtype, len(values))
        except OverflowError:  # an int outside int64
            pass
    return None


def _lifetimes(ids: Sequence, starts: Sequence, ends: Sequence) -> Optional[tuple]:
    """New int64 columns of these ids, starts and ends, OPEN for an end of
    None, if each id and tick is an int within (-2**62, 2**62), no id
    repeats and no end precedes its start; else None."""
    given = np.fromiter(map(operator.is_not, ends, repeat(None)), bool, len(ends))
    cols = [_column(ids, np.int64), _column(starts, np.int64),
            _column(ends if given.all() else list(compress(ends, given)), np.int64)]
    if any(c is None for c in cols):
        return None
    stamps, (ids, starts, end) = np.concatenate(cols), cols
    ends = np.full(len(given), OPEN, np.int64)
    ends[given] = end
    ordered = np.sort(ids)
    fits = ((-_LIMIT < stamps) & (stamps < _LIMIT)).all() and (starts <= ends).all()
    return (ids, starts, ends) if fits and (ordered[1:] != ordered[:-1]).all() else None


def _plain_ends(column: np.ndarray) -> list[Optional[int]]:
    """A t_end column as plain values: None for an open end."""
    return [None if t == OPEN else t for t in column.tolist()]


class _RecordMap(Mapping):
    """A read-only mapping of ids to records, each built when it is read."""

    def __init__(self, index: Mapping[int, int], record: Callable[[int], tuple]):
        self._index, self._record = index, record

    def __getitem__(self, key):
        return self._record(self._index[key])

    def __contains__(self, key) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[int]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


class GraphView:
    """A static single-graph slice of a snapshot: vertices plus an edge multiset.

    Produced by :meth:`SnapshotView.layer_subgraph` and
    :meth:`SnapshotView.flatten`, from the snapshot's columns: the sorted
    vertex ids ``ids``, and the ``edges`` columns id, src, dst, directed and
    weight, sorted by id; ``records`` builds the edge records.  Immutable;
    its one adjacency structure is :meth:`csr`, built on first use per
    direction.  Its edges are also held as read-only columns in id order:
    ``edge_ids``, ``src`` and ``dst`` (positions in ``vertices``),
    ``edge_directed`` and ``weights``.
    """

    def __init__(self, ids: np.ndarray, edges: Sequence[np.ndarray],
                 records: Callable[[], tuple[EdgeRecord, ...]]):
        eid, src, dst, directed, weight = edges
        n, m = len(ids), len(src)
        ends = np.concatenate([src, dst])
        at = np.searchsorted(ids, ends)
        outside = at >= n
        outside[~outside] = ids[at[~outside]] != ends[~outside]
        outside = outside[:m] | outside[m:]
        if outside.any():
            first = eid[np.flatnonzero(outside)[0]]
            raise ValidationError(f"edge {first} references vertex outside view")
        self.vertices: tuple[int, ...] = tuple(ids.tolist())
        self.edge_ids, self.src, self.dst = eid, at[:m], at[m:]
        self.edge_directed, self.weights = directed, weight
        for col in (eid, self.src, self.dst, directed, weight):
            col.flags.writeable = False
        self._records = records
        self._csr: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._rows: dict[str, dict[int, tuple[int, ...]]] = {}

    @cached_property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """The edge records, sorted by id; built on first read."""
        return self._records()

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def directed(self) -> bool:
        return bool(self.edge_directed.any())

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def position(self, v) -> int:
        """The position in ``vertices`` of vertex ``v``, read as an int."""
        v = _int(v, "vertex")
        if v not in self.index:
            raise ValidationError(f"unknown vertex {v}")
        return self.index[v]

    def neighbors(self, v: int, direction: str = "both") -> tuple[int, ...]:
        """Distinct neighbor ids in ascending order: row ``v`` of :meth:`csr`,
        kept as a tuple of ids once a direction is first read here; ``v`` is
        read as :meth:`position` reads it."""
        if type(v) is not int:  # the cache's keys are ints: no bool or float reaches it
            v = _int(v, "vertex")
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
            src, dst = self.src, self.dst
            if direction == "in":
                src, dst = dst, src
            if direction == "both":
                src, dst = src[src != dst], dst[src != dst]
                back = np.ones(len(src), dtype=bool)
            else:
                back = ~self.edge_directed
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
    """Immutable picture of every layer at one tick: the graph's rows active
    at ``time``, sorted by id, with their ``t_end`` as it was then."""

    def __init__(self, graph: TemporalMultiLayerGraph, t: int):
        self.time = t
        self.layers = dict(graph._layer_names)
        self._graph = graph
        self._vrows, self._vends = graph._active(graph._vertices, t)
        self._erows, self._eends = graph._active(graph._edges, t)
        self._vids = graph._vertices["id"][self._vrows]
        self._views: dict[Optional[int], GraphView] = {}  # layer id, None = flattened

    @cached_property
    def vertices(self) -> Mapping[int, VertexRecord]:
        """Read-only id -> record mapping in ascending id order."""
        rows, ends, g = self._vrows.tolist(), _plain_ends(self._vends), self._graph
        return _RecordMap(dict(zip(self._vids.tolist(), range(len(rows)))),
                          lambda i: g._records_at(g._vertices, [rows[i]], [ends[i]])[0])

    @cached_property
    def edges(self) -> tuple[EdgeRecord, ...]:
        g = self._graph
        return g._records_at(g._edges, self._erows.tolist(), _plain_ends(self._eends))

    def vertex_columns(self) -> list[list]:
        """The fields of the snapshot's vertices in id order, one list per
        field of :class:`VertexRecord`, read without building records."""
        return self._graph._fields(self._graph._vertices, self._vrows, self._vends)

    def edge_columns(self) -> list[list]:
        """The fields of the snapshot's edges in id order, one list per field
        of :class:`EdgeRecord`."""
        return self._graph._fields(self._graph._edges, self._erows, self._eends)

    @property
    def inter_layer_edges(self) -> tuple[EdgeRecord, ...]:
        return tuple(e for e in self.edges if not e.intra_layer)

    def _in_layer(self, layer: int) -> np.ndarray:
        """Which of the snapshot's vertices belong to ``layer``."""
        if layer not in self.layers:
            raise ValidationError(f"unknown layer {layer}")
        return self._graph._layer_table()[self._graph._vertices["layers"][self._vrows], layer]

    def layer_vertices(self, layer: int) -> tuple[int, ...]:
        return tuple(self._vids[self._in_layer(layer)].tolist())

    def _view(self, vmask, emask) -> GraphView:
        g, rows, ends = self._graph, self._erows[emask], self._eends[emask]
        e = g._edges
        cols = [e[k][rows] for k in ("id", "src", "dst", "directed", "weight")]
        return GraphView(self._vids[vmask], cols,
                         lambda: g._records_at(e, rows.tolist(), _plain_ends(ends)))

    def layer_subgraph(self, layer: int) -> GraphView:
        """Single-layer view: V_i plus only the intra-layer edges of ``layer``.
        Built on the first call per layer; later calls return the same view."""
        if layer not in self._views:
            vmask = self._in_layer(layer)
            e = self._graph._edges
            emask = (e["layer_src"][self._erows] == layer) & (e["layer_dst"][self._erows] == layer)
            self._views[layer] = self._view(vmask, emask)
        return self._views[layer]

    def flatten(self) -> GraphView:
        """Union of all layer vertex sets with every intra- and inter-layer edge.
        Built on the first call; later calls return the same view."""
        if None not in self._views:
            self._views[None] = self._view(slice(None), slice(None))
        return self._views[None]

    def neighbors(
        self, v: int, direction: str = "both", layer: Optional[int] = None
    ) -> tuple[int, ...]:
        v = _int(v, "vertex")
        if v not in self.vertices:
            raise ValidationError(f"unknown vertex {v}")
        view = self.flatten() if layer is None else self.layer_subgraph(layer)
        return view.neighbors(v, direction) if v in view.index else ()

    def validate_bipartite(
        self, layer: int, part_a: Iterable[str], part_b: Iterable[str]
    ) -> tuple[bool, list[EdgeRecord]]:
        """Check every intra-layer edge joins a part_a-role vertex to a part_b
        one; each part is a collection of roles, not a string."""
        if isinstance(part_a, (str, bytes)) or isinstance(part_b, (str, bytes)):
            raise ValidationError("bipartite role sets must be collections, not a string")
        try:
            part_a, part_b = frozenset(part_a), frozenset(part_b)
        except TypeError:
            raise ValidationError(f"bipartite role sets must be collections of roles, got "
                                  f"{part_a!r} and {part_b!r}") from None
        if part_a & part_b:
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


class TemporalMultiLayerGraph:
    """Append-only event log of layer/vertex/edge lifecycle, with snapshots.

    Events are tuples ``(kind, payload...)``; replaying the log reproduces the
    graph exactly, which the test suite exploits as an oracle.  Every row,
    from ``add_*`` or :meth:`from_columns`, passes the checks of ``_vertex``
    or ``_edge``, so no edge outlives an endpoint.
    """

    def __init__(self) -> None:
        self._events: Optional[list[tuple]] = []  # None: the canonical log, not derived yet
        self._layer_ids: dict[str, int] = {}
        self._layer_names: dict[int, str] = {}
        self._vertices = _Columns(_VERTEX_COLUMNS)
        self._edges = _Columns(_EDGE_COLUMNS)
        self._vertex_row: dict[int, int] = {}  # id -> row
        self._edge_row: dict[int, int] = {}
        self._sets: list[frozenset] = []  # the distinct role and layer sets, by code
        self._set_code: dict[frozenset, int] = {}
        self._vertex_cache: dict[int, VertexRecord] = {}  # row -> record, built on read
        self._edge_cache: dict[int, EdgeRecord] = {}
        self._incident: Optional[dict[int, list[int]]] = None  # vertex row -> edge rows
        self._next_vertex = 0
        self._next_edge = 0

    @classmethod
    def from_columns(cls, layer_names: Iterable[str], vertices: Sequence[Sequence],
                     edges: Sequence[Sequence]) -> TemporalMultiLayerGraph:
        """A graph of exactly these records, given field by field: six
        sequences of vertex fields and ten of edge fields, in the order of
        :class:`VertexRecord` and :class:`EdgeRecord`; a numeric field may be
        an array of its column's dtype.  Layer ``i`` is the ``i``-th name.
        Each kind's columns are stored whole if array checks show that every
        record would pass the checks of ``add_*`` unchanged, with unique ids;
        if not, every record is checked and stored as ``add_*`` does it, in
        order, so the first bad record raises what ``add_*`` would.  The
        event log is canonical: layers, creations by ``(t_start, id)``, then
        retirements by ``(t, id)``, derived when it is first read."""
        g = cls()
        for name in layer_names:
            g._register(name)
        g._events = None
        for take, put, fields in ((g._take_vertices, g._put_vertex, vertices),
                                  (g._take_edges, g._put_edge, edges)):
            if len(set(map(len, fields))) != 1 or not take(*fields):
                for record in zip(*fields, strict=True):
                    put(record)
        g._next_vertex = int(g._vertices["id"].max()) + 1 if g._vertices.n else 0
        g._next_edge = int(g._edges["id"].max()) + 1 if g._edges.n else 0
        return g

    # -- checks ------------------------------------------------------------

    def _vertex(self, fields: Iterable) -> tuple:
        """The fields to store for a vertex, if they pass the checks: plain
        ints, frozensets and a read-only private copy of the attrs, values
        that the interchange file holds exactly."""
        vid, roles, layers, attrs, t_start, t_end = fields
        vid = _stored_int(vid, "vertex id")
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
        if not _INT.issuperset(map(type, layers)):
            layers = frozenset(_int(lid, "vertex %s: layer id", vid) for lid in layers)
        t_start = _stored_int(t_start, "vertex %s: t_start", vid)
        if t_end is not None:
            t_end = _stored_int(t_end, "vertex %s: t_end", vid)
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
        attrs = _attrs(attrs, vid)
        if t_end is not None and t_end < t_start:
            raise ValidationError(f"vertex {vid}: t_end must not precede t_start")
        return vid, roles, layers, attrs, t_start, t_end

    def _edge(self, fields: Iterable) -> tuple:
        """The fields to store for an edge, if they pass the checks: those of
        :func:`_plain_edge`, as for a vertex."""
        fields = _plain_edge(*fields)
        eid, src, dst, layer_src, layer_dst, _, weight, relation, t_start, t_end = fields
        if not 0.0 <= weight < math.inf:
            raise ValidationError(f"edge {eid}: non-finite weight {weight}" if not math.isfinite(weight)
                                  else f"edge {eid}: negative weight {weight}")
        if not isinstance(relation, str):
            raise ValidationError(f"edge {eid}: relation must be a string, got {relation!r}")
        if not relation.isascii():
            _utf8(relation, f"edge {eid}: relation")
        if t_end is not None and t_end < t_start:
            raise ValidationError(f"edge {eid}: t_end must not precede t_start")
        v = self._vertices
        for vid, layer in ((src, layer_src), (dst, layer_dst)):
            row = self._vertex_row.get(vid)
            if row is None:
                raise ValidationError(f"edge {eid}: dangling endpoint {vid}")
            layers, v_start, v_end = v.span(row)
            if layer not in self._sets[layers]:
                raise ValidationError(f"edge {eid}: endpoint {vid} not in layer {layer}")
            # the vertex's lifetime must cover the edge's [t_start, t_end)
            if v_start > t_start or (OPEN if t_end is None else t_end) > v_end:
                raise ValidationError(f"edge {eid}: endpoint {vid} inactive during the edge's validity")
        return fields

    # The array checks of from_columns.  Each accepts only values that
    # _vertex or _edge would store unchanged, and stores no row if it refuses.

    def _take_vertices(self, ids, roles, layers, attrs, starts, ends) -> bool:
        """Store the vertex columns whole if every value has its column's
        type and every row passes the checks of ``_vertex``."""
        spans = _lifetimes(ids, starts, ends)
        if (spans is None or not _SETS.issuperset(map(type, chain(roles, layers)))
                or not _STR.issuperset(map(type, chain.from_iterable(roles)))
                or not _INT.issuperset(map(type, chain.from_iterable(layers)))):
            return False
        try:
            # an empty dict, what most vertices hold, needs no copy and no check
            attrs = [_NO_ATTRS if type(a) is dict and not a else _attrs(a, ids[i])
                     for i, a in enumerate(attrs)]
        except ValidationError:
            return False
        role_codes = self._intern(roles, lambda s: _encodes("".join(s)))
        layer_codes = self._intern(layers, lambda s: s and self._layer_names.keys() >= s)
        if role_codes is None or layer_codes is None:
            return False
        self._vertices.extend(dict(zip(_VERTEX_COLUMNS, (
            spans[0], role_codes, layer_codes, np.fromiter(attrs, object, len(ids)), *spans[1:]))),
            self._vertex_row)
        return True

    def _take_edges(self, *columns: Sequence) -> bool:
        """Store the edge columns whole if every value has its column's type
        and every row passes the checks of ``_edge``."""
        ids, src, dst, layer_src, layer_dst, directed, weight, relation, starts, ends = columns
        spans = _lifetimes(ids, starts, ends)
        cols = [*(_column(c, np.int64) for c in (src, dst, layer_src, layer_dst)),
                _column(directed, bool, {bool}), _column(weight, np.float64, {float, int}),
                _column(relation, object, _STR)]
        v = self._vertices  # with none, every edge dangles
        if spans is None or any(c is None for c in cols) or not v.n:
            return False
        cols = dict(zip(_EDGE_COLUMNS, (spans[0], *cols, *spans[1:])))
        w = cols["weight"]
        if not (((0.0 <= w) & (w < math.inf)).all() and _encodes("".join(set(relation)))):
            return False
        order = np.argsort(v["id"], kind="stable")
        table = self._layer_table()
        for end, layer in (("src", "layer_src"), ("dst", "layer_dst")):
            row = order[np.minimum(np.searchsorted(v["id"], cols[end], sorter=order), v.n - 1)]
            lid = cols[layer]
            inside = (0 <= lid) & (lid < table.shape[1])
            # the endpoint exists in the layer and its lifetime covers the edge's
            if not (inside & table[v["layers"][row], np.where(inside, lid, 0)]
                    & (v["id"][row] == cols[end]) & (v["t_start"][row] <= cols["t_start"])
                    & (cols["t_end"] <= v["t_end"][row])).all():
                return False
        self._edges.extend(cols, self._edge_row)
        return True

    def _code(self, s: frozenset) -> int:
        """The code of a role or layer set in the table of distinct sets."""
        code = self._set_code.get(s)
        if code is None:
            code = self._set_code[s] = len(self._sets)
            self._sets.append(s)
        return code

    def _intern(self, sets: Sequence, ok: Callable[[frozenset], bool]) -> Optional[np.ndarray]:
        """The code of each collection of ``sets``, if each distinct set of
        them passes ``ok``; else None."""
        keys = list(map(tuple, sets))
        code_of = {key: self._code(frozenset(key)) for key in set(keys)}
        if not all(ok(self._sets[code]) for code in set(code_of.values())):
            return None
        return np.fromiter(map(code_of.__getitem__, keys), np.int64, len(keys))

    def _layer_table(self) -> np.ndarray:
        """``table[code, layer]``: whether set ``code`` holds that layer id."""
        table = np.zeros((len(self._sets), len(self._layer_names)), bool)
        for code, s in enumerate(self._sets):
            table[code, [x for x in s if type(x) is int and 0 <= x < table.shape[1]]] = True
        return table

    # -- reading rows --------------------------------------------------------

    def _fields(self, cols: _Columns, rows, ends: Optional[np.ndarray] = None) -> list[list]:
        """The fields of these rows, one list per field: role and layer sets
        for their codes, None for an open end.  ``ends`` replaces the
        ``t_end`` column."""
        out = []
        for name in cols.data:
            values = cols[name][rows] if name != "t_end" or ends is None else ends
            if name in ("roles", "layers"):
                out.append(list(map(self._sets.__getitem__, values.tolist())))
            else:
                out.append(_plain_ends(values) if name == "t_end" else values.tolist())
        return out

    def _records_at(self, cols: _Columns, rows: list[int], ends: list) -> tuple:
        """The records of these rows with these ends.  Each row's record is
        built when first read and kept until the row is retired."""
        cache, make = ((self._vertex_cache, VertexRecord._make) if cols is self._vertices
                       else (self._edge_cache, EdgeRecord._make))
        missing = [r for r in rows if r not in cache]
        if missing:
            cache.update(zip(missing, map(make, zip(*self._fields(cols, missing)))))
        recs = map(cache.__getitem__, rows)
        return tuple(r if r.t_end == t else r._replace(t_end=t) for r, t in zip(recs, ends))

    def _record(self, cols: _Columns, row: int) -> tuple:
        return self._records_at(cols, [row], _plain_ends(cols["t_end"][row:row + 1]))[0]

    def _active(self, cols: _Columns, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows active at ``t`` in id order, and their ends."""
        t = min(max(t, -_LIMIT), _LIMIT)  # stored ticks lie within ±2**62, OPEN above it
        rows = np.flatnonzero((cols["t_start"] <= t) & (t < cols["t_end"]))
        rows = rows[np.argsort(cols["id"][rows], kind="stable")]
        return rows, cols["t_end"][rows]

    def _canonical_log(self) -> list[tuple]:
        log = [("layer", lid, name) for lid, name in self._layer_names.items()]
        for kind, cols in (("vertex+", self._vertices), ("edge+", self._edges)):
            fields = self._fields(cols, np.lexsort((cols["id"], cols["t_start"])))
            log += [(kind, *rec) for rec in zip(*fields[:-1])]
        for kind, cols in (("vertex-", self._vertices), ("edge-", self._edges)):
            closed = np.flatnonzero(cols["t_end"] != OPEN)
            closed = closed[np.lexsort((cols["id"][closed], cols["t_end"][closed]))]
            log += [(kind, i, t) for i, t in zip(cols["id"][closed].tolist(),
                                                 cols["t_end"][closed].tolist())]
        return log

    # -- construction ------------------------------------------------------

    def _register(self, name: str) -> int:
        if not isinstance(name, str):
            raise ValidationError(f"layer name must be a string, got {name!r}")
        if not name.isascii():
            _utf8(name, "layer name")
        if name in self._layer_ids:
            raise ValidationError(f"duplicate layer name {name!r}")
        lid = len(self._layer_ids)
        self._layer_ids[name] = lid
        self._layer_names[lid] = name
        return lid

    def create_layer(self, name: str) -> int:
        log = self.events
        lid = self._register(name)
        log.append(("layer", lid, name))
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
        log = self.events
        created = self._put_vertex((self._next_vertex, roles, layers,
                                    _NO_ATTRS if attrs is None else attrs, t_start, None))
        self._next_vertex += 1
        log.append(("vertex+", *created))
        return created[0]

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
        log = self.events
        created = self._put_edge((self._next_edge, src, dst, layer_src, layer_dst, directed,
                                  weight, relation, t_start, None))
        self._next_edge += 1
        log.append(("edge+", *created))
        return created[0]

    def _put_vertex(self, fields: Sequence) -> tuple:
        """Check a vertex as ``_vertex`` does, refuse an id already stored, and
        store its row; returns its fields up to ``t_start``."""
        vid, roles, layers, attrs, t_start, t_end = self._vertex(fields)
        if vid in self._vertex_row:
            raise ValidationError(f"duplicate vertex id {vid}")
        rcode, lcode = self._code(roles), self._code(layers)
        self._vertex_row[vid] = self._vertices.append(
            (vid, rcode, lcode, attrs, t_start, OPEN if t_end is None else t_end))
        return vid, self._sets[rcode], self._sets[lcode], attrs, t_start

    def _put_edge(self, fields: Sequence) -> tuple:
        """Check an edge as ``_edge`` does, refuse an id already stored, and
        store its row; returns its fields up to ``t_start``."""
        *created, t_end = self._edge(fields)
        eid, src, dst = created[:3]
        if eid in self._edge_row:
            raise ValidationError(f"duplicate edge id {eid}")
        row = self._edges.append((*created, OPEN if t_end is None else t_end))
        self._edge_row[eid] = row
        if self._incident is not None:
            self._index_edge(row, self._vertex_row[src], self._vertex_row[dst])
        return tuple(created)

    def _index_edge(self, row: int, a: int, b: int) -> None:
        self._incident.setdefault(a, []).append(row)
        if b != a:
            self._incident.setdefault(b, []).append(row)

    def _incident_edges(self, vrow: int) -> list[int]:
        """The rows of the edges on the vertex at ``vrow``, in row order.  The
        index is built on first use and kept by ``add_edge`` from then on."""
        if self._incident is None:
            self._incident = {}
            vrow_of = self._vertex_row.__getitem__
            e = self._edges
            for row, (a, b) in enumerate(zip(map(vrow_of, e["src"].tolist()),
                                             map(vrow_of, e["dst"].tolist()))):
                self._index_edge(row, a, b)
        return self._incident.get(vrow, [])

    def _retiring(self, cols: _Columns, row_of: dict, kind: str, rid, t) -> tuple[int, int]:
        """The row of record ``rid`` and ``t``, as ints, if it is open and started by ``t``."""
        rid = _int(rid, "%s id", kind)
        row = row_of.get(rid)
        if row is None:
            raise ValidationError(f"unknown {kind} {rid}")
        t = _stored_int(t, "retirement tick")
        if cols["t_end"][row] != OPEN:
            raise ValidationError(f"{kind} {rid} already retired")
        if not cols["t_start"][row] <= t:
            raise ValidationError(f"{kind} {rid} not active at t={t}")
        return row, t

    def _close(self, cols: _Columns, cache: dict, kind: str, rows: list[int], t: int) -> None:
        """End the records at ``rows`` at ``t`` and log each, in row order."""
        log = self.events  # a derived log is read before the rows change
        ends, ids = cols["t_end"], cols["id"]
        for row in rows:
            ends[row] = t
            cache.pop(row, None)
            log.append((kind, ids.item(row), t))

    def retire_vertex(self, vid: int, t: int) -> None:
        """Retire a vertex and its open edges at ``t``, logged vertex first."""
        row, t = self._retiring(self._vertices, self._vertex_row, "vertex", vid, t)
        e = self._edges
        # open incident edges retire at t, so must start by then; others must end by then
        incident = np.array(self._incident_edges(row), dtype=np.int64)
        ends = e["t_end"][incident]
        still = ends == OPEN
        late = np.where(still, e["t_start"][incident], ends) > t
        if late.any():
            raise ValidationError(f"vertex {vid} cannot retire at t={t}: edges "
                                  f"{e['id'][incident[late]].tolist()} start later or end later")
        self._close(self._vertices, self._vertex_cache, "vertex-", [row], t)
        self._close(e, self._edge_cache, "edge-", incident[still].tolist(), t)

    def retire_edge(self, eid: int, t: int) -> None:
        row, t = self._retiring(self._edges, self._edge_row, "edge", eid, t)
        self._close(self._edges, self._edge_cache, "edge-", [row], t)

    # -- queries -----------------------------------------------------------

    def snapshot_at(self, t: int) -> SnapshotView:
        return SnapshotView(self, _int(t, "snapshot tick"))

    @property
    def events(self) -> list[tuple]:
        """The event log.  A graph from :meth:`from_columns` derives its
        canonical log on first read and appends to it from then on."""
        if self._events is None:
            self._events = self._canonical_log()
        return self._events

    def vertices_with_role(self, role: str) -> list[int]:
        """The ids of the vertices whose roles include ``role``, in the order
        they were added."""
        has = np.array([role in s for s in self._sets], bool)
        return self._vertices["id"][has[self._vertices["roles"]]].tolist()

    def vertex_columns(self) -> list[list]:
        """The fields of every vertex in id order, one list per field of
        :class:`VertexRecord`, read without building records."""
        return self._fields(self._vertices, np.argsort(self._vertices["id"], kind="stable"))

    def edge_columns(self) -> list[list]:
        """The fields of every edge in id order, one list per field of
        :class:`EdgeRecord`."""
        return self._fields(self._edges, np.argsort(self._edges["id"], kind="stable"))

    # read-only views that follow later changes; records are built when read
    @property
    def layer_names(self) -> Mapping[int, str]:
        return MappingProxyType(self._layer_names)

    @property
    def vertex_records(self) -> Mapping[int, VertexRecord]:
        return _RecordMap(self._vertex_row, lambda row: self._record(self._vertices, row))

    @property
    def edge_records(self) -> Mapping[int, EdgeRecord]:
        return _RecordMap(self._edge_row, lambda row: self._record(self._edges, row))
