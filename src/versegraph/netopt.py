"""Network optimization on snapshot views: routing, flow/cut, spanning trees,
load balancing, task scheduling, and the M/M/1 latency model."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import GraphView, _int, _is_finite
from .errors import InfeasibleError, ValidationError


def _finite(value, what: str) -> None:
    """Refuse a value that is not a real number that a float holds finitely."""
    if not _is_finite(value):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PathResult:
    total_weight: float
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]


@dataclass(frozen=True)
class FlowCutResult:
    value: float
    flows: dict[int, float]  # edge id -> flow magnitude
    cut_edges: frozenset[int]


@dataclass(frozen=True)
class TreeResult:
    edge_ids: tuple[int, ...]
    total_weight: float
    backup_edge_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class ServerSpec:
    id: int
    capacity: float
    response_time: float

    def __post_init__(self):
        _finite(self.capacity, f"server {self.id}: capacity")
        _finite(self.response_time, f"server {self.id}: response_time")
        if self.capacity < 0:
            raise ValidationError(f"server {self.id}: capacity must be >= 0")
        if self.response_time <= 0:
            raise ValidationError(f"server {self.id}: response_time must be > 0")


@dataclass
class TaskDag:
    durations: dict[int, float]
    deps: list[tuple[int, int]] = field(default_factory=list)  # (prerequisite, dependent)


def _arcs(g: GraphView) -> tuple:
    """``(indptr, order, head)``: arc ``2i`` runs along edge ``i``, ``2i+1`` against it;
    ``order[indptr[v]:indptr[v + 1]]`` are the arcs leaving position ``v``, ascending."""
    tail = np.column_stack([g.src, g.dst]).ravel()
    order = np.argsort(tail, kind="stable")
    return (np.searchsorted(tail[order], np.arange(g.n + 1)), order,
            np.column_stack([g.dst, g.src]).ravel())


def _residual(g: GraphView, what: str, s, t) -> tuple:
    """The positions of vertices ``s`` and ``t``, each arc's capacity (the
    edge's weight, except 0 against a directed edge) and :func:`_arcs`."""
    s, t = g.position(s), g.position(t)
    bad = np.flatnonzero(g.weights < 0)
    if len(bad):
        raise ValidationError(f"negative {what} on edge {g.edge_ids[bad[0]]}")
    return (s, t, np.column_stack([g.weights, np.where(g.edge_directed, 0.0, g.weights)]).ravel(),
            *_arcs(g))


def shortest_path(g: GraphView, s: int, t: int) -> PathResult:
    """Dijkstra over the multigraph; parallel edges resolved to the cheapest,
    ties broken by (predecessor vertex id, edge id).  The search stops when
    ``t`` is settled: no later update may touch a settled vertex."""
    # vertex and edge positions follow id order, so they break ties as ids do
    sp, tp, *arcs = _residual(g, "weight", s, t)
    cost, ptr, out, head = (c.tolist() for c in arcs)
    one_way = g.edge_directed.tolist()
    unset = (g.n,)  # above every (vertex, edge) pair
    dist, pred, done = [float("inf")] * g.n, [unset] * g.n, [False] * g.n
    dist[sp] = 0.0
    heap: list[tuple[float, int]] = [(0.0, sp)]
    while heap:
        d, v = heapq.heappop(heap)
        if done[v] or d > dist[v]:
            continue
        done[v] = True
        if v == tp:
            break
        # the kept (distance, predecessor, edge) is the least of the offers,
        # so the order of v's arcs does not matter
        for ai in out[ptr[v]:ptr[v + 1]]:
            if ai & 1 and one_way[ai >> 1]:
                continue
            w, nd = head[ai], d + cost[ai]
            cur = dist[w]
            if nd < cur or (nd == cur and not done[w] and (v, ai >> 1) < pred[w]):
                dist[w] = nd
                pred[w] = (v, ai >> 1)
                heapq.heappush(heap, (nd, w))
    if tp != sp and pred[tp] is unset:
        raise InfeasibleError(f"vertex {t} unreachable from {s}")
    verts, edges = [tp], []
    while verts[-1] != sp:
        pv, i = pred[verts[-1]]
        edges.append(i)
        verts.append(pv)
    return PathResult(dist[tp], tuple(g.vertices[v] for v in reversed(verts)),
                      tuple(g.edge_ids[edges[::-1]].tolist()))


def max_flow_min_cut(g: GraphView, s: int, t: int) -> FlowCutResult:
    """Edmonds-Karp max flow; min cut recovered from residual reachability.

    Edge weights are read as capacities; undirected edges carry capacity in
    both directions.
    """
    if _int(s, "vertex") == _int(t, "vertex"):  # read as ints, so True is not taken as 1
        raise ValidationError("source equals sink")
    s, t, cap, indptr, order, head = _residual(g, "capacity", s, t)  # positions from here on
    flow = np.zeros(len(g.edge_ids))
    value = 0.0
    while True:
        # shortest augmenting path: each vertex's arc from its first discoverer
        prev, reach = np.zeros(g.n, dtype=np.int64), np.arange(g.n) == s
        for reached, slots in kernels.bfs(indptr, head[order], [s], usable=cap[order] > 1e-12):
            reach[reached] = True
            prev[reached] = order[slots]
            if reach[t]:
                break
        if not reach[t]:
            break  # the S side is what this search reached
        path, v = [], t
        while v != s:
            path.append(prev[v])
            v = head[path[-1] ^ 1]
        path = np.array(path)
        bottleneck = float(cap[path].min())
        cap[path] -= bottleneck
        cap[path ^ 1] += bottleneck
        # an odd arc pushes against its edge
        flow[path >> 1] += np.where(path & 1, -bottleneck, bottleneck)
        value += bottleneck
    # cut = stored edges crossing S->T
    a, b = reach[g.src], reach[g.dst]
    cut = frozenset(g.edge_ids[(a != b) & (a | ~g.edge_directed)].tolist())
    return FlowCutResult(value, dict(zip(g.edge_ids.tolist(), np.abs(flow).tolist())), cut)


def minimum_spanning_tree(g: GraphView) -> TreeResult:
    """Kruskal with (weight, edge id) ordering; input treated as undirected."""
    if g.n == 0:
        raise ValidationError("empty graph")
    ids, src, dst, weight = (c.tolist() for c in (g.edge_ids, g.src, g.dst, g.weights))
    parent = list(range(g.n))  # union-find over vertex positions

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    total = 0.0
    # the columns are in id order, so a stable sort gives (weight, id) order
    for i in np.argsort(g.weights, kind="stable").tolist():
        a, b = find(src[i]), find(dst[i])
        if a != b:
            parent[b] = a
            chosen.append(ids[i])
            total += weight[i]
    if len(chosen) != g.n - 1:
        raise ValidationError("graph is disconnected; no spanning tree exists")
    return TreeResult(tuple(sorted(chosen)), total)


def augment_redundancy(g: GraphView, tree: TreeResult, k: int) -> TreeResult:
    """Greedy backup selection: cheapest non-tree chords whose fundamental
    cycle covers a still-uncovered tree edge, at most ``k`` of them."""
    k = _int(k, "k")
    if k < 0:
        raise ValidationError("k must be >= 0")
    ids, src, dst = (c.tolist() for c in (g.edge_ids, g.src, g.dst))
    tree_set = set(tree.edge_ids)
    in_tree = np.array([eid in tree_set for eid in ids], dtype=bool)
    # the tree rooted at position 0, over the arcs of tree edges: each
    # position's parent, the edge to it and its depth (0 only at the root)
    indptr, order, head = _arcs(g)
    parent, edge, depth = (np.zeros(g.n, dtype=np.int64) for _ in range(3))
    for level, (reached, slots) in enumerate(kernels.bfs(
            indptr, head[order], [0] if g.n else [], usable=in_tree[order >> 1]), 1):
        arcs = order[slots]
        parent[reached], edge[reached] = head[arcs ^ 1], g.edge_ids[arcs >> 1]
        depth[reached] = level
    spanned = np.count_nonzero(depth)
    if not len(tree.edge_ids) == len(tree_set) == in_tree.sum() == spanned == g.n - 1:
        raise ValidationError("tree must be n - 1 distinct edges of the view that join every vertex")
    up = list(zip(parent.tolist(), edge.tolist(), depth.tolist()))

    def tree_path_edges(a: int, b: int) -> list[int]:
        path = []
        while a != b:  # climb from the deeper end until the two meet
            if up[a][2] < up[b][2]:
                a, b = b, a
            a, eid, _ = up[a]
            path.append(eid)
        return path

    uncovered = set(tree.edge_ids)
    backup = []
    # chords in (weight, id) order, as in minimum_spanning_tree
    for i in np.argsort(g.weights, kind="stable").tolist():
        if len(backup) >= k or not uncovered:
            break
        if ids[i] in tree_set or src[i] == dst[i]:
            continue
        cycle = tree_path_edges(src[i], dst[i])
        if any(eid in uncovered for eid in cycle):
            backup.append(ids[i])
            uncovered.difference_update(cycle)
    return TreeResult(tree.edge_ids, tree.total_weight, tuple(sorted(backup)))


def balance_weighted_response(request_count: int, servers: list[ServerSpec]) -> dict[int, int]:
    """Split requests proportionally to 1/response_time with largest-remainder
    rounding; counts sum exactly to ``request_count``."""
    # counts up to 2**53 are exact as floats, so the shares round as they should
    if type(request_count) is not int or not 0 <= request_count <= 2 ** 53:
        raise ValidationError(f"request_count must be an int in [0, 2**53], got {request_count!r}")
    if not servers:
        raise ValidationError("at least one server required")
    weights = [1.0 / s.response_time for s in servers]
    wsum = sum(weights)
    shares = [request_count * w / wsum for w in weights]
    if not np.isfinite(shares).all():
        raise ValidationError("response times too small: the request shares overflow")
    counts = [int(x) for x in shares]
    remainder = request_count - sum(counts)
    order = sorted(range(len(servers)), key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return {s.id: c for s, c in zip(servers, counts)}


def balance_resource_based(demands: list[float], servers: list[ServerSpec]) -> dict[int, list[int]]:
    """Greedy max-remaining-capacity placement over demands in descending size.

    Returns server id -> list of demand indices.  Raises when total demand
    exceeds total capacity, or when some demand fits on no server at its
    placement turn.
    """
    if not servers:
        raise ValidationError("at least one server required")
    for i, d in enumerate(demands):
        _finite(d, f"demand {i}")
    total = sum(demands)
    cap = sum(s.capacity for s in servers)
    if total > cap:
        raise InfeasibleError(f"total demand {total} exceeds total capacity {cap}")
    remaining = [s.capacity for s in servers]
    assignment: dict[int, list[int]] = {s.id: [] for s in servers}
    order = sorted(range(len(demands)), key=lambda i: (-demands[i], i))
    for i in order:
        d = demands[i]
        feasible = [j for j in range(len(servers)) if remaining[j] >= d]
        if not feasible:
            raise InfeasibleError(f"demand {d} (index {i}) fits on no server")
        j = max(feasible, key=lambda j: (remaining[j], -j))
        remaining[j] -= d
        assignment[servers[j].id].append(i)
    return assignment


def topo_schedule(d: TaskDag) -> tuple[list[int], float, list[int]]:
    """Kahn topological order (min task id first) plus the critical path.

    Returns (order, critical length, critical task sequence).  The critical
    path is the dependency chain maximizing total task duration.
    """
    tasks = sorted(d.durations)
    for t in tasks:
        _finite(d.durations[t], f"task {t}: duration")
    tset = set(tasks)
    succ: dict[int, list[int]] = {t: [] for t in tasks}
    pred: dict[int, list[int]] = {t: [] for t in tasks}
    for a, b in d.deps:
        if a not in tset or b not in tset:
            raise ValidationError(f"dependency ({a}, {b}) names an unknown task")
        succ[a].append(b)
        pred[b].append(a)
    indeg = {t: len(pred[t]) for t in tasks}
    heap = [t for t in tasks if indeg[t] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        t = heapq.heappop(heap)
        order.append(t)
        for u in sorted(succ[t]):
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(heap, u)
    if len(order) != len(tasks):
        cycle = _find_cycle(tasks, succ, set(order))
        raise ValidationError(f"dependency cycle detected: {cycle}")
    best: dict[int, float] = {}
    best_pred: dict[int, int | None] = {}
    for t in order:
        cands = sorted(pred[t])
        if cands:
            p = max(cands, key=lambda c: (best[c], -c))
            best[t] = d.durations[t] + best[p]
            best_pred[t] = p
        else:
            best[t] = d.durations[t]
            best_pred[t] = None
    end = max(tasks, key=lambda t: (best[t], -t))
    if best[end] == math.inf:
        raise ValidationError("critical path length overflows a float")
    chain = [end]
    while best_pred[chain[-1]] is not None:
        chain.append(best_pred[chain[-1]])
    return order, best[end], list(reversed(chain))


def _find_cycle(tasks, succ, acyclic_part):
    stuck = [t for t in tasks if t not in acyclic_part]
    # walk successors inside the stuck set until a repeat closes the cycle
    seen: dict[int, int] = {}
    v = stuck[0]
    path = []
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        v = min(u for u in succ[v] if u not in acyclic_part)
    return path[seen[v]:] + [v]


def mm1_latency(arrival_rate: float, service_rate: float) -> float:
    """Expected sojourn time 1/(mu - lambda) of a stable M/M/1 queue."""
    _finite(arrival_rate, "arrival rate")
    _finite(service_rate, "service rate")
    if arrival_rate < 0:
        raise ValidationError("arrival rate must be >= 0")
    if arrival_rate >= service_rate:
        raise ValidationError("unstable queue: arrival rate >= service rate")
    latency = 1.0 / (service_rate - arrival_rate)
    if latency == math.inf:
        raise ValidationError(f"latency 1/(service rate - arrival rate) overflows: "
                              f"{service_rate!r} - {arrival_rate!r} is too small")
    return latency
