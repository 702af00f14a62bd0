"""Network optimization on snapshot views: routing, flow/cut, spanning trees,
load balancing, task scheduling, and the M/M/1 latency model."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .core import GraphView
from .errors import InfeasibleError, ValidationError


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
        if self.capacity < 0:
            raise ValidationError(f"server {self.id}: capacity must be >= 0")
        if self.response_time <= 0:
            raise ValidationError(f"server {self.id}: response_time must be > 0")


@dataclass
class TaskDag:
    durations: dict[int, float]
    deps: list[tuple[int, int]] = field(default_factory=list)  # (prerequisite, dependent)


def _arc_list(g: GraphView) -> dict[int, list[tuple[int, float, int]]]:
    """Outgoing (neighbor, weight, edge_id) lists; undirected edges give both arcs."""
    adj: dict[int, list[tuple[int, float, int]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append((e.dst, e.weight, e.id))
        if not e.directed:
            adj[e.dst].append((e.src, e.weight, e.id))
    return adj


def shortest_path(g: GraphView, s: int, t: int) -> PathResult:
    """Dijkstra over the multigraph; parallel edges resolved to the cheapest,
    ties broken by (predecessor vertex id, edge id).  The search stops when
    ``t`` is settled: no later update may touch a settled vertex."""
    for v in (s, t):
        if v not in g.index:
            raise ValidationError(f"unknown vertex {v}")
    for e in g.edges:
        if e.weight < 0:
            raise ValidationError(f"negative weight on edge {e.id}")
    adj = _arc_list(g)
    dist: dict[int, float] = {s: 0.0}
    pred: dict[int, tuple[int, int]] = {}  # vertex -> (pred vertex, edge id)
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done or d > dist.get(v, float("inf")):
            continue
        done.add(v)
        if v == t:
            break
        # a vertex is settled once, so its arcs are sorted once per call:
        # by neighbor, then weight, then edge id
        for w, wt, eid in sorted(adj[v]):
            nd = d + wt
            cur = dist.get(w, float("inf"))
            if nd < cur or (nd == cur and w not in done and (v, eid) < pred.get(w, (float("inf"),))):
                dist[w] = nd
                pred[w] = (v, eid)
                heapq.heappush(heap, (nd, w))
    if t not in dist:
        raise InfeasibleError(f"vertex {t} unreachable from {s}")
    verts = [t]
    eids = []
    while verts[-1] != s:
        pv, eid = pred[verts[-1]]
        eids.append(eid)
        verts.append(pv)
    return PathResult(dist[t], tuple(reversed(verts)), tuple(reversed(eids)))


def max_flow_min_cut(g: GraphView, s: int, t: int) -> FlowCutResult:
    """Edmonds-Karp max flow; min cut recovered from residual reachability.

    Edge weights are read as capacities; undirected edges carry capacity in
    both directions.
    """
    if s == t:
        raise ValidationError("source equals sink")
    for v in (s, t):
        if v not in g.index:
            raise ValidationError(f"unknown vertex {v}")
    # residual arcs: (to, capacity, edge_id, sign); sign +1 consumes forward
    # capacity of the stored edge, -1 pushes against it
    arcs: list[list] = []  # entries [to, residual cap, eid, sign]
    out: dict[int, list[int]] = {v: [] for v in g.vertices}

    def add_arc(u, v, cap, eid, sign):
        out[u].append(len(arcs))
        arcs.append([v, cap, eid, sign])

    for e in g.edges:
        if e.weight < 0:
            raise ValidationError(f"negative capacity on edge {e.id}")
        add_arc(e.src, e.dst, e.weight, e.id, +1)
        add_arc(e.dst, e.src, e.weight if not e.directed else 0.0, e.id, -1)
    flows: dict[int, float] = {e.id: 0.0 for e in g.edges}
    value = 0.0
    while True:
        # shortest augmenting path, deterministic neighbor order
        prev: dict[int, int] = {s: -1}
        frontier = [s]
        while frontier and t not in prev:
            nxt = []
            for u in frontier:
                for ai in out[u]:
                    v, cap, _, _ = arcs[ai]
                    if cap > 1e-12 and v not in prev:
                        prev[v] = ai
                        nxt.append(v)
            frontier = sorted(nxt)
        if t not in prev:
            break
        # bottleneck
        path = []
        v = t
        while v != s:
            ai = prev[v]
            path.append(ai)
            v = arcs[ai ^ 1][0]
        bottleneck = min(arcs[ai][1] for ai in path)
        for ai in path:
            arcs[ai][1] -= bottleneck
            arcs[ai ^ 1][1] += bottleneck
            _, _, eid, sign = arcs[ai]
            flows[eid] += sign * bottleneck
        value += bottleneck
    # S-side = residual-reachable from s; cut = stored edges crossing S->T
    reach = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for ai in out[u]:
            v, cap, _, _ = arcs[ai]
            if cap > 1e-12 and v not in reach:
                reach.add(v)
                stack.append(v)
    cut = set()
    for e in g.edges:
        if (e.src in reach) != (e.dst in reach):
            if e.src in reach or not e.directed:
                cut.add(e.id)
    flows = {eid: abs(f) for eid, f in flows.items()}
    return FlowCutResult(value, flows, frozenset(cut))


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def minimum_spanning_tree(g: GraphView) -> TreeResult:
    """Kruskal with (weight, edge id) ordering; input treated as undirected."""
    if g.n == 0:
        raise ValidationError("empty graph")
    uf = _UnionFind(g.vertices)
    chosen = []
    total = 0.0
    for e in sorted(g.edges, key=lambda e: (e.weight, e.id)):
        if e.src != e.dst and uf.union(e.src, e.dst):
            chosen.append(e.id)
            total += e.weight
    if len(chosen) != g.n - 1:
        raise ValidationError("graph is disconnected; no spanning tree exists")
    return TreeResult(tuple(sorted(chosen)), total)


def augment_redundancy(g: GraphView, tree: TreeResult, k: int) -> TreeResult:
    """Greedy backup selection: cheapest non-tree chords whose fundamental
    cycle covers a still-uncovered tree edge, at most ``k`` of them."""
    if k < 0:
        raise ValidationError("k must be >= 0")
    tree_set = set(tree.edge_ids)
    by_id = {e.id: e for e in g.edges}
    # tree adjacency for fundamental-cycle paths
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for eid in tree.edge_ids:
        e = by_id[eid]
        adj[e.src].append((e.dst, eid))
        adj[e.dst].append((e.src, eid))

    def tree_path_edges(a: int, b: int) -> list[int]:
        prev: dict[int, tuple[int, int]] = {a: (-1, -1)}
        stack = [a]
        while stack:
            u = stack.pop()
            if u == b:
                break
            for v, eid in adj[u]:
                if v not in prev:
                    prev[v] = (u, eid)
                    stack.append(v)
        path = []
        v = b
        while v != a:
            u, eid = prev[v]
            path.append(eid)
            v = u
        return path

    uncovered = set(tree.edge_ids)
    backup = []
    chords = sorted(
        (e for e in g.edges if e.id not in tree_set and e.src != e.dst),
        key=lambda e: (e.weight, e.id),
    )
    for e in chords:
        if len(backup) >= k or not uncovered:
            break
        cycle = tree_path_edges(e.src, e.dst)
        if any(eid in uncovered for eid in cycle):
            backup.append(e.id)
            uncovered.difference_update(cycle)
    return TreeResult(tree.edge_ids, tree.total_weight, tuple(sorted(backup)))


def balance_weighted_response(request_count: int, servers: list[ServerSpec]) -> dict[int, int]:
    """Split requests proportionally to 1/response_time with largest-remainder
    rounding; counts sum exactly to ``request_count``."""
    if request_count < 0:
        raise ValidationError("request_count must be >= 0")
    if not servers:
        raise ValidationError("at least one server required")
    weights = [1.0 / s.response_time for s in servers]
    wsum = sum(weights)
    shares = [request_count * w / wsum for w in weights]
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
    tset = set(tasks)
    succ: dict[int, list[int]] = {t: [] for t in tasks}
    indeg: dict[int, int] = {t: 0 for t in tasks}
    for a, b in d.deps:
        if a not in tset or b not in tset:
            raise ValidationError(f"dependency ({a}, {b}) names an unknown task")
        succ[a].append(b)
        indeg[b] += 1
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
    pred: dict[int, list[int]] = {t: [] for t in tasks}
    for a, b in d.deps:
        pred[b].append(a)
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
    if arrival_rate < 0:
        raise ValidationError("arrival rate must be >= 0")
    if arrival_rate >= service_rate:
        raise ValidationError("unstable queue: arrival rate >= service rate")
    return 1.0 / (service_rate - arrival_rate)
