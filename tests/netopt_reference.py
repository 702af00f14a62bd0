"""The record-based graph algorithms that ``versegraph.netopt`` replaced,
kept as the oracle for it.

Each function reads a view only through its edge records (``g.edges``),
``g.vertices`` and ``g.index``, and builds its own adjacency per call:
Dijkstra runs the full loop, settling every reachable vertex and sorting a
vertex's arcs with a key; max flow keeps ``[to, cap, eid, sign]`` residual
lists; Kruskal sorts the records and joins vertex ids in a union-find class.
``tests/test_netopt.py`` checks that ``netopt``, which reads the view's edge
columns, gives exactly the same results and errors.
"""

from __future__ import annotations

import heapq

from versegraph.errors import InfeasibleError, ValidationError
from versegraph.netopt import FlowCutResult, PathResult, TreeResult


def shortest_path(g, s, t):
    """The full Dijkstra loop, ties broken by (predecessor id, edge id)."""
    for v in (s, t):
        if v not in g.index:
            raise ValidationError(f"unknown vertex {v}")
    for e in g.edges:
        if e.weight < 0:
            raise ValidationError(f"negative weight on edge {e.id}")
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append((e.dst, e.weight, e.id))
        if not e.directed:
            adj[e.dst].append((e.src, e.weight, e.id))
    dist, pred, done, heap = {s: 0.0}, {}, set(), [(0.0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done or d > dist.get(v, float("inf")):
            continue
        done.add(v)
        for w, wt, eid in sorted(adj[v], key=lambda a: (a[0], a[1], a[2])):
            nd = d + wt
            cur = dist.get(w, float("inf"))
            if nd < cur or (nd == cur and w not in done and (v, eid) < pred.get(w, (float("inf"),))):
                dist[w] = nd
                pred[w] = (v, eid)
                heapq.heappush(heap, (nd, w))
    if t not in dist:
        raise InfeasibleError(f"vertex {t} unreachable from {s}")
    verts, eids = [t], []
    while verts[-1] != s:
        pv, eid = pred[verts[-1]]
        eids.append(eid)
        verts.append(pv)
    return PathResult(dist[t], tuple(reversed(verts)), tuple(reversed(eids)))


def max_flow_min_cut(g, s, t):
    """Edmonds-Karp on per-call residual lists; the cut from a second search."""
    if s == t:
        raise ValidationError("source equals sink")
    for v in (s, t):
        if v not in g.index:
            raise ValidationError(f"unknown vertex {v}")
    arcs = []  # entries [to, residual cap, eid, sign]
    out = {v: [] for v in g.vertices}

    def add_arc(u, v, cap, eid, sign):
        out[u].append(len(arcs))
        arcs.append([v, cap, eid, sign])

    for e in g.edges:
        if e.weight < 0:
            raise ValidationError(f"negative capacity on edge {e.id}")
        add_arc(e.src, e.dst, e.weight, e.id, +1)
        add_arc(e.dst, e.src, e.weight if not e.directed else 0.0, e.id, -1)
    flows = {e.id: 0.0 for e in g.edges}
    value = 0.0
    while True:
        prev = {s: -1}
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


class UnionFind:
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


def minimum_spanning_tree(g):
    """Kruskal over the records sorted by (weight, edge id)."""
    if g.n == 0:
        raise ValidationError("empty graph")
    uf = UnionFind(g.vertices)
    chosen = []
    total = 0.0
    for e in sorted(g.edges, key=lambda e: (e.weight, e.id)):
        if e.src != e.dst and uf.union(e.src, e.dst):
            chosen.append(e.id)
            total += e.weight
    if len(chosen) != g.n - 1:
        raise ValidationError("graph is disconnected; no spanning tree exists")
    return TreeResult(tuple(sorted(chosen)), total)


def augment_redundancy(g, tree, k):
    """Cheapest chords, in (weight, id) order, that cover an uncovered tree edge."""
    if k < 0:
        raise ValidationError("k must be >= 0")
    tree_set = set(tree.edge_ids)
    by_id = {e.id: e for e in g.edges}
    adj = {v: [] for v in g.vertices}
    for eid in tree.edge_ids:
        e = by_id[eid]
        adj[e.src].append((e.dst, eid))
        adj[e.dst].append((e.src, eid))

    def tree_path_edges(a, b):
        prev = {a: (-1, -1)}
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
    chords = sorted((e for e in g.edges if e.id not in tree_set and e.src != e.dst),
                    key=lambda e: (e.weight, e.id))
    for e in chords:
        if len(backup) >= k or not uncovered:
            break
        cycle = tree_path_edges(e.src, e.dst)
        if any(eid in uncovered for eid in cycle):
            backup.append(e.id)
            uncovered.difference_update(cycle)
    return TreeResult(tree.edge_ids, tree.total_weight, tuple(sorted(backup)))
