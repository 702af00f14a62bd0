"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import os
import random

import pytest

import versegraph
from versegraph.core import EdgeRecord, GraphView

from record_graph import graph_view

# tests that start ``python -m versegraph.cli`` need their child process to
# import the same package as the tests, also when only pytest's pythonpath
# setting put it on the path
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(versegraph.__file__)), os.environ.get("PYTHONPATH")]))


# the cli-pipeline benchmark's `gen --scenario multilayer` params (1x: 1,160
# vertices when flattened); other scales multiply every count
PIPELINE_PARAMS = {"routers": 150, "servers": 40, "devices": 260, "users": 500, "admins": 10,
                   "items": 200, "edge_prob": 0.2}


def pipeline_params(scale):
    return {k: v if k == "edge_prob" else v * scale for k, v in PIPELINE_PARAMS.items()}


def make_view(n, edges, directed=False):
    """GraphView over vertices 0..n-1.

    ``edges`` is a list of (src, dst) or (src, dst, weight) tuples; edge ids
    follow list order.
    """
    recs = []
    for i, e in enumerate(edges):
        u, v = e[0], e[1]
        w = e[2] if len(e) > 2 else 1.0
        d = e[3] if len(e) > 3 else directed
        recs.append(EdgeRecord(i, u, v, 0, 0, d, float(w), "", 0, None))
    return graph_view(range(n), recs)


def random_simple_edges(n, p, rng, weighted=False):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                if weighted:
                    edges.append((u, v, round(rng.uniform(0.5, 5.0), 3)))
                else:
                    edges.append((u, v))
    return edges


@pytest.fixture
def rng():
    return random.Random(12345)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_betweenness(g: GraphView):
    """Exhaustively enumerate every shortest path and count interior visits."""
    import collections

    def out_neighbors(v):
        return g.neighbors(v, "out") if g.directed else g.neighbors(v, "both")

    def bfs_dist(s):
        dist = {s: 0}
        q = collections.deque([s])
        while q:
            u = q.popleft()
            for w in out_neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    n = g.n
    score = {v: 0.0 for v in g.vertices}
    ordered = list(itertools.permutations(g.vertices, 2))
    for s, t in ordered:
        dist = bfs_dist(s)
        if t not in dist:
            continue
        # every shortest s-t path via DFS on the distance DAG
        paths = []

        def extend(path):
            u = path[-1]
            if u == t:
                paths.append(list(path))
                return
            for w in out_neighbors(u):
                if dist.get(w) == dist[u] + 1 and dist[w] <= dist[t]:
                    path.append(w)
                    extend(path)
                    path.pop()

        extend([s])
        paths = [p for p in paths if p[-1] == t]
        for v in g.vertices:
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            if paths:
                score[v] += through / len(paths)
    # ordered-pair sums: for undirected views the double counting cancels the
    # halved normalizer, so both cases divide by (n-1)(n-2)
    return {v: s / ((n - 1) * (n - 2)) for v, s in score.items()}


def oracle_components_label_propagation(g: GraphView):
    """Coloring-style oracle: iterate min-label propagation to a fixpoint."""
    labels = {v: v for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for v in g.vertices:
            m = min([labels[v]] + [labels[u] for u in g.neighbors(v, "both")])
            if m < labels[v]:
                labels[v] = m
                changed = True
    return labels


def oracle_mst_weight(g: GraphView):
    """Minimum spanning weight by exhaustive edge-subset enumeration."""
    n = g.n
    best = None
    for combo in itertools.combinations(g.edges, n - 1):
        parent = {v: v for v in g.vertices}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for e in combo:
            ra, rb = find(e.src), find(e.dst)
            if ra == rb:
                ok = False
                break
            parent[rb] = ra
        if ok:
            w = sum(e.weight for e in combo)
            best = w if best is None else min(best, w)
    return best


def oracle_min_cut(g: GraphView, s, t):
    """Minimum s-t cut capacity over every vertex bipartition."""
    others = [v for v in g.vertices if v not in (s, t)]
    best = float("inf")
    for mask in range(2 ** len(others)):
        S = {s} | {others[i] for i in range(len(others)) if mask >> i & 1}
        cap = 0.0
        for e in g.edges:
            if e.src in S and e.dst not in S:
                cap += e.weight
            elif e.dst in S and e.src not in S and not e.directed:
                cap += e.weight
        best = min(best, cap)
    return best


def grid_search_two_domain(scenario, mode, res=1e-3):
    """Exhaustive grid oracle for two-domain scenarios.

    Evaluates the utility and coupling formulas directly (independent of the
    package's objective assembly) on a full res-spaced grid, masking points
    that violate a link in coupled mode.  Returns (best point, best value).
    """
    import numpy as np

    assert len(scenario.domains) == 2
    d1, d2 = scenario.domains
    links = {l.id: l for l in scenario.links}
    domains = {d.id: d for d in scenario.domains}
    xs = np.arange(d1.r_min, d1.r_max + res / 2, res)
    ys = np.arange(d2.r_min, d2.r_max + res / 2, res)
    u1 = 1.0 / (1.0 + np.exp(-d1.gamma * (xs - d1.lam)))
    u2 = 1.0 / (1.0 + np.exp(-d2.gamma * (ys - d2.lam)))
    obj = u1[:, None] + u2[None, :]
    if mode == "coupled":
        for e in scenario.coupling:
            m, n = e.m, e.n
            rm = xs if m == d1.id else ys
            rn = xs if n == d1.id else ys

            def outer(a, b):
                return (a[:, None] * b[None, :]) if m == d1.id else (b[:, None] * a[None, :])

            phi = np.zeros_like(obj)
            for l in scenario.links:
                am, an = l.coeffs.get(m, 0.0), l.coeffs.get(n, 0.0)
                if am > 0 and an > 0:
                    phi += outer(am * rm, an * rn) / l.capacity
            phi *= e.w_link
            for nd in scenario.nodes:
                am = sum(links[l].coeffs.get(m, 0.0) for l in nd.incident)
                an = sum(links[l].coeffs.get(n, 0.0) for l in nd.incident)
                if am > 0 and an > 0:
                    carrying = sorted(
                        l for l in nd.incident
                        if links[l].coeffs.get(m, 0.0) > 0
                        or links[l].coeffs.get(n, 0.0) > 0
                    )
                    dist = nd.incident[carrying[0]]
                    phi += e.w_energy * nd.eps_tx * dist * dist * outer(am * rm, an * rn)
            if e.utility:
                dm, dn = domains[m], domains[n]
                phi += e.w_util * dm.gamma * dn.gamma * outer(rm - dm.lam, rn - dn.lam)
            obj = obj - e.sign * phi
        mask = np.ones_like(obj, dtype=bool)
        for l in scenario.links:
            a1, a2 = l.coeffs.get(d1.id, 0.0), l.coeffs.get(d2.id, 0.0)
            mask &= (a1 * xs[:, None] + a2 * ys[None, :]) <= l.capacity + 1e-12
        obj = np.where(mask, obj, -np.inf)
    i, j = np.unravel_index(np.argmax(obj), obj.shape)
    return np.array([xs[i], ys[j]]), float(obj[i, j])


def oracle_shortest_weight(g: GraphView, s, t):
    """Bellman-Ford-style relaxation to a fixpoint on the multigraph."""
    dist = {v: float("inf") for v in g.vertices}
    dist[s] = 0.0
    for _ in range(g.n):
        for e in g.edges:
            if dist[e.src] + e.weight < dist[e.dst]:
                dist[e.dst] = dist[e.src] + e.weight
            if not e.directed and dist[e.dst] + e.weight < dist[e.src]:
                dist[e.src] = dist[e.dst] + e.weight
    return dist[t]
