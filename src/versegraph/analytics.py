"""Per-layer structural metrics: centralities, clustering, components, BFS.

All operations are pure functions of an immutable :class:`GraphView`.
Parallel edges collapse to simple adjacency; degree is direction-agnostic
unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import GraphView
from .errors import ValidationError


@dataclass(frozen=True)
class CentralityReport:
    metric: str
    scores: dict[int, float]

    def sorted_items(self) -> list[tuple[int, float]]:
        return sorted(self.scores.items())


@dataclass(frozen=True)
class ComponentLabeling:
    labels: dict[int, int]  # vertex -> component id (min vertex id in component)
    count: int


def degree_centrality(g: GraphView) -> CentralityReport:
    """deg(v)/(n-1) with distinct-neighbor degree, ignoring edge direction."""
    if g.n < 2:
        raise ValidationError("degree centrality needs at least 2 vertices")
    denom = g.n - 1
    degrees = np.diff(g.csr("both")[0]).tolist()
    scores = {v: d / denom for v, d in zip(g.vertices, degrees)}
    return CentralityReport("degree", scores)


def betweenness_centrality(g: GraphView) -> CentralityReport:
    """Exact shortest-path betweenness over unit-weight hops.

    Undirected views are normalized by (n-1)(n-2)/2 on the unordered-pair
    sum; directed views by (n-1)(n-2) on the ordered-pair sum.
    """
    if g.n < 3:
        raise ValidationError("betweenness needs at least 3 vertices")
    if g.directed:
        indptr, indices = g.csr("out")
        rindptr, rindices = g.csr("in")
        norm = (g.n - 1) * (g.n - 2)
        raw = kernels.betweenness_raw(indptr, indices, rindptr, rindices, g.n)
    else:
        indptr, indices = g.csr("both")
        norm = (g.n - 1) * (g.n - 2) / 2
        raw = kernels.betweenness_raw(indptr, indices, indptr, indices, g.n) / 2.0
    scores = {v: float(raw[i]) / norm for i, v in enumerate(g.vertices)}
    return CentralityReport("betweenness", scores)


def clustering_coefficient(g: GraphView, v: int) -> float:
    """Fraction of closed neighbor pairs around v (undirected interpretation)."""
    if v not in g.index:
        raise ValidationError(f"unknown vertex {v}")
    ns = g.neighbors(v, "both")
    k = len(ns)
    if k < 2:
        return 0.0
    links = 0
    nset = set(ns)
    for u in ns:
        links += sum(1 for w in g.neighbors(u, "both") if w in nset and w > u)
    return 2.0 * links / (k * (k - 1))


def weakly_connected_components(g: GraphView) -> ComponentLabeling:
    """Components ignoring direction; labels are the minimum vertex id per component."""
    labels: dict[int, int] = {}
    for v in g.vertices:
        if v in labels:
            continue
        # v is the smallest unvisited id, hence the component minimum
        stack = [v]
        labels[v] = v
        while stack:
            u = stack.pop()
            for w in g.neighbors(u, "both"):
                if w not in labels:
                    labels[w] = v
                    stack.append(w)
    return ComponentLabeling(labels, len(set(labels.values())))


def bfs_levels(g: GraphView, sources, direction: str = "out", within=None) -> dict[int, int]:
    """Hop level of every vertex reached from ``sources`` (level 0), in visit
    order: level by level, each level in ascending vertex id.  With ``within``
    a set of ids, the search enters no vertex outside it."""
    frontier = sorted(set(sources))
    dist = dict.fromkeys(frontier, 0)
    level = 0
    while frontier:
        level += 1
        nxt = set()
        for u in frontier:
            for w in g.neighbors(u, direction):
                if w not in dist:
                    nxt.add(w)
        if within is not None:
            nxt.intersection_update(within)
        frontier = sorted(nxt)
        for w in frontier:
            dist[w] = level
    return dist


def bfs_order(g: GraphView, root: int) -> tuple[list[int], dict[int, int]]:
    """BFS visit order and hop distances; ties expand in ascending vertex id."""
    dist = bfs_levels(g, [root])
    return list(dist), dist
