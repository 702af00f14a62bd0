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
    sum; directed views by (n-1)(n-2) on the ordered-pair sum.  A view whose
    shortest-path counts overflow float64 into a score that is not finite is
    refused.
    """
    if g.n < 3:
        raise ValidationError("betweenness needs at least 3 vertices")
    # counts past 2**1024 are inf, and inf / inf is NaN: the check below says so
    with np.errstate(over="ignore", invalid="ignore"):
        if g.directed:
            indptr, indices = g.csr("out")
            rindptr, rindices = g.csr("in")
            norm = (g.n - 1) * (g.n - 2)
            raw = kernels.betweenness_raw(indptr, indices, rindptr, rindices, g.n)
        else:
            indptr, indices = g.csr("both")
            norm = (g.n - 1) * (g.n - 2) / 2
            raw = kernels.betweenness_raw(indptr, indices, indptr, indices, g.n) / 2.0
    if not np.isfinite(raw).all():
        raise ValidationError("betweenness: shortest-path counts overflow float64 on this view")
    scores = {v: float(raw[i]) / norm for i, v in enumerate(g.vertices)}
    return CentralityReport("betweenness", scores)


def clustering_coefficient(g: GraphView, v: int) -> float:
    """Fraction of closed neighbor pairs around v (undirected interpretation)."""
    ns = g.neighbors(v, "both")
    k = len(ns)
    if k < 2:
        return 0.0
    nset = set(ns)
    links = sum(1 for u in ns for w in g.neighbors(u, "both") if w in nset and w > u)
    return 2.0 * links / (k * (k - 1))


def weakly_connected_components(g: GraphView) -> ComponentLabeling:
    """Components ignoring direction; labels are the minimum vertex id per component."""
    least = kernels.components(*g.csr("both"))
    # view vertices ascend, so the least position holds the least id
    labels = dict(zip(g.vertices, map(g.vertices.__getitem__, least.tolist())))
    return ComponentLabeling(labels, int(np.count_nonzero(least == np.arange(g.n))))


def bfs_levels(g: GraphView, sources, direction: str = "out", within=None) -> dict[int, int]:
    """Hop level of every vertex reached from ``sources`` (level 0), in visit
    order: level by level, each level in ascending vertex id.  With ``within``
    a set of ids, the search enters no vertex outside it."""
    indptr, heads = g.csr(direction)  # refuses an unknown direction, whatever the sources
    starts = sorted(set(map(g.position, sources)))
    allowed = None if within is None else np.bincount(
        [g.index[v] for v in within if v in g.index], minlength=g.n) > 0
    levels = [starts] + [r.tolist() for r, _ in kernels.bfs(indptr, heads, starts, allowed)]
    return {g.vertices[p]: level for level, at in enumerate(levels) for p in at}


def bfs_order(g: GraphView, root: int) -> tuple[list[int], dict[int, int]]:
    """BFS visit order and hop distances; ties expand in ascending vertex id."""
    dist = bfs_levels(g, [root])
    return list(dist), dist
