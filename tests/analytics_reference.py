"""The set-and-dict traversals that ``versegraph.analytics.bfs_levels`` and
``versegraph.scenario.trust_path`` ran before both moved onto ``kernels.bfs``,
kept as the oracle for them.

Each reads a view through ``g.neighbors`` and ``g.index`` only: the BFS grows
a set of new vertices per level and sorts it, the trust path walks back from
``b`` to the smallest-id in-neighbor one level closer to ``a``.
``tests/test_analytics.py`` checks that the kernel-based functions give
exactly the same items, in the same order, and the same paths.
"""

from __future__ import annotations

from versegraph.errors import ValidationError


def bfs_levels(g, sources, direction="out", within=None):
    """Level by level, each level's new vertices sorted by id."""
    g.csr(direction)  # refuses an unknown direction, whatever the sources
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


def trust_path(g, a, b):
    """The levels from ``a``, then the walk back from ``b``."""
    for v in (a, b):
        if v not in g.index:
            raise ValidationError(f"unknown vertex {v}")
    dist = bfs_levels(g, [a])
    if b not in dist:
        return None
    path = [b]
    while path[-1] != a:
        w = path[-1]
        path.append(next(u for u in g.neighbors(w, "in") if dist.get(u) == dist[w] - 1))
    return path[::-1]
