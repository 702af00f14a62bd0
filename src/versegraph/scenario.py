"""Seeded generators for metaverse-shaped layers plus storage, consensus,
security, and CDN simulations.

Every generator is a pure function of its config: the same seed always
produces the same event log.  Generators append to a supplied
:class:`TemporalMultiLayerGraph` so that multi-layer scenarios compose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .analytics import bfs_levels, bfs_order, weakly_connected_components
from .core import GraphView, TemporalMultiLayerGraph
from .errors import ConvergenceError, ValidationError


@dataclass
class GeneratorConfig:
    seed: int = 0
    routers: int = 0
    servers: int = 0
    devices: int = 0
    users: int = 0
    items: int = 0
    admins: int = 0
    attachment: int = 2
    edge_prob: float = 0.1
    complete: bool = False

    def __post_init__(self):
        for name in ("routers", "servers", "devices", "users", "items", "admins"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValidationError("edge_prob must be in [0, 1]")
        if self.attachment < 1:
            raise ValidationError("attachment must be >= 1")


def _attach(rng, n: int, m: int) -> list[tuple[int, int]]:
    """``(new, earlier)`` position pairs in draw order: each position i >= 1 of
    0..n-1 links to min(m, i) distinct earlier ones, each drawn from those left
    with probability proportional to degree + 1 (smoothing for isolates)."""
    degree = np.zeros(n)
    pairs = []
    for new in range(1, n):
        pool = np.arange(new)
        weights = degree[:new] + 1.0
        for _ in range(min(m, new)):
            idx = rng.choice(len(pool), p=weights / weights.sum())
            pairs.append((new, int(pool[idx])))
            degree[[new, pool[idx]]] += 1  # weights is a copy: seen from the next position on
            pool, weights = np.delete(pool, idx), np.delete(weights, idx)
    return pairs


def gen_network_layer(
    g: TemporalMultiLayerGraph, cfg: GeneratorConfig, name: str = "network", t: int = 0
) -> int:
    """Router backbone by preferential attachment; servers on random routers;
    devices on the hop-nearest router to a random anchor."""
    if cfg.routers < 1:
        raise ValidationError("need at least one router")
    rng = np.random.default_rng(cfg.seed)
    layer = g.create_layer(name)
    routers = [g.add_vertex({"router"}, {layer}, {}, t) for _ in range(cfg.routers)]
    for a, b in _attach(rng, cfg.routers, cfg.attachment):
        g.add_edge(routers[a], routers[b], layer, layer, directed=False, weight=1.0,
                   relation="backbone", t_start=t)
    servers = []
    uplink: dict[int, int] = {}
    for _ in range(cfg.servers):
        vid = g.add_vertex({"server"}, {layer}, {}, t)
        target = routers[int(rng.integers(len(routers)))]
        g.add_edge(vid, target, layer, layer, directed=False, weight=1.0,
                   relation="uplink", t_start=t)
        uplink[vid] = target
        servers.append(vid)
    anchors = routers + servers
    for _ in range(cfg.devices):
        vid = g.add_vertex({"device"}, {layer}, {}, t)
        anchor = anchors[int(rng.integers(len(anchors)))]
        # a server anchor's hop-nearest router is its uplink
        target = uplink.get(anchor, anchor)
        g.add_edge(vid, target, layer, layer, directed=False, weight=1.0,
                   relation="access", t_start=t)
    return layer


def gen_social_layer(
    g: TemporalMultiLayerGraph, cfg: GeneratorConfig, name: str = "social", t: int = 0
) -> int:
    """User graph: preferential attachment by default, K_n when cfg.complete."""
    if cfg.users < 1:
        raise ValidationError("need at least one user")
    rng = np.random.default_rng(cfg.seed)
    layer = g.create_layer(name)
    users = [g.add_vertex({"user"}, {layer}, {}, t) for _ in range(cfg.users)]
    if cfg.complete:
        for i, u in enumerate(users):
            for v in users[i + 1:]:
                g.add_edge(u, v, layer, layer, directed=False, weight=1.0,
                           relation="social", t_start=t)
        return layer
    for a, b in _attach(rng, cfg.users, cfg.attachment):
        g.add_edge(users[a], users[b], layer, layer, directed=False, weight=1.0,
                   relation="social", t_start=t)
    return layer


def gen_cms_bipartite(
    g: TemporalMultiLayerGraph, cfg: GeneratorConfig, name: str = "content", t: int = 0
) -> int:
    """Admin/content layer; every item gets at least one management edge."""
    if cfg.items > 0 and cfg.admins < 1:
        raise ValidationError("content items require at least one admin")
    rng = np.random.default_rng(cfg.seed)
    layer = g.create_layer(name)
    admins = [g.add_vertex({"admin"}, {layer}, {}, t) for _ in range(cfg.admins)]
    for _ in range(cfg.items):
        vid = g.add_vertex({"content-item"}, {layer}, {}, t)
        primary = admins[int(rng.integers(len(admins)))]
        g.add_edge(primary, vid, layer, layer, directed=True, weight=1.0,
                   relation="manages", t_start=t)
        for a in admins:
            if a != primary and rng.random() < cfg.edge_prob:
                g.add_edge(a, vid, layer, layer, directed=True, weight=1.0,
                           relation="manages", t_start=t)
    return layer


# ---------------------------------------------------------------------------
# Version DAGs
# ---------------------------------------------------------------------------

@dataclass
class VersionDag:
    hashes: list[str] = field(default_factory=list)
    parents: list[tuple[int, ...]] = field(default_factory=list)

    def record_version(self, parent_ids: tuple[int, ...] | list[int], content_hash: str) -> int:
        for p in parent_ids:
            if not 0 <= p < len(self.hashes):
                raise ValidationError(f"unknown parent version {p}")
        vid = len(self.hashes)
        self.hashes.append(content_hash)
        self.parents.append(tuple(sorted(set(parent_ids))))
        return vid

    def topological_order(self) -> list[int]:
        # ids are append-ordered and parents always precede children
        return list(range(len(self.hashes)))


# ---------------------------------------------------------------------------
# CDN cache placement and replication
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")  # an overflow ends in one ValidationError
def cdn_place_caches(
    g: GraphView, k: int, demand: Optional[dict[int, float]] = None
) -> tuple[list[int], float]:
    """Greedy k-median on hop distances; returns caches in choice order and
    the demand-weighted expected hops to the nearest cache."""
    if not 1 <= k <= g.n:
        raise ValidationError(f"k={k} out of range [1, {g.n}]")
    if weakly_connected_components(g).count != 1:
        raise ValidationError("cache placement requires a connected graph")
    if demand is None:
        demand = {v: 1.0 for v in g.vertices}
    outside = sorted(set(demand) - g.index.keys())
    if outside:
        raise ValidationError(f"demand names vertices outside the view: {outside[:10]}")
    w = np.array([demand.get(v, 0.0) for v in g.vertices])
    wsum = w.sum()  # finite only if every term is
    if not ((w >= 0).all() and 0 < wsum < np.inf):
        raise ValidationError(f"demand must be >= 0 at every vertex with a positive, finite "
                              f"total; the total is {wsum}")
    indptr, indices = g.csr("both")
    hops = kernels.hop_distances(indptr, indices, g.n)
    chosen: list[int] = []
    best_dist = np.full(g.n, np.inf)
    scores = np.empty((g.n, g.n))  # one n×n buffer for all rounds, not two temporaries each
    for _ in range(k):
        # row i: the demand-weighted hops if vertex i joined the caches
        np.multiply(w, np.minimum(best_dist, hops, out=scores), out=scores)
        best_i, best_cost = None, np.inf
        for i, cost in enumerate(scores.sum(axis=1).tolist()):
            if cost < best_cost - 1e-12 and i not in chosen:
                best_i, best_cost = i, cost
        if best_i is None:
            raise ValidationError("demand too large: every placement cost overflows")
        chosen.append(best_i)
        best_dist = np.minimum(best_dist, hops[best_i])
    return [g.vertices[i] for i in chosen], best_cost / float(wsum)


@dataclass(frozen=True)
class ReplicaPlacement:
    mapping: dict[int, tuple[int, ...]]  # item id -> storage vertex ids
    factor: int


def replicate_items(items: list[int], nodes: list[int], r: int) -> ReplicaPlacement:
    """Round-robin placement offset by item index; r distinct nodes per item."""
    if r < 0:
        raise ValidationError("replication factor must be >= 0")
    if r > len(nodes):
        raise ValidationError(f"replication factor {r} exceeds node count {len(nodes)}")
    ordered = sorted(nodes)
    mapping = {}
    for i, item in enumerate(items):
        mapping[item] = tuple(sorted(ordered[(i + j) % len(ordered)] for j in range(r))) if r else ()
    return ReplicaPlacement(mapping, r)


# ---------------------------------------------------------------------------
# Simulations
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyResult:
    rounds: dict[int, int]  # item -> first round all replicas agreed
    divergent: frozenset[int]  # items whose replicas fall apart among themselves


def consistency_sim(
    placement: ReplicaPlacement,
    topology: GraphView,
    updates: dict[int, dict[int, int]],
) -> ConsistencyResult:
    """Synchronous max-version propagation among each item's replicas.

    ``updates`` gives per-item initial version numbers at specific replicas
    (unlisted replicas start at version 0).  Replicas exchange versions with
    neighboring replicas of the same item over the topology, so an item is
    divergent when its replicas are disconnected in the subgraph they
    induce.  Every other item agrees in as many rounds as its farthest
    replica is hops, within that subgraph, from a holder of the newest version.
    """
    missing = sorted({v for reps in placement.mapping.values() for v in reps} - topology.index.keys())
    if missing:
        raise ValidationError(f"replica nodes {missing[:10]} missing from topology")
    for item, given in updates.items():
        if item not in placement.mapping:
            raise ValidationError(f"updates: item {item} is not placed")
        strays = sorted(set(given) - set(placement.mapping[item]))
        if strays:
            raise ValidationError(f"updates[{item}]: nodes {strays} hold no replica of item {item}")
    rounds: dict[int, int] = {}
    divergent = set()
    for item, reps in placement.mapping.items():
        rset = set(reps)
        if len(bfs_levels(topology, reps[:1], "both", rset)) < len(rset):
            divergent.add(item)
            continue
        versions = {v: 0 for v in reps}
        versions.update(updates.get(item, {}))
        newest = max(versions.values(), default=0)
        holders = [v for v, ver in versions.items() if ver == newest]
        rounds[item] = max(bfs_levels(topology, holders, "both", rset).values(), default=0)
    return ConsistencyResult(rounds, frozenset(divergent))


@np.errstate(over="ignore")  # an overflow ends in one ValidationError
def consensus_sim(
    values: dict[int, float],
    topology: GraphView,
    tol: float = 1e-9,
    max_rounds: int = 1_000_000,
    spreads: Optional[list[float]] = None,
) -> tuple[int, float]:
    """Synchronous Metropolis-weight averaging to the mean of the inputs.

    Returns (rounds until the max pairwise spread is within tol, the common
    value).  Raises on disconnected topologies, whose values cannot agree.
    When ``spreads`` is a list, the spread before the first round and after
    every round is appended to it.
    """
    if weakly_connected_components(topology).count != 1:
        raise ValidationError("consensus requires a connected topology")
    if set(values) != set(topology.vertices):
        raise ValidationError("values must cover exactly the topology's vertices")
    order = topology.vertices
    x0 = np.array([float(values[v]) for v in order])
    if not x0.max() - x0.min() < np.inf:
        raise ValidationError("values must be finite and spread less than a float holds")
    # each distinct neighbor pair once, as the upper triangle of the adjacency
    indptr, indices = topology.csr("both")
    degree = np.diff(indptr)
    rows = np.repeat(np.arange(topology.n), degree)
    upper = rows < indices
    eu, ev = rows[upper], indices[upper]
    w = 1.0 / (1.0 + np.maximum(degree[eu], degree[ev]))
    rounds, x = kernels.consensus_run(eu, ev, w, x0, tol, max_rounds, spreads)
    if rounds >= max_rounds and (x.max() - x.min()) > tol:
        raise ConvergenceError(f"consensus did not converge in {max_rounds} rounds")
    mean = float(np.mean(x))
    if not abs(mean) < np.inf:
        raise ValidationError("the mean of the values overflows a float")
    return int(rounds), mean


def trust_path(g: GraphView, a: int, b: int) -> Optional[list[int]]:
    """Shortest directed trust chain a -> b, or None when absent.

    Ties broken by expanding smaller vertex ids first.
    """
    for v in (a, b):
        if v not in g.index:
            raise ValidationError(f"unknown vertex {v}")
    dist = bfs_order(g, a)[1]
    if b not in dist:
        return None
    # walk back: the smallest-id in-neighbor one level closer to a
    path = [b]
    while path[-1] != a:
        w = path[-1]
        path.append(next(u for u in g.neighbors(w, "in") if dist.get(u) == dist[w] - 1))
    return path[::-1]


def anomaly_scores(
    g: GraphView, threshold: float
) -> tuple[dict[int, float], frozenset[int]]:
    """Degree z-scores (population stddev) and the |z| > threshold flag set."""
    if g.n < 2:
        raise ValidationError("anomaly baseline needs at least 2 vertices")
    degrees = np.diff(g.csr("both")[0]).astype(float)
    mean = degrees.mean()
    std = degrees.std()
    if std == 0:
        z = np.zeros(g.n)
    else:
        z = (degrees - mean) / std
    scores = {v: float(z[i]) for i, v in enumerate(g.vertices)}
    flagged = frozenset(v for v, s in scores.items() if abs(s) > threshold)
    return scores, flagged
