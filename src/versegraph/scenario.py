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
from .analytics import bfs_order, weakly_connected_components
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


def _preferential_targets(rng, degrees: dict[int, int], count: int) -> list[int]:
    """Distinct degree-proportional picks (degree+1 smoothing for isolates)."""
    pool = sorted(degrees)
    chosen = []
    for _ in range(min(count, len(pool))):
        weights = np.array([degrees[v] + 1.0 for v in pool])
        idx = rng.choice(len(pool), p=weights / weights.sum())
        chosen.append(pool.pop(int(idx)))
    return chosen


def gen_network_layer(
    g: TemporalMultiLayerGraph, cfg: GeneratorConfig, name: str = "network", t: int = 0
) -> int:
    """Router backbone by preferential attachment; servers on random routers;
    devices on the hop-nearest router to a random anchor."""
    if cfg.routers < 1:
        raise ValidationError("need at least one router")
    rng = np.random.default_rng(cfg.seed)
    layer = g.create_layer(name)
    routers = []
    degrees: dict[int, int] = {}
    for i in range(cfg.routers):
        vid = g.add_vertex({"router"}, {layer}, {}, t)
        if routers:
            for target in _preferential_targets(rng, degrees, cfg.attachment):
                g.add_edge(vid, target, layer, layer, directed=False, weight=1.0,
                           relation="backbone", t_start=t)
                degrees[target] += 1
                degrees[vid] = degrees.get(vid, 0) + 1
        routers.append(vid)
        degrees.setdefault(vid, 0)
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
    degrees = {users[0]: 0}
    for u in users[1:]:
        for target in _preferential_targets(rng, degrees, cfg.attachment):
            g.add_edge(u, target, layer, layer, directed=False, weight=1.0,
                       relation="social", t_start=t)
            degrees[target] += 1
            degrees[u] = degrees.get(u, 0) + 1
        degrees.setdefault(u, 0)
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
    indptr, indices = g.csr("both")
    hops = kernels.hop_distances(indptr, indices, g.n)
    w = np.array([demand.get(v, 0.0) for v in g.vertices])
    wsum = w.sum()
    if wsum <= 0:
        raise ValidationError("total demand must be positive")
    chosen: list[int] = []
    best_dist = np.full(g.n, np.inf)
    for _ in range(k):
        best_v, best_cost = None, np.inf
        for i, v in enumerate(g.vertices):
            if v in chosen:
                continue
            cost = float(np.sum(w * np.minimum(best_dist, hops[i])))
            if cost < best_cost - 1e-12 or (abs(cost - best_cost) <= 1e-12 and (best_v is None or v < best_v)):
                best_v, best_cost = v, cost
        chosen.append(best_v)
        best_dist = np.minimum(best_dist, hops[g.index[best_v]])
    return chosen, float(np.sum(w * best_dist) / wsum)


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


def _replicas_split(reps: set[int], topology: GraphView) -> bool:
    """True when ``reps`` is disconnected in the subgraph of ``topology`` it
    induces: no path of adjacent replicas joins some pair of them."""
    if not reps:
        return False
    start = min(reps)
    seen, stack = {start}, [start]
    while stack:
        for u in topology.neighbors(stack.pop(), "both"):
            if u in reps and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) < len(reps)


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
    induce; every other item agrees after at most ``len(reps) - 1`` rounds.
    """
    for item, reps in placement.mapping.items():
        for v in reps:
            if v not in topology.index:
                raise ValidationError(f"replica node {v} missing from topology")
    rounds: dict[int, int] = {}
    divergent = set()
    for item, reps in placement.mapping.items():
        rset = set(reps)
        if _replicas_split(rset, topology):
            divergent.add(item)
            continue
        versions = {v: 0 for v in reps}
        versions.update({v: ver for v, ver in updates.get(item, {}).items() if v in versions})
        rnd = 0
        while len(set(versions.values())) > 1:
            rnd += 1
            versions = {
                v: max([versions[v]] + [versions[u] for u in topology.neighbors(v, "both") if u in rset])
                for v in reps
            }
        rounds[item] = rnd
    return ConsistencyResult(rounds, frozenset(divergent))


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
    return int(rounds), float(np.mean(x))


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
