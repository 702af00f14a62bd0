import hashlib
import json

import numpy as np
import pytest

from versegraph import kernels, scenario
from versegraph.core import EdgeRecord, TemporalMultiLayerGraph
from versegraph.errors import ValidationError
from versegraph.scenario import (
    GeneratorConfig,
    VersionDag,
    anomaly_scores,
    cdn_place_caches,
    consensus_sim,
    consistency_sim,
    gen_cms_bipartite,
    gen_network_layer,
    gen_social_layer,
    replicate_items,
    trust_path,
)

from conftest import make_view, pipeline_params
from record_graph import graph_view


def _network_view(cfg, layer_name="network"):
    g = TemporalMultiLayerGraph()
    layer = gen_network_layer(g, cfg, layer_name)
    return g.snapshot_at(0).layer_subgraph(layer), g


# -- generators -------------------------------------------------------------

def test_network_layer_counts():
    cfg = GeneratorConfig(seed=3, routers=20, servers=5, devices=8, attachment=2)
    view, _ = _network_view(cfg)
    assert view.n == 33
    # backbone: first router free, second gets 1 edge, rest get 2 each
    m_backbone = 2 * (cfg.routers - 2) + 1
    assert len(view.edges) == m_backbone + cfg.servers + cfg.devices


def test_network_layer_connected():
    cfg = GeneratorConfig(seed=5, routers=12, servers=4, devices=6)
    view, _ = _network_view(cfg)
    from versegraph.analytics import weakly_connected_components
    assert weakly_connected_components(view).count == 1


def test_network_roles_and_relations():
    cfg = GeneratorConfig(seed=1, routers=4, servers=2, devices=3)
    _, g = _network_view(cfg)
    records = g.vertex_records
    by_rel = {}
    for e in g.edge_records.values():
        by_rel.setdefault(e.relation, []).append(e)
    for e in by_rel["uplink"]:
        assert {records[e.src].roles, records[e.dst].roles} == {
            frozenset({"server"}), frozenset({"router"})
        }
    for e in by_rel["access"]:
        roles = {next(iter(records[e.src].roles)), next(iter(records[e.dst].roles))}
        assert "device" in roles and "router" in roles


def test_network_deterministic():
    def events():
        g = TemporalMultiLayerGraph()
        gen_network_layer(g, GeneratorConfig(seed=9, routers=10, servers=3, devices=5))
        return g.events

    assert events() == events()


def test_network_seed_sensitivity():
    def edge_set(seed):
        g = TemporalMultiLayerGraph()
        gen_network_layer(g, GeneratorConfig(seed=seed, routers=15, servers=5, devices=5))
        return {(e.src, e.dst) for e in g.edge_records.values()}

    assert edge_set(1) != edge_set(2)


def test_network_requires_router():
    g = TemporalMultiLayerGraph()
    with pytest.raises(ValidationError):
        gen_network_layer(g, GeneratorConfig(seed=0, routers=0, servers=1))


def test_social_complete():
    g = TemporalMultiLayerGraph()
    layer = gen_social_layer(g, GeneratorConfig(seed=0, users=6, complete=True))
    view = g.snapshot_at(0).layer_subgraph(layer)
    assert view.n == 6 and len(view.edges) == 15
    assert all(view.degree(v) == 5 for v in view.vertices)


def test_social_preferential_edge_count():
    g = TemporalMultiLayerGraph()
    layer = gen_social_layer(g, GeneratorConfig(seed=4, users=30, attachment=3))
    view = g.snapshot_at(0).layer_subgraph(layer)
    # user 1 gets 1 edge, user 2 gets 2, the rest get 3
    assert len(view.edges) == 1 + 2 + 3 * 27


def _attach_reference(rng, n, m):
    """The sampler the generators used to inline: a degree dict, and for each
    pick a weight list rebuilt from the earlier positions not yet picked."""
    degrees: dict[int, int] = {}
    pairs = []
    for new in range(n):
        pool = sorted(degrees)
        targets = []
        for _ in range(min(m, len(pool))):
            weights = np.array([degrees[v] + 1.0 for v in pool])
            targets.append(pool.pop(int(rng.choice(len(pool), p=weights / weights.sum()))))
        for target in targets:
            pairs.append((new, target))
            degrees[target] += 1
        degrees[new] = len(targets)
    return pairs


@pytest.mark.parametrize("seed", range(6))
def test_attach_matches_degree_dict_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n, m, draw_seed = int(rng.integers(0, 90)), int(rng.integers(1, 6)), int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        assert scenario._attach(got_rng, n, m) == _attach_reference(want_rng, n, m)
        # the stream is left where the reference left it, for the draws after
        assert got_rng.random() == want_rng.random()


def _attach_pool_reference(rng, n, m):
    """The array sampler before zero weights: a position pool beside the
    weights, both rebuilt by np.delete after each draw."""
    degree = np.zeros(n)
    pairs = []
    for new in range(1, n):
        pool = np.arange(new)
        weights = degree[:new] + 1.0
        for _ in range(min(m, new)):
            idx = rng.choice(len(pool), p=weights / weights.sum())
            pairs.append((new, int(pool[idx])))
            degree[[new, pool[idx]]] += 1
            pool, weights = np.delete(pool, idx), np.delete(weights, idx)
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 2, 7919])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_attach_matches_pool_reference(seed, m):
    """A zeroed weight draws as a deleted one: equal pairs, and the stream
    left at the same place, for every n up to 40 and at larger n to 300."""
    sizes = [*range(1, 41), *np.random.default_rng(seed).integers(41, 300, 4).tolist(), 300]
    for n in sizes:
        got_rng, want_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        assert scenario._attach(got_rng, n, m) == _attach_pool_reference(want_rng, n, m), n
        assert got_rng.random() == want_rng.random()


# sha256 of `versegraph gen --scenario <name> --seed 1`, written by the
# per-pick degree-dict sampler that _attach replaced
GEN_SHA256 = {
    "network": "ba907958e0125e0d680d9e3873e917f122e23b1159686632caa9ddc11f5acc20",
    "social": "135cae2221719ff0e8abae8d82f6acade6d030355f00d87edd8153104c9e7d0e",
    "cms": "590e83847337e68ef4be8814791e146b06a0cc3e8c854e335e157fcf43a2cc83",
    "multilayer": "d547bdaf7b648878b6d6dab96fa5cce7217d7484200a1bab30a0d9808349ee88",
}


@pytest.mark.parametrize("name", sorted(GEN_SHA256))
def test_gen_output_bytes_pinned(tmp_path, name):
    from versegraph import cli

    path = tmp_path / "g.json"
    assert cli.run(["gen", "--scenario", name, "--seed", "1", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GEN_SHA256[name]


# sha256 of `versegraph gen --scenario multilayer` at the cli-pipeline
# benchmark's params (1x: 1,160 vertices) and at four times its counts (4x:
# 4,640 vertices), written by json.dumps(indent=2) before the fixed-schema
# writer replaced it
PIPELINE_GEN_SHA256 = {
    (1, 1): "1da0d4cd749eb98e7738c83d5af707912eed096f08452af141e8d45528b7bf1a",
    (1, 7919): "290c16cec2d917df5dd72b1ea4dc134e577c8d373c6160585154c8b95c848aca",
    (4, 7919): "f86d0c81359a570ccce55facd34c96ff41e013b72636f8461963eebe5809f4af",
}


@pytest.mark.parametrize("scale, seed", sorted(PIPELINE_GEN_SHA256))
def test_pipeline_gen_output_bytes_pinned(tmp_path, scale, seed):
    from versegraph import cli

    (tmp_path / "p.json").write_text(json.dumps(pipeline_params(scale)))
    path = tmp_path / "g.json"
    assert cli.run(["gen", "--scenario", "multilayer", "--seed", str(seed),
                    "--params", str(tmp_path / "p.json"), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PIPELINE_GEN_SHA256[scale, seed]


def test_cms_bipartite_valid():
    g = TemporalMultiLayerGraph()
    layer = gen_cms_bipartite(g, GeneratorConfig(seed=2, admins=3, items=10, edge_prob=0.3))
    snap = g.snapshot_at(0)
    ok, violations = snap.validate_bipartite(layer, {"admin"}, {"content-item"})
    assert ok and violations == []
    view = snap.layer_subgraph(layer)
    records = g.vertex_records
    items = [v for v in view.vertices if "content-item" in records[v].roles]
    # every item has at least one manager, edges point admin -> item
    for e in view.edges:
        assert e.directed and "admin" in records[e.src].roles
    assert all(len(view.neighbors(v, "in")) >= 1 for v in items)


def test_cms_requires_admin():
    g = TemporalMultiLayerGraph()
    with pytest.raises(ValidationError):
        gen_cms_bipartite(g, GeneratorConfig(seed=0, admins=0, items=2))


def test_config_validation():
    with pytest.raises(ValidationError):
        GeneratorConfig(routers=-1)
    with pytest.raises(ValidationError):
        GeneratorConfig(edge_prob=1.5)
    with pytest.raises(ValidationError):
        GeneratorConfig(attachment=0)


# -- version DAG ------------------------------------------------------------

def test_version_dag_append_and_order():
    dag = VersionDag()
    a = dag.record_version((), "h0")
    b = dag.record_version((a,), "h1")
    c = dag.record_version((a,), "h2")
    d = dag.record_version((b, c), "h3")
    assert dag.topological_order() == [a, b, c, d]
    assert dag.parents[d] == (b, c)
    with pytest.raises(ValidationError):
        dag.record_version((99,), "bad")


# -- CDN placement and replication ------------------------------------------

def test_cdn_star_single_cache():
    view = make_view(6, [(0, i) for i in range(1, 6)])
    caches, cost = cdn_place_caches(view, 1)
    assert caches == [0]
    assert cost == pytest.approx(5 / 6)


def test_cdn_path_two_caches():
    view = make_view(6, [(i, i + 1) for i in range(5)])
    caches, cost = cdn_place_caches(view, 2)
    # greedy first places the 1-median (vertex 2), then the best complement
    assert caches == [2, 4]
    assert cost == pytest.approx(5 / 6)


def test_cdn_k_equals_n():
    view = make_view(4, [(0, 1), (1, 2), (2, 3)])
    caches, cost = cdn_place_caches(view, 4)
    assert sorted(caches) == [0, 1, 2, 3] and cost == 0.0


def test_cdn_demand_weighting():
    view = make_view(3, [(0, 1), (1, 2)])
    caches, _ = cdn_place_caches(view, 1, demand={0: 100.0, 1: 1.0, 2: 1.0})
    assert caches == [0]


def test_cdn_greedy_beats_random():
    rng = np.random.default_rng(12)
    g = TemporalMultiLayerGraph()
    layer = gen_network_layer(g, GeneratorConfig(seed=12, routers=25, servers=0, devices=0))
    view = g.snapshot_at(0).layer_subgraph(layer)
    caches, cost = cdn_place_caches(view, 3)
    indptr, indices = view.csr("both")
    from versegraph import kernels
    hops = kernels.hop_distances(indptr, indices, view.n)
    worse = 0
    for _ in range(20):
        pick = rng.choice(view.n, size=3, replace=False)
        rnd_cost = float(np.mean(hops[pick].min(axis=0)))
        if rnd_cost >= cost - 1e-12:
            worse += 1
    assert worse >= 18


def test_cdn_validation():
    view = make_view(3, [(0, 1)])  # disconnected
    with pytest.raises(ValidationError):
        cdn_place_caches(view, 1)
    view = make_view(3, [(0, 1), (1, 2)])
    with pytest.raises(ValidationError):
        cdn_place_caches(view, 0)
    with pytest.raises(ValidationError):
        cdn_place_caches(view, 4)
    with pytest.raises(ValidationError, match="outside the view"):
        cdn_place_caches(view, 1, {0: 1.0, 7: 1.0})
    with pytest.raises(ValidationError, match=">= 0"):
        cdn_place_caches(view, 1, {0: 1.0, 1: -0.5})


def _cdn_reference(g, k, demand):
    """The loop cdn_place_caches ran: one np.sum per candidate vertex, a
    candidate winning when it beats the best by more than 1e-12 or ties it
    with a smaller id."""
    hops = kernels.hop_distances(*g.csr("both"), g.n)
    w = np.array([demand.get(v, 0.0) for v in g.vertices])
    chosen: list[int] = []
    best_dist = np.full(g.n, np.inf)
    for _ in range(k):
        best_v, best_cost = None, np.inf
        for i, v in enumerate(g.vertices):
            if v in chosen:
                continue
            cost = float(np.sum(w * np.minimum(best_dist, hops[i])))
            if cost < best_cost - 1e-12 or (abs(cost - best_cost) <= 1e-12
                                            and (best_v is None or v < best_v)):
                best_v, best_cost = v, cost
        chosen.append(best_v)
        best_dist = np.minimum(best_dist, hops[g.index[best_v]])
    return chosen, float(np.sum(w * best_dist) / w.sum())


def _random_connected_view(rng, n):
    """A random spanning tree plus extra edges, some directed, over n
    scattered vertex ids, so positions and ids differ."""
    ids = sorted(int(v) for v in rng.choice(10 * n, size=n, replace=False))
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    pairs += [(int(a), int(b)) for a, b in rng.integers(0, n, size=(n // 2, 2))]
    edges = [EdgeRecord(j, ids[a], ids[b], 0, 0, bool(rng.random() < 0.2), 1.0, "", 0, None)
             for j, (a, b) in enumerate(pairs)]
    return graph_view(ids, edges)


@pytest.mark.parametrize("n", [2, 3, 9, 40, 129, 300, 1500])
def test_cdn_matches_per_candidate_reference(n):
    rng = np.random.default_rng(n)
    view = _random_connected_view(rng, n)
    k = min(n, 5)
    uniform = {v: 1.0 for v in view.vertices}  # many exact ties
    sparse = {v: float(rng.uniform(0.0, 4.0)) for v in view.vertices if rng.random() < 0.5}
    sparse[view.vertices[-1]] = 0.5
    dense = {v: float(rng.exponential()) for v in view.vertices}
    single = {view.vertices[n // 2]: 1.0}  # no cache after the first lowers the cost
    for demand in (uniform, sparse, dense, single):
        want_caches, want_cost = _cdn_reference(view, k, demand)
        caches, cost = cdn_place_caches(view, k, demand)
        assert caches == want_caches
        assert cost.hex() == want_cost.hex()


@pytest.mark.parametrize("n, rows", [(40, 1), (40, 3), (129, 7), (300, 299)])
def test_cdn_scored_in_row_blocks_matches_reference(monkeypatch, n, rows):
    """Blocks of ``rows`` candidates, the last one shorter unless rows divides n."""
    monkeypatch.setattr(scenario, "CDN_SCORE_BYTES", 8 * n * rows)
    rng = np.random.default_rng(1000 + n)
    view = _random_connected_view(rng, n)
    for demand in ({v: 1.0 for v in view.vertices},
                   {v: float(rng.exponential()) for v in view.vertices}):
        want_caches, want_cost = _cdn_reference(view, 5, demand)
        caches, cost = cdn_place_caches(view, 5, demand)
        assert caches == want_caches
        assert cost.hex() == want_cost.hex()


def test_replicate_round_robin_balance():
    items = list(range(8))
    nodes = [100, 101, 102, 103]
    placement = replicate_items(items, nodes, 2)
    load = {n: 0 for n in nodes}
    for item, reps in placement.mapping.items():
        assert len(reps) == 2 and len(set(reps)) == 2
        for n in reps:
            load[n] += 1
    assert max(load.values()) - min(load.values()) <= 1


def test_replicate_validation():
    with pytest.raises(ValidationError):
        replicate_items([0], [1, 2], 3)
    assert replicate_items([0, 1], [5], 0).mapping == {0: (), 1: ()}


# -- simulations ------------------------------------------------------------

def test_consistency_path_of_three():
    view = make_view(3, [(0, 1), (1, 2)])
    placement = replicate_items([7], [0, 1, 2], 3)
    res = consistency_sim(placement, view, {7: {0: 5}})
    assert res.rounds == {7: 2}
    assert res.divergent == frozenset()


def test_consistency_already_agreed():
    view = make_view(2, [(0, 1)])
    placement = replicate_items([1], [0, 1], 2)
    assert consistency_sim(placement, view, {}).rounds == {1: 0}


def test_consistency_divergent_replicas():
    view = make_view(4, [(0, 1), (2, 3)])
    placement = replicate_items([1], [0, 2], 2)
    res = consistency_sim(placement, view, {1: {0: 3}})
    assert res.divergent == frozenset({1})
    assert 1 not in res.rounds


def test_consistency_replicas_split_within_one_component():
    """Versions pass only between adjacent replicas: replicas 0 and 2 of a
    connected path 0-1-2 never meet, while 0, 1, 2 agree through 1."""
    view = make_view(3, [(0, 1), (1, 2)])
    placement = scenario.ReplicaPlacement({1: (0, 2), 2: (0, 1, 2)}, 2)
    res = consistency_sim(placement, view, {1: {0: 3}, 2: {0: 3}})
    assert res.divergent == frozenset({1})
    assert res.rounds == {2: 2}


def test_consistency_cli_reports_nonadjacent_replicas(tmp_path):
    from versegraph import cli, io

    graph, params, out = (str(tmp_path / f) for f in ("g.json", "p.json", "c.json"))
    assert cli.run(["gen", "--scenario", "network", "--seed", "1", "--out", graph]) == 0
    io.dump_json({"items": 6, "replication": 2, "updates": {"4": {"4": 1}}}, params)
    assert cli.run(["simulate", "--kind", "consistency", "--in", graph,
                    "--params", params, "--out", out]) == 0
    doc = io.load_json(out)
    assert 4 in doc["divergent"] and "4" not in doc["rounds"]
    assert doc["rounds"]["0"] == 0


def _consistency_reference(placement, topology, updates):
    """The rounds consistency_sim used to run: a DFS for the split test, then
    synchronous rounds in which each replica takes the newest version among
    itself and its adjacent replicas, until all agree."""
    rounds, divergent = {}, set()
    for item, reps in placement.mapping.items():
        rset = set(reps)
        seen = {min(rset)} if rset else set()
        stack = list(seen)
        while stack:
            for u in topology.neighbors(stack.pop(), "both"):
                if u in rset and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) < len(rset):
            divergent.add(item)
            continue
        versions = {v: 0 for v in reps}
        versions.update(updates.get(item, {}))
        rnd = 0
        while len(set(versions.values())) > 1:
            rnd += 1
            versions = {v: max([versions[v]] + [versions[u] for u in topology.neighbors(v, "both")
                                                if u in rset])
                        for v in reps}
        rounds[item] = rnd
    return rounds, frozenset(divergent)


@pytest.mark.parametrize("seed", range(10))
def test_consistency_matches_round_loop_reference(seed):
    # sparse graphs with some directed edges; replicas in any order, some items
    # with none; versions below, at and above the default 0
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 16))
        edges = [(int(u), int(v), 1.0, bool(rng.random() < 0.3))
                 for u, v in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))]
        view = make_view(n, edges)
        mapping = {item: tuple(int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)),
                                                          replace=False))
                   for item in range(6)}
        updates = {item: {v: int(rng.integers(-3, 4)) for v in reps if rng.random() < 0.4}
                   for item, reps in mapping.items() if rng.random() < 0.7}
        placement = scenario.ReplicaPlacement(mapping, 0)
        res = consistency_sim(placement, view, updates)
        assert (res.rounds, res.divergent) == _consistency_reference(placement, view, updates)


@pytest.mark.parametrize("updates, message", [
    ({9: {0: 1}}, "item 9 is not placed"),
    ({1: {1: 2}}, r"nodes \[1\] hold no replica of item 1"),
])
def test_consistency_rejects_updates_that_name_nothing(updates, message):
    view = make_view(3, [(0, 1), (1, 2)])
    placement = scenario.ReplicaPlacement({1: (0, 2), 2: (0, 1, 2)}, 2)
    with pytest.raises(ValidationError, match=message):
        consistency_sim(placement, view, updates)


def test_consensus_k2():
    view = make_view(2, [(0, 1)])
    rounds, value = consensus_sim({0: 0.0, 1: 6.0}, view)
    assert value == pytest.approx(3.0)
    assert rounds == 1  # metropolis weight 1/2 averages a pair in one round


def test_consensus_mean_preserved():
    rng = np.random.default_rng(8)
    g = TemporalMultiLayerGraph()
    layer = gen_social_layer(g, GeneratorConfig(seed=8, users=15))
    view = g.snapshot_at(0).layer_subgraph(layer)
    values = {v: float(rng.normal()) for v in view.vertices}
    rounds, common = consensus_sim(values, view, tol=1e-10)
    assert common == pytest.approx(np.mean(list(values.values())), abs=1e-9)
    assert rounds > 0


def test_consensus_disconnected_rejected():
    view = make_view(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError):
        consensus_sim({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}, view)


def test_consensus_rejects_a_tol_that_is_not_a_finite_number_at_least_0():
    # no spread is within a NaN tol, yet the cap would end the run as a success
    view = make_view(6, [(i, (i + 1) % 6) for i in range(6)])
    values = {v: float(v) for v in range(6)}
    for tol in (float("nan"), float("inf"), -1e-9, True, "1e-9", None):
        with pytest.raises(ValidationError, match="^tol must be a finite number >= 0"):
            consensus_sim(values, view, tol=tol, max_rounds=200_000)
    assert consensus_sim(values, view, tol=0.5)[1] == pytest.approx(2.5)


def _consensus_reference(values, topology, tol):
    """consensus_sim's old pair list: sorted distinct non-loop pairs from the
    edge list, Metropolis weights from recounted degrees."""
    pairs = sorted({(min(e.src, e.dst), max(e.src, e.dst)) for e in topology.edges if e.src != e.dst})
    nbrs = {v: set() for v in topology.vertices}
    for a, b in pairs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    eu = np.array([topology.index[a] for a, _ in pairs], dtype=np.int64)
    ev = np.array([topology.index[b] for _, b in pairs], dtype=np.int64)
    w = np.array([1.0 / (1.0 + max(len(nbrs[a]), len(nbrs[b]))) for a, b in pairs])
    x0 = np.array([float(values[v]) for v in topology.vertices])
    rounds, x = scenario.kernels.consensus_run(eu, ev, w, x0, tol, 1_000_000)
    return int(rounds), float(np.mean(x))


@pytest.mark.parametrize("seed", range(8))
def test_consensus_matches_pair_list_reference(seed):
    # a random spanning tree keeps the view connected; extra edges add
    # parallels, reversed duplicates and self-loops
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    edges += [(int(a), int(b)) for a, b in rng.integers(0, n, size=(n, 2))]
    view = make_view(n, [(b, a) if rng.random() < 0.3 else (a, b) for a, b in edges])
    values = {v: float(x) for v, x in zip(view.vertices, rng.normal(0.0, 5.0, n))}
    assert consensus_sim(values, view, 1e-9) == _consensus_reference(values, view, 1e-9)


def test_consensus_value_coverage():
    view = make_view(2, [(0, 1)])
    with pytest.raises(ValidationError):
        consensus_sim({0: 1.0}, view)


def test_trust_path_directed():
    view = make_view(4, [(0, 1, 1.0, True), (1, 2, 1.0, True), (0, 3, 1.0, True),
                         (3, 2, 1.0, True)])
    assert trust_path(view, 0, 2) == [0, 1, 2]  # smaller-id tie break
    assert trust_path(view, 2, 0) is None
    assert trust_path(view, 0, 0) == [0]


def _trust_path_reference(g, a, b):
    """The level-by-level search trust_path used to run on its own: each vertex
    keeps the first predecessor that reaches it, frontiers in ascending id."""
    prev = {a: -1}
    frontier = [a]
    while frontier and b not in prev:
        nxt = set()
        for u in frontier:
            for w in g.neighbors(u, "out"):
                if w not in prev and w not in nxt:
                    prev[w] = u
                    nxt.add(w)
        frontier = sorted(nxt)
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return list(reversed(path))


@pytest.mark.parametrize("seed", range(12))
def test_trust_path_matches_reference(seed):
    # a seeded random graph, mostly directed edges, plus the isolated vertex n
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 14))
    edges = [(int(u), int(v), 1.0, bool(rng.random() < 0.8))
             for u, v in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))]
    view = make_view(n + 1, edges)
    paths = {(a, b): trust_path(view, a, b) for a in view.vertices for b in view.vertices}
    assert paths == {(a, b): _trust_path_reference(view, a, b) for a, b in paths}
    assert all(paths[a, a] == [a] for a in view.vertices)
    assert all(paths[a, n] is None for a in range(n))


def test_anomaly_star_hub():
    view = make_view(10, [(0, i) for i in range(1, 10)])
    scores, flagged = anomaly_scores(view, 2.5)
    assert scores[0] == pytest.approx(3.0)
    assert flagged == frozenset({0})


def test_anomaly_regular_graph_unflagged():
    view = make_view(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    scores, flagged = anomaly_scores(view, 0.5)
    assert all(s == 0.0 for s in scores.values())
    assert flagged == frozenset()
