import numpy as np
import pytest

from versegraph import scenario
from versegraph.core import TemporalMultiLayerGraph
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

from conftest import make_view


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
