import random
import re

import numpy as np
import pytest

from versegraph import netopt
from versegraph.core import EdgeRecord, TemporalMultiLayerGraph
from versegraph.errors import InfeasibleError, ValidationError
from versegraph.netopt import ServerSpec, TaskDag

import netopt_reference as ref
from record_graph import graph_view
from conftest import make_view, oracle_min_cut, oracle_mst_weight, oracle_shortest_weight, random_simple_edges


# -- shortest path ----------------------------------------------------------

def test_shortest_single_edge():
    g = make_view(2, [(0, 1, 5.0)], directed=True)
    res = netopt.shortest_path(g, 0, 1)
    assert res.total_weight == 5.0
    assert res.vertices == (0, 1)


def test_shortest_parallel_edges_pick_cheapest():
    g = make_view(2, [(0, 1, 7.0), (0, 1, 4.0)], directed=True)
    res = netopt.shortest_path(g, 0, 1)
    assert res.total_weight == 4.0
    assert res.edge_ids == (1,)


def test_shortest_unreachable():
    g = make_view(3, [(0, 1)], directed=True)
    with pytest.raises(InfeasibleError):
        netopt.shortest_path(g, 0, 2)


def test_shortest_matches_relaxation_oracle():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 12)
        g = make_view(n, random_simple_edges(n, 0.4, rng, weighted=True))
        for t in range(1, n):
            want = oracle_shortest_weight(g, 0, t)
            if want == float("inf"):
                with pytest.raises(InfeasibleError):
                    netopt.shortest_path(g, 0, t)
            else:
                res = netopt.shortest_path(g, 0, t)
                assert res.total_weight == pytest.approx(want)
                # reported path is consistent
                by_id = {e.id: e for e in g.edges}
                assert sum(by_id[i].weight for i in res.edge_ids) == pytest.approx(res.total_weight)


def test_shortest_never_beaten_by_random_walks():
    rng = random.Random(8)
    n = 8
    g = make_view(n, random_simple_edges(n, 0.6, rng, weighted=True))
    res = netopt.shortest_path(g, 0, n - 1)
    adj = {v: [(e.dst if e.src == v else e.src, e.weight) for e in g.edges if v in (e.src, e.dst)] for v in g.vertices}
    for _ in range(200):
        v, w, seen = 0, 0.0, {0}
        while v != n - 1:
            options = [(u, wt) for u, wt in adj[v] if u not in seen]
            if not options:
                break
            v, wt = options[rng.randrange(len(options))]
            seen.add(v)
            w += wt
        if v == n - 1:
            assert res.total_weight <= w + 1e-9


def test_shortest_path_matches_full_loop():
    """Stopping at t gives the full loop's path on multigraphs with parallel
    edges, self-loops, ties and zero weights, directed, undirected and mixed."""
    rng = random.Random(2024)
    for case in range(300):
        n = rng.randint(1, 14)
        weights = rng.choice([[0.0, 1.0], [1.0], [0.0, 0.5, 1.0, 2.0], [0.25, 0.5, 0.75]])
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            for _ in range(rng.choice([1, 1, 2, 3])):  # parallel copies
                edges.append((u, v, rng.choice(weights), rng.random() < [0, 0.5, 1][case % 3]))
        g = make_view(n, edges)
        for s in rng.sample(range(n), min(n, 3)):
            for t in range(n):
                try:
                    want = ref.shortest_path(g, s, t)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        netopt.shortest_path(g, s, t)
                    continue
                assert netopt.shortest_path(g, s, t) == want


# -- max flow / min cut -----------------------------------------------------

def test_flow_single_edge():
    g = make_view(2, [(0, 1, 7.0)], directed=True)
    res = netopt.max_flow_min_cut(g, 0, 1)
    assert res.value == 7.0
    assert res.cut_edges == {0}


def test_flow_two_disjoint_paths():
    g = make_view(4, [(0, 1, 3.0), (1, 3, 3.0), (0, 2, 2.0), (2, 3, 2.0)], directed=True)
    res = netopt.max_flow_min_cut(g, 0, 3)
    assert res.value == 5.0


def test_flow_disconnected():
    g = make_view(3, [(0, 1, 2.0)], directed=True)
    res = netopt.max_flow_min_cut(g, 0, 2)
    assert res.value == 0.0
    assert res.cut_edges == frozenset()


def test_flow_source_equals_sink():
    with pytest.raises(ValidationError):
        netopt.max_flow_min_cut(make_view(2, [(0, 1)]), 0, 0)


def test_flow_equals_min_cut_and_conservation():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randint(3, 8)
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.35:
                    edges.append((u, v, rng.randint(1, 9), True))
        g = make_view(n, edges, directed=True)
        res = netopt.max_flow_min_cut(g, 0, n - 1)
        assert res.value == pytest.approx(oracle_min_cut(g, 0, n - 1))
        # conservation at interior vertices
        for v in range(1, n - 1):
            inflow = sum(res.flows[e.id] for e in g.edges if e.dst == v)
            outflow = sum(res.flows[e.id] for e in g.edges if e.src == v)
            assert inflow == pytest.approx(outflow)
        # capacity respected; cut capacity equals flow value
        for e in g.edges:
            assert -1e-9 <= res.flows[e.id] <= e.weight + 1e-9
        by_id = {e.id: e for e in g.edges}
        assert sum(by_id[i].weight for i in res.cut_edges) == pytest.approx(res.value)


# -- MST and redundancy -----------------------------------------------------

def test_mst_triangle():
    g = make_view(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
    res = netopt.minimum_spanning_tree(g)
    assert res.total_weight == 3.0
    assert res.edge_ids == (0, 1)


def test_mst_of_tree_is_identity():
    g = make_view(4, [(0, 1, 2.0), (1, 2, 5.0), (1, 3, 1.0)])
    res = netopt.minimum_spanning_tree(g)
    assert set(res.edge_ids) == {0, 1, 2}


def test_mst_disconnected_errors():
    with pytest.raises(ValidationError):
        netopt.minimum_spanning_tree(make_view(4, [(0, 1)]))


def test_mst_matches_enumeration():
    rng = random.Random(13)
    trials = 0
    while trials < 20:
        n = rng.randint(3, 8)
        g = make_view(n, random_simple_edges(n, 0.6, rng, weighted=True))
        try:
            res = netopt.minimum_spanning_tree(g)
        except ValidationError:
            continue
        trials += 1
        assert res.total_weight == pytest.approx(oracle_mst_weight(g))
        assert len(res.edge_ids) == n - 1


def test_augment_cycle_chord_covers_path():
    # C4: tree is the 3-edge path, the remaining edge closes the cycle
    g = make_view(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 5.0)])
    tree = netopt.minimum_spanning_tree(g)
    assert tree.edge_ids == (0, 1, 2)
    aug = netopt.augment_redundancy(g, tree, 1)
    assert aug.backup_edge_ids == (3,)


def test_augment_no_chords():
    g = make_view(3, [(0, 1), (1, 2)])
    tree = netopt.minimum_spanning_tree(g)
    assert netopt.augment_redundancy(g, tree, 3).backup_edge_ids == ()


def test_augment_k_zero():
    g = make_view(3, [(0, 1), (1, 2), (0, 2)])
    tree = netopt.minimum_spanning_tree(g)
    aug = netopt.augment_redundancy(g, tree, 0)
    assert aug.backup_edge_ids == ()
    assert aug.edge_ids == tree.edge_ids


@pytest.mark.parametrize("k, message", [
    (1.5, "k must be an integer, got 1.5"),
    (float("nan"), "k must be an integer, got nan"),
    (True, "k must be an integer, got True"),
    ("2", "k must be an integer, got '2'"),
    (None, "k must be an integer, got None"),
    (-1, "k must be >= 0"),
])
def test_augment_refuses_a_k_that_is_no_count(k, message):
    # three chords that each cover a tree edge: a k read as anything but a
    # count would show in how many come back
    g = make_view(4, [(0, 1), (1, 2), (2, 3), (0, 2, 2.0), (1, 3, 2.0), (0, 3, 2.0)])
    tree = netopt.minimum_spanning_tree(g)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        netopt.augment_redundancy(g, tree, k)


def test_augment_reads_k_as_an_int():
    g = make_view(4, [(0, 1), (1, 2), (2, 3), (0, 2, 2.0), (1, 3, 2.0), (0, 3, 2.0)])
    tree = netopt.minimum_spanning_tree(g)
    got = [netopt.augment_redundancy(g, tree, k).backup_edge_ids for k in (1, np.int64(1), 2)]
    assert got == [(3,), (3,), (3, 4)]


@pytest.mark.parametrize("edges, tree", [
    # C4: too few edges, an id that is no edge of the view, a repeated id
    ([(0, 1), (1, 2), (2, 3), (3, 0)], (0,)),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], (0, 1, 2, 99)),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], (0, 0, 1)),
    # a triangle with a pendant: three edges, but a cycle that misses vertex 3
    ([(0, 1), (1, 2), (2, 0), (2, 3)], (0, 1, 2)),
    ([], ()),
])
def test_augment_refuses_a_tree_that_does_not_span_the_view(edges, tree):
    g = make_view(4, edges)
    with pytest.raises(ValidationError, match="tree must be n - 1 distinct edges"):
        netopt.augment_redundancy(g, netopt.TreeResult(tree, 1.0), 2)


def _tree_path(g, tree_edge_ids, a, b):
    """Edge ids along the unique tree path between a and b."""
    by_id = {e.id: e for e in g.edges}
    adj = {v: [] for v in g.vertices}
    for eid in tree_edge_ids:
        e = by_id[eid]
        adj[e.src].append((e.dst, eid))
        adj[e.dst].append((e.src, eid))
    prev = {a: (None, None)}
    stack = [a]
    while stack:
        u = stack.pop()
        for v, eid in adj[u]:
            if v not in prev:
                prev[v] = (u, eid)
                stack.append(v)
    path = set()
    v = b
    while v != a:
        u, eid = prev[v]
        path.add(eid)
        v = u
    return path


def test_augment_single_failure_resilience():
    rng = random.Random(19)
    for _ in range(10):
        n = rng.randint(4, 9)
        edges = random_simple_edges(n, 0.7, rng, weighted=True)
        g = make_view(n, edges)
        try:
            tree = netopt.minimum_spanning_tree(g)
        except ValidationError:
            continue
        aug = netopt.augment_redundancy(g, tree, n)
        by_id = {e.id: e for e in g.edges}
        kept = set(aug.edge_ids) | set(aug.backup_edge_ids)

        def connected_without(eid):
            adj = {v: set() for v in g.vertices}
            for other in kept - {eid}:
                e = by_id[other]
                adj[e.src].add(e.dst)
                adj[e.dst].add(e.src)
            seen = {g.vertices[0]}
            stack = [g.vertices[0]]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return len(seen) == g.n

        # covered tree edges = those on some selected chord's fundamental
        # cycle; removing any one must leave the kept subgraph connected
        for eid in aug.edge_ids:
            e = by_id[eid]
            on_cycle = any(
                eid in _tree_path(g, aug.edge_ids, by_id[c].src, by_id[c].dst)
                for c in aug.backup_edge_ids
            )
            if on_cycle:
                assert connected_without(eid)


# -- against the record-based oracle ----------------------------------------

def _canon(res):
    """A result with every float as its exact bits, and the flows in order."""
    if isinstance(res, netopt.PathResult):
        return res.total_weight.hex(), res.vertices, res.edge_ids
    if isinstance(res, netopt.FlowCutResult):
        return res.value.hex(), [(i, f.hex()) for i, f in res.flows.items()], sorted(res.cut_edges)
    return res.edge_ids, res.total_weight.hex(), res.backup_edge_ids


def _outcome(fn, *args):
    try:
        return _canon(fn(*args))
    except (ValidationError, InfeasibleError) as exc:
        return type(exc).__name__, str(exc)


def _tree(g):
    try:
        return ref.minimum_spanning_tree(g)
    except ValidationError:
        return None


def _random_view(rng, case):
    """A multigraph on up to 14 vertices whose ids are not their positions,
    with shuffled edge ids: parallel edges, self-loops, zero and tied
    weights; all edges undirected, all directed, or mixed."""
    n = rng.randint(0, 14)
    vids = rng.sample(range(40), n)
    weights = rng.choice([[0.0, 1.0], [1.0], [0.0, 0.5, 1.0, 2.0], [0.1, 0.2, 0.3, 0.7],
                          [round(rng.uniform(0, 5), 2) for _ in range(6)]])
    p_directed = [0, 0.5, 1][case % 3]
    edges = []
    for _ in range(rng.randint(0, 3 * n) if n else 0):
        u, v = rng.choice(vids), rng.choice(vids)
        if rng.random() < 0.1:
            v = u
        for _ in range(rng.choice([1, 1, 2, 3])):  # parallel copies
            edges.append((u, v, rng.choice(weights), rng.random() < p_directed))
    if edges and rng.random() < 0.03:
        u, v, _, d = edges[rng.randrange(len(edges))]
        edges.append((u, v, -1.0, d))
    ids = rng.sample(range(10 * len(edges) + 1), len(edges))
    records = [EdgeRecord(i, u, v, 0, 0, d, w, "", 0, None) for i, (u, v, w, d) in zip(ids, edges)]
    rng.shuffle(records)
    return graph_view(vids, records)


def _check_against_reference(g, rng, pairs=3):
    for _ in range(pairs):
        # -1 is in no view
        s, t = (rng.choice(g.vertices) if g.n and rng.random() > 0.05 else -1 for _ in "st")
        for fn, want in ((netopt.shortest_path, ref.shortest_path),
                         (netopt.max_flow_min_cut, ref.max_flow_min_cut)):
            assert _outcome(fn, g, s, t) == _outcome(want, g, s, t)
    assert _outcome(netopt.minimum_spanning_tree, g) == _outcome(ref.minimum_spanning_tree, g)
    if tree := _tree(g):
        for k in (0, 1, 2, 5, 50):
            assert (_outcome(netopt.augment_redundancy, g, tree, k)
                    == _outcome(ref.augment_redundancy, g, tree, k))


def test_netopt_matches_record_reference():
    """Exactly the oracle's results, float bits and flow order included, and
    its error messages, on 2,000 seeded random multigraphs."""
    rng = random.Random(1406)
    for case in range(2000):
        _check_against_reference(_random_view(rng, case), rng)


def _churned_graph(rng):
    """Two layers, with retired and inter-layer edges and a connected layer 0."""
    g = TemporalMultiLayerGraph()
    la, lb = g.create_layer("a"), g.create_layer("b")
    vs = [g.add_vertex({"r"}, rng.choice([{la}, {lb}, {la, lb}])) for _ in range(12)]
    in_a = [v for v in vs if la in g.vertex_records[v].layers]
    for u, v in zip(in_a, in_a[1:]):
        g.add_edge(u, v, la, la, directed=False, weight=float(rng.choice([1, 2])))
    for _ in range(30):
        u, v = rng.choice(vs), rng.choice(vs)
        lu, lv = (rng.choice(sorted(g.vertex_records[x].layers)) for x in (u, v))
        eid = g.add_edge(u, v, lu, lv, directed=rng.random() < 0.5,
                         weight=rng.choice([0.0, 0.5, 1.5, 3.0]), t_start=rng.randint(0, 2))
        if rng.random() < 0.2:
            g.retire_edge(eid, 3)
    return g, la, lb


def test_netopt_reads_no_records(monkeypatch):
    """On snapshot views, netopt reads only the edge columns: with record
    building patched to raise, it still gives the oracle's results."""
    for seed in range(20):
        rng = random.Random(seed)
        g, la, lb = _churned_graph(rng)
        t = rng.randint(0, 4)
        views = [g.snapshot_at(t).layer_subgraph(la), g.snapshot_at(t).layer_subgraph(lb),
                 g.snapshot_at(t).flatten()]
        records = [graph_view(v.vertices, v.edges) for v in views]
        queries = [(rng.choice(v.vertices), rng.choice(v.vertices)) for v in views]
        trees = list(map(_tree, views))

        def no_records(*args):
            raise AssertionError("netopt read edge records")

        with monkeypatch.context() as m:
            m.setattr(TemporalMultiLayerGraph, "_records_at", no_records)
            snap = g.snapshot_at(t)
            fresh = [snap.layer_subgraph(la), snap.layer_subgraph(lb), snap.flatten()]
            got = [[_outcome(netopt.shortest_path, v, s, u), _outcome(netopt.max_flow_min_cut, v, s, u),
                    _outcome(netopt.minimum_spanning_tree, v)]
                   + ([_outcome(netopt.augment_redundancy, v, tree, 3)] if tree else [])
                   for v, (s, u), tree in zip(fresh, queries, trees)]
        want = [[_outcome(ref.shortest_path, v, s, u), _outcome(ref.max_flow_min_cut, v, s, u),
                 _outcome(ref.minimum_spanning_tree, v)]
                + ([_outcome(ref.augment_redundancy, v, tree, 3)] if tree else [])
                for v, (s, u), tree in zip(records, queries, trees)]
        assert got == want


# -- load balancing ---------------------------------------------------------

def test_weighted_response_symmetric():
    servers = [ServerSpec(0, 100, 1.0), ServerSpec(1, 100, 1.0)]
    assert netopt.balance_weighted_response(10, servers) == {0: 5, 1: 5}


def test_weighted_response_proportional():
    servers = [ServerSpec(0, 100, 1.0), ServerSpec(1, 100, 2.0)]
    assert netopt.balance_weighted_response(9, servers) == {0: 6, 1: 3}


def test_weighted_response_zero_requests():
    servers = [ServerSpec(0, 1, 1.0), ServerSpec(1, 1, 3.0)]
    assert netopt.balance_weighted_response(0, servers) == {0: 0, 1: 0}


def test_weighted_response_rounding_bound():
    rng = random.Random(55)
    for _ in range(30):
        servers = [ServerSpec(i, 100, rng.uniform(0.5, 4.0)) for i in range(rng.randint(1, 5))]
        count = rng.randint(0, 50)
        out = netopt.balance_weighted_response(count, servers)
        assert sum(out.values()) == count
        wsum = sum(1 / s.response_time for s in servers)
        for s in servers:
            share = count * (1 / s.response_time) / wsum
            assert abs(out[s.id] - share) <= 1.0 + 1e-9


def test_weighted_response_empty_servers():
    with pytest.raises(ValidationError):
        netopt.balance_weighted_response(5, [])


@pytest.mark.parametrize("count", [5.5, True, -1, 2 ** 53 + 1, "3", None])
def test_weighted_response_count_is_a_plain_int(count):
    with pytest.raises(ValidationError, match="request_count must be an int"):
        netopt.balance_weighted_response(count, [ServerSpec(0, 1.0, 1.0)])


@pytest.mark.parametrize("times", [[1e-320], [1e-308, 1e-308], [1.0, 1e-320]])
def test_weighted_response_refuses_shares_that_overflow(times):
    servers = [ServerSpec(i, 1.0, t) for i, t in enumerate(times)]
    with pytest.raises(ValidationError, match="response times too small"):
        netopt.balance_weighted_response(5, servers)


@pytest.mark.parametrize("capacity, response_time", [
    (float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("inf")), (1.0, float("nan")),
    pytest.param(10 ** 400, 1.0, id="int-beyond-float"), (True, 1.0), ("1", 1.0), (1.0, None)])
def test_server_spec_numbers_are_finite(capacity, response_time):
    with pytest.raises(ValidationError, match="server 0: .* must be a finite number"):
        ServerSpec(0, capacity, response_time)


def test_resource_based_symmetric():
    servers = [ServerSpec(0, 5.0, 1.0), ServerSpec(1, 5.0, 1.0)]
    out = netopt.balance_resource_based([4.0, 4.0], servers)
    assert sorted(len(v) for v in out.values()) == [1, 1]


def test_resource_based_item_too_large():
    servers = [ServerSpec(0, 5.0, 1.0), ServerSpec(1, 5.0, 1.0)]
    with pytest.raises(InfeasibleError):
        netopt.balance_resource_based([6.0], servers)


def test_resource_based_greedy_infeasible_order():
    # (3,3,3) onto capacities (5,5): greedy fills (3,3) then nothing fits
    servers = [ServerSpec(0, 5.0, 1.0), ServerSpec(1, 5.0, 1.0)]
    with pytest.raises(InfeasibleError):
        netopt.balance_resource_based([3.0, 3.0, 3.0], servers)


def test_resource_based_total_exceeds():
    servers = [ServerSpec(0, 2.0, 1.0)]
    with pytest.raises(InfeasibleError):
        netopt.balance_resource_based([1.5, 1.5], servers)


@pytest.mark.parametrize("demand", [float("nan"), float("inf"), None, "1"])
def test_resource_based_demands_are_finite(demand):
    servers = [ServerSpec(0, 5.0, 1.0)]
    with pytest.raises(ValidationError, match="demand 1 must be a finite number"):
        netopt.balance_resource_based([1.0, demand], servers)


def test_resource_based_respects_capacity():
    rng = random.Random(66)
    for _ in range(20):
        servers = [ServerSpec(i, rng.uniform(5, 15), 1.0) for i in range(3)]
        demands = [rng.uniform(0.5, 4.0) for _ in range(rng.randint(1, 6))]
        try:
            out = netopt.balance_resource_based(demands, servers)
        except InfeasibleError:
            continue
        for s in servers:
            assert sum(demands[i] for i in out[s.id]) <= s.capacity + 1e-9
        assert sorted(i for ids in out.values() for i in ids) == list(range(len(demands)))


# -- task scheduling --------------------------------------------------------

def test_topo_chain():
    d = TaskDag({1: 1.0, 2: 2.0, 3: 3.0}, [(1, 2), (2, 3)])
    order, length, chain = netopt.topo_schedule(d)
    assert order == [1, 2, 3]
    assert length == 6.0
    assert chain == [1, 2, 3]


def test_topo_diamond():
    d = TaskDag({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}, [(0, 1), (0, 2), (1, 3), (2, 3)])
    _, length, chain = netopt.topo_schedule(d)
    assert length == 3.0
    assert chain in ([0, 1, 3], [0, 2, 3])
    assert chain == [0, 1, 3]  # deterministic tie-break by task id


def test_topo_self_loop():
    with pytest.raises(ValidationError):
        netopt.topo_schedule(TaskDag({0: 1.0}, [(0, 0)]))


def test_topo_cycle_reported():
    with pytest.raises(ValidationError) as exc:
        netopt.topo_schedule(TaskDag({0: 1, 1: 1, 2: 1}, [(0, 1), (1, 2), (2, 0)]))
    assert "cycle" in str(exc.value)


def test_topo_critical_matches_enumeration():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(2, 9)
        durations = {i: rng.randint(1, 9) * 1.0 for i in range(n)}
        deps = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        d = TaskDag(durations, deps)
        order, length, chain = netopt.topo_schedule(d)
        pos = {t: i for i, t in enumerate(order)}
        assert all(pos[a] < pos[b] for a, b in deps)
        succ = {t: [b for a, b in deps if a == t] for t in durations}

        def longest(t):
            return durations[t] + max((longest(u) for u in succ[t]), default=0.0)

        assert length == pytest.approx(max(longest(t) for t in durations))
        assert sum(durations[t] for t in chain) == pytest.approx(length)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -float("inf"), None, "1"])
def test_topo_durations_are_finite(duration):
    with pytest.raises(ValidationError, match="task 1: duration must be a finite number"):
        netopt.topo_schedule(TaskDag({0: 1.0, 1: duration}, [(0, 1)]))


def test_topo_critical_length_that_overflows_is_refused():
    with pytest.raises(ValidationError, match="critical path length overflows"):
        netopt.topo_schedule(TaskDag({0: 1e308, 1: 1e308}, [(0, 1)]))
    assert netopt.topo_schedule(TaskDag({0: 1e308, 1: 1e308}, []))[1] == 1e308


# -- queuing ----------------------------------------------------------------

def test_mm1_closed_form():
    assert netopt.mm1_latency(0.0, 1.0) == 1.0
    assert netopt.mm1_latency(2.0, 5.0) == pytest.approx(1 / 3)


def test_mm1_unstable():
    with pytest.raises(ValidationError):
        netopt.mm1_latency(1.0, 1.0)
    with pytest.raises(ValidationError):
        netopt.mm1_latency(2.0, 1.0)


@pytest.mark.parametrize("rates", [(float("nan"), 1.0), (0.5, float("inf")), (0.0, float("nan")),
                                   (float("inf"), float("inf")), ("1", 2.0)])
def test_mm1_rates_are_finite(rates):
    with pytest.raises(ValidationError, match="rate must be a finite number"):
        netopt.mm1_latency(*rates)


def test_mm1_latency_that_overflows_is_refused():
    with pytest.raises(ValidationError, match="overflows"):
        netopt.mm1_latency(0.0, 1e-320)
    assert netopt.mm1_latency(0.0, 2.0 ** -1000) == 2.0 ** 1000
