import json
import math

import numpy as np
import pytest

from versegraph import crossopt, io
from versegraph.core import TemporalMultiLayerGraph
from versegraph.crossopt import (
    CouplingEdge,
    DomainSpec,
    Scenario,
    SharedLink,
    SharedNode,
    auto_coupling,
)
from versegraph.errors import InfeasibleError, ValidationError

from conftest import grid_search_two_domain


def two_domain(gamma=(1.0, 1.0), lam=(1.0, 1.0), bounds=(0.0, 2.0), links=(), nodes=(),
               coupling="auto", utility=False):
    domains = [
        DomainSpec("a", gamma[0], lam[0], bounds[0], bounds[1]),
        DomainSpec("b", gamma[1], lam[1], bounds[0], bounds[1]),
    ]
    s = Scenario(domains, list(links), list(nodes), [])
    if coupling == "auto":
        s.coupling = auto_coupling(s)
        if utility:
            s.coupling = [CouplingEdge(e.m, e.n, True) for e in s.coupling] or [
                CouplingEdge("a", "b", True)
            ]
    else:
        s.coupling = list(coupling)
    return s


# -- model pieces -----------------------------------------------------------

def test_utility_midpoint_and_monotone():
    d = DomainSpec("a", 2.0, 1.0, 0.0, 5.0)
    assert crossopt.utility(d, 1.0) == 0.5
    assert crossopt.utility(d, 2.0) == pytest.approx(1 / (1 + math.exp(-2)))
    grid = np.linspace(-5, 5, 50)
    vals = [crossopt.utility(d, x) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_utility_saturation():
    d = DomainSpec("a", 1.0, 0.0, 0.0, 1.0)
    assert crossopt.utility(d, -30.0) < 1e-12
    assert crossopt.utility(d, 30.0) > 1 - 1e-12


def test_link_flow_and_feasible():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    r = np.array([2.0, 3.0])
    assert crossopt.link_flow(s.links[0], s, r) == 5.0
    ok, violations = crossopt.feasible(s, r)
    assert ok and violations == []


def test_link_flow_zero_coeffs():
    s = two_domain(links=[SharedLink("l", 1.0, {"a": 0.0, "b": 0.0})])
    ok, _ = crossopt.feasible(s, np.array([9.0, 9.0]))
    assert crossopt.link_flow(s.links[0], s, np.array([9.0, 9.0])) == 0.0
    assert ok


def test_feasible_violation_excess():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 2.0, "b": 0.0})], bounds=(0.0, 9.0))
    ok, violations = crossopt.feasible(s, np.array([6.0, 9.0]))
    assert not ok
    assert violations == [("l", pytest.approx(2.0))]


def test_node_energy():
    link = SharedLink("l", 100.0, {"a": 1.0, "b": 0.0})
    node = SharedNode("n", 0.1, 0.05, {"l": 2.0})
    s = two_domain(links=[link], nodes=[node], bounds=(0.0, 9.0))
    # flow 5 over one link at distance 2
    e = crossopt.node_energy(node, s, np.array([5.0, 0.0]))
    assert e == pytest.approx((0.1 * 4 + 0.05) * 5.0)
    assert crossopt.node_energy(node, s, np.array([0.0, 0.0])) == 0.0


def test_node_energy_linear_in_flow():
    link1 = SharedLink("l", 100.0, {"a": 1.0, "b": 2.0})
    link2 = SharedLink("l2", 100.0, {"a": 2.0, "b": 4.0})
    node = SharedNode("n", 0.3, 0.2, {"l": 1.5})
    s1 = two_domain(links=[link1], nodes=[node], bounds=(0.0, 9.0))
    s2 = two_domain(links=[link2], nodes=[SharedNode("n", 0.3, 0.2, {"l2": 1.5})], bounds=(0.0, 9.0))
    r = np.array([1.0, 2.0])
    assert crossopt.node_energy(s2.nodes[0], s2, r) == pytest.approx(
        2 * crossopt.node_energy(s1.nodes[0], s1, r)
    )


def test_phi_link_shared():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    r = np.array([2.0, 3.0])
    assert crossopt.phi_link("a", "b", r, s) == pytest.approx(0.6)
    assert crossopt.phi_link("b", "a", r, s) == crossopt.phi_link("a", "b", r, s)


def test_phi_link_no_shared_links():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 0.0})])
    assert crossopt.phi_link("a", "b", np.array([5.0, 5.0]), s) == 0.0


def test_phi_energy_one_shared_node():
    link = SharedLink("l", 100.0, {"a": 1.0, "b": 1.0})
    # eps_tx * d^2 = 0.4 -> d=2, eps_tx=0.1
    node = SharedNode("n", 0.1, 0.0, {"l": 2.0})
    s = two_domain(links=[link], nodes=[node], bounds=(0.0, 9.0))
    r = np.array([2.0, 3.0])
    assert crossopt.phi_energy("a", "b", r, s) == pytest.approx(0.4 * 2.0 * 3.0)
    assert crossopt.phi_energy("a", "b", np.array([0.0, 3.0]), s) == 0.0


def test_phi_energy_no_shared_nodes():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    assert crossopt.phi_energy("a", "b", np.array([1.0, 1.0]), s) == 0.0


def test_phi_utility():
    dm = DomainSpec("a", 1.0, 1.0, 0.0, 5.0)
    dn = DomainSpec("b", 1.0, 2.0, 0.0, 5.0)
    assert crossopt.phi_utility(dm, dn, 1.0, 4.0) == 0.0
    assert crossopt.phi_utility(dm, dn, 3.0, 5.0) == pytest.approx(6.0)
    # one factor below its midpoint flips the sign
    assert crossopt.phi_utility(dm, dn, 0.0, 5.0) < 0


def test_phi_total_components():
    link = SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})
    node = SharedNode("n", 0.1, 0.0, {"l": 2.0})
    s = two_domain(gamma=(1.0, 1.0), lam=(1.0, 1.0), links=[link], nodes=[node],
                   bounds=(0.0, 9.0), coupling=[CouplingEdge("a", "b", utility=True)])
    r = np.array([2.0, 3.0])
    edge = s.resolved_coupling()[0]
    expect = (
        crossopt.phi_link("a", "b", r, s)
        + crossopt.phi_energy("a", "b", r, s)
        + crossopt.phi_utility(s.domains[0], s.domains[1], 2.0, 3.0)
    )
    assert crossopt.phi_total(edge, r, s) == pytest.approx(expect)
    proj = CouplingEdge("a", "b", utility=True, w_energy=0.0, w_util=0.0)
    s2 = two_domain(links=[link], nodes=[node], bounds=(0.0, 9.0), coupling=[proj])
    assert crossopt.phi_total(s2.resolved_coupling()[0], r, s2) == pytest.approx(
        crossopt.phi_link("a", "b", r, s2)
    )


def test_objective_single_domain_modes_agree():
    s = Scenario([DomainSpec("a", 1.0, 0.0, 0.0, 10.0)], [], [], [])
    r = np.array([3.0])
    assert crossopt.objective(r, s, "isolated") == crossopt.objective(r, s, "coupled")


def test_objective_empty_coupling_equivalence():
    s = two_domain(links=[SharedLink("l", 50.0, {"a": 1.0, "b": 1.0})], coupling=[])
    for r in (np.array([0.3, 1.7]), np.array([1.1, 0.2])):
        assert crossopt.objective(r, s, "coupled") == crossopt.objective(r, s, "isolated")


def test_objective_two_domain_hand_evaluation():
    s = two_domain(gamma=(1.0, 2.0), lam=(0.5, 1.5),
                   links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    r = np.array([1.0, 2.0])
    u = 1 / (1 + math.exp(-0.5)) + 1 / (1 + math.exp(-1.0))
    assert crossopt.objective(r, s, "isolated") == pytest.approx(u)
    assert crossopt.objective(r, s, "coupled") == pytest.approx(u - 1.0 * 2.0 / 10.0)


def test_phi_total_symmetry():
    link = SharedLink("l", 10.0, {"a": 1.5, "b": 0.7})
    node = SharedNode("n", 0.2, 0.1, {"l": 1.3})
    s = two_domain(links=[link], nodes=[node], bounds=(0.0, 9.0),
                   coupling=[CouplingEdge("a", "b", utility=True)])
    r = np.array([1.2, 2.7])
    e = s.resolved_coupling()[0]
    rev = CouplingEdge("b", "a", utility=True, shared_links=e.shared_links,
                       shared_nodes=e.shared_nodes)
    assert crossopt.phi_total(e, r, s) == pytest.approx(crossopt.phi_total(rev, r, s))


# -- gradient ---------------------------------------------------------------

def test_gradient_at_midpoint():
    s = two_domain(gamma=(2.0, 3.0), lam=(1.0, 1.0))
    g = crossopt.gradient(np.array([1.0, 1.0]), s, "isolated")
    assert g == pytest.approx([2.0 / 4, 3.0 / 4])


def test_gradient_empty_coupling_diagonal():
    s = two_domain(coupling=[])
    base = crossopt.gradient(np.array([0.5, 1.5]), s, "coupled")
    moved = crossopt.gradient(np.array([0.5, 0.2]), s, "coupled")
    assert base[0] == moved[0]  # coordinate 0 untouched by coordinate 1


def _rich_scenario():
    links = [
        SharedLink("l1", 6.0, {"a": 1.0, "b": 0.8}),
        SharedLink("l2", 9.0, {"a": 0.5, "b": 0.0}),
    ]
    nodes = [SharedNode("n1", 0.05, 0.02, {"l1": 1.5, "l2": 2.0})]
    return two_domain(gamma=(1.3, 0.8), lam=(0.7, 1.2), bounds=(0.0, 2.0),
                      links=links, nodes=nodes,
                      coupling=[CouplingEdge("a", "b", utility=True)])


@pytest.mark.parametrize("mode", ["isolated", "coupled"])
def test_gradient_matches_central_differences(mode):
    s = _rich_scenario()
    rng = np.random.default_rng(2024)
    h = 1e-5
    for _ in range(100):
        r = rng.uniform(0.1, 1.9, size=2)
        g = crossopt.gradient(r, s, mode)
        for k in range(2):
            rp, rm = r.copy(), r.copy()
            rp[k] += h
            rm[k] -= h
            fd = (crossopt.objective(rp, s, mode) - crossopt.objective(rm, s, mode)) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(g[k] - fd) / denom <= 1e-6


# -- optimization -----------------------------------------------------------

def test_optimize_single_domain_hits_upper_bound():
    s = Scenario([DomainSpec("a", 1.0, 0.0, 0.0, 10.0)], [], [], [])
    r = crossopt.optimize(s, "coupled", seed=1)
    assert r[0] == pytest.approx(10.0, abs=1e-6)


def test_optimize_empty_coupling_modes_agree():
    rng = np.random.default_rng(7)
    for trial in range(5):
        gamma = rng.uniform(0.5, 2.5, 2)
        lam = rng.uniform(0.3, 1.7, 2)
        s = two_domain(gamma=tuple(gamma), lam=tuple(lam), coupling=[])
        ri = crossopt.optimize(s, "isolated", seed=trial)
        rc = crossopt.optimize(s, "coupled", seed=trial)
        assert np.allclose(ri, rc, atol=1e-4)


def test_optimize_matches_grid_oracle():
    s = crossopt.demo_scenario()
    # shrink to a grid-searchable box
    small = Scenario(
        [DomainSpec(d.id, d.gamma, d.lam, 0.0, 2.0) for d in s.domains],
        [SharedLink("backbone", 2.0, {"compute": 1.0, "content": 1.0})],
        [], [],
    )
    small.coupling = auto_coupling(small)
    for mode in ("isolated", "coupled"):
        want_r, want_v = grid_search_two_domain(small, mode)
        got = crossopt.optimize(small, mode, seed=3)
        assert np.allclose(got, want_r, atol=5e-3), (mode, got, want_r)
        assert crossopt.objective(got, small, mode) == pytest.approx(want_v, abs=1e-4)


def test_optimize_feasibility_and_bounds():
    s = crossopt.demo_scenario()
    r = crossopt.optimize(s, "coupled", seed=5)
    lo, hi = s.bounds()
    assert np.all(r >= lo) and np.all(r <= hi)
    assert crossopt.max_violation(s, r) <= 1e-6


def test_optimize_infeasible_scenario():
    domains = [DomainSpec("a", 1.0, 0.0, 2.0, 5.0)]
    links = [SharedLink("l", 1.0, {"a": 1.0})]  # flow at lower bound is 2 > 1
    s = Scenario(domains, links, [], [])
    with pytest.raises(InfeasibleError):
        crossopt.optimize(s, "coupled", seed=0)


def test_optimize_deterministic():
    s = crossopt.demo_scenario()
    r1 = crossopt.optimize(s, "coupled", seed=9)
    r2 = crossopt.optimize(s, "coupled", seed=9)
    assert np.array_equal(r1, r2)


# -- compare ----------------------------------------------------------------

def test_compare_demo_gap_and_feasibility():
    rep = crossopt.compare(crossopt.demo_scenario(), seed=0)
    assert rep.gap > 0.01
    s = crossopt.demo_scenario()
    assert crossopt.max_violation(s, np.array(rep.r_isolated)) > 0
    assert crossopt.max_violation(s, np.array(rep.r_coupled)) <= 1e-6
    assert min(rep.slack_isolated.values()) < 0
    assert min(rep.slack_coupled.values()) >= -1e-6


def test_compare_empty_coupling_gap_small():
    s = two_domain(coupling=[])
    rep = crossopt.compare(s, seed=2)
    assert abs(rep.gap) <= 1e-6


def test_compare_recomputable_objectives():
    s = crossopt.demo_scenario()
    rep = crossopt.compare(s, seed=4)
    for tag, r in (("isolated_optimum", rep.r_isolated), ("coupled_optimum", rep.r_coupled)):
        for mode in ("isolated", "coupled"):
            assert rep.objectives[tag][mode] == pytest.approx(
                crossopt.objective(np.array(r), s, mode), abs=1e-9
            )


def test_compare_bitwise_deterministic():
    a = io.report_to_dict(crossopt.compare(crossopt.demo_scenario(), seed=11))
    b = io.report_to_dict(crossopt.compare(crossopt.demo_scenario(), seed=11))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_gap_nonnegative_across_scenarios():
    rng = np.random.default_rng(42)
    for trial in range(5):
        gamma = rng.uniform(0.8, 2.5, 2)
        lam = rng.uniform(0.4, 1.6, 2)
        cap = rng.uniform(1.5, 3.5)
        s = two_domain(gamma=tuple(gamma), lam=tuple(lam),
                       links=[SharedLink("l", cap, {"a": 1.0, "b": 1.0})])
        rep = crossopt.compare(s, seed=trial)
        assert rep.gap >= -1e-9


# -- coupling derivation from a snapshot ------------------------------------

def _snapshot_with_shared(role):
    g = TemporalMultiLayerGraph()
    net = g.create_layer("network")
    com = g.create_layer("compute")
    shared = g.add_vertex({role}, {net, com})
    u = g.add_vertex({"user"}, {net})
    v = g.add_vertex({"user"}, {com})
    return g.snapshot_at(0), shared, u, v, net, com


def test_derive_coupling_disjoint_empty():
    snap, shared, u, v, *_ = _snapshot_with_shared("router")
    edges = crossopt.derive_coupling(snap, {"m": {u}, "n": {v}})
    assert edges == []


def test_derive_coupling_shared_router_and_server():
    snap, shared, u, v, *_ = _snapshot_with_shared("router")
    edges = crossopt.derive_coupling(snap, {"m": {u, shared}, "n": {v, shared}})
    assert len(edges) == 1 and edges[0].shared_links == (str(shared),)
    snap, shared, u, v, *_ = _snapshot_with_shared("server")
    edges = crossopt.derive_coupling(snap, {"m": {u, shared}, "n": {v, shared}})
    assert len(edges) == 1 and edges[0].shared_nodes == (str(shared),)


def test_derive_coupling_inter_layer_utility_flag():
    g = TemporalMultiLayerGraph()
    net = g.create_layer("network")
    con = g.create_layer("content")
    u = g.add_vertex({"user"}, {net})
    c = g.add_vertex({"content-item"}, {con})
    g.add_edge(u, c, net, con)
    edges = crossopt.derive_coupling(g.snapshot_at(0), {"m": {u}, "n": {c}})
    assert len(edges) == 1 and edges[0].utility


def test_derive_coupling_rejects_shared_owned_vertex():
    snap, shared, u, v, *_ = _snapshot_with_shared("user")
    with pytest.raises(ValidationError):
        crossopt.derive_coupling(snap, {"m": {u, shared}, "n": {v, shared}})


# -- scenario validation ----------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ValidationError):
        DomainSpec("a", 0.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValidationError):
        DomainSpec("a", 1.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValidationError):
        SharedLink("l", 0.0, {})
    with pytest.raises(ValidationError):
        SharedNode("n", -0.1, 0.0, {})
    with pytest.raises(ValidationError):
        Scenario([DomainSpec("a", 1, 0, 0, 1)], [SharedLink("l", 1.0, {"zz": 1.0})], [], [])


@pytest.mark.parametrize("make", [
    lambda: DomainSpec("a", float("nan"), 1.0, 0.0, 2.0),
    lambda: DomainSpec("a", 1.0, float("inf"), 0.0, 2.0),
    lambda: DomainSpec("a", 1.0, 1.0, float("-inf"), 2.0),
    lambda: DomainSpec("a", 1.0, 1.0, -1e308, 1e308),  # r_max - r_min overflows
    lambda: SharedLink("l", float("inf"), {"a": 1.0}),
    lambda: SharedLink("l", 1.0, {"a": float("nan")}),
    lambda: SharedNode("n", float("nan"), 0.0, {}),
    lambda: SharedNode("n", 0.1, 0.0, {"l": float("inf")}),
    lambda: CouplingEdge("a", "b", w_link=float("nan")),
    lambda: CouplingEdge("a", "b", sign=float("-inf")),
])
def test_non_finite_inputs_rejected(make):
    with pytest.raises(ValidationError, match="must be finite"):
        make()


def test_scenario_rejects_duplicate_link_ids():
    with pytest.raises(ValidationError):
        Scenario([DomainSpec("a", 1, 0, 0, 1)],
                 [SharedLink("l", 1.0, {"a": 1.0}), SharedLink("l", 2.0, {"a": 1.0})])


# -- compiled form ----------------------------------------------------------

def test_coupling_change_is_seen_by_next_call():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    r = np.array([1.0, 2.0])
    coupled = crossopt.objective(r, s, "coupled")
    assert coupled < crossopt.objective(r, s, "isolated")
    s.coupling = []
    assert crossopt.objective(r, s, "coupled") == crossopt.objective(r, s, "isolated")
    assert s.resolved_coupling() == []
    s.coupling = [CouplingEdge("a", "b", w_link=2.0)]
    assert crossopt.objective(r, s, "coupled") == pytest.approx(
        crossopt.objective(r, s, "isolated") - 2.0 * 0.2)


def _random_scenario(rng, K, n_links, n_nodes):
    """Seeded scenario with explicit coupling: random weights and signs, a
    utility edge, and every domain pair of the first link declared twice."""
    ids = [f"d{i}" for i in range(K)]
    domains = [DomainSpec(d, rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5), 0.0, 4.0)
               for d in ids]
    links = []
    for li in range(n_links):
        members = rng.choice(K, size=min(K, 3), replace=False)
        coeffs = {ids[i]: float(rng.uniform(0.2, 1.5)) for i in members}
        if li % 3 == 2:
            coeffs[ids[members[-1]]] = 0.0
        links.append(SharedLink(f"l{li}", rng.uniform(1.0, 6.0), coeffs))
    nodes = []
    for ni in range(n_nodes):
        incident = rng.choice(n_links, size=min(n_links, 2 + ni), replace=False)
        nodes.append(SharedNode(f"n{ni}", rng.uniform(0.01, 0.2), rng.uniform(0.0, 0.1),
                                {f"l{i}": float(rng.uniform(0.5, 3.0)) for i in incident}))
    coupling = []
    for i in range(K):
        for j in range(i + 1, K):
            coupling.append(CouplingEdge(
                ids[i], ids[j], utility=bool(rng.random() < 0.5),
                w_link=rng.uniform(0.2, 2.0), w_energy=rng.uniform(0.2, 2.0),
                w_util=rng.uniform(0.2, 2.0), sign=float(rng.choice([1.0, -1.0]))))
    m, n = list(links[0].coeffs)[:2]
    coupling.append(CouplingEdge(n, m, utility=True, w_link=0.7, sign=-1.0))
    return Scenario(domains, links, nodes, coupling)


def _reference_penalty(r, s):
    total = 0.0
    for e in s.resolved_coupling():
        phi = e.w_link * crossopt.phi_link(e.m, e.n, r, s)
        phi += e.w_energy * crossopt.phi_energy(e.m, e.n, r, s)
        if e.utility:
            i, j = s.index(e.m), s.index(e.n)
            phi += e.w_util * crossopt.phi_utility(s.domains[i], s.domains[j], r[i], r[j])
        total += e.sign * phi
    return total


def _differential_cases():
    rng = np.random.default_rng(20241)
    cases = [_random_scenario(rng, K, L, N) for K, L, N in ((3, 3, 1), (4, 4, 2), (5, 5, 2), (6, 6, 3))]
    cases.append(Scenario([DomainSpec("solo", 1.7, 0.9, 0.0, 3.0)]))
    return cases


def test_differential_cases_cover_every_term():
    cases = _differential_cases()
    edges = [e for s in cases for e in s.coupling]
    assert any(len(nd.incident) >= 2 for s in cases for nd in s.nodes)
    assert any(e.utility for e in edges) and any(e.sign == -1.0 for e in edges)
    assert any(w != 1.0 for e in edges for w in (e.w_link, e.w_energy, e.w_util))
    assert any(len({e.pair() for e in s.coupling}) < len(s.coupling) for s in cases)
    assert any(len(s.domains) == 1 and not s.links for s in cases)


@pytest.mark.parametrize("case", range(5))
def test_compiled_form_matches_phi_reference(case):
    s = _differential_cases()[case]
    K = len(s.domains)
    rng = np.random.default_rng(case)
    for _ in range(16):
        r = rng.uniform(0.0, 4.0, size=K)
        utils = np.array([crossopt.utility(d, r[i]) for i, d in enumerate(s.domains)])
        pen = _reference_penalty(r, s)
        assert crossopt.objective(r, s, "isolated") == pytest.approx(utils.sum(), abs=1e-12)
        assert crossopt.objective(r, s, "coupled") == pytest.approx(utils.sum() - pen, abs=1e-12)
        # the penalty is affine in each coordinate, so a unit step is its exact partial
        dpen = np.array([_reference_penalty(r + np.eye(K)[k], s) - pen for k in range(K)])
        gamma = np.array([d.gamma for d in s.domains])
        dutil = gamma * utils * (1.0 - utils)
        assert np.allclose(crossopt.gradient(r, s, "isolated"), dutil, rtol=0, atol=1e-12)
        assert np.allclose(crossopt.gradient(r, s, "coupled"), dutil - dpen, rtol=0, atol=1e-12)
        per_link = [crossopt.link_flow(l, s, r) - l.capacity for l in s.links]
        assert crossopt.max_violation(s, r) == pytest.approx(max([0.0] + per_link), abs=1e-12)


def test_compiled_batch_matches_single_points():
    s = _differential_cases()[2]
    cs = crossopt.compile_scenario(s)
    assert np.array_equal(cs.Q, cs.Q.T)
    assert not cs.Q.flags.writeable and not cs.A.flags.writeable
    R = np.random.default_rng(3).uniform(0.0, 4.0, size=(64, len(s.domains)))
    for coupled in (False, True):
        batch = cs.value(R, coupled)
        single = np.array([cs.value(r, coupled) for r in R])
        assert np.allclose(batch, single, rtol=0, atol=1e-12)
    assert np.allclose(cs.max_violation(R), [cs.max_violation(r) for r in R], rtol=0, atol=1e-12)


def test_phi_energy_uses_lowest_id_carrying_link_only():
    """Pins the current energy term on a node with two incident links.

    ``_node_etx_const`` takes eps_tx d^2 of the lowest-id incident link that
    carries either domain (here l1, d=2), while ``node_energy`` sums
    (eps_tx d^2 + eps_rx) over every incident link.  This looks suspect, but
    changing it changes optimizer outputs, so the value is pinned as-is.
    """
    links = [SharedLink("l1", 100.0, {"a": 1.0, "b": 0.0}),
             SharedLink("l2", 100.0, {"a": 0.5, "b": 2.0})]
    node = SharedNode("n", 0.1, 0.05, {"l2": 3.0, "l1": 2.0})
    s = two_domain(links=links, nodes=[node], bounds=(0.0, 9.0),
                   coupling=[CouplingEdge("a", "b", w_link=0.0)])
    r = np.array([1.0, 2.0])
    # eps_tx d(l1)^2 * (1.0 + 0.5) r_a * 2.0 r_b
    assert crossopt.phi_energy("a", "b", r, s) == pytest.approx(0.1 * 4.0 * 1.5 * 1.0 * 2.0 * 2.0)
    assert crossopt.objective(r, s, "isolated") - crossopt.objective(r, s, "coupled") == \
        pytest.approx(2.4, abs=1e-12)


# -- batched multi-start ascent ---------------------------------------------

def _halton(i, base):
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _reference_starts(cs, seed):
    K = len(cs.lo)
    shift = np.random.default_rng(seed).random(K)
    primes = crossopt._HALTON_PRIMES
    pts = np.empty((crossopt.MULTI_STARTS, K))
    for s in range(crossopt.MULTI_STARTS):
        for k in range(K):
            u = (_halton(s + 1, primes[k % len(primes)]) + shift[k]) % 1.0
            pts[s, k] = cs.lo[k] + u * (cs.hi[k] - cs.lo[k])
    return pts


def _reference_restore(cs, r):
    lo = cs.lo
    if cs.max_violation(r) <= crossopt.FEASIBILITY_TOL:
        return r
    t_lo, t_hi = 0.0, 1.0
    for _ in range(80):
        t = 0.5 * (t_lo + t_hi)
        if cs.max_violation(lo + t * (r - lo)) <= 0.0:
            t_lo = t
        else:
            t_hi = t
    return lo + t_lo * (r - lo)


def _reference_optimize(scenario, mode, seed):
    """The ascent run one start at a time on (K,) vectors: the reference for
    the batched one in ``crossopt.optimize``.  The polish step is shared."""
    coupled = mode == "coupled"
    cs = crossopt.compile_scenario(scenario)
    lo, hi = cs.lo, cs.hi
    best_r, best_val, best_trace = None, -np.inf, []
    for start in _reference_starts(cs, seed):
        r = start.copy()
        local_trace = []
        it = 0
        for rnd in range(crossopt.PENALTY_ROUNDS):
            mu = crossopt.PENALTY_MU0 * crossopt.PENALTY_GROWTH ** rnd
            for _ in range(crossopt.INNER_ITERS):
                g = cs.penalized_grad(r, coupled, mu)
                base = cs.penalized(r, coupled, mu)
                step = 1.0
                moved = False
                for _ in range(40):
                    cand = np.minimum(np.maximum(r + step * g, lo), hi)
                    if cs.penalized(cand, coupled, mu) > base + 1e-15:
                        r = cand
                        moved = True
                        break
                    step *= 0.5
                it += 1
                local_trace.append((it, float(cs.value(r, coupled)), float(cs.max_violation(r))))
                if not moved or np.linalg.norm(step * g) < 1e-12:
                    break
        if coupled:
            r = _reference_restore(cs, r)
        val = cs.value(r, coupled)
        if val > best_val + 1e-12:
            best_r, best_val, best_trace = r, val, local_trace
    best_r = crossopt._coordinate_polish(cs, coupled, best_r)
    best_trace.append((best_trace[-1][0] + 1 if best_trace else 1,
                       float(cs.value(best_r, coupled)), float(cs.max_violation(best_r))))
    return best_r, best_trace


def _k8_scenario(seed):
    """8 domains, 6 links of three domains each, one node on the first two
    links, auto coupling; each link's capacity is half its joint demand."""
    rng = np.random.default_rng(seed)
    ids = [f"d{i}" for i in range(8)]
    domains = [DomainSpec(d, rng.uniform(2.0, 2.5), rng.uniform(1.5, 2.5), 0.0, 4.0) for d in ids]
    layout = ([0, 1, 4], [4, 6, 7], [1, 3, 4], [0, 4, 5], [2, 6, 7], [2, 4, 7])
    links = []
    for li, members in enumerate(layout):
        coeffs = {ids[i]: float(rng.uniform(0.5, 1.5)) for i in members}
        links.append(SharedLink(f"l{li}", 2.0 * sum(coeffs.values()), coeffs))
    node = SharedNode("n0", rng.uniform(0.01, 0.05), rng.uniform(0.01, 0.05),
                      {l.id: float(rng.uniform(1.0, 3.0)) for l in links[:2]})
    s = Scenario(domains, links, [node])
    s.coupling = auto_coupling(s)
    return s


_BATCH_CASES = [*(f"differential-{i}" for i in range(5)), "demo", "k8", "norm-stop"]


def _batch_case(name):
    if name == "demo":
        return crossopt.demo_scenario()
    if name == "k8":
        return _k8_scenario(5)
    if name == "norm-stop":
        # in coupled mode at seed 19, 15 times a start moves but stops on
        # ||step * g|| < 1e-12 while others go on, which the frozen rows cover
        return _random_scenario(np.random.default_rng(17), 2, 2, 1)
    return _differential_cases()[int(name.split("-")[1])]


@pytest.mark.parametrize("mode", ["isolated", "coupled"])
@pytest.mark.parametrize("name", _BATCH_CASES)
def test_batched_ascent_matches_one_start_reference(name, mode, monkeypatch):
    ascent_ends = []  # the winning start's point as handed to the polish step
    polish = crossopt._coordinate_polish
    monkeypatch.setattr(crossopt, "_coordinate_polish",
                        lambda cs, coupled, r: ascent_ends.append(r.copy()) or polish(cs, coupled, r))
    s = _batch_case(name)
    seed = len(s.domains) + 17
    want_r, want_trace = _reference_optimize(s, mode, seed)
    trace = []
    got_r = crossopt.optimize(s, mode, seed, trace)
    assert ascent_ends[1].tobytes() == ascent_ends[0].tobytes()
    assert got_r.tobytes() == want_r.tobytes()
    assert len(trace) == len(want_trace)
    assert [row[0] for row in trace] == [row[0] for row in want_trace]
    assert np.allclose(np.array(trace)[:, 1:], np.array(want_trace)[:, 1:], rtol=0, atol=1e-12)


def test_restore_feasible_bisects_each_start():
    cs = crossopt.compile_scenario(_k8_scenario(3))
    R = np.random.default_rng(0).uniform(0.0, 4.0, size=(12, 1, 8))
    R[0, 0] = cs.lo  # already feasible, kept as is
    assert (cs.max_violation(R)[1:, 0] > crossopt.FEASIBILITY_TOL).all()
    got = crossopt._restore_feasible(cs, R)
    assert got.shape == R.shape
    for row, r in zip(got[:, 0], R[:, 0]):
        assert row.tobytes() == _reference_restore(cs, r).tobytes()
    assert (cs.max_violation(got)[:, 0] <= 0.0).all()


@pytest.mark.parametrize("K", [1, 2, 8, 13])
def test_start_points_match_scalar_halton(K):
    s = Scenario([DomainSpec(f"d{k}", 1.0, 1.0, -1.0 - k, 2.0 + 0.5 * k) for k in range(K)])
    cs = crossopt.compile_scenario(s)
    for seed in (0, 7919):
        got = crossopt._start_points(cs, seed)
        assert got.tobytes() == _reference_starts(cs, seed).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_optimize_rejects_scenario_with_no_finite_start():
    # the coupling terms are finite, but R^T Q R overflows everywhere in the box
    s = two_domain(bounds=(1e200, 2e200), utility=True)
    assert np.isfinite(crossopt.optimize(s, "isolated", seed=0)).all()
    with pytest.raises(ValidationError, match="finite"):
        crossopt.optimize(s, "coupled", seed=0)
