import hashlib
import json
import math
import random

import numpy as np
import pytest

from versegraph import cli, crossopt, io
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

import crossopt_reference as ref
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

def _utilities(d, xs):
    """``d``'s compiled utilities at each of ``xs``."""
    cs = crossopt.compile_scenario(Scenario([d]))
    return cs.utilities(np.asarray(xs, dtype=float)[:, None])[:, 0]


def _penalty(s, r):
    """The coupled penalty R^T Q R + b^T R + c of the compiled scenario."""
    cs = crossopt.compile_scenario(s)
    return float(r @ cs.Q @ r + cs.b @ r + cs.c)


def test_utility_midpoint_and_monotone():
    d = DomainSpec("a", 2.0, 1.0, 0.0, 5.0)
    assert ref.utility(d, 1.0) == 0.5
    assert ref.utility(d, 2.0) == pytest.approx(1 / (1 + math.exp(-2)))
    grid = np.linspace(-5, 5, 50)
    vals = [ref.utility(d, x) for x in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)
    assert _utilities(d, grid).tolist() == pytest.approx(vals, rel=1e-12, abs=0)


def test_utility_saturation():
    d = DomainSpec("a", 1.0, 0.0, 0.0, 1.0)
    assert ref.utility(d, -30.0) < 1e-12
    assert ref.utility(d, 30.0) > 1 - 1e-12
    # past an exponent of 700 both take exp(-z), not 1/(1 + exp(700))
    xs = [-30.0, 30.0, -699.0, -705.0]
    got = _utilities(d, xs)
    assert got.tolist() == pytest.approx([ref.utility(d, x) for x in xs], rel=1e-12, abs=0)
    assert got[3] == pytest.approx(math.exp(-705.0), rel=1e-12)


def test_link_flow_and_feasible():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    cs = crossopt.compile_scenario(s)
    r = np.array([2.0, 3.0])
    assert cs.flows(r).tolist() == [5.0]
    assert cs.excess(r).tolist() == [-5.0]
    assert cs.max_violation(r) == 0.0


def test_link_flow_zero_coeffs():
    s = two_domain(links=[SharedLink("l", 1.0, {"a": 0.0, "b": 0.0})])
    cs = crossopt.compile_scenario(s)
    r = np.array([9.0, 9.0])
    assert cs.flows(r).tolist() == [0.0]
    assert cs.max_violation(r) == 0.0


def test_feasible_violation_excess():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 2.0, "b": 0.0})], bounds=(0.0, 9.0))
    cs = crossopt.compile_scenario(s)
    r = np.array([6.0, 9.0])
    assert cs.excess(r).tolist() == [pytest.approx(2.0)]
    assert crossopt.max_violation(s, r) == pytest.approx(2.0)


def test_phi_link_shared():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    r = np.array([2.0, 3.0])
    assert ref.phi_link("a", "b", r, s) == pytest.approx(0.6)
    assert ref.phi_link("b", "a", r, s) == ref.phi_link("a", "b", r, s)
    assert _penalty(s, r) == pytest.approx(0.6, abs=1e-12)


def test_phi_link_no_shared_links():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 0.0})],
                   coupling=[CouplingEdge("a", "b")])
    r = np.array([5.0, 5.0])
    assert ref.phi_link("a", "b", r, s) == 0.0
    assert _penalty(s, r) == 0.0


def test_phi_energy_one_shared_node():
    link = SharedLink("l", 100.0, {"a": 1.0, "b": 1.0})
    # eps_tx * d^2 = 0.4 -> d=2, eps_tx=0.1
    node = SharedNode("n", 0.1, 0.0, {"l": 2.0})
    s = two_domain(links=[link], nodes=[node], bounds=(0.0, 9.0),
                   coupling=[CouplingEdge("a", "b", w_link=0.0)])
    for r, want in (([2.0, 3.0], 0.4 * 2.0 * 3.0), ([0.0, 3.0], 0.0)):
        r = np.array(r)
        assert ref.phi_energy("a", "b", r, s) == pytest.approx(want)
        assert _penalty(s, r) == pytest.approx(want, abs=1e-12)


def test_phi_energy_no_shared_nodes():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})],
                   coupling=[CouplingEdge("a", "b", w_link=0.0)])
    r = np.array([1.0, 1.0])
    assert ref.phi_energy("a", "b", r, s) == 0.0
    assert _penalty(s, r) == 0.0


def test_phi_utility():
    dm = DomainSpec("a", 1.0, 1.0, 0.0, 5.0)
    dn = DomainSpec("b", 1.0, 2.0, 0.0, 5.0)
    assert ref.phi_utility(dm, dn, 1.0, 4.0) == 0.0
    assert ref.phi_utility(dm, dn, 3.0, 5.0) == pytest.approx(6.0)
    # one factor below its midpoint flips the sign
    assert ref.phi_utility(dm, dn, 0.0, 5.0) < 0
    s = Scenario([dm, dn], coupling=[CouplingEdge("a", "b", utility=True)])
    for r in ([1.0, 4.0], [3.0, 5.0], [0.0, 5.0]):
        assert _penalty(s, np.array(r)) == pytest.approx(ref.phi_utility(dm, dn, *r), abs=1e-12)


def test_phi_total_components():
    link = SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})
    node = SharedNode("n", 0.1, 0.0, {"l": 2.0})
    s = two_domain(gamma=(1.0, 1.0), lam=(1.0, 1.0), links=[link], nodes=[node],
                   bounds=(0.0, 9.0), coupling=[CouplingEdge("a", "b", utility=True)])
    r = np.array([2.0, 3.0])
    edge = s.coupling[0]
    expect = (
        ref.phi_link("a", "b", r, s)
        + ref.phi_energy("a", "b", r, s)
        + ref.phi_utility(s.domains[0], s.domains[1], 2.0, 3.0)
    )
    assert ref.phi_total(edge, r, s) == pytest.approx(expect)
    assert _penalty(s, r) == pytest.approx(expect, abs=1e-12)
    proj = CouplingEdge("a", "b", utility=True, w_energy=0.0, w_util=0.0)
    s2 = two_domain(links=[link], nodes=[node], bounds=(0.0, 9.0), coupling=[proj])
    assert ref.phi_total(s2.coupling[0], r, s2) == pytest.approx(ref.phi_link("a", "b", r, s2))
    assert _penalty(s2, r) == pytest.approx(ref.phi_link("a", "b", r, s2), abs=1e-12)


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
    e = s.coupling[0]
    rev = CouplingEdge("b", "a", utility=True)
    assert ref.phi_total(e, r, s) == pytest.approx(ref.phi_total(rev, r, s))
    s_rev = two_domain(links=[link], nodes=[node], bounds=(0.0, 9.0), coupling=[rev])
    assert _penalty(s_rev, r) == pytest.approx(_penalty(s, r), abs=1e-12)
    assert _penalty(s, r) == pytest.approx(ref.phi_total(e, r, s), abs=1e-12)


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


def test_optimize_and_compare_reject_a_seed_that_is_not_a_non_negative_integer():
    s = crossopt.demo_scenario()
    for seed, message in [(-1, "^seed must be a non-negative integer"),
                          (1.5, "^seed must be an integer"), (True, "^seed must be an integer"),
                          ("3", "^seed must be an integer")]:
        with pytest.raises(ValidationError, match=message):
            crossopt.optimize(s, "coupled", seed=seed)
        with pytest.raises(ValidationError, match=message):
            crossopt.compare(s, seed=seed)
    assert np.array_equal(crossopt.optimize(s, "coupled", seed=np.int64(9)),
                          crossopt.optimize(s, "coupled", seed=9))


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
    for role in ("router", "server", "storage-node"):
        snap, shared, u, v, *_ = _snapshot_with_shared(role)
        edges = crossopt.derive_coupling(snap, {"m": {u, shared}, "n": {v, shared}})
        assert edges == [CouplingEdge("m", "n")]


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


def _random_coupling_case(rng):
    """A scenario for the coupling scan: 1-5 domains in shuffled id order,
    0-4 links over random members with some zero coefficients, and 0-2
    nodes over random links, possibly none."""
    ids = [f"d{i}" for i in range(rng.randint(1, 5))]
    rng.shuffle(ids)
    links = [SharedLink(f"l{li}", 1.0, {d: rng.choice([0.0, 0.5, 1.0])
                                        for d in rng.sample(ids, rng.randint(0, len(ids)))})
             for li in range(rng.randint(0, 4))]
    nodes = [SharedNode(f"n{ni}", 0.1, 0.0,
                        {l.id: 1.0 for l in rng.sample(links, rng.randint(0, len(links)))})
             for ni in range(rng.randint(0, 2))]
    return Scenario([DomainSpec(d, 1.0, 1.0, 0.0, 1.0) for d in ids], links, nodes)


def test_auto_coupling_matches_pairwise_scan():
    rng = random.Random(20260)
    cases = [_random_coupling_case(rng) for _ in range(600)]
    # the shapes the one-pass scan must get right
    assert any(a == 0.0 for s in cases for l in s.links for a in l.coeffs.values())
    assert any(not nd.incident for s in cases for nd in s.nodes)
    assert any(len(s.domains) == 1 for s in cases)
    assert any(not s.links for s in cases)
    assert any(s.nodes and len(ref.auto_coupling_pairs(s)) > 1 for s in cases)
    for s in cases:
        want = [CouplingEdge(m, n) for m, n in ref.auto_coupling_pairs(s)]
        assert auto_coupling(s) == want, s


# -- compiled form ----------------------------------------------------------

def test_coupling_change_is_seen_by_next_call():
    s = two_domain(links=[SharedLink("l", 10.0, {"a": 1.0, "b": 1.0})])
    r = np.array([1.0, 2.0])
    coupled = crossopt.objective(r, s, "coupled")
    assert coupled < crossopt.objective(r, s, "isolated")
    s.coupling = []
    assert crossopt.objective(r, s, "coupled") == crossopt.objective(r, s, "isolated")
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
    assert any(len({frozenset((e.m, e.n)) for e in s.coupling}) < len(s.coupling) for s in cases)
    assert any(len(s.domains) == 1 and not s.links for s in cases)


@pytest.mark.parametrize("case", range(5))
def test_compiled_form_matches_phi_reference(case):
    s = _differential_cases()[case]
    K = len(s.domains)
    index = {d.id: i for i, d in enumerate(s.domains)}
    rng = np.random.default_rng(case)
    # the penalty is quadratic with no square terms, so the oracle at 0, the
    # unit vectors and their pairwise sums gives c, b and Q entry by entry
    cs = crossopt.compile_scenario(s)
    eye = np.eye(K)
    c = ref.penalty(np.zeros(K), s)
    lin = [ref.penalty(eye[k], s) - c for k in range(K)]
    assert cs.c == pytest.approx(c, abs=1e-12)
    assert np.allclose(cs.b, lin, rtol=0, atol=1e-12)
    assert not np.diag(cs.Q).any()
    for i in range(K):
        for j in range(i + 1, K):
            q = ref.penalty(eye[i] + eye[j], s) - lin[i] - lin[j] - c
            assert 2 * cs.Q[i, j] == pytest.approx(q, abs=1e-12)
    for _ in range(16):
        r = rng.uniform(0.0, 4.0, size=K)
        utils = np.array([ref.utility(d, r[i]) for i, d in enumerate(s.domains)])
        pen = ref.penalty(r, s)
        assert crossopt.objective(r, s, "isolated") == pytest.approx(utils.sum(), abs=1e-12)
        assert crossopt.objective(r, s, "coupled") == pytest.approx(utils.sum() - pen, abs=1e-12)
        # the penalty is affine in each coordinate, so a unit step is its exact partial
        dpen = np.array([ref.penalty(r + np.eye(K)[k], s) - pen for k in range(K)])
        gamma = np.array([d.gamma for d in s.domains])
        dutil = gamma * utils * (1.0 - utils)
        assert np.allclose(crossopt.gradient(r, s, "isolated"), dutil, rtol=0, atol=1e-12)
        assert np.allclose(crossopt.gradient(r, s, "coupled"), dutil - dpen, rtol=0, atol=1e-12)
        per_link = [sum(a * r[index[k]] for k, a in l.coeffs.items()) - l.capacity
                    for l in s.links]
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


def test_one_domain_utilities_match_the_batch_bitwise():
    """The polish evaluates only the moving coordinate's utility along a grid;
    it must hold the bits that column of a whole-batch evaluation holds,
    through the exp(-z) tail past z = 700 as well."""
    rng = np.random.default_rng(8)
    K = 9
    s = Scenario([DomainSpec(f"d{k}", float(g), float(l), -400.0, 400.0) for k, (g, l) in
                  enumerate(zip(rng.uniform(0.1, 3.0, K), rng.uniform(-2.0, 2.0, K)))])
    cs = crossopt.compile_scenario(s)
    for n in (1, 7, 201, 2001):
        R = rng.uniform(-400.0, 400.0, size=(n, K)) * rng.choice([1e-3, 1.0, 1.0], size=(n, 1))
        u = cs.utilities(R)
        assert (u == 0.0).any() or n < 201
        for k in range(K):
            assert cs.utilities(R[:, k].copy(), k).tobytes() == u[:, k].tobytes()


def test_phi_energy_uses_lowest_id_carrying_link_only():
    """Pins the shipped energy rule on a node with two incident links.

    Per node and domain pair the term is eps_tx d^2 of the lowest-id incident
    link that carries either domain (here l1, d=2), times the two domains'
    routing coefficients summed over the node's incident links; eps_rx and
    the other links' distances do not enter it.
    """
    links = [SharedLink("l1", 100.0, {"a": 1.0, "b": 0.0}),
             SharedLink("l2", 100.0, {"a": 0.5, "b": 2.0})]
    node = SharedNode("n", 0.1, 0.05, {"l2": 3.0, "l1": 2.0})
    s = two_domain(links=links, nodes=[node], bounds=(0.0, 9.0),
                   coupling=[CouplingEdge("a", "b", w_link=0.0)])
    r = np.array([1.0, 2.0])
    assert ref.node_etx_const(s, node, "a", "b") == pytest.approx(0.1 * 4.0)
    # eps_tx d(l1)^2 * (1.0 + 0.5) r_a * 2.0 r_b
    assert ref.phi_energy("a", "b", r, s) == pytest.approx(0.1 * 4.0 * 1.5 * 1.0 * 2.0 * 2.0)
    assert _penalty(s, r) == pytest.approx(2.4, abs=1e-12)
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
                g = ref.penalized_grad(cs, r, coupled, mu)
                base = ref.penalized(cs, r, coupled, mu)
                step = 1.0
                moved = False
                for _ in range(40):
                    cand = np.minimum(np.maximum(r + step * g, lo), hi)
                    if ref.penalized(cs, cand, coupled, mu) > base + 1e-15:
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



def _scenario_doc(s):
    """``s`` as a scenario file with ``"coupling": "auto"``."""
    return {
        "domains": [{"id": d.id, "gamma": d.gamma, "lambda": d.lam, "r_min": d.r_min,
                     "r_max": d.r_max} for d in s.domains],
        "links": [{"id": l.id, "capacity": l.capacity, "coeffs": dict(l.coeffs)} for l in s.links],
        "nodes": [{"id": n.id, "eps_tx": n.eps_tx, "eps_rx": n.eps_rx,
                   "incident": [{"link": l, "distance": d} for l, d in n.incident.items()]}
                  for n in s.nodes],
        "coupling": "auto",
    }


# sha256 of the report and the isolated and coupled trace CSVs that
# `versegraph optimize --mode both --seed <seed>` writes for `_k8_scenario(seed)`
# and for the demo scenario, written when every start scored all 40 halvings
# in every iteration of the ascent; ("k8", 7919) was written again when the
# polish became exact, since its coupled optimum lies inside a feasible interval
OPTIMIZE_SHA256 = {
    ("k8", 1): ("e3e9e884230daa75aecb5f66d432ab0b6394e6cafba38a31f42a649183d258e1",
               "2e2832b5cf0c7ae0dae75d28f17160b3da61b14f708328bd607d90bf206e0656",
               "a9d2a34c45f2b70f426643fc71a9fea8fe9aad19a7b1b49a3de9e00ae3b50a79"),
    ("k8", 2): ("e6e51dfe91bedcd3608c9b34b605e2ab30c92affc43abd9f540cf9a4e7c6ee94",
               "fd5beddc8949e05946c860d49fa5ecb23af3e7884d721ecd6ab3ca549e133227",
               "da435e0a36f640ee1cf2a46411120596b8d7b00e149bd3e3e09e453564ccb9e0"),
    ("k8", 3): ("9bf8c5739f8fc0fc086efbfabcbf1ca4b80ccbabd4dc088161a7dea55a19d984",
               "897d419e6d90c9487e93989ae2a1e63adac3c1d68aacbc4169b32cb1019573c4",
               "fc57deee75db7cb2ecf38b77b354638cfaa62c20db90fdfc92f618ba2c3e8a06"),
    ("k8", 4): ("42bff93dfe0a5d47a0250a109c4f7333b073f02e25e012abd16891fcd42988aa",
               "ed59bed5d879ccf5dfe93b234ea7a7856df56465df2a2eeb5af07e5d737423cc",
               "3ce4a4161c04a44d9c606eacf85c57b21fbd5d6da10202f3970b08d19cc6efff"),
    ("k8", 5): ("2beb8f5a02b1a6fb658b654be9c987244699625e6a1b27af22df3fe0c8b2436c",
               "f58ef4043a00d2921795a827da2680d2dd4ef7e89aba73b4040db456b32bf8a7",
               "dc1a1a4012970474713ce8676f8e02629fe12b6654579a929d19d2ea0b93962a"),
    ("k8", 6): ("32667551f5beaf49340a768dc2809d048daa8cb72d05bf9b78e3c2a55fb5af06",
               "ca123db7ce4ed3e2bf4a9a6e3810aa8172e6a0763bc873c4d999b5939bee3da9",
               "ad15e222aa24cca0accaf8bc9c18d965e86ddc81577a876d0d9ec244a953368b"),
    ("k8", 7): ("a7a2b2596c3e6347cc1a5cbfcca252efc17336948a7bfdda4ab18e8b5afea245",
               "66046b980e1df74da4cfa4b66d1c827ffc010006a6997406ff8b98b8ae5ae7eb",
               "8dac682efab2560c55578c7fd5cac5c94a652540f53ff06d64661ddb4ab52ce3"),
    ("k8", 8): ("1d8e797c7f9fff8ac85b2da2e8df98438b10fed9bdeea48809fecea137fb7995",
               "dd175865b29ea941ba355739d23c6e72a000d1bf49af5ee90ced97c9f5c00258",
               "a0200ea7b31da7f1e5663dc1c6f228bf7d1df88773e9c4f61b0073ab5a02253c"),
    ("k8", 9): ("99249c3a4e198c6a1ffe02c8a28c60912e2a0cb32599f2d86a5b33297d92997c",
               "50ea6cdbafda86db8dc82db91254afbf0e3f5e52c07143166834be84c737fdbf",
               "f5b700d23a1f613f3bd188a5c5911039cd93ae5ac38f7a2ca1cc3cddbd0c45e8"),
    ("k8", 10): ("b43f2c2b2ba92944451ad628287469341ff075541054af51226c26c1ab811e63",
                "8b0c6b5bd332c6c0767d19da60b45426e3f97680ac5efe402466a65a357e9cfd",
                "fe53eac627da871452348eaece2f1ca708bbc0c55481a2137fe1ecd3a801016e"),
    ("k8", 7919): ("a161ee5f592407621f34d7c096955d96a477fd14d3c3ab8631d5a6ba24457300",
                  "ec2bd698f566ab52c56db8eaeaf41860ea64dcff48628f87e36fefad158050b8",
                  "522665efd33f90b1f9737b51b8146bf28b84117bdbff10551d03dac26f666787"),
    ("demo", 1): ("fd6522428fdb251af0af945c881cc7c9408dcae28e43bbf88b89b106f20b9d7d",
                 "b00017bd1dcd3f11913b978cacc6d317a13dd0428d2244b144f7be313251fb68",
                 "e02d68d5194ba2a6c533adb1c63e6326f6d35b3a4485b35bb39ecbeb50dfcf15"),
    ("demo", 7919): ("486850e1c2c4f6e62d803479751a00a02e21aa0cce28764c9b7c361975783350",
                    "fb6a598039fb2c5d97d892d675bf16e385c34ce027a46e5e0f3b307ed60861ab",
                    "a778b9f506511ebec23f482d15923e0e2c4e9cba1cd820a280275f76375c9a4a"),
}


@pytest.mark.parametrize("name, seed", sorted(OPTIMIZE_SHA256))
def test_optimize_bytes_pinned(tmp_path, name, seed):
    s = _k8_scenario(seed) if name == "k8" else crossopt.demo_scenario()
    path, out = tmp_path / "s.json", tmp_path / "o.json"
    path.write_text(json.dumps(_scenario_doc(s)))
    assert cli.run(["optimize", "--scenario", str(path), "--mode", "both",
                    "--seed", str(seed), "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((tmp_path / f"o.json{suffix}").read_bytes()).hexdigest()
                for suffix in ("", ".trace_isolated.csv", ".trace_coupled.csv"))
    assert got == OPTIMIZE_SHA256[name, seed]

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


def test_optimize_rejects_scenario_with_no_finite_start():
    # the coupling terms are finite, but R^T Q R overflows everywhere in the box
    s = two_domain(bounds=(1e200, 2e200), utility=True)
    assert np.isfinite(crossopt.optimize(s, "isolated", seed=0)).all()
    with pytest.raises(ValidationError, match="finite"):
        crossopt.optimize(s, "coupled", seed=0)


# -- the ascent's work ------------------------------------------------------

@pytest.mark.parametrize("mode", ["isolated", "coupled"])
def test_ascent_scores_only_the_steps_it_takes(monkeypatch, mode):
    """The ascent scores the full step of each moving start, and halvings
    only after a failed full step that moved the point, not all 40 step
    sizes of every start.

    On this case every step taken is a full step, and each start ends each
    round with a failed full step that leaves its point as it was; each of
    its 39 halvings would leave the point as it was too, so none is scored.
    Scoring a step yields its gradient, so no gradient is taken on its own:
    each row of ``_grad`` is a row of ``scores``.
    """
    s = _k8_scenario(1)
    monkeypatch.setattr(crossopt, "_coordinate_polish", lambda cs, coupled, r: r)
    rows = {"scores": 0, "value": 0, "_grad": 0, "steps": 0, "halvings": 0}

    def counting(name, method):
        def wrapped(self, R, *args, **kwargs):
            rows[name] += int(np.prod(np.shape(R)[:-1]))
            if name == "scores" and np.ndim(R) == 4:  # (starts, halvings, 1, K)
                rows["halvings"] += int(np.prod(np.shape(R)[:-1]))
            return method(self, R, *args, **kwargs)
        return wrapped

    cls = crossopt.CompiledScenario
    for name in ("scores", "value", "_grad"):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    # the reference scores one (K,) row for its gradient per start per iteration
    monkeypatch.setattr(ref, "penalized_grad", counting("steps", ref.penalized_grad))
    _reference_optimize(s, mode, 1)
    steps = rows["steps"]
    rows.update(scores=0, value=0, _grad=0)
    crossopt.optimize(s, mode, 1)
    S, rounds = crossopt.MULTI_STARTS, crossopt.PENALTY_ROUNDS
    assert steps > 40 * S
    assert rows["halvings"] == 0
    assert rows["_grad"] == rows["scores"]
    # a row per iteration of each start, S rows where a round starts and for
    # the final pick, and the returned point
    assert steps <= rows["scores"] + rows["value"] <= steps + S * (rounds + 1) + 1


# -- the polish -----------------------------------------------------------------

def _k64_scenario(seed):
    """64 domains, 48 links of three random domains each, no nodes, auto
    coupling; each link's capacity is half its joint demand."""
    rng = np.random.default_rng(seed)
    ids = [f"d{i}" for i in range(64)]
    domains = [DomainSpec(d, rng.uniform(2.0, 2.5), rng.uniform(1.5, 2.5), 0.0, 4.0) for d in ids]
    links = []
    for li in range(48):
        coeffs = {ids[i]: float(rng.uniform(0.5, 1.5)) for i in rng.choice(64, 3, replace=False)}
        links.append(SharedLink(f"l{li}", 2.0 * sum(coeffs.values()), coeffs))
    s = Scenario(domains, links)
    s.coupling = auto_coupling(s)
    return s


def _random_polish_case(rng):
    """A random scenario with K = 2-16 domains, 1-K links and 0-2 nodes."""
    K = int(rng.integers(2, 17))
    return _random_scenario(rng, K, int(rng.integers(1, K + 1)), int(rng.integers(0, 3)))


def _polish_case(name, seed):
    if name == "demo":
        return crossopt.demo_scenario()
    if name == "random":
        return _random_polish_case(np.random.default_rng(seed))
    return (_k8_scenario if name == "k8" else _k64_scenario)(seed)


def _polished(s, seed):
    """(cs, coupled, the ascent's end, the polished point) of each mode of
    ``compare(s, seed)``, isolated first."""
    polish = crossopt._coordinate_polish
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossopt, "_coordinate_polish", lambda cs, coupled, r: seen.append(
            (cs, coupled, r.copy(), polish(cs, coupled, r))) or seen[-1][3])
        crossopt.compare(s, seed)
    assert [coupled for _, coupled, _, _ in seen] == [False, True]
    return seen


def _assert_polish_bound(cs, coupled, r, got):
    """The polished point is in the box, feasible in coupled mode, and scores
    no lower than three full sweeps of the grid reference from the same point,
    up to rounding."""
    assert ((cs.lo <= got) & (got <= cs.hi)).all()
    if coupled:
        assert cs.max_violation(got) <= crossopt.FEASIBILITY_TOL
    v = float(cs.value(got, coupled))
    want = float(cs.value(ref.coordinate_polish(cs, coupled, r), coupled))
    assert v >= want - 1e-12 * max(1.0, abs(v)), (v, want)


@pytest.mark.parametrize("name, seed", [*(("k8", sd) for sd in (*range(1, 11), 7919)),
                                        ("demo", 1), ("demo", 7919), ("k64", 1)])
def test_polish_matches_three_full_sweeps(name, seed):
    """The exact polish reaches at least the value of three full sweeps over
    the reference's grids, on the point the ascent ends at in each mode.  On
    ``k64-1`` coupled, three exact sweeps stop short of the grid reference by
    1.1e-11 relative; sweeping to the fixed point ends above it."""
    for case in _polished(_polish_case(name, seed), seed):
        _assert_polish_bound(*case)


@pytest.mark.parametrize("name, seeds", [*(("random", range(i, 200, 4)) for i in range(4)),
                                         ("k64", [2]), ("k64", [3])],
                         ids=["random-0", "random-1", "random-2", "random-3", "k64-2", "k64-3"])
def test_polish_reaches_the_grid_reference(name, seeds):
    """As above, on 200 random scenarios with K = 2-16 (50 per case) and on
    two more K = 64 ones."""
    for seed in seeds:
        for case in _polished(_polish_case(name, seed), seed):
            _assert_polish_bound(*case)


def _feasible_upper(cs, coupled, r, k):
    """The upper end of coordinate k's feasible interval, as the polish takes it."""
    upper = cs.hi[k]
    on = cs.A[:, k] > 0
    if coupled and on.any():
        a = cs.A[on, k]
        upper = min(upper, np.min((cs.C[on] - (cs.flows(r)[on] - a * r[k])) / a))
    return max(upper, cs.lo[k])


@pytest.mark.parametrize("mode", ["isolated", "coupled"])
@pytest.mark.parametrize("name, seed", [*(("k8", sd) for sd in (*range(1, 11), 7919)),
                                        ("demo", 1), *(("random", sd) for sd in range(200, 206))])
def test_polish_is_exact_along_each_coordinate(name, seed, mode):
    """No point of a dense 1e5-point scan of any coordinate's feasible
    interval scores above the returned point, up to rounding."""
    s = _polish_case(name, seed)
    coupled = mode == "coupled"
    cs = crossopt.compile_scenario(s)
    r = crossopt.optimize(s, mode, seed)
    v = float(cs.value(r, coupled))
    for k in range(len(r)):
        batch = np.repeat(r[None, :], 100_000, axis=0)
        batch[:, k] = np.linspace(cs.lo[k], _feasible_upper(cs, coupled, r, k), 100_000)
        assert v >= cs.value(batch, coupled).max() - 1e-12 * max(1.0, abs(v)), k


def test_compiled_q_is_symmetric_with_a_zero_diagonal():
    """The closed form of the polish step needs Q_kk = 0: the coupled
    objective along one coordinate is then a utility minus a linear term."""
    rng = np.random.default_rng(9)
    cases = [*(_random_polish_case(rng) for _ in range(40)), *_differential_cases(),
             *(_k8_scenario(sd) for sd in (*range(1, 11), 7919)),
             *(_k64_scenario(sd) for sd in (1, 2, 3)), crossopt.demo_scenario()]
    edges = [e for s in cases for e in s.coupling]
    assert any(e.utility for e in edges) and any(e.sign < 0 for e in edges)
    for s in cases:
        Q = crossopt.compile_scenario(s).Q
        assert (Q == Q.T).all()
        assert (np.diag(Q) == 0.0).all()


def _coordinate_calls(monkeypatch):
    best = crossopt._coordinate_best
    calls = []
    monkeypatch.setattr(crossopt, "_coordinate_best", lambda *a: calls.append(a[3]) or best(*a))
    return calls


def test_polish_sweeps_once_where_the_ascent_ends_at_its_fixed_point(monkeypatch):
    """On this case the first sweep leaves the ascent's point unchanged in
    both modes: K coordinate steps per mode."""
    s = _k8_scenario(1)
    calls = _coordinate_calls(monkeypatch)
    for mode in ("isolated", "coupled"):
        calls.clear()
        crossopt.optimize(s, mode, 1)
        assert calls == list(range(8))


def test_polish_stops_at_its_fixed_point_before_the_sweep_cap(monkeypatch):
    """``k8-7919`` coupled moves for many sweeps, yet its last sweep leaves
    the point's bytes unchanged well before POLISH_SWEEPS runs out."""
    calls = _coordinate_calls(monkeypatch)
    crossopt.optimize(_k8_scenario(7919), "coupled", 7919)
    sweeps, rest = divmod(len(calls), 8)
    assert rest == 0 and 3 < sweeps < crossopt.POLISH_SWEEPS
