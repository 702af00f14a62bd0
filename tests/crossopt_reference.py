"""The scalar formulas of the cross-domain model, kept as the oracle for the
compiled form in ``versegraph.crossopt``.

Each coupling term is written out per domain pair, link and node, the way the
model states it, and reads a scenario only through its public fields, with
local id lookups.  ``tests/test_crossopt.py`` checks that the arrays of
``compile_scenario`` (``Q``, ``b``, ``c``) give the same penalty, and that
``auto_coupling`` gives the same edges as :func:`auto_coupling_pairs`, the
pairwise scan it replaced.  :func:`coordinate_polish` is the polish step as
first written, a grid scan; it is now a bound, not a byte reference: the
exact coordinate ascent of ``crossopt._coordinate_polish`` must score no
lower from the same point, up to rounding.  :func:`penalized` and
:func:`penalized_grad` read one of the two outputs of
``CompiledScenario.scores``, for the one-start ascent in
``tests/test_crossopt.py``.
"""

from __future__ import annotations

import math

import numpy as np


def utility(d, r: float) -> float:
    """Sigmoid utility; 0.5 at the midpoint, saturating in floating point."""
    z = -d.gamma * (r - d.lam)
    if z > 700:
        return math.exp(-z)  # underflow-safe tail
    return 1.0 / (1.0 + math.exp(z))


def _links(scenario) -> dict:
    return {l.id: l for l in scenario.links}


def _index(scenario) -> dict:
    return {d.id: i for i, d in enumerate(scenario.domains)}


def domain_node_coeff(scenario, node, did: str) -> float:
    """Total routing coefficient of a domain over a node's incident links."""
    links = _links(scenario)
    return sum(links[l].coeffs.get(did, 0.0) for l in node.incident)


def node_etx_const(scenario, node, m: str, n: str) -> float:
    """eps_tx * d^2 of the lowest-id incident link that carries either domain.

    This is the energy rule the optimizer ships: one link's distance per node
    and domain pair, not a sum over the node's incident links.
    """
    links = _links(scenario)
    carrying = sorted(
        l for l in node.incident
        if links[l].coeffs.get(m, 0.0) > 0 or links[l].coeffs.get(n, 0.0) > 0
    )
    if not carrying:
        return 0.0
    d = node.incident[carrying[0]]
    return node.eps_tx * d * d


def phi_link(m: str, n: str, r, scenario) -> float:
    """Flow-product contention over links shared by both domains."""
    assert m != n
    index = _index(scenario)
    total = 0.0
    for l in scenario.links:
        am, an = l.coeffs.get(m, 0.0), l.coeffs.get(n, 0.0)
        if am > 0 and an > 0:
            total += (am * r[index[m]]) * (an * r[index[n]]) / l.capacity
    return total


def phi_energy(m: str, n: str, r, scenario) -> float:
    """Energy cost of both domains' flows meeting at shared nodes."""
    assert m != n
    index = _index(scenario)
    total = 0.0
    for nd in scenario.nodes:
        am = domain_node_coeff(scenario, nd, m)
        an = domain_node_coeff(scenario, nd, n)
        if am > 0 and an > 0:
            total += node_etx_const(scenario, nd, m, n) * (am * r[index[m]]) * (an * r[index[n]])
    return total


def phi_utility(dm, dn, rm: float, rn: float) -> float:
    """gamma_m gamma_n (R_m - lambda_m)(R_n - lambda_n)."""
    return dm.gamma * dn.gamma * (rm - dm.lam) * (rn - dn.lam)


def phi_total(edge, r, scenario) -> float:
    """Weighted sum of the three interaction components on one coupling edge."""
    val = edge.w_link * phi_link(edge.m, edge.n, r, scenario)
    val += edge.w_energy * phi_energy(edge.m, edge.n, r, scenario)
    if edge.utility:
        index = _index(scenario)
        i, j = index[edge.m], index[edge.n]
        val += edge.w_util * phi_utility(scenario.domains[i], scenario.domains[j], r[i], r[j])
    return val


def penalty(r, scenario) -> float:
    """The signed coupling penalty that the coupled objective subtracts."""
    return sum(e.sign * phi_total(e, r, scenario) for e in scenario.coupling)


def auto_coupling_pairs(scenario) -> list[tuple[str, str]]:
    """``(m, n)`` for each domain pair, in domain order, that shares a link
    carrying both or a node whose incident links carry both."""
    links = _links(scenario)

    def serves(node, did):
        return any(links[l].coeffs.get(did, 0.0) > 0 for l in node.incident)

    def shares(m, n):
        link = any(l.coeffs.get(m, 0.0) > 0 and l.coeffs.get(n, 0.0) > 0 for l in scenario.links)
        return link or any(serves(nd, m) and serves(nd, n) for nd in scenario.nodes)

    ids = [d.id for d in scenario.domains]
    return [(m, n) for i, m in enumerate(ids) for n in ids[i + 1:] if shares(m, n)]


def penalized(cs, R, coupled: bool, mu: float):
    """The penalized objective of each allocation, from ``cs.scores``."""
    return cs.scores(R, coupled, mu)[0][..., 2]


def penalized_grad(cs, R, coupled: bool, mu: float):
    """The penalized gradient of each allocation, from ``cs.scores``."""
    return cs.scores(R, coupled, mu)[1]


def _scan_grid(cs, coupled, r, k, grid, best_v):
    """Coordinate k over ``grid``: every allocation of the batch evaluated by
    ``cs.value``, then scanned in order for the last value to beat the
    running best by more than 1e-15."""
    batch = np.repeat(r[None, :], len(grid), axis=0)
    batch[:, k] = grid
    winner = r[k]
    for x, v in zip(grid.tolist(), cs.value(batch, coupled).tolist()):
        if v > best_v + 1e-15:
            winner, best_v = x, v
    return winner, best_v


def coordinate_polish(cs, coupled: bool, r, sweeps: int = 3):
    """``sweeps`` full per-coordinate sweeps, with no early stop: a coarse
    2001-point grid over the feasible interval of each coordinate, then a
    201-point grid one coarse step either side of its winner.  Its value is
    the lower bound the exact polish is checked against."""
    lo, hi = cs.lo, cs.hi
    r = r.copy()
    for _ in range(sweeps):
        for k in range(len(r)):
            upper = hi[k]
            if coupled:
                on = cs.A[:, k] > 0
                if on.any():
                    a = cs.A[on, k]
                    rest = cs.flows(r)[on] - a * r[k]
                    upper = min(upper, np.min((cs.C[on] - rest) / a))
            upper = max(upper, lo[k])
            r[k], best_v = _scan_grid(cs, coupled, r, k, np.linspace(lo[k], upper, 2001), -math.inf)
            span = (upper - lo[k]) / 2000 if upper > lo[k] else 0.0
            if span > 0:
                fine = np.linspace(max(lo[k], r[k] - span), min(upper, r[k] + span), 201)
                r[k], _ = _scan_grid(cs, coupled, r, k, fine, best_v)
    return r
