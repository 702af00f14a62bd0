"""Cross-domain resource allocation.

Each domain k holds a scalar allocation R_k scored by a sigmoid utility
U_k(R_k) = 1/(1 + exp(-gamma_k (R_k - lambda_k))).  Domains interact through
shared links (capacity constraints and a flow-product term), shared nodes
(an energy-product term), and a direct utility-coupling term.  The coupled
objective subtracts these interaction penalties over the coupling graph's
edges; the isolated objective ignores them (and the link constraints), which
is exactly what makes its optimum infeasible when domains contend for a link.

Flows are linear in the allocation: f_{l,k}(R_k) = a_{l,k} * R_k with
per-link routing coefficients a.  The energy term scales with transmission
distance squared (eps_tx d^2); a node's reception cost eps_rx enters no term.

Every interaction term is bilinear in (R_m, R_n), so :func:`compile_scenario`
turns a scenario into arrays once: the coupled objective is exactly
sum_k U_k(R_k) - (R^T Q R + b^T R + c) and the link constraints are A R <= C.
This compiled form is the model's only implementation; the scalar formulas of
the terms that ``Q``, ``b`` and ``c`` collect are kept in the test suite
(``tests/crossopt_reference.py``) as the oracle the arrays must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import SnapshotView
from .errors import InfeasibleError, ValidationError


def _require_finite(owner: str, values: dict[str, float]) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValidationError(f"{owner}: {name} must be finite, got {v!r}")


@dataclass(frozen=True)
class DomainSpec:
    id: str
    gamma: float
    lam: float
    r_min: float
    r_max: float

    def __post_init__(self):
        _require_finite(f"domain {self.id}", {"gamma": self.gamma, "lambda": self.lam,
                                              "r_min": self.r_min, "r_max": self.r_max})
        if self.gamma <= 0:
            raise ValidationError(f"domain {self.id}: gamma must be > 0")
        if self.r_min >= self.r_max:
            raise ValidationError(f"domain {self.id}: r_min must be < r_max")
        if not math.isfinite(self.r_max - self.r_min):
            raise ValidationError(f"domain {self.id}: r_max - r_min must be finite")


@dataclass(frozen=True)
class SharedLink:
    id: str
    capacity: float
    coeffs: dict[str, float]  # domain id -> a_{l,k} >= 0

    def __post_init__(self):
        _require_finite(f"link {self.id}", {"capacity": self.capacity,
                                            **{f"coefficient for {k}": a for k, a in self.coeffs.items()}})
        if self.capacity <= 0:
            raise ValidationError(f"link {self.id}: capacity must be > 0")
        for k, a in self.coeffs.items():
            if a < 0:
                raise ValidationError(f"link {self.id}: coefficient for {k} must be >= 0")


@dataclass(frozen=True)
class SharedNode:
    id: str
    eps_tx: float
    eps_rx: float
    incident: dict[str, float]  # link id -> distance

    def __post_init__(self):
        _require_finite(f"node {self.id}", {"eps_tx": self.eps_tx, "eps_rx": self.eps_rx,
                                            **{f"distance to {l}": d for l, d in self.incident.items()}})
        if self.eps_tx < 0 or self.eps_rx < 0:
            raise ValidationError(f"node {self.id}: energy coefficients must be >= 0")
        for l, d in self.incident.items():
            if d <= 0:
                raise ValidationError(f"node {self.id}: distance to {l} must be > 0")


@dataclass(frozen=True)
class CouplingEdge:
    m: str
    n: str
    utility: bool = False
    w_link: float = 1.0
    w_energy: float = 1.0
    w_util: float = 1.0
    sign: float = 1.0  # +1 subtracts phi as a penalty; -1 reverses

    def __post_init__(self):
        _require_finite(f"coupling edge ({self.m}, {self.n})",
                        {"w_link": self.w_link, "w_energy": self.w_energy,
                         "w_util": self.w_util, "sign": self.sign})

    def pair(self) -> frozenset[str]:
        return frozenset((self.m, self.n))


@dataclass
class Scenario:
    domains: list[DomainSpec]
    links: list[SharedLink] = field(default_factory=list)
    nodes: list[SharedNode] = field(default_factory=list)
    coupling: list[CouplingEdge] = field(default_factory=list)

    def __post_init__(self):
        ids = [d.id for d in self.domains]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate domain ids")
        for what, items in (("link", self.links), ("node", self.nodes)):
            if len({x.id for x in items}) != len(items):
                raise ValidationError(f"duplicate {what} ids")
        known = set(ids)
        for l in self.links:
            unknown = set(l.coeffs) - known
            if unknown:
                raise ValidationError(f"link {l.id} references unknown domains {sorted(unknown)}")
        link_ids = {l.id for l in self.links}
        for nd in self.nodes:
            missing = set(nd.incident) - link_ids
            if missing:
                raise ValidationError(f"node {nd.id} references unknown links {sorted(missing)}")
        for e in self.coupling:
            if e.m not in known or e.n not in known or e.m == e.n:
                raise ValidationError(f"bad coupling edge ({e.m}, {e.n})")

    @property
    def domain_ids(self) -> list[str]:
        return [d.id for d in self.domains]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([d.r_min for d in self.domains], dtype=float)
        hi = np.array([d.r_max for d in self.domains], dtype=float)
        return lo, hi


def auto_coupling(scenario: Scenario) -> list[CouplingEdge]:
    """One coupling edge per domain pair that shares a link or a node, in
    domain order.  A link is shared by the domains it carries (coefficient
    > 0), a node by every domain that one of its incident links carries."""
    index = {d.id: i for i, d in enumerate(scenario.domains)}
    carries = {l.id: {_lookup(index, k, "domain") for k, a in l.coeffs.items() if a > 0}
               for l in scenario.links}
    groups = [*carries.values(), *(set().union(*(_lookup(carries, l, "link") for l in nd.incident))
                                   for nd in scenario.nodes)]
    pairs = sorted({(m, n) for g in groups for m in g for n in g if m < n})
    return [CouplingEdge(scenario.domains[m].id, scenario.domains[n].id) for m, n in pairs]


# ---------------------------------------------------------------------------
# Compiled form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledScenario:
    """A scenario as read-only arrays over its K domains and L links.

    The coupled objective is sum_k U_k(R_k) - (R^T Q R + b^T R + c), with
    every coupling edge's sign and weights folded into ``Q``, ``b`` and ``c``;
    the link constraints are A R <= C.  Each method takes one allocation of
    shape (K,) or a batch of shape (P, K) and reduces over the last axis.
    """

    gamma: np.ndarray  # (K,)
    lam: np.ndarray  # (K,)
    lo: np.ndarray  # (K,) lower bounds r_min
    hi: np.ndarray  # (K,) upper bounds r_max
    Q: np.ndarray  # (K, K), symmetric
    b: np.ndarray  # (K,)
    c: float
    A: np.ndarray  # (L, K) routing coefficients a_{l,k}
    C: np.ndarray  # (L,) capacities

    def __post_init__(self):
        for arr in (self.gamma, self.lam, self.lo, self.hi, self.Q, self.b, self.A, self.C):
            arr.setflags(write=False)

    def utilities(self, R: np.ndarray, k: int | slice = slice(None)) -> np.ndarray:
        """Sigmoid utilities of domains ``k``; exp(-z) where z = gamma (lambda - R) passes 700."""
        z = self.gamma[k] * (self.lam[k] - R)
        u = 1.0 / (1.0 + np.exp(np.minimum(z, 700.0)))
        tail = z > 700.0
        if tail.any():
            u[tail] = np.exp(-z[tail])
        return u

    def value(self, R: np.ndarray, coupled: bool, u: Optional[np.ndarray] = None) -> np.ndarray:
        v = (self.utilities(R) if u is None else u).sum(-1)
        if coupled:
            v = v - (((R @ self.Q) * R).sum(-1) + R @ self.b + self.c)
        return v

    def grad(self, R: np.ndarray, coupled: bool) -> np.ndarray:
        u = self.utilities(R)
        g = self.gamma * u * (1.0 - u)
        if coupled:
            g = g - (2.0 * (R @ self.Q) + self.b)
        return g

    def flows(self, R: np.ndarray) -> np.ndarray:
        return R @ self.A.T

    def excess(self, R: np.ndarray) -> np.ndarray:
        """Flow minus capacity on every link; positive entries are violations."""
        return self.flows(R) - self.C

    def max_violation(self, R: np.ndarray) -> np.ndarray:
        return self.excess(R).max(-1, initial=0.0)

    def scores(self, R: np.ndarray, coupled: bool, mu: float) -> np.ndarray:
        """Objective, max violation and penalized objective of each allocation,
        stacked on a new last axis.  The penalty, mu times the squared link
        excess, applies in coupled mode only."""
        v = self.value(R, coupled)
        excess = self.excess(R)
        over = np.maximum(excess, 0.0)
        pen = v - mu * (over * over).sum(-1) if coupled else v
        return np.stack([v, excess.max(-1, initial=0.0), pen], axis=-1)

    def penalized(self, R: np.ndarray, coupled: bool, mu: float) -> np.ndarray:
        return self.scores(R, coupled, mu)[..., 2]

    def penalized_grad(self, R: np.ndarray, coupled: bool, mu: float) -> np.ndarray:
        g = self.grad(R, coupled)
        if coupled:
            g = g - 2.0 * mu * (np.maximum(self.excess(R), 0.0) @ self.A)
        return g


def _lookup(table: dict, key: str, what: str):
    try:
        return table[key]
    except KeyError:
        raise ValidationError(f"unknown {what} {key}") from None


def _energy_coeffs(scenario: Scenario, A: np.ndarray, link_row: dict[str, int]) -> np.ndarray:
    """(K, K) energy coefficient of every domain pair, summed over the nodes.

    For a pair (m, n) and a node this is eps_tx d^2 of the lowest-id incident link
    carrying either domain, times each domain's total routing coefficient over
    the node's incident links (``phi_energy`` in ``tests/crossopt_reference.py``).
    """
    K = A.shape[1]
    E = np.zeros((K, K))
    for nd in scenario.nodes:
        lids = sorted(nd.incident)
        if not lids:
            continue
        rows = A[[_lookup(link_row, l, "link") for l in lids]]
        carried = rows > 0
        # index into lids of each domain's lowest-id carrying link; len(lids) if none
        first = np.where(carried.any(axis=0), carried.argmax(axis=0), len(lids))
        etx = np.array([nd.eps_tx * nd.incident[l] * nd.incident[l] for l in lids] + [0.0])
        coef = rows.sum(axis=0)
        E += etx[np.minimum.outer(first, first)] * np.outer(coef, coef)
    return E


@np.errstate(over="ignore", invalid="ignore")
def compile_scenario(scenario: Scenario) -> CompiledScenario:
    """Collect a scenario's bounds, links and coupling terms into arrays.

    Raises ValidationError when ``Q``, ``b`` or ``c`` overflows to a
    non-finite value, as finite but huge coefficients can make them.
    """
    index = {d.id: i for i, d in enumerate(scenario.domains)}
    link_row = {l.id: i for i, l in enumerate(scenario.links)}
    K = len(scenario.domains)
    gamma = np.array([d.gamma for d in scenario.domains], dtype=float)
    lam = np.array([d.lam for d in scenario.domains], dtype=float)
    lo, hi = scenario.bounds()
    A = np.zeros((len(scenario.links), K))
    for li, l in enumerate(scenario.links):
        for did, a in l.coeffs.items():
            A[li, _lookup(index, did, "domain")] = a
    C = np.array([l.capacity for l in scenario.links], dtype=float)
    P = A.T @ (A / C[:, None])  # flow-product coefficient of each domain pair
    E = _energy_coeffs(scenario, A, link_row)
    Q = np.zeros((K, K))
    b = np.zeros(K)
    c = 0.0
    for e in scenario.coupling:
        m, n = _lookup(index, e.m, "domain"), _lookup(index, e.n, "domain")
        if m == n:
            raise ValidationError(f"coupling edge ({e.m}, {e.n}) needs two distinct domains")
        q = e.w_link * P[m, n] + e.w_energy * E[m, n]
        if e.utility:
            gg = e.w_util * gamma[m] * gamma[n]
            q += gg
            b[m] -= e.sign * gg * lam[n]
            b[n] -= e.sign * gg * lam[m]
            c += e.sign * gg * lam[m] * lam[n]
        Q[m, n] += 0.5 * e.sign * q
        Q[n, m] += 0.5 * e.sign * q
    if not (np.isfinite(Q).all() and np.isfinite(b).all() and math.isfinite(c)):
        raise ValidationError("scenario coupling terms overflow to a non-finite value")
    return CompiledScenario(gamma, lam, lo, hi, Q, b, float(c), A, C)


# ---------------------------------------------------------------------------
# Model evaluation
# ---------------------------------------------------------------------------

def _coupled(mode: str) -> bool:
    if mode not in ("isolated", "coupled"):
        raise ValidationError(f"unknown mode {mode!r}")
    return mode == "coupled"


def _allocation(r: np.ndarray, cs: CompiledScenario) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != cs.lo.shape:
        raise ValidationError("allocation dimension mismatch")
    return r


def max_violation(scenario: Scenario, r: np.ndarray) -> float:
    cs = compile_scenario(scenario)
    return float(cs.max_violation(_allocation(r, cs)))


def objective(r: np.ndarray, scenario: Scenario, mode: str) -> float:
    """Sum of utilities, minus signed coupling penalties in coupled mode."""
    cs = compile_scenario(scenario)
    r = _allocation(r, cs)
    return float(cs.value(r, _coupled(mode)))


def gradient(r: np.ndarray, scenario: Scenario, mode: str) -> np.ndarray:
    """Analytic gradient of :func:`objective`."""
    cs = compile_scenario(scenario)
    r = _allocation(r, cs)
    return cs.grad(r, _coupled(mode))


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

PENALTY_ROUNDS = 5
PENALTY_GROWTH = 10.0
PENALTY_MU0 = 1.0
MULTI_STARTS = 16
INNER_ITERS = 200
BACKTRACK_HALVINGS = 40
POLISH_SWEEPS = 3
FEASIBILITY_TOL = 1e-6

_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _start_points(cs: CompiledScenario, seed: int) -> np.ndarray:
    """Seeded low-discrepancy starts: rotated Halton points mapped to the box.

    Coordinate k of start s is the radical inverse of s + 1 in the k-th prime
    base (the primes repeat from K = 13 on), shifted by a seeded rotation.
    """
    K = len(cs.lo)
    shift = np.random.default_rng(seed).random(K)
    base = np.array(_HALTON_PRIMES)[np.arange(K) % len(_HALTON_PRIMES)]
    i = np.repeat(np.arange(1, MULTI_STARTS + 1)[:, None], K, axis=1)
    f = np.ones(K)
    h = np.zeros((MULTI_STARTS, K))
    while i.any():  # one digit per pass, least significant first
        f = f / base
        h += f * (i % base)  # a finished index adds exact zeros
        i //= base
    u = (h + shift) % 1.0
    return cs.lo + u * (cs.hi - cs.lo)


def _restore_feasible(cs: CompiledScenario, R: np.ndarray) -> np.ndarray:
    """Shrink each start toward the (feasible) lower-bound corner until links fit.

    ``R`` holds one start per row, shape (S, 1, K).  A start within
    FEASIBILITY_TOL is kept; every other one bisects its own [t_lo, t_hi].
    """
    lo = cs.lo
    need = cs.max_violation(R)[:, 0] > FEASIBILITY_TOL
    if not need.any():
        return R
    t_lo, t_hi = np.zeros(len(R)), np.ones(len(R))
    for _ in range(80):
        t = 0.5 * (t_lo + t_hi)
        fits = cs.max_violation(lo + t[:, None, None] * (R - lo))[:, 0] <= 0.0
        t_lo = np.where(fits, t, t_lo)
        t_hi = np.where(fits, t_hi, t)
    return np.where(need[:, None, None], lo + t_lo[:, None, None] * (R - lo), R)


def _last_winner(vals: np.ndarray, best_v: float) -> int:
    """Index of the last value of ``vals`` to beat the running best, which
    starts at ``best_v``, by more than 1e-15 in a scan in order; -1 if none.

    A winner exceeds every value before it, so the winners are among the
    strict prefix maxima ``c`` (NaN and -inf never win).  After candidate i
    the next winner is the first candidate above ``c[i] + 1e-15``: i + 1
    except at near-ties, which alone are walked one by one."""
    prior = np.fmax.accumulate(np.concatenate(([-np.inf], vals)))[:-1]
    idx = np.flatnonzero(vals > prior)
    c = vals[idx]
    n = len(c)
    i = int(np.searchsorted(c, best_v + 1e-15, side="right"))
    nxt = np.searchsorted(c, c + 1e-15, side="right")
    jumps = np.flatnonzero(nxt != np.arange(1, n + 1))
    while i < n:
        # candidates i, i + 1, ... win in turn up to the first jump from i on
        p = np.searchsorted(jumps, i)
        if p == len(jumps):
            return int(idx[-1])
        if nxt[jumps[p]] == n:
            return int(idx[jumps[p]])
        i = int(nxt[jumps[p]])
    return -1


def _grid_best(cs: CompiledScenario, coupled: bool, r: np.ndarray, k: int,
               grid: np.ndarray, best_v: float) -> tuple[float, float]:
    """Line search of coordinate k over a grid, evaluated as one batch.

    Scanning in grid order, a point becomes the winner when its value beats
    the running best by more than 1e-15.  Returns (winner, best value); the
    winner is r[k] when no point beats ``best_v``.
    """
    batch = np.repeat(r[None, :], len(grid), axis=0)
    batch[:, k] = grid
    # only coordinate k's utility changes along the grid
    u = np.repeat(cs.utilities(r)[None, :], len(grid), axis=0)
    u[:, k] = cs.utilities(grid, k)
    vals = cs.value(batch, coupled, u)
    i = _last_winner(vals, best_v)
    return (r[k], best_v) if i < 0 else (grid[i], vals[i])


def _coordinate_polish(cs: CompiledScenario, coupled: bool, r: np.ndarray) -> np.ndarray:
    """Per-coordinate line search on the exact feasible interval.

    Penalty methods land slightly off the active constraint; this nails the
    optimum onto the boundary to grid-oracle accuracy.
    """
    lo, hi = cs.lo, cs.hi
    r = r.copy()
    for _ in range(POLISH_SWEEPS):
        for k in range(len(r)):
            upper = hi[k]
            if coupled:
                on = cs.A[:, k] > 0
                if on.any():
                    a = cs.A[on, k]
                    rest = cs.flows(r)[on] - a * r[k]
                    upper = min(upper, np.min((cs.C[on] - rest) / a))
            upper = max(upper, lo[k])
            r[k], best_v = _grid_best(cs, coupled, r, k, np.linspace(lo[k], upper, 2001), -np.inf)
            # refine around the winner
            span = (upper - lo[k]) / 2000 if upper > lo[k] else 0.0
            if span > 0:
                fine = np.linspace(max(lo[k], r[k] - span), min(upper, r[k] + span), 201)
                r[k], _ = _grid_best(cs, coupled, r, k, fine, best_v)
    return r


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in one ValidationError
def optimize(
    scenario: Scenario, mode: str, seed: int = 0, trace: Optional[list] = None
) -> np.ndarray:
    """Projected gradient ascent with escalating quadratic link penalties.

    16 deterministic multi-starts from a seeded low-discrepancy grid; box
    projection every step; backtracking halving from step 1.0.  In coupled
    mode the returned point satisfies every link constraint within 1e-6.

    All starts move together as one array, round by round; a start that has
    stopped in a round is held fixed until the next round begins, so each
    one follows the path it would follow on its own.  An iteration scores
    each moving start's full step, and its 39 halvings only if that fails;
    the scores of the step taken are kept.  Raises ValidationError when the
    returned point's objective or a trace number is not finite.
    """
    coupled = _coupled(mode)
    cs = compile_scenario(scenario)
    lo, hi = cs.lo, cs.hi
    if coupled and cs.max_violation(lo) > 0:
        raise InfeasibleError("lower-bound allocation already violates a link constraint")
    # One start per row, shape (S, 1, K).  The singleton axis makes every
    # matmul in CompiledScenario a vector-matrix product per start, the BLAS
    # call a lone (K,) allocation gets, so each start's arithmetic is bitwise
    # what it is on its own; a (S, K) matrix product rounds differently.
    R = _start_points(cs, seed)[:, None, :]
    S = len(R)
    halvings = np.ldexp(1.0, -np.arange(1, BACKTRACK_HALVINGS))[:, None, None]  # 1/2, 1/4, ...
    it = np.zeros(S, dtype=int)
    log = []  # per lockstep iteration: (starts that ran it, it, value and max violation)
    for rnd in range(PENALTY_ROUNDS):
        mu = PENALTY_MU0 * PENALTY_GROWTH ** rnd
        at = cs.scores(R, coupled, mu)  # (S, 1, 3), kept up to date as R moves
        run = np.arange(S)  # the starts still moving in this round
        for _ in range(INNER_ITERS):
            g = cs.penalized_grad(R[run], coupled, mu)
            bar = at[run, :, 2] + 1e-15
            cand = np.minimum(np.maximum(R[run] + g, lo), hi)
            score = cs.scores(cand, coupled, mu)
            moved = score[:, 0, 2] > bar[:, 0]
            step = np.ones(len(run))
            if not moved.all():
                # a failed full step scores all its halvings at once and
                # takes the first that improves
                f = np.flatnonzero(~moved)
                hc = np.minimum(np.maximum(R[run[f], None] + halvings * g[f, None], lo), hi)
                hs = cs.scores(hc, coupled, mu)
                better = hs[..., 0, 2] > bar[f]
                h = np.flatnonzero(better.any(axis=1))
                f, j = f[h], better[h].argmax(axis=1)
                cand[f], score[f], step[f], moved[f] = hc[h, j], hs[h, j], halvings[j, 0, 0], True
            R[run[moved]], at[run[moved]] = cand[moved], score[moved]
            it[run] += 1
            log.append((run, it.copy(), at[:, 0, :2].copy()))
            sg = step[:, None, None] * g
            norm = np.sqrt((sg @ sg.swapaxes(1, 2))[:, 0, 0])  # per-row dot, as np.linalg.norm
            run = run[moved & ~(norm < 1e-12)]
            if not len(run):
                break
    if coupled:
        R = _restore_feasible(cs, R)
    best, best_val = None, -np.inf
    for si, val in enumerate(cs.value(R, coupled)[:, 0].tolist()):
        if math.isfinite(val) and val > best_val + 1e-12:
            best, best_val = si, val
    if best is None:
        raise ValidationError("no start reaches a finite objective value; "
                              "the scenario's numbers overflow")
    best_trace = [(int(n[best]), *vm[best].tolist()) for ran, n, vm in log if best in ran]
    best_r = _coordinate_polish(cs, coupled, R[best, 0])
    best_trace.append((best_trace[-1][0] + 1 if best_trace else 1,
                       *cs.scores(best_r, coupled, 0.0)[:2].tolist()))
    if not np.isfinite(best_trace).all():
        raise ValidationError("the optimum's objective or trace is not finite; "
                              "the scenario's numbers overflow")
    if trace is not None:
        trace.extend(best_trace)
    return best_r


def demo_scenario() -> Scenario:
    """Two domains contending for one shared link.

    Capacity is half of what both domains want at their upper bounds, so the
    per-domain optima collide on the link: optimizing in isolation yields an
    infeasible allocation, while the coupled run routes around the contention.
    """
    domains = [
        DomainSpec("compute", 2.0, 2.0, 0.0, 4.0),
        DomainSpec("content", 2.2, 1.8, 0.0, 4.0),
    ]
    links = [SharedLink("backbone", 4.0, {"compute": 1.0, "content": 1.0})]
    s = Scenario(domains, links, [], [])
    s.coupling = auto_coupling(s)
    return s


# ---------------------------------------------------------------------------
# Comparison report
# ---------------------------------------------------------------------------

@dataclass
class OptimizationReport:
    seed: int
    r_isolated: tuple[float, ...]
    r_coupled: tuple[float, ...]
    objectives: dict[str, dict[str, float]]  # optimum -> {mode -> value}
    slack_isolated: dict[str, float]  # link id -> C_l - flow at isolated optimum
    slack_coupled: dict[str, float]
    gap: float  # coupled objective advantage of the coupled optimum
    trace_isolated: list[tuple[int, float, float]]
    trace_coupled: list[tuple[int, float, float]]


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in one ValidationError
def compare(scenario: Scenario, seed: int = 0) -> OptimizationReport:
    """Optimize both modes and report the coupling gap (Fig. 3-style).

    Raises ValidationError when a number of the report is not finite.
    """
    tr_iso, tr_cpl = [], []
    r_iso = optimize(scenario, "isolated", seed, tr_iso)
    r_cpl = optimize(scenario, "coupled", seed, tr_cpl)
    cs = compile_scenario(scenario)
    objectives = {
        f"{tag}_optimum": {mode: float(cs.value(r, mode == "coupled"))
                           for mode in ("isolated", "coupled")}
        for tag, r in (("isolated", r_iso), ("coupled", r_cpl))
    }
    slacks = [{l.id: float(x) for l, x in zip(scenario.links, -cs.excess(r))}
              for r in (r_iso, r_cpl)]
    gap = objectives["coupled_optimum"]["coupled"] - objectives["isolated_optimum"]["coupled"]
    if not np.isfinite([gap, *(v for o in objectives.values() for v in o.values()),
                        *(x for sl in slacks for x in sl.values())]).all():
        raise ValidationError("a number of the comparison report is not finite; "
                              "the scenario's numbers overflow")
    return OptimizationReport(seed, tuple(map(float, r_iso)), tuple(map(float, r_cpl)),
                              objectives, *slacks, float(gap), tr_iso, tr_cpl)


# ---------------------------------------------------------------------------
# Coupling derivation from a multilayer snapshot
# ---------------------------------------------------------------------------

# roles of a vertex two domains may share: a router (a link), a server or
# storage node (a node)
SHARED_ROLES = frozenset({"router", "server", "storage-node"})


def derive_coupling(
    snapshot: SnapshotView, domain_map: dict[str, set[int]]
) -> list[CouplingEdge]:
    """Build coupling edges from a snapshot: two domains are coupled when
    they share a vertex, which must have a role in ``SHARED_ROLES`` (other
    roles own their resources), or when an inter-layer edge joins their
    subsets, which also sets the utility flag."""
    for did, vs in domain_map.items():
        for v in vs:
            if v not in snapshot.vertices:
                raise ValidationError(f"domain {did} references unknown vertex {v}")
    dids = sorted(domain_map)
    edges = []
    for i, m in enumerate(dids):
        for n in dids[i + 1:]:
            shared = domain_map[m] & domain_map[n]
            for v in sorted(shared):
                roles = snapshot.vertices[v].roles
                if not roles & SHARED_ROLES:
                    raise ValidationError(
                        f"vertex {v} (roles {sorted(roles)}) is resource-owning and "
                        f"shared by domains {m} and {n}"
                    )
            util = any(
                not e.intra_layer
                and ((e.src in domain_map[m] and e.dst in domain_map[n])
                     or (e.src in domain_map[n] and e.dst in domain_map[m]))
                for e in snapshot.edges
            )
            if shared or util:
                edges.append(CouplingEdge(m, n, utility=util))
    return edges
