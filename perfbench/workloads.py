"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with a single client: the next call into
versegraph is issued only when the previous one has returned.  Every call is
an *operation*; an exception or a non-zero CLI exit code is recorded as a
failed operation and the loop goes on.

A workload object offers three steps:

``prepare(work, seed)``
    Builds the inputs from the seed.  This is set-up work and is not timed as
    part of a pass.  A workload whose pass changes its inputs sets
    ``mutates_inputs`` and is prepared again before every pass.
``run_pass(inputs, ops)``
    The timed pass.  Returns a :class:`PassResult` holding an output digest.
``check(inputs, result)``
    Correctness checks against independent oracles, run outside the timed
    pass.  Returns ``[(name, ok, detail), ...]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from versegraph import analytics, cli, crossopt, io, netopt, scenario
from versegraph.core import TemporalMultiLayerGraph


# ---------------------------------------------------------------------------
# operation recording
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    error: str = ""


class Ops:
    """Records every operation of a pass: kind, latency, success.

    When ``rec`` holds a span recorder, each operation is also a root-level
    span (``op.<kind>``, or ``cli.<kind>`` for CLI commands) that the spans
    of the program calls it makes nest under.
    """

    def __init__(self) -> None:
        self.log: list[Op] = []
        self.rec = None

    def span(self, name: str):
        return self.rec.span(name) if self.rec is not None else nullcontext()

    def call(self, kind: str, fn, *args, **kwargs):
        """Run one operation; returns ``(ok, result)`` and never raises."""
        with self.span("op." + kind):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # counted as a failed operation
                self.log.append(Op(kind, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"))
                return False, None
            self.log.append(Op(kind, time.perf_counter() - t0, True))
        return True, result

    def cli(self, kind: str, argv: list[str]) -> bool:
        """One CLI command; a non-zero exit code is a failed operation."""
        with self.span("cli." + kind):
            t0 = time.perf_counter()
            try:
                code = cli.run(argv)
            except Exception as exc:
                code, err = None, f"{type(exc).__name__}: {exc}"
            else:
                err = "" if code == 0 else f"exit code {code}"
            self.log.append(Op(kind, time.perf_counter() - t0, code == 0, err))
        return code == 0

    @property
    def failed(self) -> list[Op]:
        return [op for op in self.log if not op.ok]


@dataclass
class PassResult:
    digest: str
    seconds: float = 0.0
    extra: dict = field(default_factory=dict)  # values the checks read


def _digest_outputs(work: str) -> str:
    """sha256 over the names and bytes of every ``out_*`` file in ``work``."""
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(work) if f.startswith("out_")):
        h.update(name.encode())
        with open(os.path.join(work, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _check(name: str, fn) -> tuple[str, bool, str]:
    """Run one check; an exception fails the check and names the cause."""
    try:
        ok, detail = fn()
    except Exception as exc:
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, bool(ok), detail


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

class CliPipeline:
    """gen -> analyze -> partition -> simulate -> optimize -> export via cli.run."""

    name = "cli-pipeline"
    mutates_inputs = False
    SIZES = {
        # about 1.2k vertices and 2.6k edges when flattened
        "full": {"routers": 150, "servers": 40, "devices": 260, "users": 500,
                 "admins": 10, "items": 200, "edge_prob": 0.2},
        "tiny": {"routers": 8, "servers": 3, "devices": 10, "users": 15,
                 "admins": 2, "items": 6, "edge_prob": 0.3},
    }

    def __init__(self, size: str) -> None:
        self.gen_params = self.SIZES[size]

    def prepare(self, work: str, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        p = self.gen_params
        n_total = sum(p[k] for k in ("routers", "servers", "devices", "users", "admins", "items"))
        values = rng.normal(0.0, 10.0, n_total)
        files = {
            "gen": {**p},
            # values cover every vertex id; the CLI reads those of the layer
            "consensus": {"layer": "network", "tol": 1e-6,
                          "values": {str(v): float(x) for v, x in enumerate(values)}},
            "cdn": {"layer": "network", "k": 4},
            "scenario": _scenario_to_dict(crossopt.demo_scenario()),
        }
        paths = {}
        for key, doc in files.items():
            paths[key] = os.path.join(work, f"in_{key}.json")
            io.dump_json(doc, paths[key])
        return {"work": work, "seed": seed, "paths": paths}

    def run_pass(self, inp: dict, ops: Ops) -> PassResult:
        w, p, seed = inp["work"], inp["paths"], str(inp["seed"])
        g = os.path.join(w, "out_graph.json")
        out = lambda name: os.path.join(w, "out_" + name)  # noqa: E731
        ops.cli("gen", ["gen", "--scenario", "multilayer", "--seed", seed,
                        "--params", p["gen"], "--out", g])
        ops.cli("analyze", ["analyze", "--in", g, "--metrics",
                            "degree,betweenness,clustering,components", "--out", out("analyze.csv")])
        ops.cli("partition", ["partition", "--in", g, "--k", "4", "--out", out("partition.json")])
        ops.cli("simulate_consensus", ["simulate", "--kind", "consensus", "--in", g,
                                       "--params", p["consensus"], "--out", out("consensus.json")])
        ops.cli("simulate_cdn", ["simulate", "--kind", "cdn", "--in", g,
                                 "--params", p["cdn"], "--out", out("cdn.json")])
        ops.cli("optimize", ["optimize", "--scenario", p["scenario"], "--mode", "both",
                             "--seed", seed, "--out", out("optimize.json")])
        ops.cli("export_json", ["export", "--in", g, "--format", "json", "--out", out("export.json")])
        ops.cli("export_dot", ["export", "--in", g, "--format", "dot", "--out", out("export.dot")])
        return PassResult(_digest_outputs(w))

    def check(self, inp: dict, res: PassResult) -> list[tuple[str, bool, str]]:
        w = inp["work"]
        return [
            _check("betweenness_matches_networkx", lambda: _check_betweenness(w)),
            _check("consensus_final_is_input_mean", lambda: _check_consensus(w, inp["paths"]["consensus"])),
            _check("export_import_export_identical", lambda: _check_bytes_equal(
                os.path.join(w, "out_graph.json"), os.path.join(w, "out_export.json"))),
        ]


def _scenario_to_dict(s: crossopt.Scenario) -> dict:
    return {
        "domains": [{"id": d.id, "gamma": d.gamma, "lambda": d.lam, "r_min": d.r_min,
                     "r_max": d.r_max} for d in s.domains],
        "links": [{"id": l.id, "capacity": l.capacity, "coeffs": dict(l.coeffs)} for l in s.links],
        "nodes": [{"id": n.id, "eps_tx": n.eps_tx, "eps_rx": n.eps_rx,
                   "incident": [{"link": l, "distance": d} for l, d in n.incident.items()]}
                  for n in s.nodes],
        "coupling": "auto",
    }


def _nx_graph(view):
    """networkx copy of a GraphView: parallel edges collapse, undirected
    edges become two arcs when the view is directed."""
    import networkx as nx

    G = nx.DiGraph() if view.directed else nx.Graph()
    G.add_nodes_from(view.vertices)
    for e in view.edges:
        if e.src == e.dst:
            continue
        G.add_edge(e.src, e.dst, weight=e.weight)
        if view.directed and not e.directed:
            G.add_edge(e.dst, e.src, weight=e.weight)
    return G


def _check_betweenness(work: str):
    import networkx as nx

    view = io.import_graph(os.path.join(work, "out_graph.json")).snapshot_at(0).flatten()
    got = {}
    with open(os.path.join(work, "out_analyze.csv")) as fh:
        for line in fh:
            metric, v, s = line.rstrip("\n").split(",")
            if metric == "betweenness":
                got[int(v)] = float(s)
    want = nx.betweenness_centrality(_nx_graph(view), normalized=True)
    if set(got) != set(want):
        return False, f"vertex sets differ ({len(got)} vs {len(want)})"
    err = max(abs(got[v] - want[v]) for v in want)
    return err <= 1e-9, f"max abs error {err:.3g} over {len(want)} vertices"


def _check_consensus(work: str, params_path: str):
    params = io.load_json(params_path)
    g = io.import_graph(os.path.join(work, "out_graph.json"))
    layer = g.snapshot_at(0).layer_vertices(g.layer_id(params["layer"]))
    mean = float(np.mean([params["values"][str(v)] for v in layer]))
    final = io.load_json(os.path.join(work, "out_consensus.json"))["final_value"]
    err = abs(final - mean)
    return err <= params["tol"], f"|final - mean| = {err:.3g}, tol {params['tol']}"


def _check_bytes_equal(a: str, b: str):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        same = fa.read() == fb.read()
    return same, "byte-identical" if same else f"{os.path.basename(b)} differs from {os.path.basename(a)}"


# ---------------------------------------------------------------------------
# temporal-churn
# ---------------------------------------------------------------------------

class TemporalChurn:
    """Python-API write/read ticks on the network and social layers, then a
    checkpoint export and a reload."""

    name = "temporal-churn"
    mutates_inputs = True  # each pass needs a freshly generated graph
    SIZES = {
        # 7,000 vertices and about 10.9k edges before the ticks
        "full": {"routers": 400, "servers": 100, "devices": 3000, "users": 3500,
                 "attachment": 2, "ticks": 40, "add": 30, "retire": 25, "social": 20},
        "tiny": {"routers": 6, "servers": 2, "devices": 20, "users": 20,
                 "attachment": 2, "ticks": 4, "add": 3, "retire": 3, "social": 3},
    }

    def __init__(self, size: str) -> None:
        self.size = self.SIZES[size]

    def prepare(self, work: str, seed: int) -> dict:
        s = self.size
        g = TemporalMultiLayerGraph()
        cfg = scenario.GeneratorConfig(seed=seed, routers=s["routers"], servers=s["servers"],
                                       devices=s["devices"], users=s["users"],
                                       attachment=s["attachment"])
        net = scenario.gen_network_layer(g, cfg)
        soc = scenario.gen_social_layer(g, cfg)
        recs = g.vertex_records
        return {
            "work": work, "seed": seed, "graph": g, "net": net, "soc": soc,
            "routers": sorted(v for v, r in recs.items() if "router" in r.roles),
            "devices": sorted(v for v, r in recs.items() if "device" in r.roles),
            "users": sorted(v for v, r in recs.items() if "user" in r.roles),
        }

    def run_pass(self, inp: dict, ops: Ops) -> PassResult:
        g = inp["graph"]
        live = list(inp["devices"])
        rng = np.random.default_rng([inp["seed"], 1])
        h = hashlib.sha256()
        write_ms, read_ms, final = [], [], {}
        for t in range(1, self.size["ticks"] + 1):
            n0 = len(ops.log)
            with ops.span("tick.write"):
                self._writes(inp, live, t, rng, ops)
            write_ms.append(1e3 * sum(op.seconds for op in ops.log[n0:]))
            n0 = len(ops.log)
            with ops.span("tick.read"):
                final = self._reads(g, inp["net"], inp["soc"], t, rng, ops)
            read_ms.append(1e3 * sum(op.seconds for op in ops.log[n0:]))
            h.update(json.dumps(final, sort_keys=True).encode())
        ckpt = os.path.join(inp["work"], "out_checkpoint.json")
        ok, _ = ops.call("checkpoint", io.export_graph, g, ckpt)
        checkpoint_s = ops.log[-1].seconds
        if ok:
            with open(ckpt, "rb") as fh:
                h.update(fh.read())
        reload_ok, _ = ops.call("reload", io.import_graph, ckpt)
        return PassResult(h.hexdigest(), extra={
            "write_ms": write_ms, "read_ms": read_ms, "checkpoint_s": checkpoint_s,
            "reload_s": ops.log[-1].seconds, "reload_ok": reload_ok,
            "reload_error": ops.log[-1].error, "final": final,
        })

    def _writes(self, inp: dict, live: list[int], t: int, rng, ops: Ops) -> None:
        s, g, net, soc = self.size, inp["graph"], inp["net"], inp["soc"]
        routers, users = inp["routers"], inp["users"]
        for _ in range(s["add"]):
            ok, dev = ops.call("add_device", g.add_vertex, {"device"}, {net}, {}, t)
            if ok:
                router = routers[int(rng.integers(len(routers)))]
                ops.call("add_access_edge", g.add_edge, dev, router, net, net, directed=False,
                         weight=float(rng.uniform(1.0, 10.0)), relation="access", t_start=t)
                live.append(dev)
        # uniform over the live devices, including those born this tick
        for _ in range(min(s["retire"], len(live))):
            dev = live.pop(int(rng.integers(len(live))))
            ops.call("retire_device", g.retire_vertex, dev, t)
        for _ in range(s["social"]):
            a, b = rng.choice(len(users), 2, replace=False)
            ops.call("add_social_edge", g.add_edge, users[a], users[b], soc, soc,
                     directed=False, weight=1.0, relation="social", t_start=t)

    @staticmethod
    def _reads(g, net, soc, t, rng, ops: Ops) -> dict:
        out: dict = {"t": t}
        ok, snap = ops.call("snapshot_at", g.snapshot_at, t)
        if not ok:
            return out
        ok_n, nv = ops.call("layer_subgraph", snap.layer_subgraph, net)
        ok_s, sv = ops.call("layer_subgraph", snap.layer_subgraph, soc)
        if ok_s:
            ok, lab = ops.call("components", analytics.weakly_connected_components, sv)
            out["components"] = lab.count if ok else None
        if not ok_n:
            return out
        routers = [v for v in nv.vertices if "router" in snap.vertices[v].roles]
        a, b = (routers[int(i)] for i in rng.choice(len(routers), 2, replace=False))
        target = nv.vertices[int(rng.integers(nv.n))]
        ok, bfs = ops.call("bfs", analytics.bfs_order, nv, a)
        out["bfs_reached"] = len(bfs[0]) if ok else None
        ok, path = ops.call("shortest_path", netopt.shortest_path, nv, a, target)
        out["path"] = [path.total_weight, list(path.vertices)] if ok else None
        ok, tree = ops.call("mst", netopt.minimum_spanning_tree, nv)
        out["mst_weight"] = tree.total_weight if ok else None
        ok, flow = ops.call("max_flow", netopt.max_flow_min_cut, nv, a, b)
        out["max_flow"] = [a, b, flow.value] if ok else None
        return out

    def check(self, inp: dict, res: PassResult) -> list[tuple[str, bool, str]]:
        ex = res.extra
        return [
            _check("final_snapshot_matches_networkx", lambda: _check_churn_final(inp, ex["final"])),
            _check("export_import_export_identical", lambda: _check_reload(inp["work"], ex)),
        ]


def _check_churn_final(inp: dict, final: dict):
    import networkx as nx

    snap = inp["graph"].snapshot_at(final["t"])
    nv = _nx_graph(snap.layer_subgraph(inp["net"]))
    sv = _nx_graph(snap.layer_subgraph(inp["soc"]))
    a, b, flow = final["max_flow"]
    want = {
        "components": nx.number_connected_components(sv),
        "mst_weight": nx.minimum_spanning_tree(nv).size(weight="weight"),
        "max_flow": nx.maximum_flow_value(nv.to_directed(), a, b, capacity="weight"),
    }
    got = {"components": final["components"], "mst_weight": final["mst_weight"], "max_flow": flow}
    bad = [k for k in want if not np.isclose(got[k], want[k], rtol=1e-9, atol=1e-9)]
    return not bad, f"got {got}, networkx {want}"


def _check_reload(work: str, ex: dict):
    if not ex["reload_ok"]:
        return False, f"reload of the checkpoint failed: {ex['reload_error']}"
    ckpt = os.path.join(work, "out_checkpoint.json")
    again = os.path.join(work, "out_checkpoint_again.json")
    io.export_graph(io.import_graph(ckpt), again)
    return _check_bytes_equal(ckpt, again)


# ---------------------------------------------------------------------------
# crossopt-k8
# ---------------------------------------------------------------------------

class CrossoptK8:
    """``optimize --mode both`` through the CLI on a seeded K=8 scenario."""

    name = "crossopt-k8"
    mutates_inputs = False
    # Which domains share which link is fixed, so that every seed couples the
    # same 17 domain pairs and costs about the same; the seed draws the
    # numbers.  8 domains, 6 links of 3 domains each, 1 shared node.
    SIZES = {
        "full": {"domains": 8, "links": [[0, 1, 4], [4, 6, 7], [1, 3, 4], [0, 4, 5],
                                         [2, 6, 7], [2, 4, 7]]},
        "tiny": {"domains": 3, "links": [[0, 1], [1, 2]]},
    }

    def __init__(self, size: str) -> None:
        self.size = self.SIZES[size]

    def prepare(self, work: str, seed: int) -> dict:
        path = os.path.join(work, "in_scenario.json")
        io.dump_json(k_domain_scenario(seed, **self.size), path)
        return {"work": work, "seed": seed, "scenario": path}

    def run_pass(self, inp: dict, ops: Ops) -> PassResult:
        out = os.path.join(inp["work"], "out_optimize.json")
        ops.cli("optimize", ["optimize", "--scenario", inp["scenario"], "--mode", "both",
                             "--seed", str(inp["seed"]), "--out", out])
        return PassResult(_digest_outputs(inp["work"]))

    def check(self, inp: dict, res: PassResult) -> list[tuple[str, bool, str]]:
        def coupled():
            s = io.load_scenario(inp["scenario"])
            rep = io.load_json(os.path.join(inp["work"], "out_optimize.json"))
            viol = crossopt.max_violation(s, np.array(rep["r_coupled"]))
            return viol <= 1e-6 and rep["gap"] > 0, f"max_violation {viol:.3g}, gap {rep['gap']:.6g}"

        return [_check("coupled_feasible_and_gap_positive", coupled)]


def k_domain_scenario(seed: int, domains: int, links: list[list[int]]) -> dict:
    """Seeded numbers on a fixed link layout.  Each link's capacity is half of
    its domains' joint demand at the upper bound, so the isolated optimum
    overloads links; the shared node sits on the first two links."""
    rng = np.random.default_rng(seed)
    ids = [f"d{i}" for i in range(domains)]
    # narrow ranges keep the optimizer's iteration counts, and so the cost
    # of a pass, within about 1% across seeds
    doms = [{"id": d, "gamma": float(rng.uniform(2.0, 2.5)), "lambda": float(rng.uniform(1.5, 2.5)),
             "r_min": 0.0, "r_max": 4.0} for d in ids]
    lks = []
    for li, members in enumerate(links):
        coeffs = {ids[i]: float(rng.uniform(0.5, 1.5)) for i in members}
        lks.append({"id": f"l{li}", "capacity": 0.5 * 4.0 * sum(coeffs.values()), "coeffs": coeffs})
    node = {"id": "n0", "eps_tx": float(rng.uniform(0.01, 0.05)), "eps_rx": float(rng.uniform(0.01, 0.05)),
            "incident": [{"link": l["id"], "distance": float(rng.uniform(1.0, 3.0))} for l in lks[:2]]}
    return {"domains": doms, "links": lks, "nodes": [node], "coupling": "auto"}


WORKLOADS = {w.name: w for w in (CliPipeline, TemporalChurn, CrossoptK8)}
