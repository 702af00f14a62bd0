"""Command-line entry point.

Subcommands: gen, analyze, partition, optimize, simulate, export.  Every
command writes its declared outputs plus a run manifest
(``<out>.manifest.json``) with the resolved configuration and input/output
digests; identical invocations produce byte-identical files.

Exit codes: 0 success, 2 input validation failure or an input or output file
that cannot be read or written, 3 infeasible optimization scenario,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import __version__, analytics, crossopt, io, partition, scenario as scen
from .core import TemporalMultiLayerGraph
from .errors import ConvergenceError, InfeasibleError, ValidationError


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(command: str, config: dict, seed, inputs: list[str], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {p: _sha256(p) for p in sorted(inputs)},
        "outputs": {p: _sha256(p) for p in sorted(outputs)},
        "tool_version": __version__,
    }
    io.dump_json(manifest, outputs[0] + ".manifest.json")


def _load_params(path: str | None, allowed) -> dict:
    if path is None:
        return {}
    doc = io.load_json(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: params file must hold a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValidationError(f"{path}: unknown params {unknown}; allowed: {sorted(allowed)}")
    return doc


def _id_key(key: str, what: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ValidationError(f"{what}: key {key!r} is not an integer id") from None


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

GEN_DEFAULTS = {
    "network": {"routers": 10, "servers": 4, "devices": 12},
    "social": {"users": 20},
    "cms": {"admins": 3, "items": 10},
    "multilayer": {"routers": 8, "servers": 3, "devices": 6, "users": 10,
                   "admins": 2, "items": 6},
}


# params a gen file may set, with the type of each; the seed comes from --seed
GEN_PARAMS = {f.name: type(f.default) for f in dataclasses.fields(scen.GeneratorConfig)
              if f.name != "seed"}


def _gen_params(path: str | None) -> dict:
    params = _load_params(path, GEN_PARAMS)
    for key, value in params.items():
        if GEN_PARAMS[key] is float:
            io.json_number(value, key)
        else:
            io.json_value(value, (GEN_PARAMS[key],), key)
    return params


def _build_graph(name: str, seed: int, params: dict) -> TemporalMultiLayerGraph:
    if name not in GEN_DEFAULTS:
        raise ValidationError(f"unknown generator scenario {name!r}")
    merged = {**GEN_DEFAULTS[name], **params, "seed": seed}
    cfg = scen.GeneratorConfig(**merged)
    g = TemporalMultiLayerGraph()
    if name == "network":
        scen.gen_network_layer(g, cfg)
    elif name == "social":
        scen.gen_social_layer(g, cfg)
    elif name == "cms":
        scen.gen_cms_bipartite(g, cfg)
    else:
        net = scen.gen_network_layer(g, cfg)
        social = scen.gen_social_layer(g, cfg)
        content = scen.gen_cms_bipartite(g, cfg)
        rng = np.random.default_rng(cfg.seed + 1)
        items = g.vertices_with_role("content-item")
        servers = g.vertices_with_role("server")
        for u in g.vertices_with_role("user"):
            if items and rng.random() < 0.5:
                item = items[int(rng.integers(len(items)))]
                g.add_edge(u, item, social, content, directed=True,
                           weight=1.0, relation="authors", t_start=0)
            if servers and rng.random() < 0.3:
                srv = servers[int(rng.integers(len(servers)))]
                g.add_edge(u, srv, social, net, directed=True,
                           weight=1.0, relation="session", t_start=0)
    return g


def _cmd_gen(args) -> list[str]:
    g = _build_graph(args.scenario, args.seed, _gen_params(args.params))
    io.export_graph(g, args.out)
    return [args.out]


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _view_for(g: TemporalMultiLayerGraph, layer: str | None, at: int):
    snap = g.snapshot_at(at)
    if layer is None or layer == "all":
        return snap.flatten()
    return snap.layer_subgraph(g.layer_id(layer))


def _cmd_analyze(args) -> list[str]:
    g = io.import_graph(args.infile)
    view = _view_for(g, args.layer, args.at)
    rows = []
    for metric in args.metrics.split(","):
        metric = metric.strip()
        if metric == "degree":
            rep = analytics.degree_centrality(view)
            rows += [(metric, v, s) for v, s in rep.sorted_items()]
        elif metric == "betweenness":
            rep = analytics.betweenness_centrality(view)
            rows += [(metric, v, s) for v, s in rep.sorted_items()]
        elif metric == "clustering":
            rows += [(metric, v, analytics.clustering_coefficient(view, v)) for v in view.vertices]
        elif metric == "components":
            lab = analytics.weakly_connected_components(view)
            rows += [(metric, v, float(lab.labels[v])) for v in sorted(lab.labels)]
        else:
            raise ValidationError(f"unknown metric {metric!r}")
    io.write_text(args.out, "metric,vertex_id,score\n"
                  + "".join(f"{metric},{v},{s!r}\n" for metric, v, s in rows))
    return [args.out]


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------

def _cmd_partition(args) -> list[str]:
    if args.k < 2:
        raise ValidationError(f"k must be >= 2, got {args.k}")
    g = io.import_graph(args.infile)
    view = _view_for(g, args.layer, args.at)
    result = partition.spectral_kway(view, args.k) if args.k > 2 else partition.spectral_bisection(view)
    doc = {
        "assignment": {str(v): b for v, b in sorted(result.assignment.items())},
        "cut_edges": result.cut_edges,
        "block_sizes": list(result.block_sizes),
    }
    io.dump_json(doc, args.out)
    print(f"cut_edges={result.cut_edges} blocks={list(result.block_sizes)}")
    return [args.out]


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def _cmd_optimize(args) -> list[str]:
    s = io.load_scenario(args.scenario)
    outputs = [args.out]
    if args.mode == "both":
        rep = crossopt.compare(s, args.seed)
        io.dump_json(io.report_to_dict(rep), args.out)
        for tag, trace in (("isolated", rep.trace_isolated), ("coupled", rep.trace_coupled)):
            tpath = args.out + f".trace_{tag}.csv"
            io.write_text(tpath, io.trace_to_csv(trace))
            outputs.append(tpath)
    else:
        trace: list = []
        r = crossopt.optimize(s, args.mode, args.seed, trace)
        # the trace ends with the returned point's objective and max violation
        doc = {
            "mode": args.mode,
            "seed": args.seed,
            "allocation": [float(x) for x in r],
            "objective": trace[-1][1],
            "max_violation": trace[-1][2],
        }
        io.dump_json(doc, args.out)
        tpath = args.out + ".trace.csv"
        io.write_text(tpath, io.trace_to_csv(trace))
        outputs.append(tpath)
    return outputs


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_PARAMS = {
    "consensus": ("layer", "at", "tol", "values"),
    "consistency": ("layer", "at", "items", "replication", "updates"),
    "cdn": ("layer", "at", "k", "demand"),
}


def _cmd_simulate(args) -> list[str]:
    params = _load_params(args.params, SIMULATE_PARAMS[args.kind])
    layer = params.get("layer")
    if layer is not None and not isinstance(layer, str):
        raise ValidationError(f"layer must be a layer name, got {layer!r}")
    g = io.import_graph(args.infile)
    view = _view_for(g, layer, io.json_value(params.get("at", 0), io.INT, "at"))
    outputs = [args.out]
    if args.kind == "consensus":
        tol = io.json_number(params.get("tol", 1e-6), "tol")
        if tol < 0:
            raise ValidationError(f"tol must be >= 0, got {tol!r}")
        if "values" in params:
            given = io.json_value(params["values"], io.OBJECT, "values")
            missing = [v for v in view.vertices if str(v) not in given]
            if missing:
                raise ValidationError(f"values: no value for vertices {missing[:10]}")
            values = {v: io.json_number(given[str(v)], f"values[{v}]") for v in view.vertices}
        else:
            values = {v: float(v) for v in view.vertices}
        spreads: list[float] = []
        rounds, final = scen.consensus_sim(values, view, tol, spreads=spreads)
        io.dump_json({"rounds": rounds, "final_value": final, "tol": tol}, args.out)
        # per-round spread trace for plotting
        tpath = args.out + ".trace.csv"
        io.write_text(tpath, "round,spread\n"
                      + "".join(f"{rnd},{spread!r}\n" for rnd, spread in enumerate(spreads)))
        outputs.append(tpath)
    elif args.kind == "consistency":
        storage = sorted(g.vertices_with_role("storage-node")) or list(view.vertices)
        n_items = io.json_value(params.get("items", 4), io.INT, "items")
        if n_items < 0:
            raise ValidationError(f"items must be >= 0, got {n_items}")
        items = list(range(n_items))
        r = io.json_value(params.get("replication", min(2, len(storage))), io.INT, "replication")
        placement = scen.replicate_items(items, storage, r)
        updates = {
            _id_key(i, "updates"): {
                _id_key(n, f"updates[{i}]"): io.json_value(ver, io.INT, f"updates[{i}][{n}]")
                for n, ver in io.json_value(u, io.OBJECT, f"updates[{i}]").items()
            }
            for i, u in io.json_value(params.get("updates", {}), io.OBJECT, "updates").items()
        }
        if not updates and items and placement.mapping[items[0]]:
            updates = {items[0]: {placement.mapping[items[0]][0]: 1}}
        result = scen.consistency_sim(placement, view, updates)
        io.dump_json(
            {"rounds": {str(i): r for i, r in sorted(result.rounds.items())},
             "divergent": sorted(result.divergent)},
            args.out,
        )
    elif args.kind == "cdn":
        k = io.json_value(params.get("k", 2), io.INT, "k")
        demand = None
        if "demand" in params:
            demand = {_id_key(v, "demand"): io.json_number(w, f"demand[{v}]")
                      for v, w in io.json_value(params["demand"], io.OBJECT, "demand").items()}
        caches, cost = scen.cdn_place_caches(view, k, demand)
        io.dump_json({"caches": caches, "expected_hops": cost, "k": k}, args.out)
    return outputs


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _cmd_export(args) -> list[str]:
    g = io.import_graph(args.infile)
    if args.format == "json":
        io.export_graph(g, args.out)
    elif args.format == "dot":
        io.write_text(args.out, io.snapshot_to_dot(g.snapshot_at(args.at)))
    else:
        raise ValidationError(f"unknown format {args.format!r}")
    return [args.out]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="versegraph")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded multilayer graph")
    g.add_argument("--scenario", required=True, choices=sorted(GEN_DEFAULTS))
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--params", default=None)
    g.add_argument("--out", required=True)

    a = sub.add_parser("analyze", help="per-layer structural metrics to CSV")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--layer", default=None)
    a.add_argument("--metrics", required=True)
    a.add_argument("--at", type=int, default=0)
    a.add_argument("--out", required=True)

    q = sub.add_parser("partition", help="spectral partition of a layer")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--layer", default=None)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--at", type=int, default=0)
    q.add_argument("--out", required=True)

    o = sub.add_parser("optimize", help="cross-domain allocation optimization")
    o.add_argument("--scenario", required=True)
    o.add_argument("--mode", required=True, choices=["isolated", "coupled", "both"])
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--out", required=True)

    s = sub.add_parser("simulate", help="consensus / consistency / cdn simulations")
    s.add_argument("--kind", required=True, choices=["consensus", "consistency", "cdn"])
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--params", default=None)
    s.add_argument("--out", required=True)

    e = sub.add_parser("export", help="re-export a graph as json or dot")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--format", required=True, choices=["json", "dot"])
    e.add_argument("--at", type=int, default=0)
    e.add_argument("--out", required=True)
    return p


_COMMANDS = {
    "gen": (_cmd_gen, ["params"]),
    "analyze": (_cmd_analyze, ["infile"]),
    "partition": (_cmd_partition, ["infile"]),
    "optimize": (_cmd_optimize, ["scenario"]),
    "simulate": (_cmd_simulate, ["infile", "params"]),
    "export": (_cmd_export, ["infile"]),
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, input_attrs = _COMMANDS[args.command]
    try:
        # numpy seeds its generators from non-negative integers only
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
        outputs = handler(args)
        inputs = [p for attr in input_attrs if (p := getattr(args, attr, None))]
        config = {k: v for k, v in sorted(vars(args).items()) if k != "command"}
        _write_manifest(args.command, config, getattr(args, "seed", None), inputs, outputs)
        return 0
    except (ValidationError, OSError) as exc:
        # OSError: an unreadable input, or an unwritable output or manifest path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
