"""The benchmark (``perfbench/``) reads versegraph by name: its span
recorder wraps functions and methods, and its workloads and metrics call
functions and read attributes.  A renamed or deleted name would only fail
the benchmark run, so these check that every one still resolves."""

import importlib
import importlib.util
import pathlib
import sys

from versegraph import analytics, cli, crossopt, io, kernels, netopt, scenario
from versegraph.core import TemporalMultiLayerGraph

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load("spans")
    assert spans.TARGETS
    missing = []
    for modname, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"versegraph.{modname}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{modname}.{path}")
    assert missing == []


def test_every_name_the_workloads_and_metrics_read_resolves():
    """The names that ``perfbench/workloads.py`` and ``perfbench/metrics.py``
    read, on the objects they read them from, records included: the edge
    fields of ``_nx_graph`` and the roles that the churn workload reads.
    ``metrics.environment`` reads ``kernels.USING_NUMBA`` on every run."""
    _load("workloads")  # the names it imports
    g = TemporalMultiLayerGraph()
    cfg = scenario.GeneratorConfig(seed=1, routers=6, servers=2, devices=6, users=6)
    net, soc = scenario.gen_network_layer(g, cfg), scenario.gen_social_layer(g, cfg)
    snap = g.snapshot_at(0)
    view = snap.layer_subgraph(net)
    a, b = view.vertices[:2]
    reads = [
        (kernels, ["USING_NUMBA"]),
        (cli, ["run"]),
        (io, ["dump_json", "load_json", "load_scenario", "export_graph", "import_graph"]),
        (crossopt, ["Scenario", "demo_scenario", "max_violation"]),
        (scenario, ["GeneratorConfig", "gen_network_layer", "gen_social_layer"]),
        (analytics, ["weakly_connected_components", "bfs_order"]),
        (netopt, ["shortest_path", "minimum_spanning_tree", "max_flow_min_cut"]),
        (g, ["add_vertex", "add_edge", "retire_vertex", "snapshot_at", "layer_id",
             "vertex_records"]),
        (snap, ["vertices", "layer_subgraph", "layer_vertices", "flatten"]),
        (view, ["vertices", "edges", "directed", "n"]),
        (view.edges[0], ["src", "dst", "weight", "directed"]),
        (g.vertex_records[a], ["roles"]),
        (snap.vertices[a], ["roles"]),
        (netopt.shortest_path(view, a, b), ["total_weight", "vertices"]),
        (netopt.minimum_spanning_tree(view), ["total_weight"]),
        (netopt.max_flow_min_cut(view, a, b), ["value"]),
        (analytics.weakly_connected_components(snap.layer_subgraph(soc)), ["count"]),
    ]
    missing = [f"{getattr(owner, '__name__', type(owner).__name__)}.{name}"
               for owner, names in reads for name in names if not hasattr(owner, name)]
    assert missing == []
    assert isinstance(kernels.USING_NUMBA, bool) and g.layer_id("network") == net
