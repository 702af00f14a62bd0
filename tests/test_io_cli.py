import json
import math
import random
import subprocess
import sys

import pytest

from versegraph import cli, io
from versegraph.core import TemporalMultiLayerGraph
from versegraph.errors import ValidationError
from versegraph.scenario import GeneratorConfig, gen_network_layer, gen_social_layer


def _small_graph():
    g = TemporalMultiLayerGraph()
    net = g.create_layer("network")
    soc = g.create_layer("social")
    a = g.add_vertex({"router"}, {net}, {"region": "eu"}, 0)
    b = g.add_vertex({"server"}, {net}, {}, 0)
    u = g.add_vertex({"user"}, {net, soc}, {}, 1)
    g.add_edge(a, b, net, net, directed=False, weight=2.0, relation="uplink", t_start=0)
    g.add_edge(u, b, soc, net, directed=True, weight=1.0, relation="session", t_start=1)
    g.retire_vertex(a, 10)
    return g


# -- JSON interchange -------------------------------------------------------

def test_round_trip_identity(tmp_path):
    g = _small_graph()
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    io.export_graph(g, str(p1))
    g2 = io.import_graph(str(p1))
    io.export_graph(g2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_snapshot_equivalence():
    g = _small_graph()
    g2 = io.graph_from_dict(json.loads(io.graph_to_json(g)))
    for t in (0, 1, 5, 10, 11):
        s1, s2 = g.snapshot_at(t), g2.snapshot_at(t)
        assert set(s1.vertices) == set(s2.vertices)
        assert [e.id for e in s1.edges] == [e.id for e in s2.edges]


def test_round_trip_generated(tmp_path):
    g = TemporalMultiLayerGraph()
    gen_network_layer(g, GeneratorConfig(seed=7, routers=10, servers=3, devices=4))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    io.export_graph(g, str(p1))
    io.export_graph(io.import_graph(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()



def _churned_graph():
    """Devices added, attached and retired over four ticks, as in the
    temporal-churn benchmark: a graph with retired vertices and edges."""
    g = TemporalMultiLayerGraph()
    cfg = GeneratorConfig(seed=3, routers=6, servers=2, devices=20, users=20)
    net, soc = gen_network_layer(g, cfg), gen_social_layer(g, cfg)
    rng = random.Random(3)
    routers, devices, users = (g.vertices_with_role(r) for r in ("router", "device", "user"))
    for t in range(1, 5):
        for _ in range(3):
            devices.append(g.add_vertex({"device"}, {net}, {}, t))
            g.add_edge(devices[-1], rng.choice(routers), net, net, directed=False,
                       weight=rng.uniform(1.0, 10.0), relation="access", t_start=t)
        for _ in range(3):
            g.retire_vertex(devices.pop(rng.randrange(len(devices))), t)
        g.add_edge(*rng.sample(users, 2), soc, soc, directed=False, relation="social", t_start=t)
    assert any(v.t_end is not None for v in g.vertex_records.values())
    return g


def _text_graph():
    """Attrs, and roles and relations that are not ASCII but encode."""
    g = TemporalMultiLayerGraph()
    net, soc = g.create_layer("r\u00e9seau"), g.create_layer("social")
    a = g.add_vertex({"routeur", "caf\u00e9"}, {net}, {"r\u00e9gion": "\u00e9t\u00e9", "n": 2, "b": True})
    b = g.add_vertex({"\U0001f600"}, {net, soc}, {"f": 1.5}, 1)
    g.add_edge(a, b, net, net, relation="\u00fcber", t_start=1)
    g.add_edge(b, b, soc, soc, directed=False, weight=0.0, relation="\u2028", t_start=2)
    g.retire_edge(0, 3)
    return g


@pytest.mark.parametrize("make", [None, _churned_graph, _text_graph])
def test_exported_files_are_stored_whole(tmp_path, monkeypatch, make):
    """An exported file is stored column by column: no record of it goes
    through the per-record checks."""
    path, again = str(tmp_path / "g.json"), str(tmp_path / "again.json")
    if make is None:
        assert cli.run(["gen", "--scenario", "multilayer", "--seed", "7", "--out", path]) == 0
    else:
        io.export_graph(make(), path)

    def refuse(self, fields):
        raise AssertionError(f"a record was checked on its own: {fields!r}")

    with monkeypatch.context() as m:
        m.setattr(TemporalMultiLayerGraph, "_vertex", refuse)
        m.setattr(TemporalMultiLayerGraph, "_edge", refuse)
        g = io.import_graph(path)
    io.export_graph(g, again)
    with open(path, "rb") as a, open(again, "rb") as b:
        assert a.read() == b.read()

def test_import_rejects_bad_version():
    with pytest.raises(ValidationError):
        io.graph_from_dict({"version": 99, "layers": [], "vertices": [], "edges": []})


def test_import_rejects_dangling_edge():
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["edges"][0]["dst"] = 999
    with pytest.raises(ValidationError, match="dangling endpoint 999"):
        io.graph_from_dict(doc)


def test_import_rejects_negative_weight():
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["edges"][1]["weight"] = -1.0
    with pytest.raises(ValidationError, match="edge 1"):
        io.graph_from_dict(doc)


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_import_rejects_non_finite_weight(weight):
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["edges"][1]["weight"] = weight
    with pytest.raises(ValidationError, match="edge 1: non-finite weight"):
        io.graph_from_dict(doc)


@pytest.mark.parametrize("patch", [
    lambda doc: doc["edges"][0].update(weight="heavy"),
    lambda doc: doc["edges"][0].pop("src"),
    lambda doc: doc["vertices"][0].update(layers=7),
])
def test_import_rejects_malformed_records(patch):
    doc = json.loads(io.graph_to_json(_small_graph()))
    patch(doc)
    with pytest.raises(ValidationError, match="malformed graph file"):
        io.graph_from_dict(doc)


@pytest.mark.parametrize("patch, key", [
    (lambda doc: doc.update(comment="x"), "comment"),
    (lambda doc: doc["layers"][0].update(label="net"), "label"),
    # the last vertex, after one of the same field types
    (lambda doc: doc["vertices"][-1].update(colour="red"), "colour"),
    (lambda doc: doc["edges"][0].update(t_ned=5), "t_ned"),
])
def test_import_rejects_unknown_keys(patch, key):
    doc = json.loads(io.graph_to_json(_small_graph()))
    patch(doc)
    with pytest.raises(ValidationError, match=f"malformed graph file: .*'{key}'"):
        io.graph_from_dict(doc)


def test_import_rejects_edge_outside_vertex_lifetime():
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["edges"][0]["t_start"] = -5
    with pytest.raises(ValidationError, match="inactive"):
        io.graph_from_dict(doc)


def test_import_rejects_layer_membership_violation():
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["edges"][0]["layer_src"] = 1
    doc["edges"][0]["layer_dst"] = 1
    with pytest.raises(ValidationError):
        io.graph_from_dict(doc)


def test_import_rejects_duplicate_ids():
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["vertices"].append(dict(doc["vertices"][0]))
    with pytest.raises(ValidationError, match="duplicate vertex"):
        io.graph_from_dict(doc)


# -- DOT --------------------------------------------------------------------

def test_dot_clusters_and_edge_styles():
    dot = io.snapshot_to_dot(_small_graph().snapshot_at(2))
    assert dot.startswith("digraph")
    assert "subgraph cluster_0" in dot and "subgraph cluster_1" in dot
    assert 'label="network"' in dot and 'label="social"' in dot
    assert "dir=none" in dot  # undirected uplink
    assert "style=dashed" in dot  # inter-layer session edge
    # the multi-layer user vertex appears in exactly one cluster
    assert dot.count('v2 [label=') == 1


def test_dot_highlights():
    dot = io.snapshot_to_dot(_small_graph().snapshot_at(2), {0: "red"})
    assert 'color="red"' in dot


def test_dot_escapes_quoted_strings():
    g = TemporalMultiLayerGraph()
    net = g.create_layer('net"work')
    a = g.add_vertex({'r"x', "a\\b"}, {net})
    b = g.add_vertex(set(), {net})
    g.add_edge(a, b, net, net, relation='up"link\\')
    dot = io.snapshot_to_dot(g.snapshot_at(0), {0: 'x"'})
    assert dot.splitlines() == [
        "digraph snapshot {",
        "  subgraph cluster_0 {",
        '    label="net\\"work";',
        '    v0 [label="0\\na\\\\b,r\\"x"];',
        '    v1 [label="1\\n"];',
        "  }",
        '  v0 -> v1 [label="up\\"link\\\\", color="x\\""];',
        "}",
    ]


# -- CLI --------------------------------------------------------------------

def test_cli_gen_analyze_partition(tmp_path):
    gpath = tmp_path / "g.json"
    assert cli.run(["gen", "--scenario", "network", "--seed", "3",
                    "--out", str(gpath)]) == 0
    assert gpath.exists() and (tmp_path / "g.json.manifest.json").exists()

    csv = tmp_path / "m.csv"
    assert cli.run(["analyze", "--in", str(gpath), "--metrics", "degree,components",
                    "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "metric,vertex_id,score"
    assert any(l.startswith("degree,") for l in lines[1:])

    part = tmp_path / "p.json"
    assert cli.run(["partition", "--in", str(gpath), "--k", "2",
                    "--out", str(part)]) == 0
    doc = json.loads(part.read_text())
    assert sorted(doc["block_sizes"]) == sorted(doc["block_sizes"]) and sum(doc["block_sizes"]) == len(doc["assignment"])


def test_cli_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.run(["gen", "--scenario", "multilayer", "--seed", "11",
                        "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_manifest_digests(tmp_path):
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "social", "--seed", "1", "--out", str(gpath)])
    csv = tmp_path / "deg.csv"
    cli.run(["analyze", "--in", str(gpath), "--metrics", "degree", "--out", str(csv)])
    manifest = json.loads((tmp_path / "deg.csv.manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert str(gpath) in manifest["inputs"]
    assert str(csv) in manifest["outputs"]
    assert len(manifest["outputs"][str(csv)]) == 64


def test_cli_optimize_both(tmp_path):
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps({
        "domains": [
            {"id": "compute", "gamma": 2.0, "lambda": 2.0, "r_min": 0.0, "r_max": 4.0},
            {"id": "content", "gamma": 2.2, "lambda": 1.8, "r_min": 0.0, "r_max": 4.0},
        ],
        "links": [{"id": "backbone", "capacity": 4.0,
                   "coeffs": {"compute": 1.0, "content": 1.0}}],
        "coupling": "auto",
    }))
    out = tmp_path / "rep.json"
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "both",
                    "--seed", "0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["gap"] > 0
    for tag in ("isolated", "coupled"):
        trace = (tmp_path / f"rep.json.trace_{tag}.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,max_violation"
        assert len(trace) > 1


def test_cli_optimize_infeasible_exit_3(tmp_path):
    spath = tmp_path / "bad.json"
    spath.write_text(json.dumps({
        "domains": [{"id": "a", "gamma": 1.0, "lambda": 0.0, "r_min": 2.0, "r_max": 5.0}],
        "links": [{"id": "l", "capacity": 1.0, "coeffs": {"a": 1.0}}],
        "coupling": "auto",
    }))
    out = tmp_path / "rep.json"
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "coupled",
                    "--out", str(out)]) == 3


def test_cli_validation_exit_2(tmp_path):
    out = tmp_path / "x.json"
    assert cli.run(["gen", "--scenario", "network", "--seed", "0", "--params",
                    str(_write(tmp_path, "p.json", {"routers": -3})),
                    "--out", str(out)]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.run(["analyze", "--in", str(bad), "--metrics", "degree",
                    "--out", str(out)]) == 2
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "network", "--seed", "0", "--out", str(gpath)])
    assert cli.run(["analyze", "--in", str(gpath), "--metrics", "nope",
                    "--out", str(out)]) == 2


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_cli_simulate_consensus(tmp_path):
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "social", "--seed", "5", "--out", str(gpath)])
    out = tmp_path / "c.json"
    assert cli.run(["simulate", "--kind", "consensus", "--in", str(gpath),
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rounds"] >= 1
    trace = (out.parent / "c.json.trace.csv").read_text().splitlines()
    assert trace[0] == "round,spread"
    spreads = [float(l.split(",")[1]) for l in trace[1:]]
    assert spreads[-1] <= spreads[0]


def _assert_exit_2(capsys, argv):
    assert cli.run([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_cli_analyze_non_finite_weight_exit_2(tmp_path, capsys, text):
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["edges"][0]["weight"] = "WEIGHT"
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(doc).replace('"WEIGHT"', text))
    _assert_exit_2(capsys, ["analyze", "--in", gpath, "--metrics", "degree",
                            "--out", tmp_path / "m.csv"])
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("params", [
    {"routers": 5, "bogus": 1},  # unknown key
    {"seed": 3},  # the seed comes from --seed
    {"routers": "abc"},
    {"routers": 2.5},
    {"routers": True},
    {"edge_prob": "x"},
    {"complete": 1},
])
def test_cli_gen_bad_params_exit_2(tmp_path, capsys, params):
    _assert_exit_2(capsys, ["gen", "--scenario", "network", "--seed", "0", "--params",
                            _write(tmp_path, "p.json", params), "--out", tmp_path / "g.json"])


@pytest.mark.parametrize("argv, message", [
    # numpy refused a negative seed with a ValueError traceback
    (["gen", "--scenario", "network", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["optimize", "--scenario", "SCENARIO", "--mode", "both", "--seed", "-3"],
     "seed must be >= 0, got -3"),
    # these wrote a 2-block bisection
    (["partition", "--in", "GRAPH", "--k", "0"], "k must be >= 2, got 0"),
    (["partition", "--in", "GRAPH", "--k", "1"], "k must be >= 2, got 1"),
    (["partition", "--in", "GRAPH", "--k", "-4"], "k must be >= 2, got -4"),
])
def test_cli_bad_seed_or_k_exit_2(tmp_path, capsys, argv, message):
    gpath = tmp_path / "g.json"
    assert cli.run(["gen", "--scenario", "network", "--seed", "2", "--out", str(gpath)]) == 0
    paths = {"GRAPH": gpath, "SCENARIO": _write(tmp_path, "s.json", _typed_scenario())}
    out = tmp_path / "o.json"
    capsys.readouterr()
    assert cli.run([str(paths.get(a, a)) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind,params", [
    ("consensus", {"values": {"0": 1.0}}),  # misses most layer vertices
    ("consensus", {"values": {str(v): "x" for v in range(40)}}),
    ("consensus", {"values": [1.0, 2.0]}),
    ("consensus", {"tol": "small"}),
    ("consensus", {"tol": -1.0}),
    ("consensus", {"at": "later"}),
    ("consensus", {"layer": 3}),
    ("consensus", {"k": 2}),  # a cdn key
    ("cdn", {"k": "abc"}),
    ("cdn", {"k": 2.0}),
    ("cdn", {"demand": {"abc": 1.0}}),
    ("cdn", {"demand": {"0": None}}),
    ("consistency", {"items": "many"}),
    ("consistency", {"items": -1}),
    ("consistency", {"replication": 1.5}),
    ("consistency", {"updates": {"0": 5}}),
    ("consistency", {"updates": {"zero": {"1": 1}}}),
    ("consistency", {"updates": {"0": {"1": "new"}}}),
    # finite inputs whose sums overflow a float
    ("cdn", {"demand": {"0": 1e308, "25": 1e308}}),
    ("cdn", {"demand": {"0": 6.5e307, "10": 6.5e307}}),  # 3 hops apart: each cost overflows
    ("consensus", {"values": {str(v): (-1.5e308, 1.5e308)[v % 2] for v in range(40)}}),
    ("consensus", {"values": {str(v): 1e308 for v in range(40)}}),
    # params that name nothing
    ("consistency", {"items": 2, "updates": {"0": {"99999": 3}}}),
    ("consistency", {"items": 2, "updates": {"7": {"0": 1}}}),
    ("cdn", {"demand": {"0": 1.0, "1": -0.5}}),
    ("cdn", {"demand": {"0": 1.0, "999999": 5.0}}),
])
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the case
def test_cli_simulate_bad_params_exit_2(tmp_path, capsys, kind, params):
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "network", "--seed", "2", "--out", str(gpath)])
    _assert_exit_2(capsys, ["simulate", "--kind", kind, "--in", gpath, "--params",
                            _write(tmp_path, "p.json", params), "--out", tmp_path / "s.json"])


def test_cli_consistency_takes_storage_nodes_from_the_view(tmp_path):
    """Replicas go only to the storage nodes of the simulated view: not to
    one retired by ``at`` or to one outside ``layer``."""
    g = TemporalMultiLayerGraph()
    net, other = g.create_layer("net"), g.create_layer("other")
    a, b, c = (g.add_vertex({"storage-node"}, {net}) for _ in range(3))
    g.add_vertex({"storage-node"}, {other})
    for u, v in ((a, b), (b, c), (c, a)):
        g.add_edge(u, v, net, net, directed=False)
    g.retire_vertex(c, 3)
    gpath = tmp_path / "g.json"
    io.export_graph(g, str(gpath))
    for at in (1, 5):
        out = tmp_path / f"s{at}.json"
        assert cli.run(["simulate", "--kind", "consistency", "--in", str(gpath), "--params",
                        str(_write(tmp_path, "p.json", {"layer": "net", "at": at})),
                        "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"rounds": {"0": 1, "1": 0, "2": 0, "3": 0},
                                               "divergent": []}


def test_cli_consensus_trace_has_rounds_plus_one_rows(tmp_path):
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "network", "--seed", "2", "--out", str(gpath)])
    values = {str(v): float(v % 7) for v in range(100)}  # more ids than the graph has
    out = tmp_path / "c.json"
    assert cli.run(["simulate", "--kind", "consensus", "--in", str(gpath), "--params",
                    str(_write(tmp_path, "p.json", {"values": values, "tol": 1e-8})),
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    rows = (tmp_path / "c.json.trace.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(doc["rounds"] + 1))
    spreads = [float(r.split(",")[1]) for r in rows]
    assert spreads[0] == 6.0 and spreads[-1] <= 1e-8 < spreads[-2]


def test_cli_simulate_cdn(tmp_path):
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "network", "--seed", "2", "--out", str(gpath)])
    out = tmp_path / "cdn.json"
    assert cli.run(["simulate", "--kind", "cdn", "--in", str(gpath), "--params",
                    str(_write(tmp_path, "kp.json", {"k": 3})), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["caches"]) == 3 and doc["expected_hops"] >= 0


def test_cli_export_dot_and_json(tmp_path):
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "multilayer", "--seed", "1", "--out", str(gpath)])
    dot = tmp_path / "g.dot"
    assert cli.run(["export", "--in", str(gpath), "--format", "dot",
                    "--out", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")
    re_exported = tmp_path / "g2.json"
    assert cli.run(["export", "--in", str(gpath), "--format", "json",
                    "--out", str(re_exported)]) == 0
    assert re_exported.read_bytes() == gpath.read_bytes()


def test_cli_entry_point_subprocess(tmp_path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "versegraph.cli", "gen", "--scenario", "network",
         "--seed", "4", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_parser_reused_after_a_usage_error(tmp_path, capsys):
    """``cli.run`` builds its parser once per process.  Usage errors that
    stop parsing in a subcommand must leave nothing behind: the next command
    writes the bytes a fresh process writes."""
    scen = tmp_path / "s.json"
    io.dump_json({"domains": [{"id": d, "gamma": 2.0, "lambda": 1.5, "r_min": 0.0, "r_max": 4.0}
                              for d in "ab"],
                  "links": [{"id": "l", "capacity": 4.0, "coeffs": {"a": 1.0, "b": 1.0}}],
                  "coupling": "auto"}, str(scen))
    out = tmp_path / "o.json"
    argv = ["optimize", "--scenario", str(scen), "--mode", "both", "--seed", "3", "--out", str(out)]
    written = [out, *(tmp_path / f"o.json{s}" for s in
                      (".trace_isolated.csv", ".trace_coupled.csv", ".manifest.json"))]
    proc = subprocess.run([sys.executable, "-m", "versegraph.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    fresh = [p.read_bytes() for p in written]
    for p in written:
        p.unlink()
    for bad in (["optimize", "--scenario", str(scen), "--mode", "all", "--out", str(out)],
                ["optimize", "--scenario", str(scen), "--mode", "both", "--seed", "x"],
                ["gen", "--scenario", "network", "--seed", "1"],
                ["nosuch"]):
        with pytest.raises(SystemExit) as exc:
            cli.run(bad)
        assert exc.value.code == 2
    assert "usage: versegraph" in capsys.readouterr().err
    assert cli.run(argv) == 0
    assert [p.read_bytes() for p in written] == fresh


# -- scenario files ---------------------------------------------------------

def test_scenario_from_dict_explicit_coupling():
    s = io.scenario_from_dict({
        "domains": [
            {"id": "a", "gamma": 1.0, "lambda": 0.5, "r_min": 0.0, "r_max": 2.0},
            {"id": "b", "gamma": 1.0, "lambda": 0.5, "r_min": 0.0, "r_max": 2.0},
        ],
        "coupling": {"edges": [{"m": "a", "n": "b", "utility": True,
                                "weights": [0.5, 0.0, 2.0], "sign": -1.0}]},
    })
    e = s.coupling[0]
    assert (e.w_link, e.w_energy, e.w_util, e.sign) == (0.5, 0.0, 2.0, -1.0)
    assert e.utility


def test_scenario_from_dict_malformed():
    with pytest.raises(ValidationError):
        io.scenario_from_dict({"domains": [{"id": "a"}]})


def test_scenario_from_dict_rejects_bad_coupling():
    doms = [{"id": i, "gamma": 1.0, "lambda": 0.5, "r_min": 0.0, "r_max": 2.0} for i in "ab"]
    for coupling in ([], {"edges": [{"m": "a", "n": "zz"}]},
                     {"edges": [{"m": "a", "n": "b", "weights": [1.0]}]}):
        with pytest.raises(ValidationError):
            io.scenario_from_dict({"domains": doms, "coupling": coupling})


def _typed_scenario():
    return {
        "domains": [{"id": i, "gamma": 1.0, "lambda": 0.5, "r_min": 0.0, "r_max": 2.0}
                    for i in "ab"],
        "links": [{"id": "l", "capacity": 3.0, "coeffs": {"a": 1.0, "b": 1.0}}],
        "nodes": [{"id": "n", "eps_tx": 0.1, "eps_rx": 0.1,
                   "incident": [{"link": "l", "distance": 1.0}]}],
        "coupling": {"edges": [{"m": "a", "n": "b", "utility": False,
                                "weights": [1.0, 1.0, 1.0], "sign": 1.0}]},
    }


def _set_path(doc, path: str, value) -> None:
    """Set the value at a dotted path such as ``domains.0.gamma``."""
    *parents, key = path.split(".")
    for k in parents:
        doc = doc[int(k) if k.isdigit() else k]
    doc[int(key) if key.isdigit() else key] = value


SCENARIO_TYPE_CASES = [
    ("coupling.edges.0.utility", "false"),
    ("coupling.edges.0.weights", "123"),
    ("coupling.edges.0.weights", [1.0, 1.0, 1.0, 1.0]),
    ("coupling.edges.0.weights.1", "1"),
    ("coupling.edges.0.m", 0),
    ("coupling.edges.0.sign", None),
    ("domains.0.gamma", "2"),
    ("domains.0.gamma", True),
    ("domains.0.id", 7),
    ("links.0.capacity", 10 ** 400),
    ("links.0.coeffs.a", "1"),
    ("nodes.0.incident.0.distance", "1"),
    ("nodes.0.incident", {"l": 1.0}),
    ("domains.1", "b"),
    ("coupling", "manual"),
]


@pytest.mark.parametrize("path, value", SCENARIO_TYPE_CASES,
                         ids=[path for path, _ in SCENARIO_TYPE_CASES])
def test_cli_optimize_reads_scenario_with_json_types(tmp_path, capsys, path, value):
    doc = _typed_scenario()
    _set_path(doc, path, value)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "coupled",
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    # the message names the field the way the file spells its path
    field = ".".join(f"[{k}]" if k.isdigit() else k for k in path.split(".")).replace(".[", "[")
    assert err.startswith("error: malformed scenario file: ") and field in err, err


@pytest.mark.parametrize("path", [
    "utlity", "domains.0.gama", "links.0.cap", "nodes.0.eps", "nodes.0.incident.0.dist",
    "coupling.mode", "coupling.edges.0.utlity",
])
def test_cli_optimize_rejects_unknown_scenario_keys(tmp_path, capsys, path):
    doc = _typed_scenario()
    _set_path(doc, path, True)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "coupled",
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    key = path.rsplit(".", 1)[-1]
    assert err.startswith("error: malformed scenario file: ") and f"'{key}'" in err, err


RANGE_CASES = [
    ("domains.0.gamma", 0.0, "error: domain a: gamma must be > 0"),
    ("links.0.capacity", -1.0, "error: link l: capacity must be > 0"),
    ("nodes.0.incident.0.distance", 0, "error: node n: distance to l must be > 0"),
]


@pytest.mark.parametrize("path, value, message", RANGE_CASES,
                         ids=[path for path, _, _ in RANGE_CASES])
def test_cli_optimize_scenario_range_errors_keep_their_messages(tmp_path, capsys, path, value,
                                                                 message):
    # well-typed but out of range: the spec's own check speaks, not the reader
    doc = _typed_scenario()
    _set_path(doc, path, value)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "coupled",
                    "--out", str(tmp_path / "rep.json")]) == 2
    assert capsys.readouterr().err.strip() == message


def test_cli_optimize_rejects_repeated_incident_link(tmp_path, capsys):
    # read into a dict, the second distance would silently replace the first
    doc = _typed_scenario()
    doc["nodes"][0]["incident"].append({"link": "l", "distance": 2.0})
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "both",
                    "--out", str(tmp_path / "rep.json")]) == 2
    assert capsys.readouterr().err.strip() == \
        "error: malformed scenario file: nodes[0].incident[1].link 'l' repeats"
    assert not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("case", ["graph record", "scenario coeffs", "gen params", "simulate params"])
def test_cli_rejects_repeated_json_key(tmp_path, capsys, case):
    # read into a dict, the last value of a repeated key silently won
    gpath = tmp_path / "g.json"
    assert cli.run(["gen", "--scenario", "network", "--seed", "2", "--out", str(gpath)]) == 0
    out = tmp_path / "out.json"
    if case == "graph record":
        doc, key, before, after = json.loads(gpath.read_text()), "weight", '"weight": 0.125', '"weight": 9.0'
        doc["edges"][0]["weight"] = 0.125
        argv = ["export", "--in", "FILE", "--format", "json"]
    elif case == "scenario coeffs":
        doc, key, before, after = _typed_scenario(), "a", '"b": 1.0', '"a": 5.0'
        argv = ["optimize", "--scenario", "FILE", "--mode", "coupled"]
    elif case == "gen params":
        doc, key, before, after = {"routers": 5}, "routers", '"routers": 5', '"routers": 6'
        argv = ["gen", "--scenario", "network", "--seed", "0", "--params", "FILE"]
    else:
        doc, key, before, after = {"tol": 0.1}, "tol", '"tol": 0.1', '"tol": 0.2'
        argv = ["simulate", "--kind", "consensus", "--in", str(gpath), "--params", "FILE"]
    path = tmp_path / "in.json"
    text = json.dumps(doc)
    assert text.count(before) == 1
    path.write_text(text.replace(before, f"{before}, {after}"))
    capsys.readouterr()
    assert cli.run([str(path) if a == "FILE" else a for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {path}: key {key!r} repeats within one object\n"
    assert not out.exists()


def test_typed_scenario_is_accepted(tmp_path):
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(_typed_scenario()))
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "coupled",
                    "--out", str(tmp_path / "rep.json")]) == 0


def test_graph_file_with_non_scalar_attrs_exit_2(tmp_path, capsys):
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["vertices"][0]["attrs"] = {"x": [1]}
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(doc))
    assert cli.run(["export", "--in", str(gpath), "--format", "json",
                    "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertex 0: attrs") and "Traceback" not in err


@pytest.mark.parametrize("patch", [
    lambda doc: doc["domains"][0].update(gamma=float("nan")),
    lambda doc: doc["links"][0].update(capacity=float("inf")),
])
def test_cli_optimize_non_finite_exit_2(tmp_path, capsys, patch):
    doc = {
        "domains": [
            {"id": "compute", "gamma": 2.0, "lambda": 2.0, "r_min": 0.0, "r_max": 4.0},
            {"id": "content", "gamma": 2.2, "lambda": 1.8, "r_min": 0.0, "r_max": 4.0},
        ],
        "links": [{"id": "backbone", "capacity": 4.0,
                   "coeffs": {"compute": 1.0, "content": 1.0}}],
        "coupling": "auto",
    }
    patch(doc)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))  # writes the NaN / Infinity literals
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", "both",
                    "--out", str(tmp_path / "rep.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert "Traceback" not in err


def test_cli_optimize_overflowing_scenario_exit_2(tmp_path, capsys):
    """Finite numbers whose coupling terms overflow: (1e300)^2 / 1e-300."""
    doc = {
        "domains": [{"id": i, "gamma": 1.0, "lambda": 1.0, "r_min": 0.0, "r_max": 2.0}
                    for i in "ab"],
        "links": [{"id": "l", "capacity": 1e-300, "coeffs": {"a": 1e300, "b": 1e300}}],
        "coupling": "auto",
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(doc))
    for mode in ("coupled", "both"):
        assert cli.run(["optimize", "--scenario", str(spath), "--mode", mode,
                        "--out", str(tmp_path / "rep.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow" in err
        assert "Traceback" not in err


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the case
@pytest.mark.parametrize("sign, mode, code", [
    # R^T Q R and b^T R overflow at most points of the box
    (1e308, "isolated", 0), (1e308, "coupled", 2), (1e308, "both", 2),
    # the coupled optimum (0, 0) is finite; the isolated one's coupled objective is not
    (-1e308, "isolated", 0), (-1e308, "coupled", 0), (-1e308, "both", 2),
])
def test_cli_optimize_non_finite_result_exit_2(tmp_path, capsys, sign, mode, code):
    doc = {
        "domains": [{"id": i, "gamma": 1, "lambda": 1, "r_min": 0, "r_max": 4} for i in "ab"],
        "coupling": {"edges": [{"m": "a", "n": "b", "sign": sign, "utility": True}]},
    }
    spath, out = tmp_path / "s.json", tmp_path / "rep.json"
    spath.write_text(json.dumps(doc))
    assert cli.run(["optimize", "--scenario", str(spath), "--mode", mode, "--seed", "1",
                    "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and "not finite" in err, err
        return
    assert err == ""
    io.load_json(str(out))  # refuses NaN and Infinity
    trace = (tmp_path / "rep.json.trace.csv").read_text().splitlines()[1:]
    assert all(math.isfinite(float(x)) for row in trace for x in row.split(","))


def test_round_trip_retire_in_birth_tick(tmp_path):
    """A vertex retired in the tick it was born has an empty [t, t) lifetime,
    which the core allows; the importer must accept it too."""
    g = TemporalMultiLayerGraph()
    net = g.create_layer("network")
    hub = g.add_vertex({"router"}, {net}, {}, 0)
    dev = g.add_vertex({"device"}, {net}, {}, 3)
    g.add_edge(dev, hub, net, net, directed=False, t_start=3)
    g.retire_vertex(dev, 3)
    p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
    io.export_graph(g, str(p1))
    io.export_graph(io.import_graph(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["vertices"][dev]["t_end"] == doc["vertices"][dev]["t_start"] == 3


def test_import_rejects_vertex_ending_before_start():
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["vertices"][0]["t_end"] = -1
    with pytest.raises(ValidationError):
        io.graph_from_dict(doc)


def test_import_rejects_edge_ending_before_start():
    doc = json.loads(io.graph_to_json(_small_graph()))
    doc["edges"][1]["t_end"] = 0  # the session edge starts at 1
    with pytest.raises(ValidationError, match="edge 1: t_end must not precede t_start"):
        io.graph_from_dict(doc)


def test_load_json_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"name": "café"}'.encode("latin-1"))
    with pytest.raises(ValidationError, match="not UTF-8"):
        io.load_json(str(p))


# -- in-place output writer -------------------------------------------------

def test_write_text_shorter_over_longer(tmp_path):
    p = tmp_path / "out.txt"
    p.write_text("x" * 1000)
    io.write_text(str(p), "short\n")
    assert p.read_bytes() == b"short\n"


def test_write_text_equal_length_and_utf8(tmp_path):
    p = tmp_path / "out.txt"
    io.write_text(str(p), "abcdé\n")
    io.write_text(str(p), "vwxyé\n")
    assert p.read_bytes() == "vwxyé\n".encode("utf-8")


def test_write_text_follows_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old contents, longer than the new ones")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    io.write_text(str(link), "new\n")
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == b"new\n"


def test_write_text_hard_link_sees_new_bytes(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("first version\n")
    q = tmp_path / "b.txt"
    q.hardlink_to(p)
    io.write_text(str(p), "second\n")
    assert q.read_bytes() == b"second\n"
    assert p.stat().st_ino == q.stat().st_ino


def test_write_text_keeps_mode(tmp_path):
    p = tmp_path / "out.txt"
    p.write_text("old\n")
    p.chmod(0o640)
    io.write_text(str(p), "new and longer\n")
    assert p.stat().st_mode & 0o777 == 0o640
    assert p.read_bytes() == b"new and longer\n"


def test_cli_rerun_into_same_out_is_byte_identical(tmp_path):
    """Every output and the manifest come out the same on a rerun, also over
    outputs left longer than the new ones."""
    gpath = tmp_path / "g.json"
    cli.run(["gen", "--scenario", "social", "--seed", "5", "--out", str(gpath)])
    out = tmp_path / "c.json"
    files = [out, tmp_path / "c.json.trace.csv", tmp_path / "c.json.manifest.json"]
    argv = ["simulate", "--kind", "consensus", "--in", str(gpath), "--out", str(out)]
    assert cli.run(argv) == 0
    first = [f.read_bytes() for f in files]
    assert cli.run(argv) == 0
    assert [f.read_bytes() for f in files] == first
    for f in files:
        with open(f, "ab") as fh:
            fh.write(b"stale tail\n" * 100)
    assert cli.run(argv) == 0
    assert [f.read_bytes() for f in files] == first


# -- filesystem errors exit 2 -----------------------------------------------

def test_cli_missing_input_exit_2(tmp_path, capsys):
    _assert_exit_2(capsys, ["analyze", "--in", tmp_path / "missing.json",
                            "--metrics", "degree", "--out", tmp_path / "m.csv"])


def test_cli_input_is_directory_exit_2(tmp_path, capsys):
    _assert_exit_2(capsys, ["analyze", "--in", tmp_path, "--metrics", "degree",
                            "--out", tmp_path / "m.csv"])


def test_cli_non_utf8_input_exit_2(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_bytes(b'{"version": 1, "layers": [{"id": 0, "name": "r\xe9seau"}]}')
    _assert_exit_2(capsys, ["analyze", "--in", gpath, "--metrics", "degree",
                            "--out", tmp_path / "m.csv"])


def test_cli_output_directory_missing_exit_2(tmp_path, capsys):
    _assert_exit_2(capsys, ["gen", "--scenario", "network", "--seed", "0",
                            "--out", tmp_path / "no_such_dir" / "g.json"])


def test_cli_unwritable_manifest_exit_2(tmp_path, capsys):
    (tmp_path / "g.json.manifest.json").mkdir()
    _assert_exit_2(capsys, ["gen", "--scenario", "network", "--seed", "0",
                            "--out", tmp_path / "g.json"])
