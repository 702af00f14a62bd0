"""Property tests: no CLI input file ends in a traceback.

Scenario documents are drawn with huge, tiny and zero finite numbers, then
edited at random places: a key dropped or a value swapped for one of the
wrong type.  A small exported graph file and ``gen`` and ``simulate``
params files are edited the same way.  Each runs through ``cli.run`` in
process and must return one of the contract's exit codes.
"""

import contextlib
import io as stdio
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from versegraph import cli, io
from versegraph.core import TemporalMultiLayerGraph

IDS = ["a", "b", "c"]
LINK_IDS = ["l0", "l1"]

EXTREMES = st.sampled_from([0, 0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300,
                            1.7976931348623157e308, -1.7976931348623157e308, 10 ** 400])
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(-2, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))


def _num(lo, hi):
    """A float in [lo, hi] three times in four, else an extreme value."""
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi), EXTREMES)


DOMAIN = st.fixed_dictionaries({
    "id": st.sampled_from(IDS), "gamma": _num(0.1, 4.0), "lambda": _num(-1.0, 3.0),
    "r_min": _num(-1.0, 1.0), "r_max": _num(1.5, 5.0),
})
LINK = st.fixed_dictionaries({
    "id": st.sampled_from(LINK_IDS), "capacity": _num(0.0, 6.0),
    "coeffs": st.dictionaries(st.sampled_from(IDS), _num(0.0, 2.0), max_size=3),
})
NODE = st.fixed_dictionaries({
    "id": st.just("n0"), "eps_tx": _num(0.0, 0.2), "eps_rx": _num(0.0, 0.2),
    "incident": st.lists(st.fixed_dictionaries({"link": st.sampled_from(LINK_IDS),
                                                "distance": _num(0.1, 3.0)}), max_size=2),
})
EDGE = st.fixed_dictionaries({
    "m": st.sampled_from(IDS), "n": st.sampled_from(IDS), "utility": st.booleans(),
    "weights": st.lists(_num(0.0, 2.0), min_size=3, max_size=3), "sign": _num(-1.0, 1.0),
})
SCENARIO = st.fixed_dictionaries({
    "domains": st.lists(DOMAIN, min_size=1, max_size=3, unique_by=lambda d: d["id"]),
    "links": st.lists(LINK, max_size=2, unique_by=lambda l: l["id"]),
    "nodes": st.lists(NODE, max_size=1),
    "coupling": st.one_of(st.just("auto"),
                          st.fixed_dictionaries({"edges": st.lists(EDGE, max_size=3)})),
})
# (which place, drop the key rather than swap the value, the wrong-typed value)
EDITS = st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), JUNK), max_size=2)


def _places(doc):
    """Every (container, key) pair below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for k, v in items:
        out.append((doc, k))
        out.extend(_places(v))
    return out


def _edit(doc, edits):
    for pick, drop, junk in edits:
        places = _places(doc)
        if not places:
            return
        container, key = places[pick % len(places)]
        if drop and isinstance(container, dict):
            del container[key]
        else:
            container[key] = junk


def _run(argv: list[str]) -> None:
    """Run one command; assert a contract exit code and no traceback."""
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdio.StringIO()):
        code = cli.run(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=SCENARIO, edits=EDITS, mode=st.sampled_from(["isolated", "coupled", "both"]))
def test_optimize_scenario_fuzz(tmp_path_factory, doc, edits, mode):
    _edit(doc, edits)
    work = tmp_path_factory.mktemp("fuzz")
    spath = work / "s.json"
    spath.write_text(json.dumps(doc))
    _run(["optimize", "--scenario", str(spath), "--mode", mode, "--seed", "1",
          "--out", str(work / "rep.json")])


def _graph_doc() -> dict:
    """Two layers, an inter-layer edge, attributes and a retired vertex."""
    g = TemporalMultiLayerGraph()
    net, soc = g.create_layer("network"), g.create_layer("social")
    a = g.add_vertex({"router"}, {net}, {"region": "eu", "tier": 1}, 0)
    b = g.add_vertex({"server"}, {net}, {}, 0)
    u = g.add_vertex({"user"}, {net, soc}, {}, 1)
    w = g.add_vertex({"user"}, {soc}, {}, 2)
    g.add_edge(a, b, net, net, directed=False, weight=2.0, relation="uplink", t_start=0)
    g.add_edge(u, b, soc, net, weight=1.5, relation="session", t_start=1)
    g.add_edge(u, w, soc, soc, directed=False, t_start=2)
    g.retire_vertex(a, 10)
    return io.graph_to_dict(g)


# no large integers in params: an edited size or count must not ask for a
# huge graph or item list; a graph file may hold any integer
SMALL = st.one_of(st.integers(-3, 12), st.sampled_from([0.7, -0.5, 1e300]), JUNK,
                  st.lists(st.one_of(st.integers(-1, 3), st.text(max_size=2)), max_size=3))


def _edits(values, min_size=0, max_size=2):
    """(which place, drop the key rather than swap the value, the new value)"""
    return st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(), values),
                    min_size=min_size, max_size=max_size)


GRAPH_COMMANDS = [["analyze", "--metrics", "degree,betweenness,clustering,components", "--at", "2"],
                  ["export", "--format", "json"], ["export", "--format", "dot", "--at", "2"]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edits=_edits(st.one_of(SMALL, st.just(10 ** 400)), min_size=1, max_size=3))
def test_graph_file_fuzz(tmp_path_factory, edits):
    doc = _graph_doc()
    _edit(doc, edits)
    work = tmp_path_factory.mktemp("fuzz")
    gpath = work / "g.json"
    gpath.write_text(json.dumps(doc))
    for argv in GRAPH_COMMANDS:
        _run([argv[0], "--in", str(gpath), *argv[1:], "--out", str(work / "out")])


@pytest.mark.parametrize("where, key, value", [
    ("vertices", "roles", [1, "a"]),  # sorting mixed roles raised TypeError in export
    ("vertices", "id", 0.7),  # int(0.7) read it as vertex 0
    ("edges", "src", True),
    ("edges", "relation", ["x"]),
    ("edges", "weight", 10 ** 400),
    ("vertices", "layers", [1.0]),  # equal to layer 1 as a set member, but not an integer
    ("edges", "t_ned", 5),  # a misspelled key read as an open edge
])
def test_graph_file_wrong_types_exit_2(tmp_path, capsys, where, key, value):
    doc = _graph_doc()
    doc[where][-1][key] = value  # the last record, after good ones of the same shape
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(doc))
    for argv in GRAPH_COMMANDS:
        assert cli.run([argv[0], "--in", str(gpath), *argv[1:], "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, params", [
    (["gen", "--scenario", "social", "--seed", "1"], {"edge_prob": 10 ** 400}),
    (["simulate", "--kind", "consensus"], {"tol": 10 ** 400}),
    (["simulate", "--kind", "cdn"], {"demand": {"0": -(10 ** 400)}}),
])
def test_params_integer_too_large_for_a_float_exit_2(tmp_path, capsys, argv, params):
    # a float param given as a huge JSON integer raised OverflowError
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    gpath.write_text(json.dumps(_graph_doc()))
    ppath.write_text(json.dumps(params))
    extra = [] if argv[0] == "gen" else ["--in", str(gpath)]
    assert cli.run([*argv, *extra, "--params", str(ppath), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


GEN_DOC = st.fixed_dictionaries({}, optional={
    "routers": st.integers(0, 6), "servers": st.integers(0, 3), "devices": st.integers(0, 6),
    "users": st.integers(0, 6), "items": st.integers(0, 4), "admins": st.integers(0, 2),
    "attachment": st.integers(1, 3), "edge_prob": st.floats(0.0, 1.0), "complete": st.booleans(),
})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=GEN_DOC, edits=_edits(SMALL),
       name=st.sampled_from(["network", "social", "cms", "multilayer"]))
def test_gen_params_fuzz(tmp_path_factory, doc, edits, name):
    _edit(doc, edits)
    work = tmp_path_factory.mktemp("fuzz")
    ppath = work / "p.json"
    ppath.write_text(json.dumps(doc))
    _run(["gen", "--scenario", name, "--seed", "3", "--params", str(ppath),
          "--out", str(work / "g.json")])


SIMULATE_VALUES = {
    "layer": st.sampled_from(["network", "social", "all", "nope"]), "at": st.integers(-1, 3),
    "tol": st.floats(0.0, 1.0), "values": st.dictionaries(st.sampled_from("01234"), st.floats(-5, 5)),
    "items": st.integers(0, 4), "replication": st.integers(0, 3),
    "updates": st.dictionaries(st.sampled_from("012"),
                               st.dictionaries(st.sampled_from("0123"), st.integers(0, 3))),
    "k": st.integers(0, 4), "demand": st.dictionaries(st.sampled_from("0123"), st.floats(0, 5)),
}
# (kind, a params document holding only keys that kind allows)
SIMULATE_DOC = st.sampled_from(sorted(cli.SIMULATE_PARAMS)).flatmap(lambda kind: st.tuples(
    st.just(kind), st.fixed_dictionaries(
        {}, optional={key: SIMULATE_VALUES[key] for key in cli.SIMULATE_PARAMS[kind]})))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind_doc=SIMULATE_DOC, edits=_edits(SMALL))
def test_simulate_params_fuzz(tmp_path_factory, kind_doc, edits):
    kind, doc = kind_doc
    _edit(doc, edits)
    work = tmp_path_factory.mktemp("fuzz")
    gpath, ppath = work / "g.json", work / "p.json"
    gpath.write_text(json.dumps(_graph_doc()))
    ppath.write_text(json.dumps(doc))
    _run(["simulate", "--kind", kind, "--in", str(gpath), "--params", str(ppath),
          "--out", str(work / "s.json")])
