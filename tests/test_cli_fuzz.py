"""Property test: ``optimize --scenario`` never ends in a traceback.

Scenario documents are drawn with huge, tiny and zero finite numbers, then
edited at random places: a key dropped or a value swapped for one of the
wrong type.  Each runs through ``cli.run`` in process and must return one of
the contract's exit codes.
"""

import contextlib
import io as stdio
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from versegraph import cli

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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=SCENARIO, edits=EDITS, mode=st.sampled_from(["isolated", "coupled", "both"]))
def test_optimize_scenario_fuzz(tmp_path_factory, doc, edits, mode):
    for pick, drop, junk in edits:
        places = _places(doc)
        container, key = places[pick % len(places)]
        if drop and isinstance(container, dict):
            del container[key]
        else:
            container[key] = junk
    work = tmp_path_factory.mktemp("fuzz")
    spath = work / "s.json"
    spath.write_text(json.dumps(doc))
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(["optimize", "--scenario", str(spath), "--mode", mode, "--seed", "1",
                        "--out", str(work / "rep.json")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
