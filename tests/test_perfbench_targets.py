"""The benchmark's span recorder (``perfbench/spans.py``) wraps versegraph
functions and methods by name.  A renamed or deleted target would only fail
the traced benchmark run, so this checks that every one still resolves."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for modname, path, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"versegraph.{modname}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{modname}.{path}")
    assert missing == []
