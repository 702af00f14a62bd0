"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

It runs every workload once untraced and once traced, then checks that every
named metric is printed with its unit and that the recorded spans nest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out", "tiny")
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("cli-pipeline", "temporal-churn", "crossopt-k8")
E2E = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ops_failed_frac": "frac"}
CHURN_E2E = {"write_ms_p50": "ms", "write_ms_tail": "ms", "read_ms_p50": "ms",
             "read_ms_tail": "ms", "checkpoint_s": "s", "reload_s": "s"}


def _run(trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "0", "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _tables(stdout: str) -> dict[str, dict[str, tuple[str, int]]]:
    """workload -> metric -> (unit, sample count), from the printed tables."""
    tables: dict = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = tables.setdefault(line.split()[1], {})
            continue
        parts = line.split()
        if current is not None and len(parts) >= 4 and parts[3].isdigit():
            try:
                float(parts[1])
            except ValueError:
                continue
            current[parts[0]] = (parts[2], int(parts[3]))
    return tables


@pytest.fixture(scope="module")
def untraced():
    return _run(0)


@pytest.fixture(scope="module")
def traced():
    return _run(1)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_end_to_end_metric_printed_with_unit(untraced):
    tables = _tables(untraced)
    assert set(tables) == set(WORKLOADS)
    for wl, rows in tables.items():
        want = {**E2E, **(CHURN_E2E if wl == "temporal-churn" else {})}
        for name, unit in want.items():
            assert name in rows, (wl, name)
            assert rows[name][0] == unit and rows[name][1] >= 1, (wl, name, rows[name])
    line = json.loads(untraced.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for m in _spec()["end_to_end"]:
        for wl in WORKLOADS:
            assert line["metrics"][f"{wl}.{m['name']}"]["unit"] == m["unit"]


def test_every_per_layer_metric_printed_with_unit(traced):
    tables = _tables(traced)
    listed = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    line = json.loads(traced.strip().splitlines()[-1])
    for wl in WORKLOADS:
        rows = tables[wl]
        for name, unit, _ in metrics.PER_LAYER:
            assert rows[name][0] == unit, (wl, name)
        assert rows["trace.overhead_frac"][0] == "frac"
        for name, unit in listed.items():
            assert line["metrics"][f"{wl}.{name}"]["unit"] == unit


def test_known_reload_defect_is_counted(untraced):
    # the churn workload retires devices in the tick they were born; the
    # checkpoint then fails to import (see perfbench/README.md)
    assert "check export_import_export_identical: FAIL" in untraced.split("== temporal-churn")[1]
    assert json.loads(untraced.strip().splitlines()[-1])["failed"] > 0


def test_spans_nest_and_self_times_are_non_negative(traced):
    for wl in WORKLOADS:
        with open(os.path.join(OUT, f"{wl}.spans.json")) as fh:
            sp = json.load(fh)
        start, end, parent = sp["start"], sp["end"], sp["parent"]
        assert len(start) > 0
        child_time = [0] * len(start)
        for i, p in enumerate(parent):
            assert start[i] <= end[i], (wl, i)
            if p >= 0:
                assert p < i and start[p] <= start[i] and end[i] <= end[p], (wl, i, sp["name"][i])
                child_time[p] += end[i] - start[i]
        for i in range(len(start)):
            assert end[i] - start[i] - child_time[i] >= 0, (wl, sp["name"][i])
        with open(os.path.join(OUT, "results", f"{wl}-seed3-trace1.json")) as fh:
            summary = json.load(fh)["spans"]
        assert all(row["self_s"] >= 0 for row in summary.values())
