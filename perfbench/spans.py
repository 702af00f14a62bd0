"""Span recording for the traced run, installed from outside the program.

:func:`install` replaces selected public functions and methods of the
versegraph modules with wrappers that record a span per call: name, start,
end and parent span.  A function is replaced wherever a module binds it, so
``scenario`` and ``partition``, which import ``weakly_connected_components``
under their own names, are traced too.  :func:`uninstall` puts the originals
back.  Spans stay in memory until :meth:`Recorder.dump` writes them out.

Only layer-boundary calls are wrapped.  Inner helpers that run millions of
times per pass (``crossopt.utility``, ``GraphView.neighbors``) are not, since
a span each would dominate the run they measure.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Recorder:
    """Spans in four parallel lists; index = span id, parent -1 = root.
    Times are ``perf_counter_ns`` readings."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def self_times(self) -> np.ndarray:
        """Seconds: duration minus the time covered by direct children.
        Spans come from one thread, so children of one parent never overlap."""
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        own = dur.copy()
        parent = np.array(self.parent, dtype=np.int64)
        has = parent >= 0
        np.subtract.at(own, parent[has], dur[has])
        return own / 1e9

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost calls of that
        name only, so recursion is not counted twice), self seconds, and
        the sum and max of every numeric attribute.  Spans under a root
        span named ``setup`` are summarised as ``setup/<name>``."""
        own = self.self_times()
        root: list[int] = []
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(self.name):
            p = self.parent[i]
            root.append(i if p < 0 else root[p])  # parents precede children
            under_setup = p >= 0 and self.name[root[i]] == "setup"
            row = out[f"setup/{name}" if under_setup else name]
            row["calls"] += 1
            row["self_s"] += float(own[i])
            while p >= 0 and self.name[p] != name:
                p = self.parent[p]
            if p < 0:
                row["incl_s"] += (self.end[i] - self.start[i]) / 1e9
            for k, v in self.attrs.get(i, {}).items():
                row[k] = row.get(k, 0) + v
                row[k + "_max"] = max(row.get(k + "_max", v), v)
        return dict(out)

    def dump(self, path: str) -> None:
        t0 = self.start[0] if self.start else 0
        doc = {
            "clock": "nanoseconds from the first span's start",
            "name": self.name,
            "start": [s - t0 for s in self.start],
            "end": [e - t0 for e in self.end],
            "parent": self.parent,
            "attrs": {str(i): a for i, a in self.attrs.items()},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _mode_name(a, k):
    mode = a[1] if len(a) > 1 else k["mode"]
    return f"crossopt.optimize_{mode}"


def _trace_len(a, k):
    trace = a[3] if len(a) > 3 else k.get("trace")
    return len(trace) if trace is not None else 0


def _residual(a, k, r, _):
    lam, v = r
    return {"residual": float(np.linalg.norm(a[0] @ v - lam * v))}


def _result(key, attr):
    return None, lambda a, k, r, _: {key: attr(a, r)}


# core writes: how many events the call appended to the log
_EVENTS = (lambda a, k: len(a[0].events),
           lambda a, k, r, before: {"events": len(a[0].events) - before})
# optimize: how many trace rows the call appended
_TRACE = (_trace_len, lambda a, k, r, before: {"trace_iters": _trace_len(a, k) - before})

# (module, attribute path, span name or name(args, kwargs), attributes)
# attributes: None or (before(args, kwargs), after(args, kwargs, result, before))
TARGETS = [
    ("core", "TemporalMultiLayerGraph.snapshot_at", "core.snapshot_at", None),
    ("core", "SnapshotView.flatten", "core.view", None),
    ("core", "SnapshotView.layer_subgraph", "core.view", None),
    ("core", "GraphView.csr", "core.csr", None),
    ("core", "TemporalMultiLayerGraph.add_vertex", "core.add", _EVENTS),
    ("core", "TemporalMultiLayerGraph.add_edge", "core.add", _EVENTS),
    ("core", "TemporalMultiLayerGraph.retire_vertex", "core.retire", _EVENTS),
    ("core", "TemporalMultiLayerGraph.retire_edge", "core.retire", _EVENTS),
    ("analytics", "degree_centrality", "analytics.degree", None),
    ("analytics", "betweenness_centrality", "analytics.betweenness", None),
    ("analytics", "clustering_coefficient", "analytics.clustering", None),
    ("analytics", "weakly_connected_components", "analytics.components", None),
    ("analytics", "bfs_order", "analytics.bfs", None),
    # arc visits and bytes are computed from array sizes, not measured
    ("kernels", "betweenness_raw", "kernels.betweenness_raw",
     _result("arc_visits", lambda a, r: int(a[4]) * len(a[1]))),
    ("kernels", "hop_distances", "kernels.hop_distances",
     _result("bytes", lambda a, r: int(a[2]) ** 2 * 8)),
    ("kernels", "consensus_run", "kernels.consensus_run",
     _result("rounds", lambda a, r: int(r[0]))),
    ("partition", "laplacian", "partition.laplacian", None),
    ("partition", "fiedler_vector", "partition.fiedler", (None, _residual)),
    ("partition", "spectral_bisection", "partition.spectral_bisection",
     _result("cut_edges", lambda a, r: r.cut_edges)),
    ("partition", "spectral_kway", "partition.spectral_kway",
     _result("cut_edges", lambda a, r: r.cut_edges)),
    ("netopt", "shortest_path", "netopt.shortest_path", None),
    ("netopt", "max_flow_min_cut", "netopt.max_flow", None),
    ("netopt", "minimum_spanning_tree", "netopt.mst", None),
    ("crossopt", "compare", "crossopt.compare", None),
    ("crossopt", "optimize", _mode_name, _TRACE),
    ("crossopt", "objective", "crossopt.objective", None),
    ("crossopt", "gradient", "crossopt.gradient", None),
    ("scenario", "gen_network_layer", "scenario.gen", None),
    ("scenario", "gen_social_layer", "scenario.gen", None),
    ("scenario", "gen_cms_bipartite", "scenario.gen", None),
    ("scenario", "consensus_sim", "scenario.consensus_sim", None),
    ("scenario", "cdn_place_caches", "scenario.cdn_place_caches", None),
    ("io", "export_graph", "io.export_graph",
     _result("bytes", lambda a, r: os.path.getsize(a[1]))),
    ("io", "import_graph", "io.import_graph", None),
    ("io", "snapshot_to_dot", "io.snapshot_to_dot", None),
]


def _wrap(fn, rec: Recorder, name, attrs):
    before, after = attrs or (None, None)

    @functools.wraps(fn)
    def wrapper(*a, **k):
        i = rec.open(name(a, k) if callable(name) else name)
        b = before(a, k) if before else None
        try:
            result = fn(*a, **k)
        finally:
            rec.close(i)
        if after:
            rec.attrs[i] = after(a, k, result, b)
        return result
    return wrapper


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the ``(owner, attribute, original)``
    patches for :func:`uninstall`."""
    mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
            if n.startswith("versegraph.") and m is not None}
    patches = []
    for modname, path, name, attrs in TARGETS:
        owner = mods[modname]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        orig = getattr(owner, attr)
        wrapper = _wrap(orig, rec, name, attrs)
        if cls:
            patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            continue
        # every module namespace that binds this function, not just its home
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)
