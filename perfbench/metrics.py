"""Summary statistics, the recorded environment, and the per-layer metric
table that maps span summaries to named metrics."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import resource
import statistics
from importlib import metadata

import numpy as np

# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(xs, n=4)`` gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(xs: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are too few samples for any."""
    for p in TAIL_PERCENTILES:
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(xs, p))
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    from versegraph import kernels

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "using_numba": bool(kernels.USING_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def same_environment(a: dict, b: dict) -> bool:
    """Environments match when everything but the seed is equal."""
    strip = lambda e: {k: v for k, v in e.items() if k != "seed"}  # noqa: E731
    return strip(a) == strip(b)


# ---------------------------------------------------------------------------
# per-layer metrics from a span summary
# ---------------------------------------------------------------------------

def _incl(*names):
    return lambda s: sum(s.get(n, {}).get("incl_s", 0.0) for n in names)


def _calls(*names):
    return lambda s: sum(s.get(n, {}).get("calls", 0) for n in names)


def _attr(key, *names):
    return lambda s: sum(s.get(n, {}).get(key, 0) for n in names)


def _objective_us(s):
    row = s.get("crossopt.objective")
    return 1e6 * row["incl_s"] / row["calls"] if row else 0.0


def _cut_edges(s):
    # the outermost partition call: k-way recurses into bisections
    row = s.get("partition.spectral_kway") or s.get("partition.spectral_bisection") or {}
    return row.get("cut_edges", 0)


CLI_COMMANDS = ("gen", "analyze", "partition", "simulate_consensus", "simulate_cdn",
                "optimize", "export_json", "export_dot")

# (metric, unit, value from span summary).  Times are inclusive seconds of
# the named spans; counts are calls or summed span attributes.
PER_LAYER = [
    *[(f"cli.{c}_s", "s", _incl(f"cli.{c}")) for c in CLI_COMMANDS],
    ("core.snapshot_at_s", "s", _incl("core.snapshot_at")),
    ("core.view_s", "s", _incl("core.view")),
    ("core.csr_s", "s", _incl("core.csr")),
    ("core.add_s", "s", _incl("core.add")),
    ("core.add_ops", "count", _calls("core.add")),
    ("core.retire_s", "s", _incl("core.retire")),
    ("core.retire_ops", "count", _calls("core.retire")),
    ("core.events", "count", _attr("events", "core.add", "core.retire")),
    ("analytics.betweenness_s", "s", _incl("analytics.betweenness")),
    ("analytics.clustering_s", "s", _incl("analytics.clustering")),
    ("analytics.components_s", "s", _incl("analytics.components")),
    ("analytics.bfs_s", "s", _incl("analytics.bfs")),
    ("kernels.betweenness_raw_s", "s", _incl("kernels.betweenness_raw")),
    ("kernels.hop_distances_s", "s", _incl("kernels.hop_distances")),
    ("kernels.consensus_run_s", "s", _incl("kernels.consensus_run")),
    ("kernels.consensus_rounds", "count", _attr("rounds", "kernels.consensus_run")),
    # computed from array sizes (n x nnz and n^2 x 8), not measured
    ("kernels.betweenness_arc_visits", "count", _attr("arc_visits", "kernels.betweenness_raw")),
    ("kernels.hop_bytes", "bytes", _attr("bytes", "kernels.hop_distances")),
    ("partition.laplacian_s", "s", _incl("partition.laplacian")),
    ("partition.fiedler_s", "s", _incl("partition.fiedler")),
    ("partition.fiedler_calls", "count", _calls("partition.fiedler")),
    ("partition.eigen_residual_max", "norm",
     lambda s: s.get("partition.fiedler", {}).get("residual_max", 0.0)),
    ("partition.cut_edges", "count", _cut_edges),
    ("netopt.shortest_path_s", "s", _incl("netopt.shortest_path")),
    ("netopt.max_flow_s", "s", _incl("netopt.max_flow")),
    ("netopt.mst_s", "s", _incl("netopt.mst")),
    ("crossopt.optimize_isolated_s", "s", _incl("crossopt.optimize_isolated")),
    ("crossopt.optimize_coupled_s", "s", _incl("crossopt.optimize_coupled")),
    ("crossopt.objective_evals", "count", _calls("crossopt.objective")),
    ("crossopt.objective_us", "us", _objective_us),
    ("crossopt.gradient_evals", "count", _calls("crossopt.gradient")),
    ("crossopt.trace_iters", "count",
     _attr("trace_iters", "crossopt.optimize_isolated", "crossopt.optimize_coupled")),
    # temporal-churn generates its graph in set-up, cli-pipeline in a pass
    ("scenario.gen_s", "s", _incl("scenario.gen", "setup/scenario.gen")),
    ("scenario.consensus_sim_s", "s", _incl("scenario.consensus_sim")),
    ("scenario.cdn_place_caches_s", "s", _incl("scenario.cdn_place_caches")),
    ("io.export_graph_s", "s", _incl("io.export_graph")),
    ("io.export_bytes", "bytes", _attr("bytes", "io.export_graph")),
    ("io.import_graph_s", "s", _incl("io.import_graph")),
    ("io.snapshot_to_dot_s", "s", _incl("io.snapshot_to_dot")),
]

TRACE_OVERHEAD = ("trace.overhead_frac", "frac")
COMPUTED = {"kernels.betweenness_arc_visits", "kernels.hop_bytes"}


def per_layer(summary: dict) -> dict[str, tuple[float, str]]:
    return {name: (float(fn(summary)), unit) for name, unit, fn in PER_LAYER}
