"""versegraph benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
adds one traced pass after the untraced ones and reports the per-layer
metrics and the tracing overhead.  Each run prints a table of every metric
with its unit and sample count, the correctness checks, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with the environment, is also written to
``.perfbench_out/<size>/results/``; ``perfbench/compare.py`` compares two
sets of them.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io as stdio
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# setup_s is the median of this many fresh-process set-ups per run, half
# taken before the passes and half after, to sample the machine at both ends
SETUP_SAMPLES = {"full": 10, "tiny": 2}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_args(argv):
    ap = argparse.ArgumentParser(description="versegraph benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["cli-pipeline", "temporal-churn", "crossopt-k8", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="keep starting passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test only")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "versegraph", "__init__.py")):
        print(f"error: no versegraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # only now, with SRC first on sys.path

    if args.setup_only:
        setup_once(args.workload, args.seed, args.size)
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace, args.size) for n in names]
    if len(results) == 1:
        line = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def warm_blas() -> None:
    """The first LAPACK call pays a one-off start-up cost; pay it here."""
    import numpy as np

    a = np.random.default_rng(0).random((256, 256))
    np.linalg.eigh(a + a.T)


def setup_once(name: str, seed: int, size: str) -> None:
    """What a fresh process does before its first pass: imports (already
    done by the caller), the first BLAS call, and generating the inputs."""
    from workloads import WORKLOADS

    warm_blas()
    work = os.path.join(OUT, f"setup-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        WORKLOADS[name](size).prepare(work, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(name: str, seed: int, size: str, count: int) -> list[float]:
    """Wall time of fresh processes that only set up, one sample each."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--size", size, "--setup-only"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    return samples


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def timed_pass(w, inp, ops):
    t0 = time.perf_counter()
    with ops.span("pass"), contextlib.redirect_stdout(stdio.StringIO()):
        res = w.run_pass(inp, ops)
    res.seconds = time.perf_counter() - t0
    return res


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    import metrics as M
    import spans
    from workloads import WORKLOADS, Ops

    w = WORKLOADS[name](size)
    setup = measure_setup(name, seed, size, SETUP_SAMPLES[size] // 2)
    warm_blas()
    out = os.path.join(OUT, size)
    work = os.path.join(out, f"work-{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        ops, passes, inp = Ops(), [], None
        t_start = time.perf_counter()
        # closed loop, one client; two passes feed the determinism check,
        # or one untraced pass plus the traced pass
        while len(passes) < (1 if trace else 2) or time.perf_counter() - t_start < seconds:
            if inp is None or w.mutates_inputs:
                inp = w.prepare(work, seed)
            passes.append(timed_pass(w, inp, ops))
        peak_mb = M.peak_rss_mb()
        setup += measure_setup(name, seed, size, SETUP_SAMPLES[size] - len(setup))
        summary = None
        if trace:
            ops.rec = rec = spans.Recorder()
            patches = spans.install(rec)
            try:
                with rec.span("setup"):
                    inp = w.prepare(work, seed)
                traced = timed_pass(w, inp, ops)
            finally:
                spans.uninstall(patches)
                ops.rec = None
            summary = rec.summary()
            rec.dump(os.path.join(out, f"{name}.spans.json"))
        last = traced if trace else passes[-1]
        digests = {p.digest for p in passes + ([traced] if trace else [])}
        checks = [("passes_give_identical_digests", len(digests) == 1,
                   f"{len(passes) + trace} passes, {len(digests)} distinct digests")]
        checks += w.check(inp, last)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_s = [p.seconds for p in passes]
    rows = []  # (metric, value, unit, samples, tail)
    metrics: dict = {}
    if trace:
        for metric, (value, unit) in M.per_layer(summary).items():
            rows.append((metric, value, unit, 1,
                         "computed from array sizes" if metric in M.COMPUTED else None))
        overhead = traced.seconds / M.quartiles(run_s)[1] - 1.0
        metric, unit = M.TRACE_OVERHEAD
        rows.append((metric, overhead, unit, 1, None))
    else:
        rows.append(("setup_s", M.quartiles(setup)[1], "s", len(setup), M.tail(setup)))
        rows.append(("run_s", M.quartiles(run_s)[1], "s", len(run_s), M.tail(run_s)))
        rows.append(("peak_rss_mb", peak_mb, "MB", 1, None))
        if name == "temporal-churn":
            rows += _churn_rows(passes, M)
    for metric, value, unit, _, _ in rows:
        metrics[metric] = {"value": value, "unit": unit}
    listed = [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]

    failed = ops.failed
    result = {
        "workload": name, "seed": seed, "trace": trace, "size": size, "seconds": seconds,
        "env": M.environment(seed),
        "correct": all(ok for _, ok, _ in checks),
        "attempted": len(ops.log), "failed": len(failed),
        # the last output line carries the metrics BENCHMARK.json lists
        "metrics": {k: metrics[k] for k in listed if k in metrics},
        "all_metrics": metrics,
        "samples": {"setup_s": setup, "run_s": run_s},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "failed_ops": [{"kind": op.kind, "error": op.error} for op in failed[:20]],
        "spans": summary,
    }
    _report(result, rows)
    path = os.path.join(out, "results", f"{name}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _churn_rows(passes, M):
    rows = []
    for kind in ("write", "read"):
        xs = [x for p in passes for x in p.extra[f"{kind}_ms"]]
        tl = M.tail(xs)
        rows.append((f"{kind}_ms_p50", M.quartiles(xs)[1], "ms", len(xs), tl))
        rows.append((f"{kind}_ms_tail", tl[1] if tl else max(xs), "ms", len(xs), tl))
    for key in ("checkpoint_s", "reload_s"):
        xs = [p.extra[key] for p in passes]
        rows.append((key, M.quartiles(xs)[1], "s", len(xs), M.tail(xs)))
    failed = sum(not p.extra["reload_ok"] for p in passes)
    if failed:
        # a failed reload misses any latency limit, whatever its time
        rows[-1] = (*rows[-1][:4], f"{failed} of {len(passes)} reloads failed")
    return rows


def _report(r: dict, rows) -> None:
    print(f"== {r['workload']}  seed={r['seed']} size={r['size']} trace={r['trace']}")
    print("env: " + json.dumps(r["env"], sort_keys=True))
    print(f"{'metric':34s} {'value':>16s} {'unit':6s} {'n':>5s}  tail")
    for metric, value, unit, n, tl in rows:
        if isinstance(tl, str):
            tail = tl
        else:
            tail = f"p{tl[0]:g}={tl[1]:.6g}" if tl else ("-" if n == 1 else "none: < 10 beyond p50")
        print(f"{metric:34s} {value:16.6f} {unit:6s} {n:5d}  {tail}")
    frac = r["failed"] / r["attempted"] if r["attempted"] else 0.0
    print(f"{'ops_failed_frac':34s} {frac:16.6f} {'frac':6s} {r['attempted']:5d}"
          f"  ({r['failed']} of {r['attempted']} operations failed)")
    if r["spans"]:
        print(f"{'span':34s} {'calls':>9s} {'incl_s':>12s} {'self_s':>12s}")
        for name, row in sorted(r["spans"].items()):
            print(f"{name:34s} {row['calls']:9d} {row['incl_s']:12.6f} {row['self_s']:12.6f}")
    for op in r["failed_ops"][:5]:
        print(f"failed op {op['kind']}: {op['error']}")
    for c in r["checks"]:
        print(f"check {c['name']}: {'PASS' if c['ok'] else 'FAIL'} ({c['detail']})")


if __name__ == "__main__":
    sys.exit(main())
