"""Compare the benchmark results of a parent commit and a change.

Usage::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files (``.perfbench_out/full/results/*.json``)
that ``perfbench/run.py --trace 0`` wrote for one commit, one file per
workload and seed.  Runs are paired by seed.  Result sets whose environments
differ (numba, Python, numpy, scipy, BLAS threads, nproc) are refused.

For every workload and end-to-end metric one row is printed: each side's
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

improved
    at least ten pairs, the change wins at least nine tenths of them, its
    median beats the parent's by more than the parent's own quartile
    spread, and no more operations failed than at the parent;
worse
    the change's median is worse than the parent's by more than the bound
    in ``BENCHMARK.json``;
unresolved
    the quartile spread of either side, as a share of its median, exceeds
    the bound, unless every change run beats every parent run;
unchanged
    otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import sys

from metrics import quartiles, same_environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bound for end-to-end metrics that BENCHMARK.json does not list
DEFAULT_BOUND = 0.1


def load(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            runs.append(r)
    return runs


def bounds() -> dict[str, tuple[float, bool]]:
    """metric -> (bound, lower is better) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return {m["name"]: (m["bound"], m["better"] == "lower") for m in doc["end_to_end"]}


def verdict(p: list[float], c: list[float], bound: float, lower: bool,
            p_failed: int, c_failed: int) -> tuple[str, float]:
    """Apply the pairwise rule to one metric; returns (verdict, share won)."""
    sign = 1.0 if lower else -1.0
    pq1, pm, pq3 = quartiles(p)
    cq1, cm, cq3 = quartiles(c)
    won = sum(sign * (ci - pi) < 0 for pi, ci in zip(p, c))
    share = won / len(p)
    if (len(p) >= 10 and share >= 0.9 and sign * (cm - pm) < 0 and abs(cm - pm) > pq3 - pq1
            and c_failed <= p_failed):
        return "improved", share
    if sign * (cm - pm) > bound * abs(pm):
        return "worse", share
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0, (cq3 - cq1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (ci - pj) < 0 for ci in c for pj in p)
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def _fmt(xs: list[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(xs))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    if not parent or not change:
        print("error: no trace-0 result files in one of the directories", file=sys.stderr)
        return 2
    ref = parent[0]["env"]
    for r in parent + change:
        if not same_environment(ref, r["env"]):
            print(f"error: environments differ, refusing to compare:\n  {ref}\n  {r['env']}",
                  file=sys.stderr)
            return 2
    limits = bounds()
    print(f"{'workload':16s} {'metric':16s} {'pairs':>5s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'won':>5s}  verdict")
    for wl in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        P = {r["seed"]: r for r in parent if r["workload"] == wl}
        C = {r["seed"]: r for r in change if r["workload"] == wl}
        seeds = sorted(set(P) & set(C))
        if not seeds:
            continue
        p_failed = sum(P[s]["failed"] for s in seeds)
        c_failed = sum(C[s]["failed"] for s in seeds)
        for metric in P[seeds[0]]["all_metrics"]:
            bound, lower = limits.get(metric, (DEFAULT_BOUND, True))
            p = [P[s]["all_metrics"][metric]["value"] for s in seeds]
            c = [C[s]["all_metrics"][metric]["value"] for s in seeds]
            v, share = verdict(p, c, bound, lower, p_failed, c_failed)
            print(f"{wl:16s} {metric:16s} {len(seeds):5d} {_fmt(p):>32s} {_fmt(c):>32s} "
                  f"{share:5.0%}  {v}")
        print(f"{wl:16s} {'failed ops':16s} {len(seeds):5d} {p_failed:>32d} {c_failed:>32d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
