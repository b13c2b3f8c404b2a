#!/usr/bin/env python3
"""Fold benchmark run records of a parent and a change into one BENCH file.

    python3 scripts/bench_fold.py --parent P/perfbench/out --change C/perfbench/out \\
        --out BENCH_6.json

Each directory is the ``perfbench/out`` of one checkout after runs of
``perfbench/run.py``.  Every run record ``run-<workload>-seed<S>-trace<T>.json``
there is read; a run with the same workload and seed on both sides is one
pair.  For untraced runs the end-to-end metrics are recomputed from the
record as ``run.py`` computes them: ``pass_s`` is the sum over operations of
each one's median scaled time, ``setup_s`` the median scaled set-up time and
``walks_per_s`` the pass's walk count W (``run.walks_total`` over the
checkout's ``perfbench/refs.json``) over ``pass_s``.  The record does not
hold ``peak_rss_mb`` nor a traced run's per-layer metrics
(``synthesis.edge_head.calls``, the share ``synthesis.staged_ratio`` of
cases the staged solver settled, and the stage times
``synthesis.cycle_basis.s``, ``synthesis.solve_increments.s``,
``synthesis.verify_cocycle.s`` and ``heights.validate_height.s`` on synth,
``families.neighbors.calls`` on the other workloads): they are read from the
metrics line a run prints last, when its stdout was saved beside the record
as ``run-<workload>-seed<S>-trace<T>.out``.

The output holds, per workload, each side's median and quartiles of every
end-to-end metric, the number of pairs the change wins, the traced metrics,
and each side's git sha, ``nproc`` and Python version.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import walks_total  # noqa: E402  (perfbench/ is not a package)

RECORD = re.compile(r"run-(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")
# synthesis barely asks the neighbor oracle; its work shows in edge_head
# calls and in the times of its stages and checks, which are of similar size,
# and the staged share shows whether a faster pass fell back to direct
TRACED = {"synth": ("synthesis.edge_head.calls", "synthesis.staged_ratio",
                    "synthesis.cycle_basis.s",
                    "synthesis.solve_increments.s", "synthesis.verify_cocycle.s",
                    "heights.validate_height.s")}
TRACED_DEFAULT = ("families.neighbors.calls",)


def printed(stdout_path: str, name: str) -> float | None:
    """The value of metric ``name`` a run printed, or None without its stdout."""
    if not os.path.exists(stdout_path):
        return None
    with open(stdout_path) as fh:
        result = json.loads(fh.read().strip().splitlines()[-1])
    return result["metrics"][name]["value"]


def end_to_end(record: dict, walks: int, stdout_path: str) -> dict:
    """The end-to-end metrics of one untraced run."""
    pass_s = sum(statistics.median(v) for v in record["op_scaled_s"].values())
    metrics = {"setup_s": statistics.median(record["setup_s"]["scaled"]),
               "pass_s": pass_s, "walks_per_s": walks / pass_s}
    rss = printed(stdout_path, "peak_rss_mb")
    if rss is not None:
        metrics["peak_rss_mb"] = rss
    return metrics


def load_side(out_dir: str) -> tuple[dict, dict]:
    """``({workload: {"plain": {seed: metrics}, "traced": {seed: metrics}}}, host)``
    for one side; ``host`` holds the sha, nproc and Python of its runs."""
    refs_path = os.path.join(os.path.dirname(os.path.abspath(out_dir)), "refs.json")
    with open(refs_path) as fh:
        refs = json.load(fh)
    runs: dict = {}
    hosts = set()
    for path in sorted(glob.glob(os.path.join(out_dir, "run-*.json"))):
        m = RECORD.search(os.path.basename(path))
        if m is None:
            continue
        with open(path) as fh:
            record = json.load(fh)
        hosts.add((record["git_sha"], record["nproc"], record["python"]))
        workload, seed = m["workload"], int(m["seed"])
        side = runs.setdefault(workload, {"plain": {}, "traced": {}})
        stdout_path = path[:-len(".json")] + ".out"
        if m["trace"] == "0":
            side["plain"][seed] = end_to_end(record, walks_total(workload, refs[workload]),
                                             stdout_path)
        else:
            traced = {name: printed(stdout_path, name)
                      for name in TRACED.get(workload, TRACED_DEFAULT)}
            if None not in traced.values():
                side["traced"][seed] = traced
    if len(hosts) > 1:
        raise SystemExit(f"{out_dir}: runs from more than one checkout or host: {sorted(hosts)}")
    sha, nproc, python = hosts.pop() if hosts else (None, None, None)
    return runs, {"git_sha": sha, "nproc": nproc, "python": python}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "runs": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "runs": len(values)}


def fold(parent_dir: str, change_dir: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    parent, parent_host = load_side(parent_dir)
    change, change_host = load_side(change_dir)
    workloads = {}
    for workload in sorted(set(parent) & set(change)):
        p, c = parent[workload], change[workload]
        seeds = sorted(set(p["plain"]) & set(c["plain"]))
        metrics = {}
        for name, direction in better.items():
            pairs = [(p["plain"][s][name], c["plain"][s][name]) for s in seeds
                     if name in p["plain"][s] and name in c["plain"][s]]
            if not pairs:
                continue
            sign = 1 if direction == "higher" else -1
            metrics[name] = {
                "better": direction,
                "parent": quartiles([a for a, _ in pairs]),
                "change": quartiles([b for _, b in pairs]),
                "change_wins": sum(1 for a, b in pairs if sign * (b - a) > 0),
                "pairs": len(pairs),
            }
        entry = {"seeds": seeds, "end_to_end": metrics}
        if p["traced"] and c["traced"]:
            seeds_traced = sorted(set(p["traced"]) | set(c["traced"]))
            entry["traced"] = {name: {
                "parent": statistics.median(m[name] for m in p["traced"].values()),
                "change": statistics.median(m[name] for m in c["traced"].values()),
                "seeds": seeds_traced} for name in TRACED.get(workload, TRACED_DEFAULT)}
        workloads[workload] = entry
    return {"parent": parent_host, "change": change_host, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="perfbench/out of the parent checkout")
    parser.add_argument("--change", required=True, help="perfbench/out of the changed checkout")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    doc = fold(args.parent, args.change)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> "
                  f"{m['change']['median']:.6g} (change wins {m['change_wins']}/{m['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
