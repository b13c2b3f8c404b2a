#!/usr/bin/env python3
"""sawlab benchmark: four workloads, exact output checks, a traced layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-refs

Workloads: count-lattice, count-tree, synth, cli-parallel (see NOTES.md for
what each pass does and why).  The seed fixes the order of inputs within
each pass and the ``verify_cocycle`` seeds; the package under ``src/``
receives only those inputs.  Passes repeat while the slowest one so far
would still end within ``--seconds``.

With ``--trace 0`` the end-to-end metrics are reported (``setup_s``,
``pass_s``, ``walks_per_s``, ``peak_rss_mb``); with ``--trace 1`` untraced
and traced passes alternate and the per-layer metrics are reported.  The
untraced times are scaled to a reference host speed: a fixed calibration
loop that does not use the package runs before and after every operation
and set-up probe, and each one's wall time is multiplied by ``CAL_REF_S``
over the calibration's median time around it, so that a shared host's slow
and fast phases cancel out.  Every operation's output is checked against
``refs.json``; a mismatch, an exception or a non-zero exit is a failed
operation.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the run
record and every metric with its unit.  ``--record-refs`` rewrites
``refs.json`` from the current code.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from tracer import NEIGHBORS, Tracer, per_pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")
WORK = os.path.join(HERE, "out")
SHIM = os.path.join(HERE, "cli_shim.py")
SHIM_SPANS = os.path.join(WORK, "shim-spans.json")
# relative to ROOT, the CLI's working directory: `verify` echoes this path
Z3_TABLE = os.path.join(os.path.relpath(WORK, ROOT), "z3-n9.json")

WORKLOADS = ("count-lattice", "count-tree", "synth", "cli-parallel")

COUNT_TABLES = {
    "count-lattice": (("z2", 12), ("z3", 9), ("z4", 7), ("heis", 8), ("hex", 14),
                      ("squareoct", 10), ("zcyl:2:0,6", 10)),
    "count-tree": (("tree:4", 10), ("tree:5", 9), ("tree:6", 8)),
}
SYNTH_CASES = (("z2", "4,0;0,4"), ("z2", "5,0;0,5"), ("z2", "6,0;0,6"),
               ("z3", "3,0,0;0,3,0;0,0,3"))
COCYCLE_WALKS = 200
VALIDATE_RADIUS = 6
CLI_CALLS = {
    "count-z3": ("count", "--family", "z3", "--n", "9", "--per-span", "--jobs", "2"),
    "count-tree5": ("count", "--family", "tree:5", "--n", "9", "--jobs", "2"),
    "locality": ("locality", "--a", "z2", "--b", "zcyl:2:0,10", "--n", "12", "--cap", "8",
                 "--jobs", "2"),
    "bounds": ("bounds", "--table", Z3_TABLE),
    "verify": ("verify", "--table", Z3_TABLE),
    "validate-height": ("validate-height", "--family", "squareoct", "--radius", "6",
                        "--r", "11"),
}
# bounds and verify read the table count-z3 writes, so they follow it
CLI_GROUPS = (("count-z3", "bounds", "verify"), ("count-tree5",), ("locality",),
              ("validate-height",))
# the tables the CLI calls count (the locality tables never reach stdout);
# used only by --record-refs to fix W
CLI_TABLES = (("z3", 9), ("tree:5", 9), ("z2", 12), ("zcyl:2:0,10", 12))
CLI_TIMEOUT_S = 60

PLANNED_PASSES = 64
MIN_PASSES = 3
# calibration: SAWs of length <= CAL_STEPS on Z2, counted without sawlab;
# CAL_NODES is their number, the empty walk included
CAL_STEPS = 10
CAL_NODES = 69673
# the calibration's time on the reference host (2-vCPU Xeon VM, Python 3.11)
CAL_REF_S = 0.05
# calibrations at each boundary between operations of a pass run in this
# process (work in child processes calibrates once on each CPU instead)
BOUNDARY_CALIBRATIONS = 2
# set-up probes before the first untraced pass and after each one
PROBES_PER_PASS = 2

PER_LAYER_UNITS = {
    "families.neighbors.calls": "count",
    "families.neighbors.calls_per_walk": "calls/walk",
    "families.ball.s": "s",
    "walks.count_saws.s": "s",
    "walks.count_halfspace.s": "s",
    "walks.count_bridges.s": "s",
    "walks.saw.walks_per_s": "walks/s",
    "walks.halfspace.walks_per_s": "walks/s",
    "walks.bridge.walks_per_s": "walks/s",
    "walks.jobs2_speedup": "ratio",
    "tables.build_count_table.self_s": "s",
    "tables.encode.s": "s",
    "tables.decode.s": "s",
    "quotient.build_quotient.s": "s",
    "quotient.orbits": "count",
    "synthesis.cycle_basis.s": "s",
    "synthesis.solve_increments.s": "s",
    "synthesis.lift_height.s": "s",
    "synthesis.verify_cocycle.s": "s",
    "synthesis.edge_head.calls": "count",
    "synthesis.staged_ratio": "ratio",
    "heights.validate_height.s": "s",
    "heights.verify_r.s": "s",
    "bounds.bracket.s": "s",
    "bounds.similarity_K.s": "s",
    "bounds.ball_isomorphic.calls": "count",
    "bounds.locality_report.self_s": "s",
    "cli.startup_s": "s",
    "cli.count.s": "s",
    "cli.locality.s": "s",
    "cli.bounds.s": "s",
    "cli.verify.s": "s",
    "cli.validate-height.s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}
KINDS = {"saw": "walks.count_saws", "halfspace": "walks.count_halfspace",
         "bridge": "walks.count_bridges"}


class SetupError(Exception):
    pass


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# set-up

def setup(workload: str, seed: int) -> tuple[dict, list]:
    """Import the package from this checkout, load the references and
    generate the seeded input order of every pass."""
    if not os.path.isfile(os.path.join(SRC, "sawlab", "__init__.py")):
        raise SetupError(f"no sawlab package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sawlab.cli  # noqa: F401  (imports every layer)

    os.makedirs(WORK, exist_ok=True)
    with open(REFS) as fh:
        refs = json.load(fh)[workload]
    return refs, make_plans(workload, seed)


def make_plans(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    plans = []
    for _ in range(PLANNED_PASSES):
        if workload in COUNT_TABLES:
            plans.append(rng.sample(COUNT_TABLES[workload], len(COUNT_TABLES[workload])))
        elif workload == "synth":
            cases = rng.sample(SYNTH_CASES, len(SYNTH_CASES))
            plans.append([(fam, shifts, rng.randrange(2**32)) for fam, shifts in cases])
        else:
            groups = [(g[0], *rng.sample(g[1:], len(g) - 1)) for g in CLI_GROUPS]
            plans.append([name for g in rng.sample(groups, len(groups)) for name in g])
    return plans


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time from launching a fresh interpreter to the end of ``setup``
    (``perf_counter`` is CLOCK_MONOTONIC, shared by both processes)."""
    launched = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - launched


def calibration_seconds() -> float:
    """Time of the calibration loop: a backtracking SAW count on Z2, the
    same kind of work as the counting kernel, with the garbage collector
    off so that objects the package keeps alive cannot change it."""
    def go(x, y, depth):
        nodes = 1
        if depth < CAL_STEPS:
            for step in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if step not in used:
                    used.add(step)
                    nodes += go(*step, depth + 1)
                    used.remove(step)
        return nodes

    used = {(0, 0)}
    gc.disable()
    try:
        t0 = time.perf_counter()
        nodes = go(0, 0, 0)
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    if nodes != CAL_NODES:
        raise RuntimeError(f"calibration counted {nodes} walks, expected {CAL_NODES}")
    return dt


class HostSpeed:
    """Scales wall times to the reference host speed.  ``begin`` starts a
    stretch of timed work and ``boundary`` ends one: each calibrates, and a
    stretch's wall time is multiplied by ``CAL_REF_S`` over the median of
    the calibrations just before and just after it.  A stretch that is an
    operation of a pass is also kept under the operation's name."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.calibrations: list[float] = []
        self.stretches: list[tuple[float, float]] = []  # (wall, scaled)
        self.ops: dict[str, list[float]] = {}  # operation -> scaled seconds
        self.log: list[tuple[float, list[float]]] = []  # (wall, calibrations around it)

    def _calibrate(self) -> list[float]:
        if not self._pinned:
            cal = [calibration_seconds() for _ in range(BOUNDARY_CALIBRATIONS)]
        else:
            cal = []
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    cal.append(calibration_seconds())
            finally:
                os.sched_setaffinity(0, self.cpus)
        self.calibrations += cal
        return cal

    def begin(self, pinned: bool) -> None:
        """Work in this process calibrates where it runs; work in child
        processes (``pinned``), which may run on any CPU, calibrates once
        pinned to each CPU in turn."""
        self._pinned = pinned
        self._before = self._calibrate()
        self._t0 = time.perf_counter()

    def boundary(self, op: str | None = None) -> None:
        wall = time.perf_counter() - self._t0
        after = self._calibrate()
        around = self._before + after
        scaled = wall * CAL_REF_S / statistics.median(around)
        self.stretches.append((wall, scaled))
        if op is not None:
            self.ops.setdefault(op, []).append(scaled)
        self.log.append((wall, around))
        self._before = after
        self._t0 = time.perf_counter()

    def take(self) -> tuple[float, float]:
        """Summed (wall, scaled) seconds of the stretches since the last take."""
        walls, scaled = zip(*self.stretches)
        self.stretches = []
        return sum(walls), sum(scaled)


def no_boundary(op: str) -> None:
    pass


# ---------------------------------------------------------------------------
# passes: each returns {operation: outcome}; an outcome is an exception or
# whatever the check needs

def count_pass(plan, boundary=no_boundary) -> dict:
    from sawlab import families, heights, tables
    out = {}
    for spec, n in plan:
        try:
            family = families.parse_family(spec)
            out[f"{spec} n={n}"] = tables.build_count_table(
                family, heights.parse_height(family, "default"), n, jobs=1)
        except Exception as exc:  # a failed operation, counted and reported
            out[f"{spec} n={n}"] = exc
        boundary(f"{spec} n={n}")
    return out


def synth_pass(plan, boundary=no_boundary) -> dict:
    from sawlab import families, heights, synthesis
    out = {}
    for fam_spec, shifts, cocycle_seed in plan:
        op = f"{fam_spec}/{shifts}"
        try:
            family = families.parse_family(fam_spec)
            steps = tuple(tuple(int(c) for c in s.split(",")) for s in shifts.split(";"))
            q, basis, inc, lifted = synthesis.synthesize_height(family, steps)
            out[op] = {
                "orbits": q.orbit_count,
                "method": inc.method,
                "problems": synthesis.increment_invariant_problems(inc, basis, q),
                "cocycle": synthesis.verify_cocycle(inc, family, q, COCYCLE_WALKS,
                                                    seed=cocycle_seed),
                "valid": heights.validate_height(family, lifted.as_height_function(),
                                                 VALIDATE_RADIUS).ok(),
            }
        except Exception as exc:  # a failed operation, counted and reported
            out[op] = exc
        boundary(op)
    return out


def cli_pass(plan, tracer: Tracer | None = None, jobs1: bool = False,
             boundary=no_boundary) -> dict:
    """Run the CLI calls one at a time; traced calls go through the shim and
    their spans are adopted under a ``cli.call`` span.  With ``jobs1`` only
    the calls that take ``--jobs`` run, at ``--jobs 1``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for stale in (os.path.join(ROOT, Z3_TABLE), SHIM_SPANS):
        if os.path.exists(stale):
            os.remove(stale)
    out = {}
    for name in plan:
        argv = list(CLI_CALLS[name])
        if jobs1:
            if "--jobs" not in argv:
                continue
            argv[argv.index("--jobs") + 1] = "1"
        if tracer is None:
            cmd = [sys.executable, "-m", "sawlab.cli", *argv]
        else:
            cmd = [sys.executable, SHIM, SHIM_SPANS, *argv]
            sid = tracer.begin("cli.call")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
            out[name] = proc
        except subprocess.TimeoutExpired as exc:
            out[name] = exc
        finally:
            if tracer is not None:
                if os.path.exists(SHIM_SPANS):
                    with open(SHIM_SPANS) as fh:
                        tracer.merge(json.load(fh))
                    os.remove(SHIM_SPANS)
                tracer.end(sid)
        if name == "count-z3" and not isinstance(out[name], Exception):
            with open(os.path.join(ROOT, Z3_TABLE), "wb") as fh:
                fh.write(out[name].stdout)
        boundary(name)
    return out


def run_pass(workload: str, plan, tracer: Tracer | None = None,
             jobs1: bool = False, speed: HostSpeed | None = None) -> tuple[float, dict]:
    """One timed pass; with a tracer the layers are wrapped for its duration,
    with ``speed`` every operation is a stretch of it (and the returned time
    includes the calibrations)."""
    gc.collect()
    boundary = no_boundary
    if speed is not None:
        speed.begin(pinned=workload == "cli-parallel")
        boundary = speed.boundary
    if tracer is not None and workload != "cli-parallel":
        tracer.install()
    try:
        t0 = time.perf_counter()
        sid = tracer.begin("pass") if tracer is not None else None
        if workload in COUNT_TABLES:
            out = count_pass(plan, boundary)
        elif workload == "synth":
            out = synth_pass(plan, boundary)
        else:
            out = cli_pass(plan, tracer, jobs1, boundary)
        if sid is not None:
            tracer.end(sid)
        return time.perf_counter() - t0, out
    finally:
        if tracer is not None:
            tracer.uninstall()


# ---------------------------------------------------------------------------
# checks

def table_digest(table) -> str:
    """SHA-256 of the file ``write_table`` writes for ``table``."""
    from sawlab.tables import write_table
    path = os.path.join(WORK, "table.json")
    write_table(table, path)
    with open(path, "rb") as fh:
        return sha256(fh.read())


def check(workload: str, outcomes: dict, refs: dict) -> list[str]:
    """Problems with a pass's outputs, one per failed operation."""
    problems = []
    for op, got in outcomes.items():
        if isinstance(got, Exception):
            problems.append(f"{op}: {type(got).__name__}: {got}")
        elif workload in COUNT_TABLES:
            if table_digest(got) != refs["digests"].get(op):
                problems.append(f"{op}: count-table digest differs from the reference")
        elif workload == "synth":
            bad = [k for k in ("cocycle", "valid") if not got[k]]
            if got["problems"]:
                bad.append("increment invariants: " + "; ".join(got["problems"]))
            if got["orbits"] != refs["orbits"].get(op):
                bad.append(f"{got['orbits']} orbits, expected {refs['orbits'].get(op)}")
            if bad:
                problems.append(f"{op}: " + ", ".join(bad))
        elif got.returncode != 0:
            problems.append(f"{op}: exit code {got.returncode}: "
                            f"{got.stderr.decode(errors='replace').strip()[-300:]}")
        elif sha256(got.stdout) != refs["digests"].get(op):
            problems.append(f"{op}: output digest differs from the reference")
    return problems


def walks_total(workload: str, refs: dict) -> int:
    """W: walks in one pass's exact outputs (summed over tables,
    representatives, lengths and kinds); on synth, the closed walks that
    verify_cocycle checks."""
    if workload == "synth":
        return len(SYNTH_CASES) * COCYCLE_WALKS
    return sum(refs["walks"].values())


# ---------------------------------------------------------------------------
# metrics

def peak_rss_mb(workload: str) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-parallel":
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def layer_metrics(workload: str, refs: dict, tracer: Tracer, traced: list, jobs1: list,
                  plain_s: list[float], traced_s: list[float]) -> dict:
    """Per-layer values: the median over traced passes of each pass's total."""
    aggs = per_pass(tracer.spans, [pid for pid, _ in traced] + [pid for pid, _ in jobs1])
    walks = walks_total(workload, refs)

    def med(fn):
        return statistics.median(fn(aggs[pid], out) for pid, out in traced)

    def ratio(a, b):
        return a / b if b else 0.0

    def count_s(agg):
        return sum(agg["s"][span] for span in KINDS.values())

    m = {
        "families.neighbors.calls": med(lambda a, o: a["counts"]["pass"][NEIGHBORS]),
        "families.neighbors.calls_per_walk":
            med(lambda a, o: a["counts"]["pass"][NEIGHBORS] / walks),
        "families.ball.s": med(lambda a, o: a["s"]["families.ball"]),
        "walks.jobs2_speedup": ratio(statistics.median(count_s(aggs[pid]) for pid, _ in jobs1),
                                     med(lambda a, o: count_s(a))) if jobs1 else 0.0,
        "tables.build_count_table.self_s":
            med(lambda a, o: a["self_s"]["tables.build_count_table"]),
        "tables.encode.s": med(lambda a, o: a["s"]["tables.encode"]),
        "tables.decode.s": med(lambda a, o: a["s"]["tables.decode"]),
        "quotient.build_quotient.s": med(lambda a, o: a["s"]["quotient.build_quotient"]),
        "quotient.orbits": med(lambda a, o: sum(v["orbits"] for v in o.values()
                                                if isinstance(v, dict))),
        "synthesis.edge_head.calls": med(
            lambda a, o: a["counts"]["synthesis.synthesize_height"]["synthesis.edge_head"]),
        "synthesis.staged_ratio": ratio(
            sum(1 for _, o in traced for v in o.values()
                if isinstance(v, dict) and v["method"] == "staged"),
            sum(len(o) for _, o in traced)) if workload == "synth" else 0.0,
        "bounds.ball_isomorphic.calls": med(lambda a, o: a["calls"]["bounds.ball_isomorphic"]),
        "bounds.locality_report.self_s": med(lambda a, o: a["self_s"]["bounds.locality_report"]),
        "cli.startup_s": med(lambda a, o: a["self_s"]["cli.call"]),
        "cli.out_bytes": med(lambda a, o: sum(len(v.stdout) for v in o.values()
                                              if isinstance(v, subprocess.CompletedProcess))),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(plain_s),
    }
    for kind, span in KINDS.items():
        m[f"{span}.s"] = med(lambda a, o: a["s"][span])
        m[f"walks.{kind}.walks_per_s"] = (
            med(lambda a, o: ratio(refs["walks"][kind], a["s"][span]))
            if "walks" in refs else 0.0)
    for span in ("synthesis.cycle_basis", "synthesis.solve_increments", "synthesis.lift_height",
                 "synthesis.verify_cocycle", "heights.validate_height", "heights.verify_r",
                 "bounds.bracket", "bounds.similarity_K"):
        m[f"{span}.s"] = med(lambda a, o: a["s"][span])
    for sub in ("count", "locality", "bounds", "verify", "validate-height"):
        m[f"cli.{sub}.s"] = med(lambda a, o: a["s"][f"cli.{sub}"])
    return {name: m[name] for name in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# the run

def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (the ceiling
    keeps git from finding a repository above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, run record)."""
    loadavg = os.getloadavg()
    refs, plans = setup(workload, seed)

    tracer = Tracer() if trace else None
    # an untraced run repeats plain passes and runs set-up probes between
    # them; a traced run cycles plain and traced passes, and on cli-parallel
    # follows each traced pass with its traced --jobs 1 counterpart (plain
    # last, so that a short run gets two of each of the others)
    if not trace:
        cycle = ["plain"]
    elif workload == "cli-parallel":
        cycle = ["traced", "jobs1", "plain"]
    else:
        cycle = ["plain", "traced"]
    times = {kind: [] for kind in cycle}
    traced, jobs1 = [], []  # (pass id, outcomes)
    speed = None if trace else HostSpeed()
    wall_s, scaled_s, setup_s, scaled_setup_s = [], [], [], []
    attempted, problems = 0, []

    def probes():
        for _ in range(PROBES_PER_PASS):
            speed.begin(pinned=True)
            setup_probe_seconds(workload, seed)
            speed.boundary()
            wall, scaled = speed.take()
            setup_s.append(wall)
            scaled_setup_s.append(scaled)

    start = time.perf_counter()
    if not trace:
        probes()
    i = 0
    while True:
        kind = cycle[i % len(cycle)]
        unconditional = MIN_PASSES if not trace else len(cycle)
        if i >= unconditional and time.perf_counter() - start + max(times[kind]) > seconds:
            break
        plan = plans[i % len(plans)]
        if kind == "plain":
            dt, out = run_pass(workload, plan, speed=speed)
        else:
            tracer.pass_id = i
            dt, out = run_pass(workload, plan, tracer, jobs1=kind == "jobs1")
            tracer.pass_id = None
            (traced if kind == "traced" else jobs1).append((i, out))
        times[kind].append(dt)
        if speed is not None:
            wall, scaled = speed.take()
            wall_s.append(wall)
            scaled_s.append(scaled)
        attempted += len(out)
        problems += [f"pass {i}: {p}" for p in check(workload, out, refs)]
        i += 1
        if not trace:
            probes()
    # an untraced run's pass times leave out the calibrations
    plain_s, traced_s = wall_s or times["plain"], times.get("traced", [])

    self_s = {}
    if trace:
        metrics = layer_metrics(workload, refs, tracer, traced, jobs1, plain_s, traced_s)
        units = PER_LAYER_UNITS
        aggs = per_pass(tracer.spans, [pid for pid, _ in traced])
        self_s = {name: statistics.median(aggs[pid]["self_s"][name] for pid, _ in traced)
                  for name in sorted({s[0] for s in tracer.spans})}
        with open(os.path.join(WORK, f"trace-{workload}-seed{seed}.json"), "w") as fh:
            json.dump({"workload": workload, "seed": seed, "self_s": self_s,
                       "fields": ["name", "start", "end", "parent", "pass_id", "counts"],
                       "spans": tracer.spans}, fh)
    else:
        # each operation's median over the passes, summed over one pass
        pass_s = sum(statistics.median(v) for v in speed.ops.values())
        metrics = {"setup_s": statistics.median(scaled_setup_s), "pass_s": pass_s,
                   "walks_per_s": walks_total(workload, refs) / pass_s,
                   "peak_rss_mb": peak_rss_mb(workload)}
        units = {"setup_s": "s", "pass_s": "s", "walks_per_s": "walks/s", "peak_rss_mb": "MB"}
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
        "git_sha": git_sha(), "loadavg_start": loadavg,
        "samples": {"plain": len(plain_s), "traced": len(traced_s), "jobs1": len(jobs1),
                    "setup": len(setup_s),
                    "calibration": len(speed.calibrations) if speed else 0},
        "wall_median_s": {"pass": statistics.median(plain_s),
                          "setup": statistics.median(setup_s) if setup_s else None,
                          "calibration": statistics.median(speed.calibrations) if speed else None},
        "pass_s": {"plain": plain_s, "traced": traced_s, "plain_scaled": scaled_s},
        "setup_s": {"wall": setup_s, "scaled": scaled_setup_s},
        "calibration_s": speed.calibrations if speed else [],
        "stretches": speed.log if speed else [],
        "op_scaled_s": speed.ops if speed else {},
        "fail_ratio": len(problems) / attempted,
        "self_s": self_s,
        "first_pass_order": plans[0],
        "problems": problems,
    }
    return result, record


def record_refs() -> None:
    """Write refs.json from one pass of each workload with the current code."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from sawlab.tables import table_for_specs
    os.makedirs(WORK, exist_ok=True)
    refs = {}
    for workload in WORKLOADS:
        _, out = run_pass(workload, make_plans(workload, 0)[0])
        ref = {}
        for op, got in sorted(out.items()):
            if isinstance(got, Exception):
                raise SystemExit(f"{workload} {op}: {got!r}")
            if workload in COUNT_TABLES:
                ref.setdefault("digests", {})[op] = table_digest(got)
            elif workload == "synth":
                ref.setdefault("orbits", {})[op] = got["orbits"]
            elif got.returncode != 0:
                raise SystemExit(f"{workload} {op}: exit code {got.returncode}")
            else:
                ref.setdefault("digests", {})[op] = sha256(got.stdout)
        if workload != "synth":
            walks = ref["walks"] = {"saw": 0, "halfspace": 0, "bridge": 0}
            for spec, n in COUNT_TABLES.get(workload, CLI_TABLES):
                t = table_for_specs(spec, "default", n)
                walks["saw"] += sum(map(sum, t.sigma_by_rep))
                walks["halfspace"] += sum(map(sum, t.c_by_rep))
                walks["bridge"] += sum(map(sum, t.b_by_rep))
        problems = check(workload, out, ref)
        if problems:
            raise SystemExit(f"{workload}: {problems}")
        refs[workload] = ref
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.record_refs:
            record_refs()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            setup(args.workload, args.seed)
            print(time.perf_counter())
            return 0
        if args.seconds < 1:
            parser.error("--seconds must be >= 1")
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(WORK, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2)
    for p in record["problems"]:
        print(f"FAILED {p}", file=sys.stderr)
    print("# run " + json.dumps({k: v for k, v in record.items()
                                 if k not in ("problems", "pass_s", "setup_s", "calibration_s",
                                               "stretches", "op_scaled_s", "self_s")}))
    print(f"# fail_ratio = {result['failed']}/{result['attempted']}")
    for name, value in record["self_s"].items():
        print(f"# self time {name} = {value:.6g} s")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
