"""Self-checks for the benchmark itself.

    python3 -m pytest perfbench -q

About a minute: one pass of count-lattice plus a short traced run of every
workload.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

_COUNTING = {
    "families.neighbors.calls", "families.neighbors.calls_per_walk",
    "walks.count_saws.s", "walks.count_halfspace.s", "walks.count_bridges.s",
    "walks.saw.walks_per_s", "walks.halfspace.walks_per_s", "walks.bridge.walks_per_s",
    "tables.build_count_table.self_s",
}
# per-layer metrics that must be positive on the workload that exercises them
EXERCISED = {
    "count-lattice": _COUNTING,
    "count-tree": _COUNTING,
    "synth": {
        "families.neighbors.calls", "families.ball.s", "quotient.build_quotient.s",
        "quotient.orbits", "synthesis.cycle_basis.s", "synthesis.solve_increments.s",
        "synthesis.lift_height.s", "synthesis.verify_cocycle.s", "synthesis.edge_head.calls",
        "synthesis.staged_ratio", "heights.validate_height.s",
    },
    "cli-parallel": _COUNTING | {
        "families.ball.s", "walks.jobs2_speedup", "tables.encode.s", "tables.decode.s",
        "heights.validate_height.s", "heights.verify_r.s", "bounds.bracket.s",
        "bounds.similarity_K.s", "bounds.ball_isomorphic.calls",
        "bounds.locality_report.self_s", "cli.startup_s", "cli.count.s", "cli.locality.s",
        "cli.bounds.s", "cli.verify.s", "cli.validate-height.s", "cli.out_bytes",
    },
}


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_corrupted_reference_digest_is_a_failed_operation():
    refs, plans = run.setup("count-lattice", 0)
    _, out = run.run_pass("count-lattice", plans[0])
    assert run.check("count-lattice", out, refs) == []

    corrupted = json.loads(json.dumps(refs))
    corrupted["digests"]["hex n=14"] = "0" * 64
    problems = run.check("count-lattice", out, corrupted)
    assert len(problems) == 1 and problems[0].startswith("hex n=14:")


def test_calibration_counts_the_known_walks():
    assert run.calibration_seconds() > 0


def test_host_speed_scales_by_the_calibrations_around_a_stretch(monkeypatch):
    samples = iter([0.1, 0.1, 0.025, 0.025])
    monkeypatch.setattr(run, "calibration_seconds", lambda: next(samples))
    speed = run.HostSpeed()
    speed.begin(pinned=False)
    speed.boundary()
    wall, scaled = speed.take()
    assert scaled == pytest.approx(wall * run.CAL_REF_S / 0.0625)


def test_exception_and_exit_code_are_failed_operations():
    refs, _ = run.setup("cli-parallel", 0)
    failed_call = subprocess.CompletedProcess(["sawlab"], 4, b"", b"invariant violation")
    out = {"count-z3": RuntimeError("boom"), "verify": failed_call}
    problems = run.check("cli-parallel", out, refs)
    assert [p.split(":")[0] for p in problems] == ["count-z3", "verify"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert {name for name in EXERCISED[workload] if not metrics[name]["value"] > 0} == set()


def test_fails_without_the_package():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [*BENCHMARK["command"], "--workload", "synth", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
