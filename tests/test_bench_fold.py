"""scripts/bench_fold.py on two small synthetic ``perfbench/out`` directories."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_fold", os.path.join(ROOT, "scripts", "bench_fold.py"))
bench_fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_fold)

SYNTH_WALKS = 800  # 4 synthesis cases x 200 closed walks
TREE_WALKS = 1000


def write_side(root, sha, runs, traced):
    """A checkout's ``perfbench/`` with refs.json and the run records of
    ``runs`` ({(workload, seed): (op seconds, setup seconds, peak RSS)})
    and ``traced`` ({(workload, seed): printed metrics}); returns its out/."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True)
    refs = {"synth": {"orbits": {}}, "count-tree": {"walks": {"a": 600, "b": 400}}}
    (root / "perfbench" / "refs.json").write_text(json.dumps(refs))
    host = {"git_sha": sha, "nproc": 2, "python": "3.11.7"}
    for (workload, seed), (ops, setup, rss) in runs.items():
        stem = out / f"run-{workload}-seed{seed}-trace0"
        stem.with_suffix(".json").write_text(json.dumps(
            {**host, "op_scaled_s": ops, "setup_s": {"scaled": setup}}))
        metrics = {"peak_rss_mb": {"value": rss, "unit": "MB"}}
        stem.with_suffix(".out").write_text("record ...\n" + json.dumps({"metrics": metrics}))
    for (workload, seed), printed in traced.items():
        stem = out / f"run-{workload}-seed{seed}-trace1"
        stem.with_suffix(".json").write_text(json.dumps(host))
        metrics = {k: {"value": v, "unit": "s"} for k, v in printed.items()}
        stem.with_suffix(".out").write_text(json.dumps({"metrics": metrics}))
    return str(out)


def synth_traced(scale):
    return {name: scale * (i + 1) for i, name in enumerate(bench_fold.TRACED["synth"])}


@pytest.fixture
def sides(tmp_path):
    parent = write_side(tmp_path / "parent", "aaa", {
        ("synth", 1): ({"op1": [0.10, 0.12, 0.11], "op2": [0.05]}, [0.2, 0.3], 30.0),
        ("synth", 2): ({"op1": [0.13], "op2": [0.05]}, [0.2], 30.0),
        ("synth", 3): ({"op1": [0.12], "op2": [0.06]}, [0.2], 31.0),
        ("count-tree", 1): ({"op": [0.04]}, [0.1], 20.0),
    }, {("synth", 1): synth_traced(1.0), ("count-tree", 1): {"families.neighbors.calls": 9}})
    change = write_side(tmp_path / "change", "bbb", {
        ("synth", 1): ({"op1": [0.08], "op2": [0.04]}, [0.2], 30.0),
        ("synth", 2): ({"op1": [0.09], "op2": [0.04]}, [0.2], 30.5),
        ("synth", 3): ({"op1": [0.20], "op2": [0.04]}, [0.2], 29.0),
        ("synth", 4): ({"op1": [0.01], "op2": [0.01]}, [0.2], 29.0),  # no parent run
        ("count-tree", 1): ({"op": [0.03]}, [0.1], 20.0),
    }, {("synth", 1): synth_traced(0.5), ("count-tree", 1): {"families.neighbors.calls": 9}})
    return parent, change


def test_fold_pairs_runs_by_workload_and_seed(sides):
    doc = bench_fold.fold(*sides)
    assert doc["parent"]["git_sha"] == "aaa" and doc["change"]["git_sha"] == "bbb"
    synth = doc["workloads"]["synth"]
    assert synth["seeds"] == [1, 2, 3]
    pass_s = synth["end_to_end"]["pass_s"]
    # pass_s sums each operation's median: at the parent 0.11 + 0.05,
    # 0.13 + 0.05 and 0.12 + 0.06 on seeds 1-3
    assert pass_s["parent"]["median"] == pytest.approx(0.18)
    assert pass_s["parent"]["q1"] == pytest.approx(0.17)
    assert pass_s["parent"]["q3"] == pytest.approx(0.18)
    assert pass_s["change"]["median"] == pytest.approx(0.13)
    assert (pass_s["change_wins"], pass_s["pairs"]) == (2, 3)
    walks = synth["end_to_end"]["walks_per_s"]
    assert walks["better"] == "higher"
    assert walks["change"]["median"] == pytest.approx(SYNTH_WALKS / 0.13)
    assert walks["change_wins"] == 2
    assert synth["end_to_end"]["setup_s"]["parent"]["median"] == pytest.approx(0.2)
    rss = synth["end_to_end"]["peak_rss_mb"]
    assert (rss["parent"]["median"], rss["change"]["median"], rss["change_wins"]) == \
        (30.0, 30.0, 1)
    # every synth stage time is folded from the traced runs' printed metrics
    assert set(synth["traced"]) == set(bench_fold.TRACED["synth"])
    assert {"synthesis.verify_cocycle.s", "heights.validate_height.s"} <= set(synth["traced"])
    for i, name in enumerate(bench_fold.TRACED["synth"]):
        assert synth["traced"][name] == {"parent": i + 1.0, "change": 0.5 * (i + 1),
                                         "seeds": [1]}
    tree = doc["workloads"]["count-tree"]
    assert tree["end_to_end"]["walks_per_s"]["parent"] == {
        "q1": TREE_WALKS / 0.04, "median": TREE_WALKS / 0.04, "q3": TREE_WALKS / 0.04,
        "runs": 1}
    assert tree["traced"] == {"families.neighbors.calls": {
        "parent": 9, "change": 9, "seeds": [1]}}


def test_records_without_stdout_fold_without_the_printed_metrics(sides):
    parent, change = sides
    for name in os.listdir(parent):
        if name.endswith(".out"):
            os.remove(os.path.join(parent, name))
    synth = bench_fold.fold(parent, change)["workloads"]["synth"]
    assert "peak_rss_mb" not in synth["end_to_end"] and "traced" not in synth
    assert synth["end_to_end"]["pass_s"]["pairs"] == 3


def test_runs_from_two_checkouts_on_one_side_are_refused(sides):
    parent, change = sides
    path = os.path.join(parent, "run-count-tree-seed1-trace0.json")
    with open(path) as fh:
        record = json.load(fh)
    record["git_sha"] = "ccc"
    with open(path, "w") as fh:
        json.dump(record, fh)
    with pytest.raises(SystemExit, match="more than one checkout"):
        bench_fold.fold(parent, change)


def test_main_writes_the_bench_file(sides, tmp_path, capsys):
    out = tmp_path / "BENCH_x.json"
    assert bench_fold.main(["--parent", sides[0], "--change", sides[1], "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc == bench_fold.fold(*sides)
    assert "synth pass_s: 0.18 -> 0.13 (change wins 2/3)" in capsys.readouterr().out
