"""CLI: exit codes, determinism, round-trips."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import sawlab
from sawlab.cli import main

RUN = [sys.executable, "-m", "sawlab.cli"]
# the directory holding the imported package, so a child process finds the
# same sources without an installed copy
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sawlab.__file__)))


def run_cli_env(args, env_extra, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env.update(env_extra)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(RUN + args, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args, tmp_path=None):
    return run_cli_env(args, {})


def test_count_table_roundtrip(tmp_path):
    out = tmp_path / "t.json"
    code = main(["count", "--family", "z2", "--n", "6", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sigma"] == ["1", "4", "12", "36", "100", "284", "780"]
    assert main(["verify", "--table", str(out), "--out", str(tmp_path / "v.json")]) == 0
    assert main(["bounds", "--table", str(out), "--out", str(tmp_path / "b.json")]) == 0
    b = json.loads((tmp_path / "b.json").read_text())
    assert b["certified_lower"]["rounding"] == "down"
    assert b["certified_upper"]["rounding"] == "up"
    assert b["certified_lower"]["value"] <= b["certified_upper"]["value"]


@pytest.mark.parametrize("family, n", [("z2", 6), ("hex", 8)])
def test_bounds_pretty_rounds_outward(tmp_path, capsys, family, n):
    # rounded to nearest, these tables print a lower end above the JSON
    # value (z2) and an upper end below it (hex)
    table, out = tmp_path / "t.json", tmp_path / "b.json"
    assert main(["count", "--family", family, "--n", str(n), "--out", str(table)]) == 0
    assert main(["bounds", "--table", str(table), "--pretty", "--out", str(out)]) == 0
    line = capsys.readouterr().err
    m = re.fullmatch(r"family=\S+ n_max=\d+ bracket=\[(\S+), (\S+)\] width=(\S+)\n", line)
    lo, hi, width = (Fraction(x) for x in m.groups())
    doc = json.loads(out.read_text())
    want_lo = Fraction(doc["certified_lower"]["value"])
    want_hi = Fraction(doc["certified_upper"]["value"])
    assert lo <= want_lo and want_hi <= hi and want_hi - want_lo <= width


def test_pretty_text_leaves_stdout_json(tmp_path, capsys):
    # the text table and the bracket line go to stderr: stdout holds the
    # document alone, byte for byte the --out file
    table = tmp_path / "t.json"
    for args, out in ((["count", "--family", "z2", "--n", "2"], table),
                      (["bounds", "--table", str(table)], tmp_path / "b.json")):
        assert main(args + ["--pretty", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args + ["--pretty"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("family=z2 ")
        json.loads(captured.out)
        assert captured.out == out.read_text()


def test_verify_flags_corrupted_table(tmp_path):
    out = tmp_path / "t.json"
    main(["count", "--family", "z2", "--n", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["b"][2] = "0"
    doc["b_by_rep"][0][2] = "0"
    out.write_text(json.dumps(doc))
    assert main(["verify", "--table", str(out), "--out", str(out) + ".v"]) == 4


@pytest.mark.parametrize("key, n, value, problem", [
    ("sigma", 0, "2", "sigma[0] = 2 != 1"),
    ("c", 3, "-1", "c has a negative count"),
])
def test_verify_reports_row_invariants(tmp_path, key, n, value, problem):
    out, report = tmp_path / "t.json", tmp_path / "v.json"
    main(["count", "--family", "z2", "--n", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc[key][n] = doc[f"{key}_by_rep"][0][n] = value
    out.write_text(json.dumps(doc))
    assert main(["verify", "--table", str(out), "--out", str(report)]) == 4
    assert problem in json.loads(report.read_text())["problems"]


def test_bounds_refuses_a_table_that_verify_rejects(tmp_path):
    # b_2 = 100 keeps the span sums but breaks b <= c <= sigma, and would
    # put the certified lower end above the upper one
    out = tmp_path / "t.json"
    main(["count", "--family", "z2", "--n", "4", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["b"][2] = doc["b_by_rep"][0][2] = "100"
    doc["b_spans_by_rep"][0][2] = {"2": "100"}
    out.write_text(json.dumps(doc))
    code, stdout, err = run_cli(["bounds", "--table", str(out)])
    assert code == 4 and not stdout
    assert err.startswith("invariant violation:") and "chain b <= c <= sigma fails" in err


def test_usage_errors_exit_2(tmp_path):
    assert main(["count", "--family", "nosuch", "--n", "3"]) == 2
    assert main(["bounds"]) == 2
    assert main(["count", "--family", "z2", "--n", "-1"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("argv", [
    ["count", "--family", "tree:x", "--n", "3"],
    ["count", "--family", "zcyl:2:a", "--n", "3"],
    ["quotient", "--family", "z2", "--shifts", "a,0;0,3"],
    ["decompose", "--family", "z2", "--walk", "0,0;x,0"],
    ["quotient", "--family", "z2", "--shifts", "3,0,0"],
    ["synth-height", "--family", "z2", "--shifts", "3,0,0"],
    # digits that str.isdigit() accepts are not ASCII integers
    ["count", "--family", "z\u00b2", "--n", "3"],
    ["count", "--family", "z\u0661", "--n", "3"],
    ["count", "--family", "tree:\u0663", "--n", "3"],
    # a cylinder label of the wrong shape
    ["decompose", "--family", "zcyl:2:0,6", "--walk", "0;1"],
    # vector entries are ASCII decimals too, although int() reads these
    ["quotient", "--family", "z2", "--shifts", "\u0663,0;0,3"],
    ["quotient", "--family", "z2", "--shifts", "1_0,0;0,3"],
    ["quotient", "--family", "z2", "--shifts", "+3,0;0,3"],
    ["decompose", "--family", "z2", "--walk", "0,0;\u0661,0"],
    # a one-vertex walk's label is checked too
    ["decompose", "--family", "tree:3", "--walk", "0"],
    ["decompose", "--family", "squareoct", "--walk", "0,0,9"],
    ["decompose", "--family", "z2", "--walk", "0,0,0"],
    ["decompose", "--family", "z2", "--walk", "5"],
])
def test_bad_family_spec_exits_2(argv):
    assert main(argv) == 2


@pytest.mark.parametrize("files, argv", [
    ({"t.txt": "not json\n"}, ["verify", "--table", "t.txt"]),
    ({}, ["verify", "--table", "missing.json"]),
    ({"q.json": '{"kind": "quotient"}'}, ["synth-height", "--quotient", "q.json"]),
    ({"q.json": '{"kind": "quotient", "family": "z2", "shifts": "ab"}'},
     ["synth-height", "--quotient", "q.json"]),
    ({"c.txt": "not json\n"}, ["--config", "c.txt", "count", "--family", "z2", "--n", "2"]),
    ({"q.json": '{"kind": "quotient", "family": "z2", "shifts": [[3, 0, 0]]}'},
     ["synth-height", "--quotient", "q.json"]),
    ({"c.json": '{"n_max": "x"}'}, ["--config", "c.json", "count", "--family", "z2"]),
    ({"c.json": '{"per_span": "no"}'}, ["--config", "c.json", "count", "--family", "z2"]),
    ({"c.json": '{"jobs": true}'}, ["--config", "c.json", "count", "--family", "z2"]),
    ({"c.json": '{"r": "3"}'}, ["--config", "c.json", "validate-height", "--family", "z2"]),
    ({"c.json": '{"kind": "walk"}'}, ["--config", "c.json", "count", "--family", "z2"]),
    ({"c.json": '{"n": 3}'}, ["--config", "c.json", "count", "--family", "z2"]),
    # an --out that cannot be written: a missing directory, a directory
    ({}, ["count", "--family", "z2", "--n", "2", "--out", "missing/x.json"]),
    ({}, ["count", "--family", "z2", "--n", "2", "--out", "."]),
    # shifts rows that are not lists, although iterating them gives [[3, 0], [0, 3]]
    ({"q.json": '{"kind": "quotient", "family": "z2", "shifts": ["30", "03"]}'},
     ["synth-height", "--quotient", "q.json"]),
    ({"q.json": '{"kind": "quotient", "family": "z2", "shifts": {"30": 1, "03": 2}}'},
     ["synth-height", "--quotient", "q.json"]),
])
def test_unloadable_documents_exit_2(tmp_path, monkeypatch, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2


@pytest.mark.parametrize("argv", [
    ["count", "--family", "z2", "--n", "2"],
    ["validate-height", "--family", "hex", "--radius", "3", "--r", "1"],
])
def test_closed_stdout_exits_2(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = run_cli_env(argv, {}, stdout=write_end)
    finally:
        os.close(write_end)
    assert code == 2 and "Traceback" not in err
    assert err.startswith("usage error:")


def _corrupt_short_row(doc):
    doc["sigma_by_rep"][0].pop()


def _corrupt_missing_rows(doc):
    del doc["c_by_rep"]


def _corrupt_non_integer(doc):
    doc["sigma_by_rep"][0][2] = "x"


def _corrupt_family_type(doc):
    doc["family"] = 5


def _corrupt_height_type(doc):
    doc["height"] = [1]


def _corrupt_rep_entry(doc):
    doc["reps"] = [{"a": 1}]


def _corrupt_rep_coordinate(doc):
    doc["reps"][0][1] = "0"


def _corrupt_underscored_count(doc):
    # int() reads "1_2" as 12, the right value
    assert doc["sigma"][2] == doc["sigma_by_rep"][0][2] == "12"
    doc["sigma"][2] = doc["sigma_by_rep"][0][2] = "1_2"


def _corrupt_top_level_sigma(doc):
    doc["sigma"][3] = str(int(doc["sigma"][3]) + 1)


@pytest.mark.parametrize("corrupt, code", [
    (_corrupt_short_row, 2),
    (_corrupt_missing_rows, 2),
    (_corrupt_non_integer, 2),
    (_corrupt_family_type, 2),
    (_corrupt_height_type, 2),
    (_corrupt_rep_entry, 2),
    (_corrupt_rep_coordinate, 2),
    (_corrupt_underscored_count, 2),
    (_corrupt_top_level_sigma, 4),
])
@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_malformed_table_exit_codes(tmp_path, command, corrupt, code):
    out = tmp_path / "t.json"
    assert main(["count", "--family", "z2", "--n", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    corrupt(doc)
    out.write_text(json.dumps(doc))
    assert main([command, "--table", str(out), "--out", str(tmp_path / "r.json")]) == code


def test_count_budget_writes_partial_table(tmp_path, monkeypatch):
    full, part = tmp_path / "full.json", tmp_path / "part.json"
    assert main(["count", "--family", "z2", "--n", "10", "--out", str(full)]) == 0
    monkeypatch.setenv("SAWLAB_BUDGET_COUNT_NODES", "300")
    assert main(["count", "--family", "z2", "--n", "10", "--out", str(part)]) == 3
    f, p = json.loads(full.read_text()), json.loads(part.read_text())
    assert p["requested_n_max"] == 10 and 0 <= p["n_max"] < 10
    cut = p["n_max"] + 1
    for key in ("sigma", "c", "b"):
        assert p[key] == f[key][:cut]
    for key in ("sigma_by_rep", "c_by_rep", "b_by_rep", "b_spans_by_rep"):
        assert p[key] == [row[:cut] for row in f[key]]


def test_count_budget_on_a_tree_writes_partial_table(tmp_path):
    # a tree is counted from its cone types under a budget too; level n is
    # charged sigma_0 + ... + sigma_{n-1}, and the charges 1, 4, 10, 22, 46,
    # 94 of levels 1..6 sum to 177 while level 7's 190 would pass 300
    out = tmp_path / "part.json"
    code, _, err = run_cli_env(["count", "--family", "tree:3", "--n", "40", "--out", str(out)],
                               {"SAWLAB_BUDGET_COUNT_NODES": "300"})
    assert code == 3, err
    doc = json.loads(out.read_text())
    assert doc["n_max"] == 6 and doc["requested_n_max"] == 40
    assert doc["sigma"] == ["1", "3", "6", "12", "24", "48", "96"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ball_over_budget_exits_3(jobs):
    # z4's radius-9 ball has 5,641 vertices
    code, out, err = run_cli_env(["count", "--family", "z4", "--n", "9", "--jobs", jobs],
                                 {"SAWLAB_BUDGET_BALL_VERTICES": "1000"})
    assert code == 3, err
    assert "exceeds 1000 vertices" in err and not out


def test_resource_error_exit_3(tmp_path, monkeypatch):
    monkeypatch.setenv("SAWLAB_BUDGET_QUOTIENT_ORBITS", "4")
    code, _, err = run_cli_env(["quotient", "--family", "z2", "--shifts", "9,0;0,9"],
                               {"SAWLAB_BUDGET_QUOTIENT_ORBITS": "4"})
    assert code == 3


def test_spaces_around_vector_entries_are_read():
    assert run_cli(["quotient", "--family", "z2", "--shifts", " 3, 0;0 ,3 "]) == \
        run_cli(["quotient", "--family", "z2", "--shifts", "3,0;0,3"])


@pytest.mark.parametrize("command", ["quotient", "synth-height"])
@pytest.mark.parametrize("shifts", ["4,0;0,0", "2,1;4,2"])
def test_rank_deficient_shifts_exit_2(command, shifts):
    # infinitely many orbits whatever the budget: a usage error, not exit 3
    code, out, err = run_cli([command, "--family", "z2", "--shifts", shifts])
    assert code == 2 and not out
    assert err == "usage error: translation lattice has rank < dimension: infinitely many orbits\n"


def test_decompose_cli(tmp_path):
    out = tmp_path / "d.json"
    code = main(["decompose", "--family", "z2",
                 "--walk", "0,0;1,0;2,0;2,1;1,1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["spans"] == [2, 1] and doc["breaks"] == [3, 4]
    assert main(["decompose", "--family", "z2", "--walk", "0,0;0,1"]) == 2


def test_quotient_and_synth_cli(tmp_path):
    qout = tmp_path / "q.json"
    assert main(["quotient", "--family", "z2", "--shifts", "3,0;0,3",
                 "--out", str(qout)]) == 0
    q = json.loads(qout.read_text())
    assert q["orbits"] == 9 and q["symmetric"]
    sout = tmp_path / "s.json"
    assert main(["synth-height", "--family", "z2", "--shifts", "3,0;0,3",
                 "--out", str(sout)]) == 0
    s = json.loads(sout.read_text())
    assert s["cocycle_ok"] and s["lifted_valid"] and not s["invariant_problems"]
    assert s["declared_r"] >= 0
    assert int(s["scaling_m"]) >= 1
    assert len(s["increments"]) == 18


def test_synth_height_depends_on_the_lattice_only(tmp_path):
    # one lattice written three ways: as generated, with the first row
    # reduced above one pivot only, and in its Hermite normal form
    docs = []
    for k, shifts in enumerate(("1,1,0;0,1,1;0,0,3", "1,0,-1;0,1,1;0,0,3",
                                "1,0,2;0,1,1;0,0,3")):
        out = tmp_path / f"s{k}.json"
        assert main(["synth-height", "--family", "z3", "--shifts", shifts,
                     "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1] == docs[2]


def test_validate_height_cli(tmp_path):
    out = tmp_path / "v.json"
    assert main(["validate-height", "--family", "squareoct", "--radius", "5",
                 "--r", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["violations"] == [] and doc["r_check"]["verified"]


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "z2", "n_max": 5, "per_span": False, "r": None}))
    out = tmp_path / "t.json"
    assert main(["--config", str(cfg), "count", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_max"] == 5 and doc["family"] == "z2" and "b_by_span" not in doc


def test_parallel_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["count", "--family", "z2", "--n", "7", "--jobs", "1",
                 "--out", str(a)]) == 0
    assert main(["count", "--family", "z2", "--n", "7", "--jobs", "8",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_locality_cli(tmp_path):
    out = tmp_path / "l.json"
    assert main(["locality", "--a", "z2", "--b", "zcyl:2:0,6", "--n", "4",
                 "--cap", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["similarity_K"] == 2
    assert doc["cross_inequalities_ok"]
