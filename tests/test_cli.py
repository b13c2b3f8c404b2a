"""CLI: exit codes, determinism, round-trips."""

import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sawlab
from sawlab import cli
from sawlab.cli import main

RUN = [sys.executable, "-m", "sawlab.cli"]
# the directory holding the imported package, so a child process finds the
# same sources without an installed copy
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sawlab.__file__)))


def child_env(env_extra=()):
    env = dict(os.environ)
    env.update(env_extra)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_env(args, env_extra, stdout=subprocess.PIPE):
    proc = subprocess.run(RUN + args, stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=child_env(env_extra))
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


@pytest.mark.parametrize("n, row, problem", [
    (2, {"1": "5", "2": "-2"}, "negative span count at rep 0, n = 2"),
    (1, {"-5": "1"}, "impossible spans [-5] at rep 0, n = 1"),
    (0, {"1": "1"}, "impossible spans [1] at rep 0, n = 0"),
], ids=["negative-count", "below-1", "nonzero-at-0"])
def test_verify_reports_impossible_span_rows(tmp_path, n, row, problem):
    # each row keeps the span sum, so only its counts or spans are wrong
    out, report = tmp_path / "t.json", tmp_path / "v.json"
    main(["count", "--family", "z2", "--n", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["b_spans_by_rep"][0][n] = row
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


def test_verify_and_bounds_refuse_a_table_whose_bracket_is_empty(tmp_path):
    # every Fekete pair with m + n <= 3 holds, but b_2^3 = 729 exceeds
    # sigma_3^2 = 100: the bracket would be [3.000000000, 2.154434691]
    out, report = tmp_path / "t.json", tmp_path / "v.json"
    main(["count", "--family", "z1", "--n", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["b"] = doc["c"] = doc["b_by_rep"][0] = doc["c_by_rep"][0] = ["1", "1", "9", "9"]
    doc["sigma"] = doc["sigma_by_rep"][0] = ["1", "3", "9", "10"]
    doc["b_spans_by_rep"][0] = [{"0": "1"}, {"1": "1"}, {"2": "9"}, {"3": "9"}]
    out.write_text(json.dumps(doc))
    assert main(["verify", "--table", str(out), "--out", str(report)]) == 4
    assert json.loads(report.read_text())["problems"] == [
        "an n-th root of b exceeds an m-th root of sigma"]
    code, stdout, err = run_cli(["bounds", "--table", str(out), "--pretty"])
    assert code == 4 and not stdout
    assert err.startswith("invariant violation:") and "root of b exceeds" in err


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


def _corrupt_repeated_span(doc):
    # "01" and "1" both decode to span 1, so one of the two counts is lost
    assert doc["b_spans_by_rep"][0][1] == {"1": "1"}
    doc["b_spans_by_rep"][0][1] = {"1": "7", "01": "1"}


def _corrupt_object_row(doc):
    # an object read as its keys gives z2's counts 1, 4, 12, 36, 100
    doc["sigma_by_rep"][0] = doc["sigma"] = {"1": 0, "4": 0, "12": 0, "36": 0, "100": 0}


def _corrupt_string_rows(doc):
    # a string read as its characters gives the n = 3 rows 1, 4, 4, 4 and so on
    doc["n_max"] = 3
    for key, row in (("sigma", "1444"), ("c", "1333"), ("b", "1111")):
        doc[key] = row
        doc[f"{key}_by_rep"] = [row]
    doc["b_spans_by_rep"] = [[{"0": "1"}, {"1": "1"}, {"1": "1"}, {"1": "1"}]]


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
    (_corrupt_repeated_span, 2),
    (_corrupt_object_row, 2),
    (_corrupt_string_rows, 2),
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


def test_count_budget_at_the_recursion_limit_writes_partial_table(tmp_path, monkeypatch):
    # with the limit lowered in process, as `count --family z1 --n 1000`
    # meets it under the default one
    out = tmp_path / "part.json"
    monkeypatch.setenv("SAWLAB_BUDGET_COUNT_NODES", str(10**9))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        code = main(["count", "--family", "z1", "--n", "400", "--out", str(out)])
    finally:
        sys.setrecursionlimit(limit)
    doc = json.loads(out.read_text())
    assert code == 3
    assert doc["requested_n_max"] == 400 and 0 < doc["n_max"] < 400


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ball_over_budget_exits_3(jobs):
    # z4's radius-9 ball has 5,641 vertices
    code, out, err = run_cli_env(["count", "--family", "z4", "--n", "9", "--jobs", jobs],
                                 {"SAWLAB_BUDGET_BALL_VERTICES": "1000"})
    assert code == 3, err
    assert "exceeds 1000 vertices" in err and not out


def test_count_deeper_than_the_recursion_limit_exits_3():
    # the kernel's depth-first search recurses once per step
    code, out, err = run_cli_env(["count", "--family", "z1", "--n", "1000"], {})
    assert code == 3 and not out
    assert err.startswith("resource error:") and "length 1000" in err
    assert "Traceback" not in err


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


def test_non_lattice_quotient_names_the_family():
    code, out, err = run_cli(["quotient", "--family", "hex", "--shifts", "1,0"])
    assert code == 2 and not out
    assert err == ("usage error: only translation subgroups of the lattices z1, z2, ... "
                   "are supported, not hex\n")


# runs main(ARG...) in a fresh interpreter, or only imports the CLI when
# there is no ARG, and prints the exit code and the sawlab modules loaded
FOOTPRINT = """import json, sys
from sawlab.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("sawlab."))]))
"""
CLI_CORE = ["sawlab.cli", "sawlab.errors", "sawlab.families", "sawlab.heights"]


def footprint(args):
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *args], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


def test_each_subcommand_imports_only_the_layers_it_runs(tmp_path):
    out = ["--out", str(tmp_path / "out.json")]
    assert footprint([]) == (0, CLI_CORE)
    code, loaded = footprint(["count", "--family", "z2", "--n", "4", *out])
    assert code == 0 and "sawlab.tables" in loaded
    assert not {"sawlab.bounds", "sawlab.quotient", "sawlab.synthesis"} & set(loaded)
    assert footprint(["validate-height", "--family", "z2", "--radius", "3", *out]) == \
        (0, CLI_CORE)
    assert footprint(["quotient", "--family", "z2", "--shifts", "3,0;0,3", *out]) == \
        (0, [*CLI_CORE, "sawlab.quotient"])
    (tmp_path / "out.json").rename(tmp_path / "q.json")
    (tmp_path / "cfg.json").write_text('{"radius": 3}')
    # reading a JSON document loads no counting kernel
    assert footprint(["--config", str(tmp_path / "cfg.json"), "validate-height",
                      "--family", "z2", *out]) == (0, CLI_CORE)
    for source in (["--family", "z2", "--shifts", "3,0;0,3"],
                   ["--quotient", str(tmp_path / "q.json")]):
        code, loaded = footprint(["synth-height", *source, *out])
        assert code == 0 and "sawlab.synthesis" in loaded
        assert not {"sawlab.tables", "sawlab.walks"} & set(loaded)
        assert json.loads((tmp_path / "out.json").read_text())["lifted_valid"]


def test_run_as_a_module_the_cli_is_not_imported_again(tmp_path):
    # python -m runs the CLI as __main__: it binds the layers into its own
    # globals, and a second copy of it as sawlab.cli is never compiled
    script = """import runpy, sys
try:
    runpy.run_module("sawlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "sawlab.cli" in sys.modules)
"""
    out = tmp_path / "t.json"
    proc = subprocess.run([sys.executable, "-c", script, "count", "--family", "z2", "--n", "4",
                           "--out", str(out)], capture_output=True, text=True, env=child_env())
    assert proc.stdout == "0 False\n", proc.stderr
    assert json.loads(out.read_text())["sigma"][4] == "100"


def tracer_cli_names():
    """The sawlab.cli attributes that perfbench/tracer.py patches, read from
    its TIMED and FAMILY_PARSERS tuples."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    names = []
    for node in ast.parse(tracer.read_text()).body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("TIMED", "FAMILY_PARSERS")):
            names += [attr for module, attr, *_ in ast.literal_eval(node.value)
                      if module == "sawlab.cli"]
    return names


def test_tracer_patched_names_resolve_on_a_fresh_cli_module():
    names = tracer_cli_names()
    assert len(names) == 11
    script = """import sys, sawlab.cli
print([a for a in sys.argv[1:] if not callable(getattr(sawlab.cli, a, None))])
"""
    proc = subprocess.run([sys.executable, "-c", script, *names], capture_output=True,
                          text=True, env=child_env())
    assert proc.stdout == "[]\n", proc.stderr


@pytest.mark.parametrize("attr, argv", [
    ("build_count_table", ["count", "--family", "z2", "--n", "4"]),
    ("read_table", ["verify", "--table", "TABLE"]),
    ("bracket", ["bounds", "--table", "TABLE"]),
])
def test_subcommands_call_what_is_bound_on_the_cli_module(tmp_path, monkeypatch, attr, argv):
    # the benchmark's tracer patches these names on sawlab.cli
    table = tmp_path / "t.json"
    assert main(["count", "--family", "z2", "--n", "4", "--out", str(table)]) == 0
    original, calls = getattr(cli, attr), []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, attr, spy)
    argv = [str(table) if a == "TABLE" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


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
