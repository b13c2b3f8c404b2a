#!/usr/bin/env python3
"""Digests of the output bytes that a refactor may not change.

Runs a fixed list of cases against the sawlab package under ``--src`` and
prints one line per case, ``case exit=N sha256``, the SHA-256 being that of
the case's stdout.  The cases:

* ``count``: `count --per-span` for every built-in family and two
  cylinders, each n keeping its call under 1 s on a 2-core VM.  The trees
  cover every degree's cone-type count, at lengths inside and far beyond
  the checked ball; zcyl:3:1,1,0 covers a cylinder whose symmetries include
  axis swaps.  The budgeted counts stop short and exit 3: tree:3 and tree:4
  at n = 15 and n = 3 cover the cone-type DP, and z2, hex (two height
  representatives) and squareoct (four) at n = 14, 13 and 11 cover the
  counting kernel.
* ``validate-height``: radius 5 with each family's declared r (1 for hex, 5
  for squareoct, 0 otherwise), plus r values on either side of the least
  certified one (3 for squareoct, 1 for hex) and squareoct's r = 11; and
  radius 6, the radius ``synth-height`` validates at, on z2, z3 and heis
  with r = 0, hex with r = 1 and squareoct with r = 11.
* ``locality``: pairs that match to different radii (cylinders of two
  widths, lattices that differ at once, two trees, a family with itself).
* ``quotient``: lattices of one to four dimensions, a skew and an
  overcomplete set of shifts, two inputs that exit 2 (shifts of rank
  below the dimension, a family that is not a lattice), and three skew
  lattices whose Hermite normal form needs reduction above two or more
  pivots.
* ``rows``: every ball vertex's neighbor row, in breadth-first order, on
  the radius-6 ball around the origin of every built-in family and two
  cylinders.
* the subcommands that import a layer only when they run it: ``bounds``
  and ``verify`` on a z3 n=9 table that a first case writes with
  ``count --out``, ``decompose`` on a z2 and a hex half-space walk of
  three spans, ``synth-height`` on Z2/(3,3), a ``count`` whose options
  all come from a ``--config`` file, and ``synth-height --quotient`` on
  the document that ``quotient --family z2 --shifts 2,1;0,5 --out``
  writes (its shifts read as a JSON list of integer lists).
* ``synth-height --method``: the staged solve where it gets stuck, on
  Z2/⟨(2,3),(0,4)⟩, whose segment finds no non-integer return SAW (exit
  4 under ``staged``, the direct fallback under ``auto``), and where it
  solves, on the Z3 cube of side 3 and on Z2/⟨(4,1),(0,5)⟩.
* ``help``: ``--help`` of the top-level parser and of every subcommand,
  with ``COLUMNS=80``, so that each parser's flags, types and choices stay
  the same.

Every case runs in one temporary directory, which holds the table, the
quotient document and the config file, so that the paths in the outputs
are the same on every run.

The cases are this script's, not the package's, so one copy of it diffs two
checkouts:

    python3 scripts/ci_digests.py --src ../base/src > base.txt
    python3 scripts/ci_digests.py > head.txt
    diff base.txt head.txt
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FAMILIES = ("z1", "z2", "z3", "z4", "tree:3", "tree:4", "tree:5", "tree:6",
            "hex", "squareoct", "heis", "zcyl:2:0,6", "zcyl:3:1,1,0")

COUNTS = ("z1@60", "z2@14", "z3@10", "z4@8", "heis@9", "hex@18", "squareoct@16",
          "zcyl:2:0,6@13", "zcyl:3:1,1,0@10", "tree:3@40", "tree:4@12", "tree:5@10",
          "tree:6@9", "tree:3@3", "tree:4@2", "tree:6@1", "tree:5@0")
BUDGETED_COUNTS = (("tree:3@40", 100000), ("tree:4@12", 50), ("z2@16", 3000000),
                   ("hex@18", 20000), ("squareoct@16", 5000))
HEIGHTS = ("z1@0", "z2@0", "z3@0", "z4@0", "heis@0", "hex@1", "squareoct@5",
           "zcyl:2:0,6@0", "tree:3@0", "tree:4@0", "tree:5@0", "tree:6@0",
           "squareoct@2", "squareoct@3", "squareoct@11", "hex@0", "hex@4")
HEIGHTS_R6 = ("z2@0", "z3@0", "heis@0", "hex@1", "squareoct@11")
LOCALITIES = ("z2 zcyl:2:0,4 8 6", "z2 zcyl:2:0,6 10 8", "z2 hex 6 4", "hex squareoct 8 4",
              "tree:3 tree:4 8 4", "z3 heis 6 4", "z2 z2 10 6")
QUOTIENTS = ("z1 3", "z2 3,0;0,3", "z2 2,1;0,5", "z2 4,0;0,4", "z2 1,0;0,1;1,1",
             "z3 3,0,0;0,3,0;0,0,3", "z3 2,1,0;0,2,1;0,0,3",
             "z4 2,0,0,0;0,2,0,0;0,0,2,0;0,0,0,2", "z2 2,0", "zcyl:2:0,4 1,0;0,4",
             "z3 1,1,0;0,1,1;0,0,3", "z3 2,3,1;1,2,3;3,1,2",
             "z4 1,1,0,0;0,1,1,0;0,0,1,1;0,0,0,2")

TABLE = "z3-n9.json"
QUOTIENT_FILE = "q.json"
CONFIG_FILE = "config.json"
CONFIG = {"family": "squareoct", "n_max": 12, "kind": "bridge", "per_span": True}
SUBCOMMANDS = ("count", "bounds", "locality", "quotient", "synth-height", "validate-height",
               "decompose", "verify")
SYNTHESES = (("z2", "2,3;0,4", "staged"), ("z2", "2,3;0,4", "auto"),
             ("z3", "3,0,0;0,3,0;0,0,3", "staged"), ("z2", "4,1;0,5", "staged"))
DECOMPOSITIONS = (("z2", "0,0;1,0;2,0;3,0;3,-1;2,-1;1,-1;1,-2;2,-2"),
                  ("hex", "0,0;1,0;2,0;3,0;3,-1;2,-1;2,-2;1,-2;1,-3;2,-3"))

ROWS = """import sys
from sawlab.families import ball, parse_family
family = parse_family(sys.argv[1])
b = ball(family, family.origin, 6)
sys.stdout.write(repr([(v, b.neighbors[v]) for v in b.vertices]))
"""


def cases():
    """Yield ``(name, argv, env)`` for every case, argv after the Python
    executable and env on top of this process's environment."""
    cli = ("-m", "sawlab.cli")
    for case in COUNTS:
        family, n = case.split("@")
        yield f"count {case}", (*cli, "count", "--family", family, "--n", n, "--per-span"), {}
    for case, nodes in BUDGETED_COUNTS:
        family, n = case.split("@")
        yield (f"count {case} budget={nodes}",
               (*cli, "count", "--family", family, "--n", n, "--per-span"),
               {"SAWLAB_BUDGET_COUNT_NODES": str(nodes)})
    for case in HEIGHTS:
        family, r = case.split("@")
        yield (f"validate-height {case}",
               (*cli, "validate-height", "--family", family, "--radius", "5", "--r", r), {})
    for case in HEIGHTS_R6:
        family, r = case.split("@")
        yield (f"validate-height {case} radius=6",
               (*cli, "validate-height", "--family", family, "--radius", "6", "--r", r), {})
    for case in LOCALITIES:
        a, b, n, cap = case.split()
        yield (f"locality {case}",
               (*cli, "locality", "--a", a, "--b", b, "--n", n, "--cap", cap), {})
    for case in QUOTIENTS:
        family, shifts = case.split()
        yield f"quotient {case}", (*cli, "quotient", "--family", family, "--shifts", shifts), {}
    for family in FAMILIES:
        yield f"rows {family}", ("-c", ROWS, family), {}
    yield "count z3@9 --out", (*cli, "count", "--family", "z3", "--n", "9", "--out", TABLE), {}
    yield "bounds z3@9", (*cli, "bounds", "--table", TABLE), {}
    yield "verify z3@9", (*cli, "verify", "--table", TABLE), {}
    for family, walk in DECOMPOSITIONS:
        yield (f"decompose {family} {walk}",
               (*cli, "decompose", "--family", family, "--walk", walk), {})
    yield ("synth-height z2 3,0;0,3",
           (*cli, "synth-height", "--family", "z2", "--shifts", "3,0;0,3"), {})
    for family, shifts, method in SYNTHESES:
        yield (f"synth-height {family} {shifts} {method}",
               (*cli, "synth-height", "--family", family, "--shifts", shifts,
                "--method", method), {})
    yield "count --config squareoct@12 bridge", (*cli, "--config", CONFIG_FILE, "count"), {}
    yield ("quotient z2 2,1;0,5 --out",
           (*cli, "quotient", "--family", "z2", "--shifts", "2,1;0,5", "--out", QUOTIENT_FILE), {})
    yield "synth-height --quotient", (*cli, "synth-height", "--quotient", QUOTIENT_FILE), {}
    yield "help", (*cli, "--help"), {"COLUMNS": "80"}
    for sub in SUBCOMMANDS:
        yield f"help {sub}", (*cli, sub, "--help"), {"COLUMNS": "80"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the sawlab package (default: this checkout's)")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    with tempfile.TemporaryDirectory() as work:
        Path(work, CONFIG_FILE).write_text(json.dumps(CONFIG))
        for name, case_argv, extra in cases():
            env = {**os.environ, "PYTHONPATH": src, **extra}
            run = subprocess.run([sys.executable, *case_argv], env=env, cwd=work,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            print(f"{name} exit={run.returncode} {hashlib.sha256(run.stdout).hexdigest()}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
