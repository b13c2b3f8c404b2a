#!/usr/bin/env python3
"""Digests of the output bytes that a refactor may not change.

Runs a fixed list of cases against the sawlab package under ``--src`` and
prints one line per case, ``case exit=N sha256``, the SHA-256 being that of
the case's stdout.  The cases:

* ``count``: `count --per-span` for every built-in family and two
  cylinders, each n keeping its call under 1 s on a 2-core VM.  The trees
  cover every degree's cone-type count, at lengths inside and far beyond
  the checked ball, and the budgeted tree:3 and tree:4 counts, which stop at
  n = 15 and n = 3 and exit 3, cover the budgeted one; zcyl:3:1,1,0 covers a
  cylinder whose symmetries include axis swaps.
* ``validate-height``: radius 5 with each family's declared r (1 for hex, 5
  for squareoct, 0 otherwise), plus r values on either side of the least
  certified one (3 for squareoct, 1 for hex) and squareoct's r = 11.
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

The cases are this script's, not the package's, so one copy of it diffs two
checkouts:

    python3 scripts/ci_digests.py --src ../base/src > base.txt
    python3 scripts/ci_digests.py > head.txt
    diff base.txt head.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

FAMILIES = ("z1", "z2", "z3", "z4", "tree:3", "tree:4", "tree:5", "tree:6",
            "hex", "squareoct", "heis", "zcyl:2:0,6", "zcyl:3:1,1,0")

COUNTS = ("z1@60", "z2@14", "z3@10", "z4@8", "heis@9", "hex@18", "squareoct@16",
          "zcyl:2:0,6@13", "zcyl:3:1,1,0@10", "tree:3@40", "tree:4@12", "tree:5@10",
          "tree:6@9", "tree:3@3", "tree:4@2", "tree:6@1", "tree:5@0")
BUDGETED_COUNTS = (("tree:3@40", 100000), ("tree:4@12", 50))
HEIGHTS = ("z1@0", "z2@0", "z3@0", "z4@0", "heis@0", "hex@1", "squareoct@5",
           "zcyl:2:0,6@0", "tree:3@0", "tree:4@0", "tree:5@0", "tree:6@0",
           "squareoct@2", "squareoct@3", "squareoct@11", "hex@0", "hex@4")
LOCALITIES = ("z2 zcyl:2:0,4 8 6", "z2 zcyl:2:0,6 10 8", "z2 hex 6 4", "hex squareoct 8 4",
              "tree:3 tree:4 8 4", "z3 heis 6 4", "z2 z2 10 6")
QUOTIENTS = ("z1 3", "z2 3,0;0,3", "z2 2,1;0,5", "z2 4,0;0,4", "z2 1,0;0,1;1,1",
             "z3 3,0,0;0,3,0;0,0,3", "z3 2,1,0;0,2,1;0,0,3",
             "z4 2,0,0,0;0,2,0,0;0,0,2,0;0,0,0,2", "z2 2,0", "zcyl:2:0,4 1,0;0,4",
             "z3 1,1,0;0,1,1;0,0,3", "z3 2,3,1;1,2,3;3,1,2",
             "z4 1,1,0,0;0,1,1,0;0,0,1,1;0,0,0,2")

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
    for case in LOCALITIES:
        a, b, n, cap = case.split()
        yield (f"locality {case}",
               (*cli, "locality", "--a", a, "--b", b, "--n", n, "--cap", cap), {})
    for case in QUOTIENTS:
        family, shifts = case.split()
        yield f"quotient {case}", (*cli, "quotient", "--family", family, "--shifts", shifts), {}
    for family in FAMILIES:
        yield f"rows {family}", ("-c", ROWS, family), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the sawlab package (default: this checkout's)")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())
    for name, case_argv, extra in cases():
        env = {**os.environ, "PYTHONPATH": src, **extra}
        run = subprocess.run([sys.executable, *case_argv], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        print(f"{name} exit={run.returncode} {hashlib.sha256(run.stdout).hexdigest()}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
