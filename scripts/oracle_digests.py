#!/usr/bin/env python3
"""Digests of the neighbor oracles' rows.

For every built-in family and the cylinders zcyl:2:0,6 and zcyl:3:1,1,0,
prints one line: the spec, the vertex count of the radius-R ball around the
origin and the SHA-256 of every ball vertex's neighbor row, in
breadth-first order.  ``--src`` picks the checkout whose package is hashed,
so the rows of two checkouts can be diffed with one copy of this script:

    python3 scripts/oracle_digests.py --src ../base/src > base.txt
    python3 scripts/oracle_digests.py > head.txt
"""

import argparse
import hashlib
import sys
from pathlib import Path

CYLINDERS = ("zcyl:2:0,6", "zcyl:3:1,1,0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the sawlab package (default: this checkout's)")
    parser.add_argument("--radius", type=int, default=6)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from sawlab.families import BUILTIN_FAMILY_SPECS, ball, parse_family

    for spec in BUILTIN_FAMILY_SPECS + CYLINDERS:
        family = parse_family(spec)
        b = ball(family, family.origin, args.radius)
        rows = repr([(v, b.neighbors[v]) for v in b.vertices]).encode()
        print(spec, len(b.vertices), hashlib.sha256(rows).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
