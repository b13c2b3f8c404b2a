#!/usr/bin/env python3
"""Digests of the synth-height document over a survey of lattice quotients.

Runs ``sawlab synth-height`` in process on every Z^2 lattice in Hermite
normal form [[a, b], [0, d]] (0 <= b < d) of index a*d <= N, and on the Z^3
cubes of side 1 to 4, under ``--method auto`` and ``--method staged``.  Each
run prints one line: the quotient, the requested method, the exit code, the
method the document records and the SHA-256 of the document (or the error
for a run that writes none).  Diffing the output of two checkouts shows
which quotients a change to height synthesis touched:

    python3 scripts/synth_digests.py --max-index 30 > digests.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sawlab.cli import main as sawlab_main


def quotients(max_index: int):
    """``(family, shifts)`` in the ``--shifts`` syntax, in survey order."""
    for index in range(1, max_index + 1):
        for a in range(1, index + 1):
            if index % a:
                continue
            d = index // a
            for b in range(d):
                yield "z2", f"{a},{b};0,{d}"
    for side in range(1, 5):
        yield "z3", f"{side},0,0;0,{side},0;0,0,{side}"


def digest_line(family: str, shifts: str, method: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sawlab_main(["synth-height", "--family", family, "--shifts", shifts,
                            "--method", method])
    text = out.getvalue()
    if not text:
        error = err.getvalue().strip().splitlines()
        return f"{family} {shifts} {method} exit={code} {error[0] if error else ''}"
    used = json.loads(text)["method"]
    return f"{family} {shifts} {method} exit={code} {used} {hashlib.sha256(text.encode()).hexdigest()}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--max-index", type=int, default=12,
                    help="largest index of the Z^2 lattices (default 12)")
    args = ap.parse_args()
    for family, shifts in quotients(args.max_index):
        for method in ("auto", "staged"):
            print(digest_line(family, shifts, method), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
