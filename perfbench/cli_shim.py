"""Run one ``sawlab.cli`` command with the tracer installed.

    python3 perfbench/cli_shim.py SPANS_OUT ARG...

Behaves like ``python3 -m sawlab.cli ARG...`` (same stdout, same exit
code) and afterwards writes the spans it recorded to SPANS_OUT as JSON.
The root span ``cli.main`` covers ``sawlab.cli.main`` only, so the caller's
wall time minus it is the interpreter and import start-up.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import sawlab.cli

    tracer = Tracer()
    tracer.install()
    try:
        sid = tracer.begin("cli.main")
        try:
            code = sawlab.cli.main(argv)
        finally:
            tracer.end(sid)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump([[n, a, b, p, c] for n, a, b, p, _pid, c in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
