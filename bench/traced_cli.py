"""Run one fluxring CLI request with every layer traced.

    python bench/traced_cli.py SPANS_PATH OP_ID ARGV...

Behaves like `python -m fluxring ARGV...` (same stdout, stderr and exit
code) and writes the request's spans to SPANS_PATH as JSON.
"""

import json
import sys

import fluxring.cli

from spans import Tracer


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        code = fluxring.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as handle:
            json.dump({"names": tracer.names, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
