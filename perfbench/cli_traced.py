"""The traced form of a cli_cold operation: the padic-string CLI with the span tracer installed.

    python3 perfbench/cli_traced.py <padic-string arguments>

Runs `padic_string.cli.main` on the arguments and exits with its code.  The
trace export (see spans.Tracer.export) is written as JSON to the file named
by PERFBENCH_TRACE_FILE, with the operation id taken from PERFBENCH_OP.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.op = int(os.environ.get("PERFBENCH_OP", "0"))
    tracer.install()
    from padic_string import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        Path(os.environ["PERFBENCH_TRACE_FILE"]).write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
