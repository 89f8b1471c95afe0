"""Traced stand-in for `python -m opsyslab.cli`, used by the traced cli workload.

Usage: python3 perfbench/cli_shim.py SPANS_DIR COMMAND ARGS...  (src/ on PYTHONPATH)

Runs opsyslab.cli.main with `tracer.Tracer` installed (so under its
``cli.main`` span), prints the same report, exits with the same code, and writes
SPANS_DIR/<pid>.npz (spans) and SPANS_DIR/<pid>.json (counters).
"""

import json
import os
import sys
from pathlib import Path

import opsyslab.cli

from tracer import Tracer


def main() -> int:
    out_dir = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    try:
        code = opsyslab.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
    tracer.save(out_dir / f"{os.getpid()}.npz")
    (out_dir / f"{os.getpid()}.json").write_text(json.dumps(dict(tracer.counters)))
    return code


if __name__ == "__main__":
    sys.exit(main())
