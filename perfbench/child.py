"""A traced child process for the cli workload.

    python perfbench/child.py cli    SPANS_PATH ARGS...   # like `python -m cichon ARGS...`
    python perfbench/child.py import SPANS_PATH           # like `python -c "import cichon.cli"`

It times `import cichon.cli`, wraps the library's layers as the in-process
traced run does, runs the call under a `cli.<command>` span and writes the
span totals to SPANS_PATH as JSON for the parent to fold in.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    mode, spans_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import cichon.cli
    import_ms = (time.perf_counter() - start) * 1e3

    import tracing
    tr = tracing.Tracer()
    tr.count("cli.import_ms", import_ms)
    tracing.install(tr)
    code = 0
    try:
        if mode == "cli":
            code = tr.call(f"cli.{args[0]}", cichon.cli.main, args)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tr.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
