"""Run one ``gbmpatch`` CLI command with the benchmark's tracer installed.

    python3 bench/traced_cli.py SPANS_JSON -- <gbmpatch arguments>

Times ``import gbmpatch.cli``, wraps the layers (see ``tracing.install``),
runs ``gbmpatch.cli.main`` under a ``cli.main`` span and writes the spans to
SPANS_JSON when the command ends. Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = Path(sys.argv[1]), sys.argv[3:]
    t0 = time.perf_counter()
    import gbmpatch.cli as cli
    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    ops = tracing.install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(
            {"import_s": import_s, "ops": ops, "spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main())
