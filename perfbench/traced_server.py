"""``repro serve`` with the benchmark's spans installed.

    python perfbench/traced_server.py SUMMARY.json serve --http 0 ...

Runs the program's own CLI in this process, so the server stays a
process of its own in the traced run too, and writes the tracer's
summary to ``SUMMARY.json`` once the CLI returns (after SIGINT).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv) -> int:
    common.ensure_src()
    import tracer as tracing
    from repro.cli import main as repro_main

    summary_path, *cli_args = argv
    tracer = tracing.install(tracing.Tracer())
    started = time.perf_counter()
    code = repro_main(cli_args)
    wall = time.perf_counter() - started
    tracer.uninstall()
    Path(summary_path).write_text(json.dumps(tracer.summary(wall)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
