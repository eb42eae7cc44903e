"""The layered benchmark of the ED-GNN reproduction.

    python3 perfbench/run.py --workload ncbi-batch --seed 1 --seconds 12 --trace 0

Workloads: ``ncbi-batch``, ``mdx-rerank``, ``mdx-http``, ``ncbi-train``
(see README.md).  With ``--trace 0`` the last line of standard output is
a JSON object with every end-to-end metric; with ``--trace 1`` a
separate traced run reports every per-layer metric instead.  The run
exits with code 1, after printing its result, when a served ranking
differs from ``EDPipeline.disambiguate_snippet`` or a phase is invalid;
it exits with code 1 without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so a server process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.ensure_src()
    import metrics
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; options: {sorted(workloads.WORKLOADS)}")
    common.prepare("all")  # builds every input on a checkout's first run
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    spec = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    rendered = metrics.render(result.values, [name for name, *_ in spec])
    for name, entry in rendered.items():
        print(f"{args.workload:<11} {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": rendered,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
