"""Run the benchmark over several seeds and report each metric's median
and quartile spread, as the acceptance check does.

    python3 perfbench/prove.py --workloads ncbi-batch,mdx-rerank --seeds 1-10
    python3 perfbench/prove.py --seeds 1-10 --out perfbench/baseline.json

Each run is ``run.py`` in a child process, exactly as a driver would run
it.  A metric whose spread (interquartile distance over the median) is
at least a third of its bound is flagged; ``setup_s`` is held only to its
bound.  With ``--trace`` the per-layer metrics are summarised instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "1" if args.trace else "0"],
                cwd=str(ROOT), capture_output=True, text=True,
            )
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stderr[-3000:], file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = common.quartile_spread(values) if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": runs[0]["metrics"][name]["unit"], "values": values}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not args.trace:
                limit = bound if name == "setup_s" else bound / 3.0
                if spread >= limit:
                    flag = f"  <-- spread above {limit:.3f}"
                    flagged += 1
            print(f"{workload:<11} {name:<30} median {med:>12.5g}  spread {spread:6.3f}{flag}")
        summary["workloads"][workload] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": statistics.median(r["wall_s"] for r in runs),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
