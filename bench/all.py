"""Run every workload untraced, then traced, for one seed, and compare them.

    python3 bench/all.py --seed 0 --seconds 30

Prints each workload's end-to-end metrics (untraced run), its per-layer
metrics (traced run), the tracing overhead and the run record. Exits 1 if
an operation failed or if the traced and untraced runs of a workload give
different output digests.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[len("record "):])
    return record, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ok = True
    for name in names:
        plain, plain_result = _run(name, args.seed, args.seconds, 0)
        traced, traced_result = _run(name, args.seed, args.seconds, 1)
        same = plain["digest"] == traced["digest"]
        failed = plain_result["failed"] + traced_result["failed"]
        ok = ok and same and failed == 0
        overhead = traced["round_s"] - plain["round_s"]
        print(f"== {name} (seed {args.seed})")
        for metric, m in plain_result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'error_rate':32s} {plain['error_rate']:14.6g} ratio "
              f"({plain_result['failed']}/{plain_result['attempted']})")
        for stage, dist in plain["stages"].items():
            print(f"  {stage:12s} " + " ".join(f"{k}={v:.6g}" for k, v in dist.items()))
        print("  per layer (traced run):")
        for metric, m in traced_result["metrics"].items():
            print(f"    {metric:30s} {m['value']:14.6g} {m['unit']}")
        print(f"  digest {plain['digest'][:16]} untraced, {traced['digest'][:16]} traced: "
              f"{'match' if same else 'MISMATCH'}")
        print(f"  tracing overhead per round: {overhead:+.4f} s ({overhead / plain['round_s']:+.1%}), "
              f"{traced['spans']} spans")
        print("  record " + json.dumps({k: plain[k] for k in (
            "nproc", "python", "numpy", "blas_threads", "seed", "src_lines", "rounds", "errors")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
