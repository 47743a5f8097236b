"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload query-serve --seed 0 --seconds 30 --trace 0

Run from the repository root; mgrag is imported from ``src/``. The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The lines before it give the run record and a
readable table. Exit code 2 means the program could not be found or started.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1  # one client, one core: keeps runs steady on a shared machine


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be found."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mgrag" / "__init__.py").is_file():
        print(f"error: no mgrag sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))

    import logging

    import numpy as np

    from session import MIN_ROUNDS, REF_MS, Session
    from spans import SpanIndex, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # mgrag.cli.main configures logging only if nothing has; keep its INFO lines quiet
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")

    tracer = Tracer(enabled=bool(args.trace))
    if args.trace:
        tracer.instrument()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(WORKLOADS[args.workload], args.seed, tracer, workdir)
    try:
        session.setup()
        session.run(args.seconds)
        n_spans = len(tracer.spans)
        session.verify()
        if args.trace:
            metrics = session.layer_metrics(SpanIndex(tracer, n_spans))
            tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.csv.gz", n_spans)
        else:
            metrics = session.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    error_rate = session.failed / session.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": session.digest.hexdigest(),
        "rounds": len(session.round_times),
        "round_s": float(np.median(session.round_times)),
        "machine_ref_ms": session.machine_ref(),
        "ref_ms": REF_MS,
        "digest_rounds": MIN_ROUNDS,
        "stages": session.distributions(),
        "error_rate": error_rate,
        "errors": session.errors,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "src_lines": _src_lines(),
        "spans": n_spans if args.trace else 0,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}")
    print(f"  {'error_rate':32s} {error_rate:16.6g} ratio ({session.failed}/{session.attempted})")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
