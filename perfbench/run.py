"""Benchmark of the nodal_theta verifier.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload thm51-zeros --seed 1 --seconds 20 --trace 0

Workloads: thm51-zeros, thm66-stated, grid-eval (see workloads.py).  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it makes a
separate traced run and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 0 means every op's
verdict checked out; 1 means the verdict gate tripped; 2 means the run could
not start (bad arguments, or no package source under src/).

The package is imported from src/ of the checkout.  OpenBLAS and OpenMP are
pinned to one thread and NODAL_THETA_THREADS is unset before numpy loads.
An untraced run starts its worker processes one after another and waits
for each.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _pin_environment() -> None:
    # numpy links OpenBLAS built with MAX_THREADS=64, and h1_primitive does a
    # matmul: one thread keeps the run single-core and its timing steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("NODAL_THETA_THREADS", None)
    sys.path.insert(0, str(SRC))


def exit_code(result) -> int:
    """0 when every op's verdict checked out, 1 when the gate tripped."""
    return 0 if result.correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one worker process of an untraced run, as "index/count".
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nodal_theta" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'nodal_theta'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    _pin_environment()

    import harness
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.worker:
        index, count = (int(x) for x in args.worker.split("/"))
        print(json.dumps(harness.worker(wl, args.seed, args.seconds, index, count)))
        return 0

    if args.trace:
        result = harness.trace(wl, args.seed, args.seconds)
    else:
        result = harness.measure(wl, args.seed, args.seconds)
    for line in result.report:
        print(line)
    if not result.correct:
        print("verdict gate: FAILED (see outcomes above)")
    print(json.dumps(result.line()))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
