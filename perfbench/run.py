"""prunemerge benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is acc-pipeline, deit-infer, deit-distill, or ``all`` to run each in
turn.  One process drives the program in a closed loop: the next unit
starts only after the previous one returned.  With ``--trace 0`` the last
line of standard output is a JSON object carrying every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` it carries every per-layer metric.
The lines before it print every metric by name and unit, the
environment, and the outcome of each correctness gate.  Set-up and units
run in fresh child processes, one at a time (see bench.py).  A full record
(and, for traced runs, every span) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Fixed in the benchmark's own process environment before numpy loads;
# threadpoolctl is not installed, so this is the only pinning there is.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", nargs=3, metavar=("MODE", "DIR", "FIRST"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    os.environ.update(BLAS_ENV)        # before numpy is first imported
    if not (SRC / "prunemerge" / "__init__.py").is_file():
        print(f"error: no prunemerge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    if args.child:
        mode, workdir, first = args.child
        return bench.child(args.workload, mode, Path(workdir), int(first))
    if args.workload == "all":
        return bench.run_all(Path(__file__), args.seed, args.seconds,
                             args.trace)
    return bench.run(Path(__file__), args.workload, args.seed, args.seconds,
                     bool(args.trace), BLAS_ENV)


if __name__ == "__main__":
    sys.exit(main())
