"""Entry point of the mxemu benchmark.

Usage, from the root of a checkout:

    python3 mxbench/run.py --workload quant_sweep --seed 1 --seconds 18 --trace 0

BLAS and OpenMP threads are pinned to 1 before numpy is imported. mxemu is
imported from the checkout's src/ directory and nowhere else; without it the
run stops with exit code 2 and prints no result.
"""

import os
import sys
import time

_T0 = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fail(message):
    print(f"mxbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_mxemu():
    if not os.path.isfile(os.path.join(SRC, "mxemu", "__init__.py")):
        _fail(f"no mxemu sources at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import mxemu

    if os.path.dirname(os.path.dirname(os.path.abspath(mxemu.__file__))) != SRC:
        _fail(f"mxemu was imported from {mxemu.__file__}, not {SRC}")


if __name__ == "__main__":
    _import_mxemu()
    import_s = time.perf_counter() - _T0
    import bench

    sys.exit(bench.main(sys.argv[1:], import_s=import_s, root=ROOT))
