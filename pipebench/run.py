"""Entry point of the csdcirc pipeline benchmark.

Run from the root of a checkout:

    python3 pipebench/run.py --workload walk-n8 --seed 1 --seconds 30 --trace 0

It pins BLAS and OpenMP to one thread before numpy loads, makes the
allocator keep freed memory, imports csdcirc from the checkout's own ``src``
directory (never from an installed copy) and hands over to ``bench.main``.  Without that source tree it exits with code 2
and prints no result.  See ``bench.py`` for the workloads and metrics.
"""

import ctypes
import os
import sys
from pathlib import Path

# One closed-loop client on a 2-core machine: a single BLAS thread keeps the
# run within the cores it owns and makes timings repeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def keep_freed_memory():
    """Make glibc keep freed heap memory and serve blocks up to 32 MiB from it.

    By default whether a stage reuses memory or page-faults fresh memory from
    the kernel depends on the heap layout the earlier stages left, which made
    the dense verify of one 9-qubit circuit take either 1.4 s or 3.3 s.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_mmap_threshold, 32 << 20)


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "csdcirc" / "__init__.py").is_file():
        print(f"error: no csdcirc source tree at {SRC}", file=sys.stderr)
        return 2
    keep_freed_memory()
    sys.path[:0] = [str(SRC), str(HERE)]
    import csdcirc

    if Path(csdcirc.__file__).resolve().parent != SRC / "csdcirc":
        print(f"error: csdcirc imported from {csdcirc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
