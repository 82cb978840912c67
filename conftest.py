"""Test-session setup shared by ``tests/`` and ``pipebench/``.

LAPACK's last bits depend on the BLAS thread count, and with them the
circuits, their gate counts and the sha256 of their text: the n = 12 walk of
acceptance criterion 6 has 8,326,227 subgates with one OpenBLAS thread and
8,327,641 with two.  The benchmark and the golden-digest subprocess pin one
thread; so does the test session, unless the environment sets a count.  The
thread pools read these variables once, when numpy loads.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin the BLAS threads")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
