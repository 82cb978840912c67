"""Compare the CSD kernel routes on random orthogonal matrices.

The package routes real blocks of dimension >= 512 through an SVD-composite
construction, well-separated blocks of dimension >= 16 below that through a
batched route over the whole stack, and the rest through LAPACK's CSD one
block at a time.  This benchmark times all three on the same inputs and
reports reconstruction residuals; the batched row splits the inputs as one
stack and reports its time per block.
"""

import argparse
import time

import numpy as np
from scipy.stats import ortho_group

from csdcirc.csd import (
    _canonicalize,
    _csd_batched,
    _csd_cossin,
    _csd_svd_real,
    _reconstruction_residual,
)
from csdcirc.matrices import Tolerances


def bench(dim: int, repeats: int, seed: int):
    blocks = np.stack([ortho_group.rvs(dim, random_state=seed + r) for r in range(repeats)])
    rows = []
    for route_name, route in (("lapack", _csd_cossin), ("svd", _csd_svd_real)):
        times, residuals = [], []
        for a in blocks:
            t0 = time.perf_counter()
            factors = _canonicalize(*route(a))
            times.append(time.perf_counter() - t0)
            residuals.append(_reconstruction_residual(a, *factors))
        rows.append((route_name, min(times), max(residuals)))
    t0 = time.perf_counter()
    _, residuals = _csd_batched(blocks, Tolerances())
    rows.insert(1, ("batched", (time.perf_counter() - t0) / repeats, residuals.max()))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="256,512,1024", help="comma-separated dimensions")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'dim':>6} {'route':>8} {'best time':>12} {'worst residual':>16}")
    for dim in (int(d) for d in args.dims.split(",")):
        for route_name, best, worst in bench(dim, args.repeats, args.seed):
            print(f"{dim:>6} {route_name:>8} {best:>11.3f}s {worst:>16.2e}")


if __name__ == "__main__":
    main()
