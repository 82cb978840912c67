"""Time LAPACK's CSD against the batched route on both sides of its size rule.

Real blocks of dimension >= 4 and complex ones of dimension >= 16 take the
package's batched route: below SVD_ROUTE_MIN_DIM only the well-separated
ones, from there up every block.  Real 4 x 4 blocks take it with a
closed-form 2 x 2 SVD.  This benchmark times per-block LAPACK (xORCSD) and
the batched route on the same real stacks of two kinds: random orthogonal
blocks, which are separated, and the padded step operator of a random walk,
whose angles form large clusters at 0 and pi/2.  Below dimension 16, where
no walk operator is that small, the walk stack holds the blocks of that
dimension that the recursion meets on 16-dimensional walks, as the low
levels of a walk's recursion see them.  For each it reports the time per
block (factors, canonicalisation and the reconstruction check) and the
worst residual.  A call of the batched route has a fixed cost of about
0.2 ms, so at dimensions 4 and 8 a stack of a few blocks shows that cost,
not the per-block one: pass ``--repeats`` in the thousands for the latter.
"""

import argparse
import time

import numpy as np
from scipy.stats import ortho_group

from csdcirc.csd import _csd_batched, _csd_per_block, split_stack
from csdcirc.matrices import Tolerances, pad_to_power_of_two
from csdcirc.qwalk import random_graph, walk_unitary


def stack(kind: str, dim: int, repeats: int, seed: int) -> np.ndarray:
    if kind == "orthogonal":
        return np.stack([ortho_group.rvs(dim, random_state=seed + r) for r in range(repeats)])
    # a walk with between top/2 and top arcs pads to top
    top = max(dim, 16)
    arcs, nodes = top - top // 8 - 1, int(np.sqrt(top)) + 2
    ops = (walk_unitary(random_graph(nodes, arcs, seed=seed + r))[0] for r in range(repeats))
    blocks = np.stack([pad_to_power_of_two(op)[0].as_real() for op in ops])
    while blocks.shape[1] > dim:  # a recursion level: every factor is a next-level block
        lefts, _, rights = split_stack(blocks, Tolerances())
        blocks = np.concatenate((lefts, rights))
    return blocks


def bench(dim: int, repeats: int, seed: int, kind: str = "orthogonal"):
    """(route, seconds per block, worst residual) for LAPACK and the batched route."""
    blocks = stack(kind, dim, repeats, seed)
    rows = []
    for route_name, route in (("lapack", _csd_per_block), ("batched", _csd_batched)):
        args = (blocks,) if route is _csd_per_block else (blocks, Tolerances())
        t0 = time.perf_counter()
        _, residuals = route(*args)
        rows.append((route_name, (time.perf_counter() - t0) / len(blocks), residuals.max()))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="4,8,256,512,1024", help="comma-separated dimensions")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'dim':>6} {'input':>10} {'route':>8} {'ms/block':>10} {'worst residual':>16}")
    for dim in (int(d) for d in args.dims.split(",")):
        for kind in ("orthogonal", "walk"):
            for route_name, seconds, worst in bench(dim, args.repeats, args.seed, kind):
                print(f"{dim:>6} {kind:>10} {route_name:>8} {1e3 * seconds:>10.3f} {worst:>16.2e}")


if __name__ == "__main__":
    main()
