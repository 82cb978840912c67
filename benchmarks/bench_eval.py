"""Time circuit evaluation on seeded synthetic circuits shaped like CSD output.

A compiled CSD circuit on n qubits is a diagonal cascade (Pi gates for a
real circuit, a global phase and R_z gates for a complex one) followed by
2**n - 1 uniformly controlled rotations in ruler order: targets n, n-1, n,
n-2, n, n-1, n, ..., each controlled by every other qubit, and each R_y
followed by an R_z on the same target in the complex case.  This script
builds such circuits from seeded random angles, so no CSD runs, and times
``circuit_matrix`` (the dense rebuild, as ``verify`` does it up to 10
qubits, plus its certification) and ``apply_to_state`` on a column stack
built as ``verify`` builds its probes above that: float64 Gaussian columns
of unit norm, so a real circuit is evaluated in float64.  The check column
is the unitarity residual of the dense rebuild and the largest column-norm
error of the stack.

    python benchmarks/bench_eval.py                  # n = 8, 10 dense; n = 12, 64 columns
    python benchmarks/bench_eval.py --dense 6,8 --stack 10 --repeats 5
"""

import argparse
import os
import time

# One BLAS thread, as pipebench pins: the fused kernel's small batched GEMMs
# slow down with threads on a busy host.  The pools read this when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from csdcirc import (  # noqa: E402
    Axis,
    Circuit,
    GlobalPhase,
    PiGate,
    UniformRotation,
    apply_to_state,
    circuit_matrix,
)


def ruler_circuit(n: int, is_complex: bool, seed: int) -> Circuit:
    """A seeded circuit with the gate layout of compile_real / compile_complex."""
    rng = np.random.default_rng(seed)

    def angles(count):
        return rng.uniform(-np.pi, np.pi, count)

    gates = []
    if is_complex:
        gates.append(GlobalPhase(float(angles(1)[0])))
    for t in range(1, n + 1):
        controls = tuple(range(1, t))
        if is_complex:
            gates.append(UniformRotation(Axis.Z, t, controls, angles(1 << (t - 1))))
        else:
            gates.append(PiGate(t, controls, rng.random(1 << (t - 1)) < 0.5))
    for p in range((1 << n) - 1, 0, -1):
        t = n - ((p & -p).bit_length() - 1)
        controls = tuple(q for q in range(1, n + 1) if q != t)
        for axis in (Axis.Y, Axis.Z) if is_complex else (Axis.Y,):
            gates.append(UniformRotation(axis, t, controls, angles(1 << (n - 1))))
    return Circuit(n, tuple(gates))


def _best(fn, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def bench(dense=(8, 10), stack=12, columns=64, repeats=3, seed=0):
    """Rows of (function, n, field, best seconds, check) for each case."""
    rows = []
    for n in dense:
        for is_complex in (False, True):
            circuit = ruler_circuit(n, is_complex, seed)
            best, rebuilt = _best(lambda: circuit_matrix(circuit), repeats)
            field = "complex" if is_complex else "real"
            rows.append(("circuit_matrix", n, field, best, rebuilt.unitarity_residual))
    if stack:
        psi = np.random.default_rng(seed).standard_normal((1 << stack, columns))
        psi /= np.linalg.norm(psi, axis=0)
        for is_complex in (False, True):
            circuit = ruler_circuit(stack, is_complex, seed)
            best, out = _best(lambda: apply_to_state(circuit, psi), repeats)
            field = "complex" if is_complex else "real"
            norm_error = float(np.abs(np.linalg.norm(out, axis=0) - 1.0).max())
            rows.append((f"apply_to_state[{columns}]", stack, field, best, norm_error))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dense", default="8,10", help="comma-separated n for circuit_matrix")
    parser.add_argument("--stack", type=int, default=12, help="n for apply_to_state (0: skip)")
    parser.add_argument("--columns", type=int, default=64, help="columns of the stack")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dense = tuple(int(n) for n in args.dense.split(",") if n)
    print(f"{'function':>20} {'n':>3} {'field':>8} {'best time':>12} {'check':>10}")
    for name, n, field, best, check in bench(
        dense, args.stack, args.columns, args.repeats, args.seed
    ):
        print(f"{name:>20} {n:>3} {field:>8} {best:>11.4f}s {check:>10.1e}")


if __name__ == "__main__":
    main()
