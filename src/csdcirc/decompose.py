"""Recursive CSD of a 2**n unitary and its mapping onto gates.

The recursion turns U into the ordered product

    U = (prod_{p=1..2**n-1} U_p . A_p) . U_{2**n}

where every A_p rotates index pairs differing in qubit i(p) (one angle per
control pattern) and every U_p is a diagonal of unit phases.  The complex
pipeline turns each diagonal into a uniformly controlled R_z by splitting
paired phases into half-sums (absorbed rightwards) and half-differences (the
gate angles); the real pipeline conjugates each A_p with the running +-1
diagonal instead, which only flips angle signs, and factors the final sign
diagonal into Pi gates.

The recursion is level-synchronous: it walks the CSD tree breadth-first and
splits every block of a level in one ``split_stack`` call, n calls in all
instead of one per tree node, then reads the factors off in position order.

The index pairs across qubit l are the two halves of a (2**(l-1), 2, -1)
reshape of a length-2**n vector: ``[:, 0]`` holds target bit 0, ``[:, 1]``
target bit 1, and their row-major order is the package-wide pattern order
(qubits 1..l-1, then l+1..n, most significant first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csd import split_stack
from .errors import NotRealDecompositionError
from .gates import Axis, Circuit, GlobalPhase, PiGate, UniformRotation
from .matrices import Tolerances, UnitaryOperator, qubit_count


@dataclass(frozen=True)
class SequenceFactor:
    """One position p: the diagonal U_p followed by the rotation block A_p."""

    level: int
    theta: np.ndarray
    diag_phases: np.ndarray


@dataclass(frozen=True)
class DecompositionSequence:
    """The factors in position order; leaf_phases are the trailing diagonal's phases."""

    n: int
    factors: tuple[SequenceFactor, ...]
    leaf_phases: np.ndarray
    is_real: bool


def recursive_csd(u_op: UnitaryOperator, tol: Tolerances = Tolerances()) -> DecompositionSequence:
    """Fully decompose a certified power-of-two unitary, one CSD level at a time.

    Level l splits all 4**(l-1) blocks of size 2**(n-l+1) in one
    ``split_stack`` call: the stack holds the 2**(l-1) tree nodes of that
    level in order, each node's 2**(l-1) blocks contiguous.  Node j's lefts
    and then its rights become nodes 2j and 2j+1 of the next level, so after
    n levels the stack is the 2**n leaf diagonals in order.  Position p sits
    at level l = n - (trailing zero bits of p) as node p >> (n-l+1); its
    diagonal is leaf p-1, and leaf 2**n-1 is the trailing diagonal.
    """
    n = qubit_count(u_op.dim)
    blocks = (u_op.as_real() if u_op.is_real else u_op.as_complex())[None]
    thetas = []
    for level in range(1, n + 1):
        nodes, h = 1 << (level - 1), blocks.shape[1] // 2
        lefts, theta, rights = split_stack(blocks, tol)
        thetas.append(theta.reshape(nodes, -1))
        # every array of a level is as large as the operator: drop the input
        # before the next stack is built and the split outputs right after
        del blocks
        blocks = np.stack(
            (lefts.reshape(nodes, -1, h, h), rights.reshape(nodes, -1, h, h)), axis=1
        ).reshape(-1, h, h)
        del lefts, rights
    leaves = _phases_of(blocks.reshape(1 << n, 1 << n))
    factors = []
    for p in range(1, 1 << n):
        level = n - ((p & -p).bit_length() - 1)
        theta = thetas[level - 1][p >> (n - level + 1)]
        factors.append(SequenceFactor(level=level, theta=theta, diag_phases=leaves[p - 1]))
    return DecompositionSequence(
        n=n,
        factors=tuple(factors),
        leaf_phases=leaves[-1],
        is_real=u_op.is_real,
    )


def _phases_of(diag: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(diag):
        return np.angle(diag)
    return np.where(diag > 0, 0.0, np.pi)


def _wrap_angle(a):
    """Map angles into (-pi, pi]; gate matrices are 2*pi-periodic in them.

    Values already in range pass through bit-exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    out_of_range = (a > np.pi) | (a <= -np.pi)
    if not out_of_range.any():
        return a
    w = np.mod(a + np.pi, 2 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return np.where(out_of_range, w, a)


def _other_qubits(target: int, n: int) -> tuple[int, ...]:
    return tuple(q for q in range(1, n + 1) if q != target)


def compile_complex(seq: DecompositionSequence) -> Circuit:
    """Map a decomposition to the general pipeline: R_y/R_z pairs + diagonal cascade."""
    n = seq.n
    carried = np.zeros(1 << n)  # phases of the diagonal pushed right so far
    pairs_in_matrix_order = []
    for factor in seq.factors:
        alpha = (factor.diag_phases - carried).reshape(1 << (factor.level - 1), 2, -1)
        a0, a1 = alpha[:, 0], alpha[:, 1]
        controls = _other_qubits(factor.level, n)
        half_diff = _wrap_angle((a0 - a1).ravel() / 2)
        pairs_in_matrix_order.append(
            (
                UniformRotation(Axis.Y, factor.level, controls, factor.theta),
                UniformRotation(Axis.Z, factor.level, controls, half_diff),
            )
        )
        half_sum = -(a0 + a1) / 2
        carried = np.concatenate((half_sum, half_sum), axis=1).ravel()
    global_phase, cascade = factor_phase_diagonal(seq.leaf_phases - carried)
    gates = [GlobalPhase(global_phase), *cascade]
    for gate_a, gate_b in reversed(pairs_in_matrix_order):
        gates.append(gate_a)
        gates.append(gate_b)
    return Circuit(n, tuple(gates))


def compile_real(seq: DecompositionSequence, tol: Tolerances = Tolerances()) -> Circuit:
    """Map a real decomposition to R_y gates with sign flips + Pi-gate cascade."""
    n = seq.n
    all_phases = [f.diag_phases for f in seq.factors] + [seq.leaf_phases]
    worst = max(float(np.abs(np.sin(p)).max()) for p in all_phases)
    if worst > tol.real:
        raise NotRealDecompositionError(
            f"diagonal phase off {{0, pi}} by |sin| = {worst:.3e} (> {tol.real:.3e})"
        )
    signs = np.ones(1 << n)
    rotations_in_matrix_order = []
    for factor in seq.factors:
        signs = signs * _signs_from_phases(factor.diag_phases)
        halves = signs.reshape(1 << (factor.level - 1), 2, -1)
        angles = np.where((halves[:, 0] != halves[:, 1]).ravel(), -factor.theta, factor.theta)
        rotations_in_matrix_order.append(
            UniformRotation(Axis.Y, factor.level, _other_qubits(factor.level, n), angles)
        )
    signs = signs * _signs_from_phases(seq.leaf_phases)
    global_sign, pi_gates = factor_sign_diagonal(signs)
    gates: list = [GlobalPhase(np.pi)] if global_sign < 0 else []
    gates.extend(pi_gates)
    gates.extend(reversed(rotations_in_matrix_order))
    return Circuit(n, tuple(gates))


def _signs_from_phases(phases: np.ndarray) -> np.ndarray:
    return np.where(np.cos(phases) > 0, 1.0, -1.0)


def factor_sign_diagonal(signs) -> tuple[int, list[PiGate]]:
    """Factor a +-1 diagonal of length 2**n into a global sign and one Pi gate per target.

    Greedy by target: the flag for pattern c is set when the running residual
    is -1 at index (c, 1, 0...0); each set flag flips every index under it.
    The triangular flip structure drives the residual to all +1.
    """
    signs = np.asarray(signs, dtype=np.float64)
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("sign diagonal entries must be exactly +-1")
    n = qubit_count(signs.size)
    global_sign = int(signs[0])
    residual = signs * global_sign
    pi_gates = []
    for m in range(1, n + 1):
        grouped = residual.reshape(1 << (m - 1), 2, -1)
        flags = grouped[:, 1, 0] < 0
        grouped[:, 1, :] *= np.where(flags, -1.0, 1.0)[:, None]
        pi_gates.append(PiGate(target=m, controls=tuple(range(1, m)), flags=flags))
    return global_sign, pi_gates


def factor_phase_diagonal(phases) -> tuple[float, list[UniformRotation]]:
    """Factor diag(exp(i*phases)) into a global phase and an R_z cascade.

    Pairs over the last qubit split into half-differences (that gate's
    angles) and half-sums (the next, coarser diagonal); gates are returned
    in emission order, target 1 first.
    """
    a = np.asarray(phases, dtype=np.float64).copy()
    n = qubit_count(a.size)
    gates = []
    for m in range(n, 0, -1):
        pairs = a.reshape(-1, 2)
        gates.append(
            UniformRotation(
                Axis.Z,
                target=m,
                controls=tuple(range(1, m)),
                angles=_wrap_angle((pairs[:, 0] - pairs[:, 1]) / 2),
            )
        )
        a = pairs.mean(axis=1)
    gates.reverse()
    return float(_wrap_angle(a[0])), gates
