"""Gate-level IR and its dense / matrix-free evaluation.

Conventions (fixed package-wide):
  * qubits are 1-based; qubit 1 is the most significant bit of a basis index;
  * a uniformly controlled rotation holds one angle per control pattern, the
    first listed control being the most significant pattern bit;
  * R_y(2t) = [[cos t, sin t], [-sin t, cos t]] and
    R_z(2p) = diag(e^{ip}, e^{-ip}) act on the target-bit pair of every
    pattern; a Pi flag applies diag(1, -1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BadQubitIndexError,
    CircuitTooLargeError,
    LengthMismatchError,
    ShapeMismatchError,
    VerifyFailedError,
)
from .matrices import Tolerances, UnitaryOperator, certify_unitary

DENSE_QUBIT_CAP = 10
# limit of the sampled check above the dense cap
SAMPLED_VERIFY_TOL = 1e-8


class Axis(Enum):
    Y = "y"
    Z = "z"


def _frozen_array(a, dtype) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D payload")
    arr.setflags(write=False)
    return arr


def _check_payload(target: int, controls: tuple[int, ...], n_payload: int):
    if target in controls:
        raise BadQubitIndexError(f"target {target} listed among controls {controls}")
    if len(set(controls)) != len(controls):
        raise BadQubitIndexError(f"duplicate controls {controls}")
    if n_payload != 1 << len(controls):
        raise LengthMismatchError(
            f"payload of length {n_payload} does not match {len(controls)} controls"
        )


@dataclass(frozen=True, eq=False)
class UniformRotation:
    axis: Axis
    target: int
    controls: tuple[int, ...]
    angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(int(c) for c in self.controls))
        object.__setattr__(self, "angles", _frozen_array(self.angles, np.float64))
        _check_payload(self.target, self.controls, self.angles.size)

    def __eq__(self, other):
        return (
            isinstance(other, UniformRotation)
            and self.axis == other.axis
            and self.target == other.target
            and self.controls == other.controls
            and np.array_equal(self.angles, other.angles)
        )


@dataclass(frozen=True, eq=False)
class PiGate:
    target: int
    controls: tuple[int, ...]
    flags: np.ndarray = field(repr=False)  # bool, True == Y

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(int(c) for c in self.controls))
        object.__setattr__(self, "flags", _frozen_array(self.flags, bool))
        _check_payload(self.target, self.controls, self.flags.size)

    def __eq__(self, other):
        return (
            isinstance(other, PiGate)
            and self.target == other.target
            and self.controls == other.controls
            and np.array_equal(self.flags, other.flags)
        )


@dataclass(frozen=True)
class GlobalPhase:
    phase: float


Gate = UniformRotation | PiGate | GlobalPhase


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gates stored in application order: gates[0] acts first."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            _check_gate_qubits(g, self.n_qubits)

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.n_qubits == other.n_qubits
            and self.gates == other.gates
        )

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _check_gate_qubits(g: Gate, n: int):
    if isinstance(g, GlobalPhase):
        return
    for q in (g.target, *g.controls):
        if not 1 <= q <= n:
            raise BadQubitIndexError(f"qubit {q} out of range for {n} qubits")


def pair_indices(n: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs coupled by a gate on ``target``.

    Returns (j0, j1) of length 2**(n-1): j0[k] has target bit 0, j1[k] target
    bit 1, and k reads the remaining bits most-significant-first (qubits
    1..target-1 then target+1..n), i.e. the package-wide pattern order.
    """
    shift = n - target
    lo = np.arange(1 << (n - 1))
    j0 = ((lo >> shift) << (shift + 1)) | (lo & ((1 << shift) - 1))
    return j0, j0 | (1 << shift)


def _pattern_of_rows(rows: np.ndarray, controls: tuple[int, ...], n: int) -> np.ndarray:
    k = np.zeros_like(rows)
    for c in controls:
        k = (k << 1) | ((rows >> (n - c)) & 1)
    return k


def _apply_gate(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply one gate to a (2**n,) vector or (2**n, m) stack of columns."""
    if isinstance(g, GlobalPhase):
        return state * np.exp(1j * g.phase)
    j0, j1 = pair_indices(n, g.target)
    k = _pattern_of_rows(j0, g.controls, n)
    s0, s1 = state[j0], state[j1]
    if isinstance(g, PiGate):
        f = g.flags[k]
        if state.ndim == 2:
            f = f[:, None]
        state[j1] = np.where(f, -s1, s1)
        return state
    a = g.angles[k]
    if state.ndim == 2:
        a = a[:, None]
    if g.axis is Axis.Y:
        c, s = np.cos(a), np.sin(a)
        state[j0] = c * s0 + s * s1
        state[j1] = -s * s0 + c * s1
    else:
        e = np.exp(1j * a)
        state[j0] = e * s0
        state[j1] = np.conj(e) * s1
    return state


def apply_to_state(circuit: Circuit, psi) -> np.ndarray:
    """Apply a circuit to a state vector without materializing matrices."""
    v = np.asarray(psi)
    if v.shape[0] != circuit.dim:
        raise LengthMismatchError(f"state length {v.shape[0]} != 2**{circuit.n_qubits}")
    v = v.astype(np.complex128)
    for g in circuit.gates:
        v = _apply_gate(v, g, circuit.n_qubits)
    return v


def gate_matrix(g: Gate, n: int, tol: Tolerances = Tolerances()) -> UnitaryOperator:
    """Dense 2**n matrix of a single gate."""
    _check_gate_qubits(g, n)
    m = np.eye(1 << n, dtype=np.complex128)
    m = _apply_gate(m, g, n)
    return certify_unitary(m, tol)


def circuit_matrix(circuit: Circuit, tol: Tolerances = Tolerances()) -> UnitaryOperator:
    """Dense matrix of a whole circuit (last-applied gate leftmost)."""
    if circuit.n_qubits > DENSE_QUBIT_CAP:
        raise CircuitTooLargeError(
            f"{circuit.n_qubits} qubits exceeds the dense cap of {DENSE_QUBIT_CAP}; "
            "use apply_to_state"
        )
    m = np.eye(circuit.dim, dtype=np.complex128)
    for g in circuit.gates:
        m = _apply_gate(m, g, circuit.n_qubits)
    return certify_unitary(m, tol)


def verify(
    circuit: Circuit, op: UnitaryOperator, tol: Tolerances = Tolerances(), samples: int = 64
) -> float:
    """Reconstruction residual of a circuit against the operator it should implement.

    Up to DENSE_QUBIT_CAP qubits the whole matrix is rebuilt and the limit is
    ``tol.reconstruct``.  Beyond it, ``samples`` basis columns picked by a
    generator seeded with 0 go through apply_to_state and the limit is
    SAMPLED_VERIFY_TOL.  Returns the max-abs residual and raises
    VerifyFailedError when it is above the limit or NaN.
    """
    if circuit.dim != op.dim:
        raise ShapeMismatchError(
            f"circuit has {circuit.n_qubits} qubits but the matrix needs "
            f"{(op.dim - 1).bit_length()}"
        )
    target = op.as_complex()
    if circuit.n_qubits <= DENSE_QUBIT_CAP:
        rebuilt, limit = circuit_matrix(circuit).mat, tol.reconstruct
    else:
        rng = np.random.default_rng(0)
        picks = rng.choice(op.dim, size=min(samples, op.dim), replace=False)
        batch = np.zeros((op.dim, picks.size), dtype=np.complex128)
        batch[picks, np.arange(picks.size)] = 1.0
        rebuilt, target = apply_to_state(circuit, batch), target[:, picks]
        limit = SAMPLED_VERIFY_TOL
    residual = float(np.abs(rebuilt - target).max())
    if not residual <= limit:  # a NaN residual fails too
        raise VerifyFailedError(residual, limit)
    return residual


def count_subgates(circuit: Circuit, angle_zero: float = Tolerances().angle_zero) -> dict:
    """Count non-vanishing subgates per kind.

    Each rotation angle above the zero threshold counts once, each Y flag
    counts once, and a non-zero global phase counts once.  ``total`` sums all
    four kinds.
    """
    counts = {"ry": 0, "rz": 0, "pi": 0, "phase": 0}
    for g in circuit.gates:
        if isinstance(g, UniformRotation):
            key = "ry" if g.axis is Axis.Y else "rz"
            counts[key] += int(np.count_nonzero(np.abs(g.angles) > angle_zero))
        elif isinstance(g, PiGate):
            counts["pi"] += int(np.count_nonzero(g.flags))
        else:
            counts["phase"] += int(abs(g.phase) > angle_zero)
    counts["total"] = sum(counts.values())
    return counts
