"""Gate-level IR and its dense / matrix-free evaluation.

Conventions (fixed package-wide):
  * qubits are 1-based; qubit 1 is the most significant bit of a basis index;
  * a uniformly controlled rotation holds one angle per control pattern, the
    first listed control being the most significant pattern bit;
  * R_y(2t) = [[cos t, sin t], [-sin t, cos t]] and
    R_z(2p) = diag(e^{ip}, e^{-ip}) act on the target-bit pair of every
    pattern; a Pi flag applies diag(1, -1).

Evaluation (``gate_matrix``, ``circuit_matrix``, ``apply_to_state`` and
``verify``) runs one in-place kernel.  It views the state, a vector or a
(2**n, k) column stack, as a (2,)*n + (-1,) tensor whose axis q-1 is qubit q,
and broadcasts each gate's payload against the whole view: reshaped to 2 per
control, transposed into qubit order, size 1 on every other axis, then
paired on the target axis (target bit 0, target bit 1).  R_z and Pi are one
multiply by such a pair; R_y multiplies by cos and adds the sin terms, which
a flip of the target axis hands from each row to its partner.

Field rule: a circuit is real when it holds no R_z gate and every global
phase is exactly 0 or +-pi, whose factor cos(phase) is exactly +-1.  A real
circuit is evaluated in float64: ``circuit_matrix(...).mat`` is float64, and
so is ``apply_to_state`` on a real input.  Anything else is complex128, and
there R_y and Pi act on the float64 view of the complex state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BadQubitIndexError,
    CircuitTooLargeError,
    LengthMismatchError,
    NonFiniteAngleError,
    OutOfRangeError,
    ShapeMismatchError,
    VerifyFailedError,
)
from .matrices import Tolerances, UnitaryOperator, certify_unitary

DENSE_QUBIT_CAP = 10
# limit of the sampled check above the dense cap
SAMPLED_VERIFY_TOL = 1e-8
# global phases whose factor cos(phase) = +-1 keeps a circuit real
_REAL_PHASES = (0.0, np.pi)


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
        bad = _first_non_finite(self.gates)
        if bad is not None:
            raise NonFiniteAngleError(bad)
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


def _first_non_finite(gates) -> int | None:
    """Index of the first gate whose angles or phase hold NaN or inf, else None.

    One vectorised check per circuit: a check per gate costs the parsers
    several percent of their time.
    """
    values = [
        g.angles if isinstance(g, UniformRotation) else [getattr(g, "phase", 0.0)] for g in gates
    ]
    if not values or np.isfinite(np.concatenate(values)).all():
        return None
    return next(i for i, v in enumerate(values) if not np.isfinite(v).all())


def _check_gate_qubits(g: Gate, n: int):
    if isinstance(g, GlobalPhase):
        return
    for q in (g.target, *g.controls):
        if not 1 <= q <= n:
            raise BadQubitIndexError(f"qubit {q} out of range for {n} qubits")


def _is_real(gates) -> bool:
    """No R_z and every global phase 0 or +-pi: the gates keep real states real."""
    return not any(
        getattr(g, "axis", None) is Axis.Z or abs(getattr(g, "phase", 0.0)) not in _REAL_PHASES
        for g in gates
    )


def _broadcast(payload: np.ndarray, target: int, controls: tuple[int, ...], n: int) -> np.ndarray:
    """One payload entry per control pattern, shaped against the (2,)*n + (-1,) state view."""
    shape = [1] * (n + 1)  # the target axis and the column axis stay 1
    for c in controls:
        shape[c - 1] = 2
    patterns = payload.reshape((2,) * len(controls))
    if list(controls) != sorted(controls):
        patterns = patterns.transpose(np.argsort(controls))
    return patterns.reshape(shape)


def _apply_gate(state: np.ndarray, g: Gate, n: int) -> None:
    """Apply one gate in place to a C-ordered (2**n,) vector or (2**n, k) stack."""
    if isinstance(g, GlobalPhase):
        state *= np.cos(g.phase) if abs(g.phase) in _REAL_PHASES else np.exp(1j * g.phase)
        return
    z = getattr(g, "axis", None) is Axis.Z
    # R_y and Pi are real: on a complex state they act on its float64 view
    x = state if z or state.dtype == np.float64 else state.view(np.float64)
    x = x.reshape((2,) * n + (-1,))
    axis = g.target - 1
    if isinstance(g, PiGate):
        f = _broadcast(g.flags, g.target, g.controls, n)
        x *= np.concatenate((np.ones(f.shape), np.where(f, -1.0, 1.0)), axis)
        return
    a = _broadcast(g.angles, g.target, g.controls, n)
    if z:
        x *= np.exp(1j * np.concatenate((a, -a), axis))
        return
    # target bit 0 gets c*x0 + s*x1 and bit 1 gets c*x1 - s*x0: w holds the
    # s terms, and flipping it on the target axis adds each to its partner
    s = np.sin(a)
    w = np.concatenate((-s, s), axis) * x
    x *= np.cos(a)
    x += np.flip(w, axis)


def apply_to_state(circuit: Circuit, psi) -> np.ndarray:
    """Apply a circuit to a (2**n,) vector or (2**n, k) stack without materializing matrices.

    The result is float64 for a real circuit on a real input, else complex128.
    """
    v = np.asarray(psi)
    if v.shape[0] != circuit.dim:
        raise LengthMismatchError(f"state length {v.shape[0]} != 2**{circuit.n_qubits}")
    real = _is_real(circuit.gates) and not np.iscomplexobj(v)
    v = np.array(v, dtype=np.float64 if real else np.complex128, order="C")
    for g in circuit.gates:
        _apply_gate(v, g, circuit.n_qubits)
    return v


def gate_matrix(g: Gate, n: int, tol: Tolerances = Tolerances()) -> UnitaryOperator:
    """Dense 2**n matrix of a single gate."""
    return certify_unitary(apply_to_state(Circuit(n, (g,)), np.eye(1 << n)), tol)


def circuit_matrix(circuit: Circuit, tol: Tolerances = Tolerances()) -> UnitaryOperator:
    """Dense matrix of a whole circuit (last-applied gate leftmost)."""
    if circuit.n_qubits > DENSE_QUBIT_CAP:
        raise CircuitTooLargeError(
            f"{circuit.n_qubits} qubits exceeds the dense cap of {DENSE_QUBIT_CAP}; "
            "use apply_to_state"
        )
    return certify_unitary(apply_to_state(circuit, np.eye(circuit.dim)), tol)


def verify(
    circuit: Circuit, op: UnitaryOperator, tol: Tolerances = Tolerances(), samples: int = 64
) -> float:
    """Reconstruction residual of a circuit against the operator it should implement.

    Up to DENSE_QUBIT_CAP qubits the whole matrix is rebuilt and the limit is
    ``tol.reconstruct``.  Beyond it, ``samples`` basis columns picked by a
    generator seeded with 0 go through apply_to_state and the limit is
    SAMPLED_VERIFY_TOL.  Returns the max-abs residual and raises
    VerifyFailedError when it is above the limit or NaN, and OutOfRangeError
    when ``samples`` is below 1.
    """
    if samples < 1:
        raise OutOfRangeError(f"verify needs at least 1 sample, got {samples}")
    if circuit.dim != op.dim:
        raise ShapeMismatchError(
            f"circuit has {circuit.n_qubits} qubits but the matrix needs "
            f"{(op.dim - 1).bit_length()}"
        )
    if circuit.n_qubits <= DENSE_QUBIT_CAP:
        rebuilt, target, limit = circuit_matrix(circuit).mat, op.mat, tol.reconstruct
    else:
        rng = np.random.default_rng(0)
        picks = rng.choice(op.dim, size=min(samples, op.dim), replace=False)
        batch = np.zeros((op.dim, picks.size))
        batch[picks, np.arange(picks.size)] = 1.0
        rebuilt, target = apply_to_state(circuit, batch), op.mat[:, picks]
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
