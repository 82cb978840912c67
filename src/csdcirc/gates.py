"""Gate-level IR and its dense / matrix-free evaluation.

Conventions (fixed package-wide):
  * qubits are 1-based; qubit 1 is the most significant bit of a basis index;
  * a uniformly controlled rotation holds one angle per control pattern, the
    first listed control being the most significant pattern bit;
  * R_y(2t) = [[cos t, sin t], [-sin t, cos t]] and
    R_z(2p) = diag(e^{ip}, e^{-ip}) act on the target-bit pair of every
    pattern; a Pi flag applies diag(1, -1).

Evaluation (``circuit_matrix``, ``apply_to_state`` and ``verify``) rests on
one in-place gate kernel.  It views the state, a vector or a (2**n, k) column
stack, as a (2,)*n + (-1,) tensor whose axis q-1 is qubit q, and broadcasts
each gate's payload against the whole view: reshaped to 2 per control,
transposed into qubit order, size 1 on every other axis, then paired on the
target axis (target bit 0, target bit 1).  R_z and Pi are one multiply by
such a pair; R_y multiplies by cos and adds the sin terms, which a flip of
the target axis hands from each row to its partner.

A gate changes only its target bit, so a run of gates whose targets lie in a
set T of j qubits is block-diagonal over the other qubits, with 2**(n-j)
blocks of size 2**j.  On a circuit of more than 4 qubits and a stack of at
least 64 columns, ``apply_to_state`` splits the gates greedily into runs on
at most 4 targets; a global phase is a scalar, applied at once, and never
ends a run.  The gates of a run build its blocks on a (2**n, 2**j) tiled
identity, and one batched matmul applies them to the state viewed with the
target axes last.  In a CSD circuit's ruler order (targets n, n-1, n, n-2,
...) about half the runs hold the trailing qubits, where that view is a
reshape; the others cost a copy.  Narrower stacks, smaller circuits and runs
of fewer than 3 gates go gate by gate.

Field rule: a circuit is real when it holds no R_z gate and every global
phase is exactly 0 or +-pi, whose factor cos(phase) is exactly +-1.  A real
circuit is evaluated in float64: ``circuit_matrix(...).mat`` is float64, and
so is ``apply_to_state`` on a real input.  Anything else is complex128, and
there R_y and Pi act on the float64 view of the complex state.  A fused run
follows the same rule: its blocks are float64 unless it holds an R_z, and
float64 blocks act on the float64 view.
"""

from __future__ import annotations

import operator
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
# Fused evaluation (1 BLAS thread, best of 100 in-process timings against
# the per-gate loop): 4 targets per run took the walk-n8 seed-0 circuit's
# apply_to_state(eye) from 50 to 14 ms, a Haar n = 7 circuit's from 17 to
# 8 ms and a ruler-order n = 10 circuit's from about 7 s to 1 s; 3 targets
# were slower on all three, and 5 slower up to n = 8.  Building the blocks
# costs as much as applying the run to 2**4 columns, so a stack narrower
# than 64 columns (a vector, a dense n <= 5 rebuild) is cheaper gate by
# gate.  Runs of 1 or 2 gates, rare in CSD circuits, go gate by gate too,
# which keeps one-gate circuits bit-exact to the gate kernel.
_BLOCK_QUBITS = 4
_MIN_RUN = 3
_MIN_FUSE_COLUMNS = 64


class Axis(Enum):
    Y = "y"
    Z = "z"


def _frozen_array(a, dtype) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D payload")
    arr.setflags(write=False)
    return arr


def _qubit_index(value) -> int:
    """A qubit index or count as a plain int; a bool or a non-integer raises."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadQubitIndexError(f"qubit index or count {value!r} is not an integer")


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
        object.__setattr__(self, "target", _qubit_index(self.target))
        object.__setattr__(self, "controls", tuple(map(_qubit_index, self.controls)))
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
        object.__setattr__(self, "target", _qubit_index(self.target))
        object.__setattr__(self, "controls", tuple(map(_qubit_index, self.controls)))
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
        n = _qubit_index(self.n_qubits)
        if n < 0:
            raise BadQubitIndexError(f"qubit count {n} is negative")
        object.__setattr__(self, "n_qubits", n)
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


def _apply_run(state: np.ndarray, run: list, n: int) -> np.ndarray:
    """Apply a run of rotations and Pi gates as one block-diagonal matmul.

    With T the run's j targets, the run acts on each pattern of the other
    qubits as one 2**j x 2**j block.  The gates build all blocks at once on a
    tiled identity, a (2**n, 2**j) stack whose column c is 1 on every row
    whose target bits spell c: viewed with the target axes last, the result
    is the stack of blocks, and one matmul applies it to the state viewed the
    same way.  Returns the new state; the input's memory may be reused.
    """
    axes = sorted({g.target - 1 for g in run})
    j = len(axes)
    z = any(getattr(g, "axis", None) is Axis.Z for g in run)
    # an R_y/Pi run has real blocks: on a complex state they act on its float64 view
    x = state if z or state.dtype == np.float64 else state.view(np.float64)
    shape = [1] * n + [1 << j]
    for a in axes:
        shape[a] = 2
    blocks = np.zeros((2,) * n + (1 << j,), np.complex128 if z else np.float64)
    blocks[...] = np.eye(1 << j).reshape(shape)
    blocks = blocks.reshape(1 << n, 1 << j)
    for g in run:
        _apply_gate(blocks, g, n)
    last = range(n - j, n)
    blocks = np.moveaxis(blocks.reshape((2,) * n + (-1,)), axes, last)
    blocks = blocks.reshape(-1, 1 << j, 1 << j)
    # a reshape when T holds the trailing qubits, else a copy
    stack = np.moveaxis(x.reshape((2,) * n + (-1,)), axes, last)
    stack = stack.reshape(blocks.shape[0], 1 << j, -1)
    if axes[0] == n - j:
        return np.matmul(blocks, stack).reshape(x.shape).view(state.dtype)
    # x is free once copied: the product goes into its memory in the stack's
    # axis order, then back into qubit order in the copy's memory
    product = np.matmul(blocks, stack, out=x.reshape(stack.shape)).reshape((2,) * n + (-1,))
    out = stack.reshape(product.shape)
    out[...] = np.moveaxis(product, last, axes)
    return out.reshape(x.shape).view(state.dtype)


def apply_to_state(circuit: Circuit, psi) -> np.ndarray:
    """Apply a circuit to a (2**n,) vector or (2**n, k) stack without materializing matrices.

    The result is float64 for a real circuit on a real input, else complex128.
    """
    v = np.asarray(psi)
    if circuit.n_qubits != v.shape[0].bit_length() - 1 or v.shape[0] != circuit.dim:
        raise LengthMismatchError(f"state length {v.shape[0]} != 2**{circuit.n_qubits}")
    real = _is_real(circuit.gates) and not np.iscomplexobj(v)
    v = np.array(v, dtype=np.float64 if real else np.complex128, order="C")
    n = circuit.n_qubits
    fuse = n > _BLOCK_QUBITS and v.size >> n >= _MIN_FUSE_COLUMNS
    for run in _runs(circuit.gates) if fuse else (circuit.gates,):
        if fuse and len(run) >= _MIN_RUN:
            v = _apply_run(v, run, n)
        else:
            for g in run:
                _apply_gate(v, g, n)
    return v


def _runs(gates):
    """Split gates greedily into runs on at most _BLOCK_QUBITS targets.

    A global phase comes out alone, as soon as it is met.
    """
    run, targets = [], set()
    for g in gates:
        if isinstance(g, GlobalPhase):  # a scalar: it commutes with the open run
            yield (g,)
            continue
        if g.target not in targets and len(targets) == _BLOCK_QUBITS:
            yield run
            run, targets = [], set()
        run.append(g)
        targets.add(g.target)
    yield run


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
    if circuit.n_qubits != (op.dim - 1).bit_length() or circuit.dim != op.dim:
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
