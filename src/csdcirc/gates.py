"""Gate-level IR and its dense / matrix-free evaluation.

Conventions (fixed package-wide):
  * qubits are 1-based; qubit 1 is the most significant bit of a basis index;
  * a uniformly controlled rotation holds one angle per control pattern, the
    first listed control being the most significant pattern bit;
  * R_y(2t) = [[cos t, sin t], [-sin t, cos t]] and
    R_z(2p) = diag(e^{ip}, e^{-ip}) act on the target-bit pair of every
    pattern; a Pi flag applies diag(1, -1).

Evaluation (``circuit_matrix``, ``apply_to_state`` and ``verify``) applies
gates one by one through an in-place kernel, or in fused runs (below).  The
kernel views the state, a vector or a (2**n, k) column stack, as a
(2,)*n + (-1,) tensor whose axis q-1 is qubit q, and broadcasts each gate's
payload against the whole view: reshaped to 2 per control, transposed into
qubit order, size 1 on every other axis, then paired on the target axis
(target bit 0, target bit 1).  R_z and Pi are one multiply by such a pair;
R_y multiplies by cos and adds the sin terms, which a flip of the target
axis hands from each row to its partner.

A gate changes only its target bit, so a run of gates whose targets lie in a
set T of j qubits is block-diagonal over the other qubits, with 2**(n-j)
blocks of size 2**j.  On a circuit of more than 4 qubits and a stack of at
least 64 columns, ``apply_to_state`` splits the gates greedily into runs on
at most 4 targets; a global phase is a scalar, applied at once, and never
ends a run.  Runs of one shape (the same kinds of gate on the same places
among their targets, as a CSD circuit's ruler order repeats them) build
their blocks together, from their payloads: each block of each run is one
instance of an array that starts as the identity, and each gate position is
a few passes over all instances at once, in batches sized to stay in cache.
One batched matmul then applies a run's blocks to the state.  The state goes
from run to run in a permuted qubit order that puts each run's targets next
to each other, so a run reads it as a view and writes its product whole;
qubit order 1..n comes back once, at the end.  Narrower stacks, smaller
circuits and runs of fewer than 3 gates go gate by gate.

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
# Fused evaluation, timed with 1 BLAS thread on a 2-core Xeon (AVX-512) as
# medians of in-process runs that alternate with the earlier evaluation,
# whose runs built their blocks gate by gate on a tiled identity.  Against
# it, 4 targets per run took apply_to_state(eye) to 0.64 of its time on the
# walk-n8 seed-0 circuit, 0.67 on a Haar n = 7 circuit and 0.84-0.86 on
# n = 6 ones; 3 targets did as well up to n = 8 and on the n = 12 stacks of
# benchmarks/bench_eval.py, but no better than it on the complex n = 10
# rebuild (0.99 against 0.78); 5 targets were slower than 4 up to n = 8 and
# on the n = 12 stacks.  Fusing a 32-column stack (a dense n = 5 rebuild)
# was 1.3-1.7 times slower than gate by gate, so a stack narrower than 64
# columns, like a vector, goes gate by gate.  Runs of 1 or 2 gates, rare in
# CSD circuits, go gate by gate too, which keeps one-gate circuits
# bit-exact to the gate kernel.  A build holds at most _BUILD_ENTRIES
# floats (512 KB, a quarter of the 2 MB L2): half that was slower on the
# n = 10 and 12 cases, twice that on the n = 12 stacks.
_BLOCK_QUBITS = 4
_MIN_RUN = 3
_MIN_FUSE_COLUMNS = 64
_BUILD_ENTRIES = 1 << 16


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


def apply_to_state(circuit: Circuit, psi) -> np.ndarray:
    """Apply a circuit to a (2**n,) vector or (2**n, k) stack without materializing matrices.

    The result is float64 for a real circuit on a real input, else complex128.
    """
    v = np.asarray(psi)
    if v.ndim not in (1, 2):
        raise LengthMismatchError(f"state of shape {v.shape} is neither a vector nor a column stack")
    if circuit.n_qubits != v.shape[0].bit_length() - 1 or v.shape[0] != circuit.dim:
        raise LengthMismatchError(f"state length {v.shape[0]} != 2**{circuit.n_qubits}")
    real = _is_real(circuit.gates) and not np.iscomplexobj(v)
    v = np.array(v, dtype=np.float64 if real else np.complex128, order="C")
    n = circuit.n_qubits
    if n <= _BLOCK_QUBITS or v.size >> n < _MIN_FUSE_COLUMNS:
        for g in circuit.gates:
            _apply_gate(v, g, n)
        return v
    return _apply_runs(v, list(_runs(circuit.gates)), n, _MIN_RUN)


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


def _apply_runs(state: np.ndarray, runs: list, n: int, min_run: int) -> np.ndarray:
    """Apply runs of gates to a C-ordered (2**n,) vector or (2**n, k) stack.

    A run of at least ``min_run`` rotations and Pi gates is applied as one
    block-diagonal matmul; shorter runs and global phases go gate by gate.
    The state is carried from run to run in the qubit order that lets each
    run read it as a view (see _layouts) and put back in qubit order 1..n at
    the end.  Returns the new state; the input's memory may be reused.
    """
    fused = [len(run) >= min_run and not isinstance(run[0], GlobalPhase) for run in runs]
    todo = [run for run, f in zip(runs, fused) if f]
    slots = [{q: s for s, q in enumerate(dict.fromkeys(g.target for g in run))} for run in todo]
    plans = _layouts(slots, n)
    # a run's build depends, beyond its payloads and qubit numbers, on the
    # axis (None: Pi) of each gate and the slot of its target, a slot being
    # a target's place in order of first use
    shapes = [
        tuple((getattr(g, "axis", None), slot[g.target]) for g in run)
        for run, slot in zip(todo, slots)
    ]
    # the blocks built ahead of their runs never outgrow the state fourfold
    # nor one build's cache-sized budget, in floats
    budget = min(4 * state.size * state.itemsize // 8, _BUILD_ENTRIES)
    blocks = {}
    buf, spare = state, np.empty_like(state)
    natural = order = tuple(range(1, n + 1))
    i = 0
    for run, f in zip(runs, fused):
        if not f:
            view = _reorder(buf, order, natural, n)
            for g in run:
                _apply_gate(view, g, n)
            continue
        if i not in blocks:
            # the runs of this shape among the next ones whose blocks fit the budget
            floats = 1 << (n + len(slots[i]) + any(axis is Axis.Z for axis, _ in shapes[i]))
            ahead = range(i, min(len(todo), i + max(1, budget // floats)))
            group = [m for m in ahead if shapes[m] == shapes[i]]
            built = _build_blocks(
                [todo[m] for m in group], [slots[m] for m in group], [plans[m] for m in group], n
            )
            blocks.update(zip(group, built))
        b = blocks.pop(i)
        before, rows_in, others, rows_out = plans[i]
        if before != order:  # only where no earlier run could line the targets up
            spare.reshape((2,) * n + (-1,))[...] = _reorder(buf, order, before, n)
            buf, spare = spare, buf
        j = len(rows_in)
        x, out = buf, spare
        if b.dtype == np.float64 and buf.dtype == np.complex128:  # real blocks: the float64 view
            x, out = buf.view(np.float64), spare.view(np.float64)
        # the targets lie next to each other, so the stack is a view of the state
        stack = _reorder(x, before, others + rows_in, n).reshape((2,) * (n - j) + (1 << j, -1))
        ascending = sorted(others)
        b = b.reshape((2,) * (n - j) + b.shape[1:]).transpose(
            [ascending.index(q) for q in others] + [n - j, n - j + 1]
        )
        np.matmul(b, stack, out=out.reshape(stack.shape))
        buf, spare = spare, buf
        order = others + rows_out
        i += 1
    if order != natural:
        spare.reshape((2,) * n + (-1,))[...] = _reorder(buf, order, natural, n)
        buf = spare
    return buf


def _reorder(buf: np.ndarray, order: tuple, new: tuple, n: int) -> np.ndarray:
    """A state held in qubit order ``order`` as a (2,)*n + (k,) view in qubit order ``new``."""
    at = {q: p for p, q in enumerate(order)}
    return buf.reshape((2,) * n + (-1,)).transpose([at[q] for q in new] + [n])


def _layouts(slots: list, n: int) -> list:
    """The qubit order of the state before and after each fused run.

    ``slots`` holds each run's targets.  Returns per run (order before, its
    targets in that order, the other qubits and the targets in the order
    after).  A run reads the state as a view when its targets lie next to
    each other in the order before it, so each run writes its output with
    the next run's targets next to each other: those among its other qubits
    last of them, and those among its own targets first of them.
    """
    order = tuple(range(1, n + 1))
    plans = []
    for i, targets in enumerate(slots):
        at = sorted(order.index(q) for q in targets)
        if at[-1] - at[0] != len(at) - 1:
            order = tuple(sorted(order, key=lambda q: q in targets))
            at = range(n - len(at), n)
        rows, others = order[at[0] : at[-1] + 1], order[: at[0]] + order[at[-1] + 1 :]
        if i + 1 < len(slots):
            nxt = slots[i + 1]
            others = tuple(sorted(others, key=lambda q: q in nxt))
            rows_out = tuple(sorted(rows, key=lambda q: q not in nxt))
        else:
            others, rows_out = tuple(sorted(others)), tuple(sorted(rows))
        plans.append((order, rows, others, rows_out))
        order = others + rows_out
    return plans


def _coefficients(payloads: np.ndarray, g, qubits: list, others: list) -> np.ndarray:
    """Payloads (K runs, P positions, 2**len(controls)) shaped against half a build.

    The positions share g's target and controls.  ``qubits`` are the run's
    targets in the build's row order.  The result has a position axis, one
    axis of size 2 per target but g's, a column axis of size 1, then one
    axis over the runs and, within each, the patterns of ``others`` in
    ascending order.
    """
    k, positions = payloads.shape[:2]
    axis = {c: p for p, c in enumerate(g.controls, 2)}
    qubits = [q for q in qubits if q != g.target] + [0] + others
    axis[0] = 0
    a = payloads.reshape((k, positions) + (2,) * len(g.controls))
    a = a.transpose([1] + [axis[q] for q in qubits if q in axis])
    shape = [positions] + [k if q == 0 else 2 for q in qubits]
    if len(axis) < len(qubits):  # some qubit is not a control: the payload repeats over it
        a = a.reshape([positions] + [k if q == 0 else 2 if q in axis else 1 for q in qubits])
        a = np.broadcast_to(a, shape)
    a = np.ascontiguousarray(a).reshape(shape)
    return a.reshape(shape[: len(qubits) - len(others)] + [1, -1])


def _cos_sin(a: np.ndarray) -> tuple:
    """cos(a) and sin(a) from t = tan(a/2), within 2.3e-16 of np.cos and np.sin.

    numpy's float64 tan is vectorized where its sin and cos are not: on a
    2-core Xeon (AVX-512) with numpy 2.4, np.sin and np.cos took 24 ns a
    value against 2.8 ns for np.tan, and the trig was a tenth of the
    walk-n8 circuit's dense rebuild.
    """
    t = np.tan(0.5 * a)
    square = t * t
    d = 1.0 + square
    return (1.0 - square) / d, (t + t) / d


def _rotate(u, v, c, s, t):
    """u, v = c*u + s*v, c*v - s*u in place; s is overwritten, t is scratch of u's shape."""
    np.multiply(s, v, out=t)
    s *= u
    u *= c
    u += t
    v *= c
    v -= s


def _build_blocks(runs: list, slots: list, plans: list, n: int) -> list:
    """The blocks of runs of one shape, built together.

    A run on j targets acts on each pattern of its other qubits as one block
    of size 2**j.  Every block of every run is one instance of the build, an
    array (row bit, ..., column, instance) that starts as the identity; each
    gate position then acts on the row bits of all instances at once, as
    _apply_gate acts on a state.  The row bits go from the most used target
    outwards, so a gate's two halves are long contiguous spans; the
    instances run innermost, and a build holds at most _BUILD_ENTRIES
    floats, so each pass stays in cache.  A complex build keeps complex
    entries: R_z multiplies the halves by e^{+-ia}, and the real gates act
    on its float64 view, re and im alike.  Returns, per run, its blocks as
    (patterns of the other qubits in ascending order, rows in the order
    after the run, columns in the order before it).
    """
    first, slot = runs[0], slots[0]
    uses = {}
    for g in first:
        uses[slot[g.target]] = uses.get(slot[g.target], 0) + 1
    rows = sorted(uses, key=lambda s: (-uses[s], s))
    cols = [slot[q] for q in plans[0][1]]
    j, patterns = len(rows), 1 << (n - len(rows))
    z = any(getattr(g, "axis", None) is Axis.Z for g in first)
    # runs on the same qubits with the same controls share each transposition
    layouts = {}
    for r, run in enumerate(runs):
        layouts.setdefault(tuple(slots[r]) + tuple(g.controls for g in run), []).append(r)
    members = [r for rs in layouts.values() for r in rs]
    qubits = []
    for rs in layouts.values():
        by_slot = {s: q for q, s in slots[rs[0]].items()}
        others = [q for q in range(1, n + 1) if q not in slots[rs[0]]]
        qubits.append(([by_slot[s] for s in rows], others))
    # positions whose gates share kind, target and controls in every run
    # share each transposition and the trig calls
    sharing = {}
    for p, g in enumerate(first):
        controls = tuple(runs[rs[0]][p].controls for rs in layouts.values())
        key = (isinstance(g, PiGate), slot[g.target]) + controls
        sharing.setdefault(key, []).append(p)
    terms = [None] * len(first)
    for (pi, _, *_), ps in sharing.items():
        parts = []
        for rs, (targets, others) in zip(layouts.values(), qubits):
            if pi:
                payloads = np.where([[runs[r][p].flags for p in ps] for r in rs], -1.0, 1.0)
            else:
                payloads = np.array([[runs[r][p].angles for p in ps] for r in rs])
            parts.append(_coefficients(payloads, runs[rs[0]][ps[0]], targets, others))
        a = np.concatenate(parts, -1) if len(parts) > 1 else parts[0]
        term = (a,) if pi else _cos_sin(a)
        if z:  # the real gates act on the float64 view: re and im alike
            term += tuple(np.repeat(t, 2, -1) for t in term)
        for i, p in enumerate(ps):
            terms[p] = tuple(t[i] for t in term)
    dtype = np.complex128 if z else np.float64
    blocks = [np.empty((patterns, 1 << j, 1 << j), dtype) for _ in runs]
    at = np.arange(1 << j).reshape((2,) * j).transpose([rows.index(s) for s in cols]).reshape(-1)
    total = len(runs) * patterns
    step = max(1, _BUILD_ENTRIES >> (2 * j + z))
    for x0 in range(0, total, step):
        x1 = min(total, x0 + step)
        f = np.zeros((2,) * j + (1 << j, x1 - x0), dtype)
        f.reshape(1 << j, 1 << j, -1)[at, np.arange(1 << j)] = 1.0
        fv = f.view(np.float64)
        c, s, t = (np.empty(fv[0].shape) for _ in range(3))
        for g, term in zip(first, terms):
            lo = (slice(None),) * rows.index(slot[g.target]) + (0,)
            hi = lo[:-1] + (1,)
            if getattr(g, "axis", None) is Axis.Z:
                e = c.view(np.complex128)
                np.copyto(e.real, term[0][..., x0:x1])
                np.copyto(e.imag, term[1][..., x0:x1])
                u = f[lo]
                u *= e
                u = f[hi]
                u *= np.conjugate(e, out=e)
            elif isinstance(g, PiGate):
                v = fv[hi]
                v *= term[-1][..., x0 << z : x1 << z]
            else:
                np.copyto(c, term[-2][..., x0 << z : x1 << z])
                np.copyto(s, term[-1][..., x0 << z : x1 << z])
                _rotate(fv[lo], fv[hi], c, s, t)
        f = f.reshape((2,) * (2 * j) + (x1 - x0,))
        for m in range(x0 // patterns, (x1 - 1) // patterns + 1):
            r = members[m]
            _, rows_in, _, rows_out = plans[r]
            perm = [2 * j] + [rows.index(slots[r][q]) for q in rows_out]
            perm += [j + cols.index(slots[r][q]) for q in rows_in]
            start, stop = max(x0, m * patterns), min(x1, (m + 1) * patterns)
            dst = blocks[r][start - m * patterns : stop - m * patterns]
            dst = dst.reshape((stop - start,) + (2,) * (2 * j))
            dst[...] = f[..., start - x0 : stop - x0].transpose(perm)
    return blocks


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
