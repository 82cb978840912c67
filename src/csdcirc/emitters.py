"""Circuit serialization: the text record format, JSON, and Qcircuit LaTeX.

Text grammar, one record per gate in application order:

    GATEY | GATEZ | GATEPI | GATEPHASE
      <target>;  <c1>,  <c2>, ...
      <payload>

Angle payloads are turn fractions v with 2*theta = 2*pi*v, fixed-point with
4 decimals in display mode (wrapped 4 per line) or high-precision in exact
mode; flag payloads are Y/N tokens.  GATEZ and GATEPHASE extend the format
to the general pipeline, mirroring GATEY/GATEPI syntax.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext

import numpy as np

from .errors import (
    BadPayloadLengthError,
    BadQubitIndexError,
    JsonFormatError,
    LengthMismatchError,
    TextSyntaxError,
)
from .gates import Axis, Circuit, GlobalPhase, PiGate, UniformRotation

_PI = Decimal("3.14159265358979323846264338327950288419716939937511")
# Digits for exact mode: enough that turn -> radians reproduces the float64
# angle bit-for-bit through correctly rounded decimal arithmetic.
_EXACT_DIGITS = 25
_DISPLAY_WRAP = 4
# subgate columns per stacked LaTeX diagram
_LATEX_COLUMNS = 14


def _to_turns(angle: float) -> float:
    """Radians to turn fraction in (-1, 1] (the angle itself in (-pi, pi])."""
    v = angle / np.pi
    v -= 2.0 * np.floor((v + 1.0) / 2.0)
    return 1.0 if v == -1.0 else float(v)


def _to_turns_exact(angle: float) -> str:
    with localcontext() as ctx:
        ctx.prec = _EXACT_DIGITS
        turns = Decimal(float(angle) + 0.0) / _PI  # +0.0 drops -0.0
        two = Decimal(2)
        while turns > 1:
            turns -= two
        while turns <= -1:
            turns += two
        return str(turns)


def _from_turns(token: str) -> float:
    with localcontext() as ctx:
        ctx.prec = 2 * _EXACT_DIGITS
        return float(Decimal(token) * _PI)


_KEYWORDS = {"GATEY", "GATEZ", "GATEPI", "GATEPHASE"}


def _record_header(keyword: str, target: int, controls: tuple[int, ...]) -> list[str]:
    head = f"{target:3d};"
    if controls:
        head += "".join(f"{c:3d}," for c in controls[:-1]) + f"{controls[-1]:3d}"
    return [keyword, head]


def _angle_payload(angles, mode: str) -> list[str]:
    if mode == "display":
        turns = [round(_to_turns(a), 4) + 0.0 for a in angles]  # +0.0 drops -0.0
        lines = []
        for start in range(0, len(turns), _DISPLAY_WRAP):
            chunk = turns[start : start + _DISPLAY_WRAP]
            lines.append("".join(f"{v:8.4f}" for v in chunk))
        return lines
    return ["  " + "  ".join(_to_turns_exact(a) for a in angles)]


def emit_text(circuit: Circuit, mode: str = "display") -> str:
    """Serialize a circuit; ``mode`` is ``display`` (4 decimals) or ``exact``."""
    if mode not in ("display", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    lines: list[str] = []
    for g in circuit.gates:
        if isinstance(g, UniformRotation):
            keyword = "GATEY" if g.axis is Axis.Y else "GATEZ"
            lines += _record_header(keyword, g.target, g.controls)
            lines += _angle_payload(g.angles, mode)
        elif isinstance(g, PiGate):
            lines += _record_header("GATEPI", g.target, g.controls)
            lines.append("".join("  Y" if f else "  N" for f in g.flags))
        else:
            lines += _record_header("GATEPHASE", 1, ())
            lines += _angle_payload([g.phase], mode)
    return "\n".join(lines) + "\n" if lines else ""


def parse_text(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the text format back into a circuit.

    The qubit count is inferred from the largest index seen unless given.
    """
    numbered = [
        (i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()
    ]
    pos = 0
    gates: list = []
    gate_lines: list[int] = []
    max_qubit = 0
    while pos < len(numbered):
        lineno, keyword = numbered[pos]
        if keyword not in _KEYWORDS:
            raise TextSyntaxError(f"expected a gate keyword, got {keyword!r}", lineno)
        if pos + 1 >= len(numbered):
            raise TextSyntaxError("record truncated before the target line", lineno)
        head_no, head = numbered[pos + 1]
        target, controls = _parse_header(head, head_no)
        expected = 1 << len(controls)
        tokens: list[str] = []
        pos += 2
        last_no = head_no
        while len(tokens) < expected:
            if pos >= len(numbered) or numbered[pos][1].split()[0] in _KEYWORDS:
                raise BadPayloadLengthError(
                    f"payload has {len(tokens)} values, expected {expected}", last_no
                )
            last_no, line = numbered[pos]
            tokens.extend(line.split())
            pos += 1
        if len(tokens) != expected:
            raise BadPayloadLengthError(
                f"payload has {len(tokens)} values, expected {expected}", last_no
            )
        gates.append(_build_gate(keyword, target, controls, tokens, last_no))
        gate_lines.append(last_no)
        max_qubit = max(max_qubit, target if keyword != "GATEPHASE" else 0, *controls or (0,))
    bad = _first_non_finite(gates)
    if bad is not None:
        raise TextSyntaxError("angle is NaN or infinite", gate_lines[bad])
    inferred = n_qubits if n_qubits is not None else max_qubit
    return Circuit(inferred, tuple(gates))


def _parse_header(line: str, lineno: int) -> tuple[int, tuple[int, ...]]:
    if ";" not in line:
        raise TextSyntaxError(f"missing ';' in target line {line!r}", lineno)
    left, right = line.split(";", 1)
    try:
        target = int(left)
        controls = tuple(int(tok) for tok in right.replace(",", " ").split())
    except ValueError as exc:
        raise TextSyntaxError(f"bad target/control list {line!r}", lineno) from exc
    return target, controls


def _build_gate(keyword, target, controls, tokens, lineno):
    try:
        if keyword == "GATEPI":
            if any(tok not in ("Y", "N") for tok in tokens):
                raise TextSyntaxError(f"flags must be Y or N, got {tokens}", lineno)
            return PiGate(target, controls, np.array([tok == "Y" for tok in tokens]))
        try:
            angles = np.array([_from_turns(tok) for tok in tokens])
        except ArithmeticError as exc:
            raise TextSyntaxError(f"bad numeric payload {tokens}", lineno) from exc
        if keyword == "GATEPHASE":
            return GlobalPhase(float(angles[0]))
        axis = Axis.Y if keyword == "GATEY" else Axis.Z
        return UniformRotation(axis, target, controls, angles)
    except (BadQubitIndexError, LengthMismatchError) as exc:
        raise TextSyntaxError(str(exc), lineno) from exc


def _first_non_finite(gates) -> int | None:
    """Index of the first gate whose angles or phase hold NaN or inf, else None.

    One vectorised check per circuit: a check per gate costs both parsers
    several percent of their time.
    """
    values = [
        g.angles if isinstance(g, UniformRotation) else [getattr(g, "phase", 0.0)] for g in gates
    ]
    if not values or np.isfinite(np.concatenate(values)).all():
        return None
    return next(i for i, v in enumerate(values) if not np.isfinite(v).all())


# --- JSON -------------------------------------------------------------------


def emit_json(circuit: Circuit) -> str:
    gates = []
    for g in circuit.gates:
        if isinstance(g, UniformRotation):
            gates.append(
                {
                    "kind": "ry" if g.axis is Axis.Y else "rz",
                    "target": g.target,
                    "controls": list(g.controls),
                    "angles": [float(a) for a in g.angles],
                }
            )
        elif isinstance(g, PiGate):
            gates.append(
                {
                    "kind": "pi",
                    "target": g.target,
                    "controls": list(g.controls),
                    "flags": "".join("Y" if f else "N" for f in g.flags),
                }
            )
        else:
            gates.append({"kind": "phase", "phase": float(g.phase)})
    return json.dumps({"n_qubits": circuit.n_qubits, "gates": gates}, indent=2)


def parse_json(text: str) -> Circuit:
    try:
        obj = json.loads(text)
        gates: list = []
        for spec in obj["gates"]:
            kind = spec["kind"]
            if kind in ("ry", "rz"):
                gates.append(
                    UniformRotation(
                        Axis.Y if kind == "ry" else Axis.Z,
                        spec["target"],
                        tuple(spec["controls"]),
                        np.array(spec["angles"], dtype=np.float64),
                    )
                )
            elif kind == "pi":
                gates.append(
                    PiGate(
                        spec["target"],
                        tuple(spec["controls"]),
                        np.array([ch == "Y" for ch in spec["flags"]]),
                    )
                )
            elif kind == "phase":
                gates.append(GlobalPhase(float(spec["phase"])))
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        bad = _first_non_finite(gates)
        if bad is not None:
            raise ValueError(f"gate {bad} has a NaN or infinite angle")
        return Circuit(int(obj["n_qubits"]), tuple(gates))
    except (TypeError, KeyError, ValueError) as exc:
        raise JsonFormatError(f"malformed circuit JSON: {exc!r}") from exc


# --- LaTeX ------------------------------------------------------------------


def emit_latex(circuit: Circuit, angle_zero: float = 1e-9) -> str:
    """Qcircuit diagram body, one column per non-vanishing subgate.

    Control dots are open for pattern bit 0 and filled for bit 1; long
    circuits wrap into several stacked diagrams.
    """
    n = circuit.n_qubits
    columns = []
    for g in circuit.gates:
        columns.extend(_subgate_columns(g, n, angle_zero))
    lines = [
        "% Quantum circuit diagram; compile together with Qcircuit.tex",
        f"% qubits: {n}   columns: {len(columns)}",
    ]
    if not columns:
        return "\n".join(lines) + "\n"
    for start in range(0, len(columns), _LATEX_COLUMNS):
        chunk = columns[start : start + _LATEX_COLUMNS]
        lines.append(r"\[")
        lines.append(r"\Qcircuit @C=0.4em @R=0.1em @!R{")
        for wire in range(1, n + 1):
            cells = [col.get(wire, r"\qw") for col in chunk]
            lines.append("& " + " & ".join(cells) + r" & \qw \\")
        lines.append("}")
        lines.append(r"\]")
    return "\n".join(lines) + "\n"


def _subgate_columns(g, n: int, angle_zero: float) -> list[dict]:
    if isinstance(g, GlobalPhase):
        return [{1: r"\gate{\Phi}"}] if abs(g.phase) > angle_zero else []
    if isinstance(g, UniformRotation):
        name = "R_y" if g.axis is Axis.Y else "R_z"
        live = [k for k in range(g.angles.size) if abs(g.angles[k]) > angle_zero]
        box = lambda k: rf"\gate{{{name}^{{{k + 1}}}}}" if g.controls else rf"\gate{{{name}}}"
    else:
        live = [k for k in range(g.flags.size) if g.flags[k]]
        box = lambda k: r"\gate{\pi}"
    columns = []
    for k in live:
        col = {g.target: box(k)}
        for pos, ctrl in enumerate(g.controls):
            bit = (k >> (len(g.controls) - 1 - pos)) & 1
            step = 1 if ctrl < g.target else -1
            col[ctrl] = (r"\ctrl" if bit else r"\ctrlo") + f"{{{step}}}"
        columns.append(col)
    return columns
