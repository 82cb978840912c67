"""Circuit serialization: the text record format, JSON, and Qcircuit LaTeX.

Text grammar, one record per gate in application order:

    GATEY | GATEZ | GATEPI | GATEPHASE
      <target>;  <c1>,  <c2>, ...
      <payload>

Angle payloads are turn fractions v with 2*theta = 2*pi*v, fixed-point with
4 decimals in display mode (wrapped 4 per line) or high-precision in exact
mode; flag payloads are Y/N tokens.  GATEZ and GATEPHASE extend the format
to the general pipeline, mirroring GATEY/GATEPI syntax; a GATEPHASE record
has target 1 and no controls.

Exact mode writes each angle as ``Decimal(angle) / _PI`` rounded half-even
to 25 significant digits and wrapped into (-1, 1], in ``str(Decimal)``
notation, and reads a token back as the double nearest to
``Decimal(token) * _PI``.  Both directions convert a whole circuit in numpy,
in chunks of ``_CHUNK`` values, with double-double arithmetic (Dekker,
Numer. Math. 18, 1971); the reader finds the tokens in the text's bytes and
hands them to ``_bytescan._read_numbers``, whose kernel reads the one number
grammar of every reader with the scale table ``_PI_POW10``.  The per-value
``Decimal`` code, ``_to_turns_exact`` and ``_from_turns``, stays the
reference, and converts what the passes leave: an angle whose rounding lies
within the pass's error bound of a tie, or above pi or below
``_EMIT_MIN``; a token the kernel does not prove; every token of a text
holding a non-ASCII character or shorter than ``_VECTOR_MIN`` rows of
``_ROW`` bytes; and the angle tokens of a batch of records with fewer than
``_VECTOR_MIN`` of them.  So the bytes and angles are always the
``Decimal`` code's.  Exact zero is written ``0E+50``, which is what
``Decimal`` makes of ``0 / _PI``, and the reader writes +0.0 for that
token itself, as ``_from_turns`` reads it, before the kernel runs.

JSON angles are written in numpy passes as ``repr`` writes them, with
``repr`` the reference (see the JSON section), and read back by
``json.loads``.
"""

from __future__ import annotations

import json
from decimal import Context, Decimal, localcontext
from typing import NamedTuple

import numpy as np

from ._bytescan import (
    _CHUNK,
    _PARSE_MAX_PLACES,
    _ROW,
    _VECTOR_MIN,
    _dd,
    _dd_table,
    _fast_two_sum,
    _Lines,
    _read_numbers,
    _split,
    _text_table,
    _TextBytes,
    _two_prod,
)
from .errors import (
    BadPayloadLengthError,
    BadQubitIndexError,
    JsonFormatError,
    LengthMismatchError,
    NonFiniteAngleError,
    TextSyntaxError,
)
from .gates import Axis, Circuit, GlobalPhase, PiGate, UniformRotation
from .matrices import Tolerances, _index, _number, _numbers

_PI = Decimal("3.14159265358979323846264338327950288419716939937511")
# Digits for exact mode: enough that turn -> radians reproduces the float64
# angle bit-for-bit through correctly rounded decimal arithmetic.
_EXACT_DIGITS = 25
# one context per precision: entering localcontext() per angle costs more
# than the arithmetic
_EMIT = Context(prec=_EXACT_DIGITS)
_PARSE = Context(prec=2 * _EXACT_DIGITS)
_DISPLAY_WRAP = 4
# subgate columns per stacked LaTeX diagram
_LATEX_COLUMNS = 14


def _to_turns(angle: float) -> float:
    """Radians to turn fraction in (-1, 1] (the angle itself in (-pi, pi])."""
    v = angle / np.pi
    v -= 2.0 * np.floor((v + 1.0) / 2.0)
    return 1.0 if v == -1.0 else float(v)


def _to_turns_exact(angle: float) -> str:
    turns = _EMIT.divide(Decimal(float(angle) + 0.0), _PI)  # +0.0 drops -0.0
    if not -1 < turns <= 1:
        turns = _wrap_turns(turns)
    return str(turns)


def _wrap_turns(turns: Decimal) -> Decimal:
    """turns - 2k in (-1, 1]: what subtracting 2 k times gives, in one step.

    turns has at most _EXACT_DIGITS digits, so where its exponent is <= 0 the
    difference is exact in that exponent.  A larger exponent makes turns a
    multiple of 10, hence an even integer, which wraps to zero.
    """
    if turns.is_infinite():
        return turns
    if turns.as_tuple().exponent > 0:
        return Decimal(0)
    numerator, denominator = turns.as_integer_ratio()
    k = -((denominator - numerator) // (2 * denominator))  # ceil((turns - 1) / 2)
    return _EMIT.subtract(turns, Decimal(2 * k))


def _from_turns(token: str) -> float:
    return float(_PARSE.multiply(Decimal(token), _PI))


# --- exact codec, numpy pass ---------------------------------------------------
#
# Notation of a nonzero token: 25 digits d1..d25 and a number of decimal
# places k, turns = d1..d25 * 10**-k.  Decimal writes k <= 30 as fixed
# "0." + (k - 25) zeros + digits, and k > 30 as "d1.d2..d25E-(k - 24)".

# Emit range of the pass.  Above pi a value wraps; below _EMIT_MIN its
# scale factor 10**k would leave the double range (k <= 306 here).
_EMIT_MIN = 1e-280
_EMIT_MAX = float(np.pi)
# The pass computes |angle| * (1/_PI) * 10**k with a relative error below
# 13 * 2**-106 (Dekker products and sums, each rounding bounded by
# 2**-53 of the term it rounds, with 1/_PI and 10**k held as two words),
# so below 1.7e-6 in the 25-digit integer.  A fraction within _EMIT_TIE
# (six times that) of 1/2 may round either way: Decimal rounds it.
_EMIT_TIE = 1e-5
_PAD = 0
_D1 = 10
_D2_WORDS = slice(3, 9)
# the 4 ASCII digits of 0..9999, one uint32 word each
_DIGITS4 = (np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_ZERO_TOKEN = np.frombuffer(b"0E+50", np.uint8)
# _ZERO_TOKEN as the low bytes of a little-endian word, and the mask of those bytes
_ZERO_WORD = np.uint64(int.from_bytes(_ZERO_TOKEN.tobytes(), "little"))
_ZERO_MASK = np.uint64((1 << 8 * _ZERO_TOKEN.size) - 1)


def _row_templates() -> np.ndarray:
    """Token rows by decimal places, all but the sign and the digits; _PAD elsewhere."""
    rows = np.zeros((309, _ROW), np.uint8)
    rows[:, :2] = ord(" ")
    for places in range(25, 31):
        rows[places, 3:5] = np.frombuffer(b"0.", np.uint8)
        rows[places, 5 : places - 20] = ord("0")
    for places in range(31, 309):
        expo = np.frombuffer(b"E-" + str(places - 24).encode(), np.uint8)
        rows[places, _D1 + 1] = ord(".")
        rows[places, 36 : 36 + expo.size] = expo
    return rows


_TEMPLATES = _row_templates()
_ZERO_ROW = np.zeros(_ROW, np.uint8)
_ZERO_ROW[:2] = ord(" ")
_ZERO_ROW[2 : 2 + _ZERO_TOKEN.size] = _ZERO_TOKEN


with localcontext(Context(prec=80)):
    _INV_PI = _dd(1 / _PI)
    _POW10 = _dd_table(Decimal(10) ** k for k in range(309))
    _PI_POW10 = _dd_table(_PI.scaleb(-k) for k in range(_PARSE_MAX_PLACES + 1))
_E12_SPLIT = _split(1e12)


def _turn_digits(mag):
    """mag / _PI rounded to 25 digits, for 0 < mag <= pi: (hi, lo, places, exact).

    The digits are hi * 10**12 + lo and the turns that integer * 10**-places.
    exact is False where the pass cannot prove the rounding: a fraction
    within _EMIT_TIE of 1/2, or a guess of the places from the high word
    that was one off (a power of ten, or a high word of 1.0 above a quotient
    below 1), which the integer's digit count shows.  At least 2**53 the
    scaled quotient's high word is an integer, so the integer part is exact
    in two int64 halves and the fraction exact in the low word.
    """
    ih, il, ih_hi, ih_lo = _INV_PI
    qh, e = _two_prod(mag, ih, ih_hi, ih_lo)
    qh, ql = _fast_two_sum(qh, e + mag * il)
    places = 24 - np.floor(np.log10(qh)).astype(np.int64)
    th, tl, th_hi, th_lo = (column[places] for column in _POW10)
    sh, se = _two_prod(qh, th, th_hi, th_lo)
    sh, sl = _fast_two_sum(sh, se + (qh * tl + ql * th))
    top = np.floor(sh * 1e-12)
    p, pe = _two_prod(top, 1e12, *_E12_SPLIT)
    whole = np.floor(sl)
    frac = sl - whole
    rest = ((sh - p) - pe + whole).astype(np.int64) + (frac > 0.5)
    hi = top.astype(np.int64) + rest // 10**12
    exact = (np.abs(frac - 0.5) > _EMIT_TIE) & (hi >= 10**12) & (hi < 10**13) & (places > 24)
    return hi, rest % 10**12, places, exact


def _token_rows(angles: np.ndarray) -> np.ndarray:
    """One row per angle: "  " and its exact-mode token, _PAD-filled to _ROW bytes."""
    mag = np.abs(angles)
    fast = (mag >= _EMIT_MIN) & (mag <= _EMIT_MAX)
    hi, lo, places, exact = _turn_digits(np.where(fast, mag, 1.0))
    rows = np.take(_TEMPLATES, places, axis=0)
    rows[:, 2] = np.where(angles < 0, ord("-"), _PAD)
    lead, top = np.divmod(hi, 10**12)
    rows[:, _D1] = lead + ord("0")
    words = rows.view(np.uint32)[:, _D2_WORDS]
    _digit_words(top, words[:, :3])
    _digit_words(lo, words[:, 3:])
    rows[mag == 0] = _ZERO_ROW
    _write_slow(rows[:, 2:], angles, ~(fast & exact) & (mag != 0), _to_turns_exact)
    return rows


def _digit_words(values: np.ndarray, out: np.ndarray) -> None:
    """Write each value below 10**(4 * k) into out's k columns, 4 digits a _DIGITS4 word."""
    groups = np.empty(out.shape, np.int64)
    for column in range(out.shape[1] - 1, 0, -1):
        values, groups[:, column] = np.divmod(values, 10**4)
    groups[:, 0] = values
    np.take(_DIGITS4, groups, out=out, mode="clip")


def _write_slow(rows: np.ndarray, values: np.ndarray, slow: np.ndarray, token) -> None:
    """Write token(v), _PAD-filled, over the row of each value where slow holds."""
    slow = np.flatnonzero(slow)
    if slow.size:
        width = rows.shape[1]
        tokens = "".join([token(v).ljust(width, chr(_PAD)) for v in values[slow].tolist()])
        rows[slow] = np.frombuffer(tokens.encode("ascii"), np.uint8).reshape(-1, width)


def _chunked(payloads: list[np.ndarray], rows_of, end_at: int, one_by_one) -> list[str]:
    """Each payload's text, from rows_of(values) in one pass per chunk.

    A payload's last row gets the byte 1 at column end_at and _PAD after
    it; the chunk's bytes, _PAD stripped, split at the 1s.  Payloads of
    fewer than _VECTOR_MIN values in all go through one_by_one instead.
    """
    sizes = [p.size for p in payloads]
    if sum(sizes) < _VECTOR_MIN:
        return [one_by_one(p) for p in payloads]
    values = np.concatenate(payloads)
    last_rows = np.cumsum(sizes) - 1
    texts: list[str] = []
    carry = ""
    for start in range(0, values.size, _CHUNK):
        rows = rows_of(values[start : start + _CHUNK])
        ends = last_rows[np.searchsorted(last_rows, start) : np.searchsorted(last_rows, start + _CHUNK)]
        rows[ends - start, end_at] = 1
        rows[ends - start, end_at + 1 :] = _PAD
        parts = rows.tobytes().translate(None, bytes([_PAD])).decode("ascii").split("\1")
        parts[0] = carry + parts[0]
        carry = parts.pop()
        texts += parts
    return texts


def _exact_lines(payloads: list[np.ndarray]) -> list[str]:
    """The exact-mode payload line of each angle array."""
    return _chunked(payloads, _token_rows, _ROW - 1, lambda p: "  " + "  ".join(map(_to_turns_exact, p)))


def _ranges(firsts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """firsts[k], firsts[k] + 1, ..., firsts[k] + sizes[k] - 1 for each k in order."""
    return np.arange(sizes.sum()) + np.repeat(firsts - (np.cumsum(sizes) - sizes), sizes)


# --- text records ----------------------------------------------------------------

_KEYWORDS = {"GATEY", "GATEZ", "GATEPI", "GATEPHASE"}


def _record_header(keyword: str, target: int, controls: tuple[int, ...]) -> list[str]:
    head = f"{target:3d};"
    if controls:
        head += "".join(f"{c:3d}," for c in controls[:-1]) + f"{controls[-1]:3d}"
    return [keyword, head]


def _display_payload(angles) -> list[str]:
    turns = [round(_to_turns(a), 4) + 0.0 for a in angles]  # +0.0 drops -0.0
    lines = []
    for start in range(0, len(turns), _DISPLAY_WRAP):
        chunk = turns[start : start + _DISPLAY_WRAP]
        lines.append("".join(f"{v:8.4f}" for v in chunk))
    return lines


def emit_text(circuit: Circuit, mode: str = "display") -> str:
    """Serialize a circuit; ``mode`` is ``display`` (4 decimals) or ``exact``."""
    if mode not in ("display", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact":
        exact = iter(
            _exact_lines(
                [
                    g.angles if isinstance(g, UniformRotation) else np.array([g.phase], np.float64)
                    for g in circuit.gates
                    if not isinstance(g, PiGate)
                ]
            )
        )
    lines: list[str] = []
    for g in circuit.gates:
        if isinstance(g, PiGate):
            lines += _record_header("GATEPI", g.target, g.controls)
            lines.append("".join("  Y" if f else "  N" for f in g.flags))
            continue
        if isinstance(g, UniformRotation):
            keyword = "GATEY" if g.axis is Axis.Y else "GATEZ"
            lines += _record_header(keyword, g.target, g.controls)
            angles = g.angles
        else:
            lines += _record_header("GATEPHASE", 1, ())
            angles = [g.phase]
        if mode == "exact":
            lines.append(next(exact))
        else:
            lines += _display_payload(angles)
    if lines:
        lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


class _Record(NamedTuple):
    keyword: str
    target: int
    controls: tuple[int, ...]
    first: int  # index of the payload's first line
    line: int  # of the payload's last line, so the payload is lines first .. line - 1
    count: int  # tokens in the payload


def parse_text(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the text format back into a circuit.

    The qubit count is inferred from the largest index seen, a GATEPHASE
    record counting as qubit 1, unless given.  Records are checked in
    order and their angle tokens converted in numpy passes of at most _CHUNK
    tokens; an error is raised at the first record that has one, as if each
    record were built before the next is read, except a NaN or infinite
    angle: that is reported once every record has been read.
    """
    table = _text_table(text)
    gates: list = []
    gate_lines: list[int] = []
    pending: list[_Record] = []
    queued = 0
    max_qubit = 0
    try:
        for record in _records(table):
            if queued + record.count > _CHUNK:
                batch, pending, queued = pending, [], 0
                _build_gates(table, batch, gates, gate_lines)
            pending.append(record)
            queued += record.count
            max_qubit = max(max_qubit, record.target, *record.controls)
    finally:
        _build_gates(table, pending, gates, gate_lines)  # an earlier record's error comes first
    inferred = n_qubits if n_qubits is not None else max_qubit
    try:
        return Circuit(inferred, tuple(gates))
    except NonFiniteAngleError as exc:
        raise TextSyntaxError("angle is NaN or infinite", gate_lines[exc.index]) from exc


def _records(table: _Lines | _TextBytes):
    """The records of the text in order; raises at the first malformed one."""
    counts = table.counts
    size = len(counts)

    def skip_blank(i: int) -> int:
        while i < size and not counts[i]:
            i += 1
        return i

    i = skip_blank(0)
    while i < size:
        keyword = table.line(i).strip()
        if keyword not in _KEYWORDS:
            raise TextSyntaxError(f"expected a gate keyword, got {keyword!r}", i + 1)
        j = skip_blank(i + 1)
        if j >= size:
            raise TextSyntaxError("record truncated before the target line", i + 1)
        target, controls = _parse_header(table.line(j).strip(), j + 1)
        if keyword == "GATEPHASE" and controls:
            raise TextSyntaxError("a GATEPHASE record takes no controls", j + 1)
        if keyword == "GATEPHASE" and target != 1:
            raise TextSyntaxError(f"a GATEPHASE record has target 1, got {target}", j + 1)
        expected = 1 << len(controls)
        got = 0
        last_no = j + 1
        first = i = skip_blank(j + 1)
        while got < expected:
            if i >= size or table.head(i) in _KEYWORDS:
                raise BadPayloadLengthError(f"payload has {got} values, expected {expected}", last_no)
            got += counts[i]
            last_no = i + 1
            i = skip_blank(i + 1)
        if got != expected:
            raise BadPayloadLengthError(f"payload has {got} values, expected {expected}", last_no)
        yield _Record(keyword, target, controls, first, last_no, got)


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


def _parse_turns(table: _Lines | _TextBytes, records: list[_Record]) -> tuple[np.ndarray, np.ndarray]:
    """Angles of the records' exact- or display-mode tokens, and which tokens are not numbers.

    When the table holds the text's bytes and the records hold at least
    _VECTOR_MIN tokens, _read_numbers reads them; else _from_turns reads
    each.
    """
    if table.buf is not None and sum(r.count for r in records) >= _VECTOR_MIN:
        counts = np.array([r.count for r in records])
        index = _ranges(np.array([table.first_tokens[r.first] for r in records]), counts)
        starts, ends = table.token_starts[index], table.token_ends[index]
        values = np.empty(index.size)
        text, buf = table.text, table.buf

        def spans(at: int, stop: int):
            s, e = starts[at:stop], ends[at:stop]
            return s, e, _nonzero_tokens(buf, s, e, values[at:stop])

        _, failed = _read_numbers(text, buf, index.size, spans, _PI_POW10, _from_turns, values, ArithmeticError)
        bad = np.zeros(index.size, bool)
        bad[failed] = True
        return values, bad
    tokens = [tok for r in records for tok in table.tokens(r.first, r.line)]
    values = np.empty(len(tokens))
    bad = np.zeros(len(tokens), bool)
    for i, token in enumerate(tokens):
        try:
            values[i] = _from_turns(token)
        except ArithmeticError:
            bad[i] = True
    return values, bad


def _nonzero_tokens(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write +0.0 to out where a token buf[starts:ends] is _ZERO_TOKEN, as _from_turns reads it; return where not.

    The emitter writes every zero angle so, and the kernel would read each
    through a second window for its exponent.
    """
    words = np.ndarray((buf.size - 7,), "<u8", buf, 0, (1,))  # the 8 bytes from each offset
    short = np.flatnonzero(ends - starts == _ZERO_TOKEN.size)
    zero = short[words[starts[short]] & _ZERO_MASK == _ZERO_WORD]
    out[zero] = 0.0
    read = np.ones(starts.size, bool)
    read[zero] = False
    return read


def _build_gates(table: _Lines | _TextBytes, records: list[_Record], gates: list, gate_lines: list[int]):
    """Build the records' gates in order, after one conversion of all their angle tokens."""
    values, bad = _parse_turns(table, [r for r in records if r.keyword != "GATEPI"])
    first_bad = np.argmax(bad) if bad.any() else bad.size
    start = 0
    for r in records:
        if r.keyword == "GATEPI":
            gates.append(_build_gate(r, table.tokens(r.first, r.line)))
            gate_lines.append(r.line)
            continue
        stop = start + r.count
        if stop > first_bad:
            raise TextSyntaxError(f"bad numeric payload {table.tokens(r.first, r.line)}", r.line)
        gates.append(_build_gate(r, values[start:stop]))
        gate_lines.append(r.line)
        start = stop


def _build_gate(r: _Record, payload):
    """The record's gate from its angles, or its flag tokens for GATEPI."""
    try:
        if r.keyword == "GATEPI":
            if any(tok not in ("Y", "N") for tok in payload):
                raise TextSyntaxError(f"flags must be Y or N, got {payload}", r.line)
            return PiGate(r.target, r.controls, np.array([tok == "Y" for tok in payload]))
        if r.keyword == "GATEPHASE":
            return GlobalPhase(float(payload[0]))
        axis = Axis.Y if r.keyword == "GATEY" else Axis.Z
        return UniformRotation(axis, r.target, r.controls, payload)
    except (BadQubitIndexError, LengthMismatchError) as exc:
        raise TextSyntaxError(str(exc), r.line) from exc


# --- JSON -------------------------------------------------------------------
#
# json.dumps writes a float as repr does: the shortest decimal that reads back
# as the same double and, of those, the nearest to it (Steele and White, PLDI
# 1990; Adams, PLDI 2018).  With the digits d1..dn and the decimal exponent
# p (the value is 0.d1..dn * 10**p), p from -3 to 16 is fixed notation, such
# as "0.000d1d2..", "d1.d2..", and other p are "d1.d2..e-XX" or "e+XX".
#
# The numpy pass takes |angle| in [_JSON_MIN, 10), so p <= 1 and "." only
# ever follows d1.  It scales |angle| by 10**k into [1e16, 1e17) as a
# double-double, exact for k <= 22 (10**k is then a double), and rounds it
# to 14, 15, 16 and 17 digits.  An n-digit decimal reads back as the angle
# when it lies within half an ulp of it, which the 17-digit rounding always
# does, and the rounding is the nearest of the n-digit decimals.  The pass
# writes the shortest rounding of 15 to 17 digits that reads back.  It
# leaves to repr a rounding within _JSON_TIE of a tie, a distance within
# _JSON_TIE of the half-ulp bound, a power of two (its lower gap is half as
# wide), a 14-digit rounding that reads back (the shortest form has 14
# digits or fewer), and an angle outside its range.

# A JSON row: the sign, "0." and up to three zeros, d1 at _JSON_D1, "." or
# _PAD, d2..d17 (whole uint32 words), "e-XX" or "e-XXX", a spare byte and
# the item separator.
_JSON_ROW = 40
_JSON_D1 = 6
_JSON_D2_WORDS = slice(2, 6)
_JSON_EXPONENT = 24
_JSON_SEP = ",\n        "
_JSON_SEP_AT = _JSON_ROW - len(_JSON_SEP)
_JSON_MIN = 1e-290
_JSON_MAX = 10.0
# Scaled, the distances and the half ulp are exact to within 1e-12 (the
# double-double product, to 4 * 2**-106 * 1e17, and a few roundings of
# values below 1016); a half ulp is at least 0.55.
_JSON_TIE = 1e-9
_EXPONENT_BITS = 0x7FF << 52
_MANTISSA_BITS = (1 << 52) - 1
# the uint32 word of d14..d17 with its last 0, 1 or 2 digits blanked
_JSON_KEEP = np.frombuffer(b"\xff\xff\xff\xff\xff\xff\xff\x00\xff\xff\x00\x00", np.uint32)
# a PiGate's bool flags, as bytes, to its letters
_FLAG_LETTERS = bytes.maketrans(b"\0\1", b"NY")


def _json_templates() -> np.ndarray:
    """JSON rows by the scale k = 17 - p, all but the sign and the digits; _PAD elsewhere."""
    rows = np.zeros((309, _JSON_ROW), np.uint8)
    rows[:, _JSON_SEP_AT:] = np.frombuffer(_JSON_SEP.encode(), np.uint8)
    for k in range(16, 309):
        point = 17 - k
        if -3 <= point <= 0:
            prefix = b"0." + b"0" * -point
            rows[k, _JSON_D1 - len(prefix) : _JSON_D1] = np.frombuffer(prefix, np.uint8)
        else:
            rows[k, _JSON_D1 + 1] = ord(".")
        if point < -3:
            expo = b"e%+03d" % (point - 1)
            rows[k, _JSON_EXPONENT : _JSON_EXPONENT + len(expo)] = np.frombuffer(expo, np.uint8)
    return rows


_JSON_TEMPLATES = _json_templates()
_JSON_ZERO_ROWS = np.repeat(_JSON_TEMPLATES[:1], 2, axis=0)
_JSON_ZERO_ROWS[:, 1:4] = np.frombuffer(b"0.0", np.uint8)
_JSON_ZERO_ROWS[1, 0] = ord("-")


def _shortest_digits(mag):
    """repr's digits of mag, for _JSON_MIN <= mag < 10: (digits, blank, k, exact).

    digits * 10**-k is the shortest decimal, its 17 - blank significant
    digits followed by blank zeros; exact is False where the pass leaves mag
    to repr.
    """
    k = 16 - np.floor(np.log10(mag)).astype(np.int64)
    th, tl, th_hi, th_lo = (np.take(column, k) for column in _POW10)
    sh, se = _two_prod(mag, th, th_hi, th_lo)
    sh, sl = _fast_two_sum(sh, se + mag * tl)
    # mag * 10**k = 1000 * thousands + off; sh is an integer when at least 2**53
    whole = sh.astype(np.int64)
    thousands = whole // 1000
    off = (whole - thousands * 1000).astype(np.float64) + sl
    bits = mag.view(np.int64)
    half_ulp = (bits & _EXPONENT_BITS).view(np.float64) * th * 2.0**-53
    r14, r15, r16 = (np.rint(off * (1 / unit)) * unit for unit in (1000, 100, 10))
    r17 = np.rint(off)
    gap15 = np.abs(off - r15)
    gap16 = np.abs(off - r16)
    fits15 = gap15 < half_ulp
    fits16 = gap16 < half_ulp
    low = np.where(fits16, np.where(fits15, r15, r16), r17)
    digits = thousands * 1000 + low.astype(np.int64)
    exact = (
        (np.abs(off - r14) - half_ulp > _JSON_TIE)
        & (np.abs(gap15 - half_ulp) > _JSON_TIE)
        & (np.abs(gap16 - half_ulp) > _JSON_TIE)
        & (np.abs(gap16 - 5) > _JSON_TIE)
        & (fits16 | (np.abs(np.abs(off - r17) - 0.5) > _JSON_TIE))
        & ((digits - 10**16).view(np.uint64) < 9 * 10**16)  # 17 digits
        & (bits & _MANTISSA_BITS != 0)
    )
    return digits, fits15.view(np.uint8) + fits16.view(np.uint8), k, exact


def _json_rows(angles: np.ndarray) -> np.ndarray:
    """One row per angle: its repr and the item separator, _PAD-filled."""
    mag = np.abs(angles)
    fast = (mag >= _JSON_MIN) & (mag < _JSON_MAX)
    digits, blank, k, exact = _shortest_digits(np.where(fast, mag, 1.0))
    rows = np.take(_JSON_TEMPLATES, k, axis=0)
    negative = np.signbit(angles).view(np.uint8)
    rows[:, 0] = negative * np.uint8(ord("-"))
    lead, rest = np.divmod(digits, 10**16)
    rows[:, _JSON_D1] = lead + ord("0")
    words = rows.view(np.uint32)[:, _JSON_D2_WORDS]
    _digit_words(rest, words)
    words[:, 3] &= np.take(_JSON_KEEP, blank)
    zero = np.flatnonzero(mag == 0)
    rows[zero] = _JSON_ZERO_ROWS[negative[zero]]
    _write_slow(rows[:, :_JSON_SEP_AT], angles, ~(fast & exact) & (mag != 0), repr)
    return rows


def _json_items(payloads: list[np.ndarray]) -> list[str]:
    """The items of each angle list as json.dumps(..., indent=2) writes them."""
    return _chunked(payloads, _json_rows, _JSON_SEP_AT, lambda p: _JSON_SEP.join(map(repr, p.tolist())))


def _json_gate(g, angle_items) -> list[str]:
    """The parts of a gate object as json.dumps(..., indent=2) writes it in the gate list."""
    if isinstance(g, GlobalPhase):
        return [f'{{\n      "kind": "phase",\n      "phase": {float(g.phase)!r}\n    }}']
    if g.controls:
        controls = "[\n        " + ",\n        ".join(map(str, g.controls)) + "\n      ]"
    else:
        controls = "[]"
    kind = "pi" if isinstance(g, PiGate) else "ry" if g.axis is Axis.Y else "rz"
    head = f'{{\n      "kind": "{kind}",\n      "target": {g.target},\n      "controls": {controls},\n      '
    if kind == "pi":
        flags = g.flags.tobytes().translate(_FLAG_LETTERS).decode("ascii")
        return [head + f'"flags": "{flags}"\n    }}']
    return [head + '"angles": [\n        ', next(angle_items), "\n      ]\n    }"]


def emit_json(circuit: Circuit) -> str:
    """The circuit as JSON, in the bytes json.dumps(..., indent=2) writes for it.

    Built from parts joined once: json.dumps with an indent runs the
    pure-Python encoder, which spends most of its time on the angle lists.
    """
    angle_items = iter(_json_items([g.angles for g in circuit.gates if isinstance(g, UniformRotation)]))
    parts = [f'{{\n  "n_qubits": {circuit.n_qubits},\n  "gates": [']
    for g in circuit.gates:
        parts.append(",\n    " if len(parts) > 1 else "\n    ")
        parts += _json_gate(g, angle_items)
    parts.append("\n  ]\n}" if circuit.gates else "]\n}")
    return "".join(parts)


def parse_json(text: str) -> Circuit:
    """Parse a JSON circuit: json.loads, then a type check of every value the circuit takes."""
    try:
        return _json_circuit(json.loads(text))
    except NonFiniteAngleError as exc:  # worded like the other malformed values
        raise JsonFormatError(f"malformed circuit JSON: {ValueError(str(exc))!r}") from exc
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise JsonFormatError(f"malformed circuit JSON: {exc!r}") from exc


def _json_circuit(obj) -> Circuit:
    """The circuit of a document as json.loads parsed it."""
    gates: list = []
    for spec in obj["gates"]:
        kind = spec["kind"]
        if kind in ("ry", "rz"):
            axis = Axis.Y if kind == "ry" else Axis.Z
            gates.append(UniformRotation(axis, *_qubits_of(spec), _numbers(spec["angles"])))
        elif kind == "pi":
            flags = spec["flags"]
            if type(flags) is not str or flags.strip("YN"):
                raise ValueError(f"flags must be Y or N, got {flags!r}")
            gates.append(PiGate(*_qubits_of(spec), np.frombuffer(flags.encode(), np.uint8) == ord("Y")))
        elif kind == "phase":
            gates.append(GlobalPhase(float(_number(spec["phase"]))))
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
    return Circuit(_index(obj["n_qubits"]), tuple(gates))


def _qubits_of(spec: dict) -> tuple[int, tuple[int, ...]]:
    return _index(spec["target"]), tuple(map(_index, spec["controls"]))


# --- LaTeX ------------------------------------------------------------------


def emit_latex(circuit: Circuit, angle_zero: float = Tolerances().angle_zero) -> str:
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
