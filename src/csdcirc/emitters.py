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
reads each through a few words gathered where its length puts its digits.
The per-value ``Decimal`` code, ``_to_turns_exact`` and ``_from_turns``,
stays the reference, and converts what the passes leave: an angle whose
rounding lies within the pass's error bound of a tie, or above pi or below
``_EMIT_MIN``; a token whose value lies within the pass's error bound of a
midpoint between two doubles, or that is not in the emitter's notation
(``_text_digits``); every token of a text holding a non-ASCII character
or shorter than ``_VECTOR_MIN`` rows of ``_ROW`` bytes; and the angle
tokens of a batch of records with fewer than ``_VECTOR_MIN`` of them.  So
the bytes and angles are always the ``Decimal`` code's.  Exact zero is
written ``0E+50``, which is what ``Decimal`` makes of ``0 / _PI``.

JSON angles are written as ``repr`` writes them and read in numpy passes as
well; ``repr``, ``json.loads`` and ``float()`` stay the reference (see the
JSON section).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from decimal import Context, Decimal, localcontext
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

# Values per numpy pass.  It bounds the pass's temporaries, about 250 bytes
# a value, so that the codec's peak memory stays that of the per-value
# code on pipeline-sized circuits; larger chunks measured no faster.
_CHUNK = 1 << 13
# A circuit with fewer angles, or a text with fewer angle tokens, is
# converted one value at a time.  Measured on 2-core Xeon: the numpy pass
# costs about 0.1 ms (emit) and 0.2 ms (parse) plus 0.2-0.4 us per value,
# against 1.5-2.5 us per value for Decimal; emit plus parse of the
# small-stream circuits (2 to 4096 angles) is fastest from 64 to 256.
_VECTOR_MIN = 128
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
# Parse range: at most this many decimal places, so that _PI * 10**-k and
# its low word stay normal doubles.
_PARSE_MAX_PLACES = 290
# D * (_PI * 10**-k) for an exact 25-digit D has a relative error below
# 9 * 2**-106.  A result within _PARSE_TIE (relative, seven times that) of
# the midpoint between two doubles may round either way: Decimal rounds it.
_PARSE_TIE = 2.0**-100
_SPLITTER = 134217729.0  # 2**27 + 1
_PAD = 0
# A token row: "  ", the sign, the fixed notation's "0." and up to 5
# zeros, d1, the E notation's ".", d2..d25 (whole uint32 words), the E
# notation's "E-" and 1 to 3 exponent digits, and a slot for the list end.
_ROW = 44
_D1 = 10
_D2_WORDS = slice(3, 9)
# the 4 ASCII digits of 0..9999, one uint32 word each
_DIGITS4 = (np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_ZERO_TOKEN = np.frombuffer(b"0E+50", np.uint8)


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


def _split(a):
    """a = hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b, b_hi, b_lo):
    """p + e = a * b exactly (Dekker); b comes split as b_hi + b_lo."""
    p = a * b
    a_hi, a_lo = _split(a)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _fast_two_sum(a, b):
    """s + e = a + b exactly, for |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The numbers that little-endian words of 8 ASCII digits spell (SWAR)."""
    w = words - np.uint64(0x3030303030303030)
    w = (w * np.uint64(10 * 256 + 1)) >> np.uint64(8)
    w = ((w & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 * 2**16 + 1)) >> np.uint64(16)
    w = ((w & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10**4 * 2**32 + 1)) >> np.uint64(32)
    return w.astype(np.int64)


def _dd(value: Decimal) -> tuple[float, float, float, float]:
    """value as hi + lo, and hi split for _two_prod; needs a precise context."""
    hi = float(value)
    mantissa, exponent = math.frexp(hi)
    m_hi, m_lo = _split(mantissa)  # split the mantissa: hi * _SPLITTER may overflow
    return hi, float(value - Decimal(hi)), math.ldexp(m_hi, exponent), math.ldexp(m_lo, exponent)


def _dd_table(values) -> tuple[np.ndarray, ...]:
    return tuple(np.array(column) for column in zip(*map(_dd, values)))


with localcontext(Context(prec=80)):
    _INV_PI = _dd(1 / _PI)
    _POW10 = _dd_table(Decimal(10) ** k for k in range(309))
    _PI_POW10 = _dd_table(_PI.scaleb(-k) for k in range(_PARSE_MAX_PLACES + 1))
    _INV_POW10 = _dd_table(Decimal(1).scaleb(-k) for k in range(_PARSE_MAX_PLACES + 1))
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


# --- reading numbers in numpy ------------------------------------------------------
#
# Both readers find their tokens in a document's bytes, padded with _MARGIN
# spaces on each side, by whole-buffer passes, and read each token through
# the 24 to 40 bytes around it, gathered at an offset that its length fixes
# and viewed as uint64 words.  The bytes before a token's digits are set to
# "0", and words of 8 ASCII digits become numbers by SWAR (Lemire, Softw.
# Pract. Exp. 51, 2021).
# _scale multiplies the digits' integer, below 10**25, by a double-double
# table entry, _PI * 10**-k for text and 10**-k for JSON, and rounds it; a
# result within _PARSE_TIE of a midpoint between two doubles, where that
# rounding is not proven, is left to the per-value code (Clinger, PLDI 1990).

# spaces on each side of a reader's bytes: as many as the 32 bytes a token's
# read reaches back, and more than the 7 it reads past its end
_MARGIN = 32
# bytes a whole-buffer pass takes at once: about a chunk of exact-mode
# tokens, which bounds the pass's temporaries
_SEGMENT = _CHUNK * _ROW
_ASCII_ZEROS = np.uint64(0x3030303030303030)
# the low 0 to 8 bytes of a word
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# offsets of the three words that hold 24 digits
_WORD_STEPS = np.arange(0, 24, 8)
_ZERO_WORD = int.from_bytes(_ZERO_TOKEN.tobytes(), "little")
# by a fixed token's size: the bytes of its zeros between "0." and the 25
# digits, in the first word of the 32 bytes that end it
_FIXED_ZEROS = np.array(
    [((1 << 8 * (n - 27)) - 1) << 8 * (34 - n) if 28 <= n <= 32 else 0 for n in range(34)], np.uint64
)
_TEN_POWERS = 10 ** np.arange(17)
# the control bytes (below 32) that str.split() takes as whitespace, and
# those where str.splitlines() ends a line
_TEXT_SPACE = np.bincount([9, 10, 11, 12, 13, 28, 29, 30, 31], minlength=32).astype(bool)
_LINE_BREAK = np.bincount([10, 11, 12, 13, 28, 29, 30], minlength=32).astype(bool)


def _padded_bytes(text: str) -> np.ndarray:
    """An ASCII text's bytes with at least _MARGIN spaces on each side, in whole uint64 words."""
    buf = np.full(-(-(len(text) + 2 * _MARGIN) // 8) * 8, ord(" "), np.uint8)
    for start in range(0, len(text), _SEGMENT):
        piece = np.frombuffer(text[start : start + _SEGMENT].encode("ascii"), np.uint8)
        buf[_MARGIN + start : _MARGIN + start + piece.size] = piece
    return buf


def _token_edges(buf: np.ndarray, separators: bytes, control_space: np.ndarray | None = None):
    """Start and end of each token in a _padded_bytes buffer, and the offsets of its control bytes.

    A token is a run of bytes that are neither in separators nor, where
    control_space is given, control bytes (below 32) for which it holds.
    Without control_space no control byte is looked for.
    """
    edges, controls = [], []
    before = True  # buf[0] is a space
    span = np.int32 if buf.size <= np.iinfo(np.int32).max else np.int64  # 8 bytes a token, not 16
    for start in range(0, buf.size, _SEGMENT):
        part = buf[start : start + _SEGMENT]
        space = part == separators[0]
        for byte in separators[1:]:
            space |= part == byte
        if control_space is not None:
            # the words that hold a byte below 32, then those bytes
            words = part.view(np.uint64)
            flags = (words - np.uint64(0x2020202020202020)) & ~words & np.uint64(0x8080808080808080)
            flagged = np.flatnonzero(flags != 0)
            low = (flagged[:, None] * 8 + np.arange(8)).ravel()
            low = low[part[low] < 32]
            space[low] = control_space[part[low]]
            controls.append(low + start)
        edges.append((np.flatnonzero(np.diff(space, prepend=before)) + start).astype(span))
        before = space[-1]
    edges = np.concatenate(edges)
    return edges[0::2], edges[1::2], np.concatenate(controls or [np.empty(0, np.int64)])


def _ranges(firsts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """firsts[k], firsts[k] + 1, ..., firsts[k] + sizes[k] - 1 for each k in order."""
    return np.arange(sizes.sum()) + np.repeat(firsts - (np.cumsum(sizes) - sizes), sizes)


def _words(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The width bytes of buf from each offset in at, as (width // 8, len(at)) little-endian uint64s."""
    windows = as_strided(buf, (buf.size - width + 1, width), (1, 1), writeable=False)
    return windows[at].view("<u8").T


def _digit_check(words: np.ndarray) -> np.ndarray:
    """Where each word is 8 ASCII digits: every byte's high nibble is 3, and still 3 after adding 6."""
    high = np.uint64(0xF0F0F0F0F0F0F0F0)
    nibbles = (words & high) | (((words + np.uint64(0x0606060606060606)) & high) >> np.uint64(4))
    return nibbles == np.uint64(0x3333333333333333)


def _zero_filled(words: np.ndarray, count) -> np.ndarray:
    """words with their low count bytes, the first count in memory, set to "0"."""
    low = _LOW_BYTES[count]
    return (words & ~low) | (_ASCII_ZEROS & low)


def _last_digits(words: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Three rows of words holding 24 bytes, with all but the last count bytes of each column "0"."""
    return _zero_filled(words, np.clip(24 - count - _WORD_STEPS[:, None], 0, 8))


def _exact_sum(top: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """top * 10**12 + lo as a double-double, exactly: int64s with lo below 10**12 and the sum below 10**25."""
    top = top.astype(np.float64)
    lo = lo.astype(np.float64)
    p, e = _two_prod(top, 1e12, *_E12_SPLIT)
    s = p + lo  # two-sum: s + t = p + lo
    back = s - p
    t = (p - (s - back)) + (lo - back)
    return _fast_two_sum(s, t + e)  # t and e are integers below 2**31


def _scale(dh: np.ndarray, dl: np.ndarray, places: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """The integer dh + dl times table[places] rounded to a double, and where that rounding is proven.

    dh + dl is exact and table holds each factor as _dd does.  The product
    has a relative error below 9 * 2**-106; a result within _PARSE_TIE of a
    midpoint between two doubles is not proven.
    """
    ch, cl, ch_hi, ch_lo = (column[places] for column in table)
    vh, ve = _two_prod(dh, ch, ch_hi, ch_lo)
    vh, vl = _fast_two_sum(vh, ve + (dh * cl + dl * ch))
    # vh >= 0; the gap to its neighbour on vl's side (NaN for vh = 0)
    gap = (vh.view(np.int64) + ((vl > 0) * 2 - 1)).view(np.float64) - vh
    return vh, (vh == 0) | (np.abs(np.abs(vl) - np.abs(gap) / 2) > _PARSE_TIE * vh)


def _signed(value: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """value (>= 0) with its sign bit set where negative holds."""
    return (value.view(np.uint64) | (negative.astype(np.uint64) << np.uint64(63))).view(np.float64)


def _text_digits(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(negative, top, lo, places, ok) of the tokens buf[starts:ends]; ok where in the emitter's notation.

    Takes "0." and 1 to 30 decimals of which at most 25 significant,
    "d.<24 digits>E-<1 to 3 digits>" and "0E+50", each with an optional "-".
    The 25 digits are the last 25 of the 32 bytes that end a fixed token,
    those before its decimals as "0", or an E token's first digit and the 24
    after its point; the turns are (top * 10**12 + lo) * 10**-places.
    """
    negative = buf[starts] == ord("-")
    s = starts + negative
    size = ends - s
    first = buf[s]
    point = buf[s + 1] == ord(".")
    places = size - 2
    tail = _words(buf, ends - 32, 32)
    digits = _last_digits(tail[1:], places)
    lead = (places >= 25) * ((tail[0] >> np.uint64(56)).astype(np.int64) - ord("0"))
    zeros = _FIXED_ZEROS[np.clip(size, 0, 33)]
    ok = (first == ord("0")) & point & (places >= 1) & (places <= 30) & ((tail[0] & zeros) == (_ASCII_ZEROS & zeros))
    sci = np.flatnonzero((first - ord("1") < 9) & point & (size >= 29) & (size <= 31))
    if sci.size:  # "E-" and 1 to 3 exponent digits follow d1, "." and d2..d25
        words = _words(buf, s[sci] - 6, 40)
        count = (size[sci] - 28).astype(np.uint64)
        exponent = (words[4] >> np.uint64(16)) << (np.uint64(64) - np.uint64(8) * count)
        exponent = _zero_filled(exponent, np.uint64(8) - count)
        digits[:, sci] = words[1:4]
        lead[sci] = first[sci] - ord("0")
        places[sci] = 24 + _eight_digits(exponent)
        ok[sci] = ((words[4] & np.uint64(0xFFFF)) == ord("E") | ord("-") << 8) & _digit_check(exponent)
    ok &= (lead >= 0) & (lead <= 9) & _digit_check(digits).all(axis=0) & (places <= _PARSE_MAX_PLACES)
    a, b, c = _eight_digits(digits)
    b_top = b // 10**4
    top = ok * (lead * 10**12 + a * 10**4 + b_top)
    lo = ok * ((b - b_top * 10**4) * 10**8 + c)
    zero = (size == _ZERO_TOKEN.size) & ((tail[3] >> np.uint64(24)) == _ZERO_WORD)
    return negative, top, lo, ok * places, ok | zero


def _fast_turns(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the angles of exact-mode tokens buf[starts:ends] to out; returns where they are proven."""
    negative, top, lo, places, ok = _text_digits(buf, starts, ends)
    value, exact = _scale(*_exact_sum(top, lo), places, _PI_POW10)
    out[:] = _signed(value, negative)
    return ok & exact


def _json_digits(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(negative, digits, places, shape, ok) of the JSON numbers buf[starts:ends].

    shape holds for the forms repr writes with one digit before the point:
    "d.<1 to 24 digits>", optionally followed by "e", a sign and 2 or 3
    digits, and "d" with such an exponent, each with an optional "-".  ok
    holds where such a number is digits, an integer below 10**17, times
    10**-places for places from 0 to _PARSE_MAX_PLACES.
    """
    negative = buf[starts] == ord("-")
    s = starts + negative
    size = ends - s
    lead = buf[s].astype(np.int64) - ord("0")
    point = buf[s + 1] == ord(".")
    # "e", a sign and 2 or 3 digits end a number with an exponent
    two = (buf[ends - 4] == ord("e")) & (size >= 5)
    three = (buf[ends - 5] == ord("e")) & (size >= 6) & ~two
    mantissa_end = ends - 4 * two - 5 * three
    places = point * (mantissa_end - s - 2)  # the decimals, until the exponent is known
    decimals = places.copy()
    digits = _last_digits(_words(buf, mantissa_end - 24, 24), places)
    marked = np.ones(s.size, bool)
    sci = np.flatnonzero(two | three)
    if sci.size:
        count = (2 + three[sci]).astype(np.uint64)
        tail = _words(buf, ends[sci] - 8, 8)[0]
        marker = (tail >> (np.uint64(48) - np.uint64(8) * count)) & np.uint64(0xFFFF)
        exponent = _zero_filled(tail, np.uint64(8) - count)
        minus = marker == ord("e") | ord("-") << 8
        marked[sci] = (minus | (marker == ord("e") | ord("+") << 8)) & _digit_check(exponent)
        places[sci] += (2 * minus - 1) * _eight_digits(exponent)
    shape = (lead >= 0) & (lead <= 9) & marked & _digit_check(digits).all(axis=0)
    shape &= np.where(point, (decimals >= 1) & (decimals <= 24), (mantissa_end == s + 1) & (two | three))
    a, b, c = _eight_digits(digits)
    ok = shape & (a <= 9) & ((lead == 0) | (decimals <= 16)) & (places >= 0) & (places <= _PARSE_MAX_PLACES)
    integer = ok * (lead * _TEN_POWERS[np.clip(decimals, 0, 16)] + a * 10**16 + b * 10**8 + c)
    return negative, integer, ok * places, shape, ok


def _fast_floats(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, out: np.ndarray):
    """Write the JSON numbers buf[starts:ends] to out: (shape, where proven), with shape as _json_digits has it."""
    negative, integer, places, shape, ok = _json_digits(buf, starts, ends)
    dh = integer.astype(np.float64)
    value, exact = _scale(dh, (integer - dh.astype(np.int64)).astype(np.float64), places, _INV_POW10)
    out[:] = _signed(value, negative)
    return shape, ok & exact


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


class _Lines:
    """The lines of a text and their tokens, as str.splitlines() and str.split() find them.

    counts[i] is the number of tokens on line i, line(i) the line, head(i)
    its first token and tokens(first, stop) those of lines first .. stop - 1.
    buf is None: the angle tokens are read one by one.
    """

    buf = None

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.words = [line.split() for line in self.lines]
        self.counts = list(map(len, self.words))

    def line(self, i: int) -> str:
        return self.lines[i]

    def head(self, i: int) -> str:
        return self.words[i][0]

    def tokens(self, first: int, stop: int) -> list[str]:
        return [tok for words in self.words[first:stop] for tok in words]


# a line's first word is a keyword only if the line's first this many
# characters from its first token split to that keyword
_KEYWORD_SPAN = 1 + max(map(len, _KEYWORDS))


class _TextBytes:
    """What _Lines holds of an ASCII text, found in its _padded_bytes by whole-buffer passes.

    Per line: the offsets in the text of its start, its end and its first
    token (its end if it has none), its number of tokens and the index of
    its first token.  Keeps buf and the span of every token in it.
    """

    def __init__(self, text: str):
        buf = _padded_bytes(text)
        token_starts, token_ends, controls = _token_edges(buf, b" ", _TEXT_SPACE)
        codes = buf[controls]
        breaks = controls[_LINE_BREAK[codes] & ~((codes == ord("\n")) & (buf[controls - 1] == ord("\r")))]
        crlf = (buf[breaks] == ord("\r")) & (buf[breaks + 1] == ord("\n"))  # one break of two bytes
        starts = np.concatenate([[_MARGIN], breaks + 1 + crlf])
        ends = np.append(breaks, _MARGIN + len(text))
        if starts[-1] == ends[-1]:  # nothing follows the last line break
            starts, ends = starts[:-1], ends[:-1]
        # keys of the spans' own dtype: int64 keys would widen a copy of every span
        first_tokens = np.searchsorted(token_starts, starts.astype(token_starts.dtype))
        counts = np.searchsorted(token_starts, ends.astype(token_starts.dtype)) - first_tokens
        firsts = np.where(counts > 0, np.append(token_starts, 0)[first_tokens], ends)
        self.text = text
        self.starts = (starts - _MARGIN).tolist()
        self.ends = (ends - _MARGIN).tolist()
        self.firsts = (firsts - _MARGIN).tolist()
        self.counts = counts.tolist()
        self.first_tokens = first_tokens.tolist()
        self.buf, self.token_starts, self.token_ends = buf, token_starts, token_ends

    def line(self, i: int) -> str:
        return self.text[self.starts[i] : self.ends[i]]

    def head(self, i: int) -> str:
        return self.text[self.firsts[i] : self.firsts[i] + _KEYWORD_SPAN].split(None, 1)[0]

    def tokens(self, first: int, stop: int) -> list[str]:
        return [tok for i in range(first, stop) for tok in self.line(i).split()]


def _text_table(text: str) -> _Lines | _TextBytes:
    # a text shorter than _VECTOR_MIN exact-mode rows at their widest, or not ASCII, is split by str methods
    if len(text) < _VECTOR_MIN * _ROW or not text.isascii():
        return _Lines(text)
    return _TextBytes(text)


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
    record were built before the next is read.
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
    _VECTOR_MIN tokens, they go through numpy passes of at most _CHUNK;
    _from_turns reads the others.
    """
    size = sum(r.count for r in records)
    values = np.empty(size)
    bad = np.zeros(size, bool)
    if table.buf is not None and size >= _VECTOR_MIN:
        counts = np.array([r.count for r in records])
        index = _ranges(np.array([table.first_tokens[r.first] for r in records]), counts)
        starts, ends = table.token_starts[index].astype(np.intp), table.token_ends[index].astype(np.intp)
        converted = np.concatenate(
            [
                _fast_turns(table.buf, starts[at : at + _CHUNK], ends[at : at + _CHUNK], values[at : at + _CHUNK])
                for at in range(0, size, _CHUNK)
            ]
        )
        rest = np.flatnonzero(~converted)
        text = table.text
        tokens = [text[s - _MARGIN : e - _MARGIN] for s, e in zip(starts[rest].tolist(), ends[rest].tolist())]
    else:
        rest = range(size)
        tokens = [tok for r in records for tok in table.tokens(r.first, r.line)]
    for i, token in zip(rest, tokens):
        try:
            values[i] = _from_turns(token)
        except ArithmeticError:
            bad[i] = True
    return values, bad


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


# parse_json reads the angle lists of a document in numpy.  Each
# "angles": [...] list becomes the placeholder NaN, and json.loads parses
# what is left, with each placeholder a _Slot.  The lists' tokens go through
# _fast_floats in passes of at most _CHUNK, and the values that pass leaves
# (near a midpoint, out of its range or over 17 digits) through float().
# Any other document goes through json.loads whole, which also raises every
# error: one that is not ASCII or is shorter than _CHUNK // 4 rows of
# _JSON_ROW bytes, a list token not in _json_digits's shape, a list not
# comma-separated as json.dumps separates it, a list holding "[", a NaN or
# Infinity of the document's own, and placeholders that do not come back
# one per rotation gate, in order.

_ANGLE_LIST = re.compile(r'"angles"[ \t\n\r]*:[ \t\n\r]*\[')


class _Fallback(Exception):
    """The document is not one the numpy reader takes; read it with json.loads."""


class _Slot(int):
    """What json.loads makes of the placeholder of the i-th angle list."""


def _angle_lists(text: str) -> tuple[dict, list[np.ndarray]]:
    """The document with its angle lists as _Slots, and the lists' angles; raises _Fallback."""
    # Below 2,048 angles at their widest, json.loads is as fast: the passes'
    # fixed cost of about 0.5 ms outweighs what they save.  On compiled
    # circuits (2-core Xeon, 1 BLAS thread) json.loads and the passes took
    # 1.8 and 2.7 ms on 1,023 angles (39 KB), 2.9 and 2.7-3.1 ms on 2,016
    # (69 KB), 5.7 and 5.2 ms on 4,095 (137 KB), 9.4 and 7.9 ms on 8,128.
    if len(text) < _CHUNK // 4 * _JSON_ROW or not text.isascii():
        raise _Fallback
    spans = []
    match = _ANGLE_LIST.search(text)
    while match:
        end = text.find("]", match.end())
        if end < 0 or text.find("[", match.end(), end) >= 0:
            raise _Fallback
        spans.append((match.end(), end))
        match = _ANGLE_LIST.search(text, end + 1)
    if not spans:
        raise _Fallback
    parts, at = [], 0
    for start, end in spans:
        parts += [text[at : start - 1], "NaN"]
        at = end + 1
    parts.append(text[at:])
    skeleton = "".join(parts)
    slots: list[_Slot] = []

    def slot(_):
        slots.append(_Slot(len(slots)))
        return slots[-1]

    try:
        obj = json.loads(skeleton, parse_constant=slot)
    except ValueError:
        raise _Fallback from None
    if len(slots) != len(spans):
        raise _Fallback
    buf = _padded_bytes(text)
    token_starts, token_ends, _ = _token_edges(buf, b" ,[]\t\n\r")
    bounds = (np.array(spans) + _MARGIN).astype(token_starts.dtype)  # see _TextBytes
    firsts = np.searchsorted(token_starts, bounds[:, 0])
    sizes = np.searchsorted(token_starts, bounds[:, 1]) - firsts
    index = _ranges(firsts, sizes)
    # a comma right after each token but the last of its list, and no other in the lists
    inner = np.ones(index.size, bool)
    inner[np.cumsum(sizes)[sizes > 0] - 1] = False
    commas = sum(np.count_nonzero(buf[at : at + _SEGMENT] == ord(",")) for at in range(0, buf.size, _SEGMENT))
    if commas - skeleton.count(",") != np.count_nonzero(inner):
        raise _Fallback
    values = np.empty(index.size)
    for at in range(0, index.size, _CHUNK):
        chunk = slice(at, at + _CHUNK)
        starts, ends = token_starts[index[chunk]].astype(np.intp), token_ends[index[chunk]].astype(np.intp)
        shape, converted = _fast_floats(buf, starts, ends, values[chunk])
        if not (shape.all() and np.all(buf[ends[inner[chunk]]] == ord(","))):
            raise _Fallback
        for i in np.flatnonzero(~converted).tolist():
            values[at + i] = float(text[starts[i] - _MARGIN : ends[i] - _MARGIN])
    return obj, np.split(values, np.cumsum(sizes)[:-1])


def parse_json(text: str) -> Circuit:
    """Parse a JSON circuit: its angle lists in numpy where it can, else through json.loads."""
    try:
        try:
            obj, lists = _angle_lists(text)
            order = iter(range(len(lists)))

            def angles_of(value):
                if type(value) is not _Slot or value != next(order, None):
                    raise _Fallback
                return lists[value]

            circuit = _json_circuit(obj, angles_of)
            if next(order, None) is not None:
                raise _Fallback
            return circuit
        except _Fallback:
            return _json_circuit(json.loads(text), _numbers)
    except NonFiniteAngleError as exc:  # worded like the other malformed values
        raise JsonFormatError(f"malformed circuit JSON: {ValueError(str(exc))!r}") from exc
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise JsonFormatError(f"malformed circuit JSON: {exc!r}") from exc


def _json_circuit(obj, angles_of) -> Circuit:
    """The circuit of a parsed document; angles_of reads a rotation's "angles" value."""
    gates: list = []
    for spec in obj["gates"]:
        kind = spec["kind"]
        if kind in ("ry", "rz"):
            axis = Axis.Y if kind == "ry" else Axis.Z
            gates.append(UniformRotation(axis, *_qubits_of(spec), angles_of(spec["angles"])))
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
