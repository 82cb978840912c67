"""Number and line passes over an ASCII text's bytes, shared by the circuit and matrix readers.

The readers in ``emitters`` and ``matrices`` find a document's lines and
tokens here and convert decimal numbers with double-double arithmetic
(Dekker, Numer. Math. 18, 1971); what a pass cannot prove is left to the
reader's per-value code.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
# Parse range: at most this many decimal places, so that _PI * 10**-k and
# its low word stay normal doubles.
_PARSE_MAX_PLACES = 290
# D * (_PI * 10**-k) for an exact 25-digit D has a relative error below
# 9 * 2**-106.  A result within _PARSE_TIE (relative, seven times that) of
# the midpoint between two doubles may round either way: Decimal rounds it.
_PARSE_TIE = 2.0**-100
_SPLITTER = 134217729.0  # 2**27 + 1
# A token row: "  ", the sign, the fixed notation's "0." and up to 5
# zeros, d1, the E notation's ".", d2..d25 (whole uint32 words), the E
# notation's "E-" and 1 to 3 exponent digits, and a slot for the list end.
_ROW = 44


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
    _INV_POW10 = _dd_table(Decimal(1).scaleb(-k) for k in range(_PARSE_MAX_PLACES + 1))


# --- reading numbers in numpy ------------------------------------------------------
#
# The readers find their tokens in a document's bytes, padded with _MARGIN
# spaces on each side, by whole-buffer passes, and read each token through
# the 24 to 40 bytes around it, gathered at an offset that its length fixes
# and viewed as uint64 words.  The bytes before a token's digits are set to
# "0", and words of 8 ASCII digits become numbers by SWAR (Lemire, Softw.
# Pract. Exp. 51, 2021).
# _scale multiplies the digits' integer, below 10**25, by a double-double
# table entry, _PI * 10**-k for exact-mode text and 10**-k for JSON and
# matrix numbers, and rounds it; a result within _PARSE_TIE of a midpoint
# between two doubles, where that rounding is not proven, is left to the
# per-value code (Clinger, PLDI 1990).

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


class _Lines:
    """The lines of a text and their tokens, as str.splitlines() and str.split() find them.

    counts[i] is the number of tokens on line i, line(i) the line, head(i)
    its first token and tokens(first, stop) those of lines first .. stop - 1.
    buf is None: the tokens are read one by one.
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


class _TextBytes:
    """What _Lines holds of an ASCII text, found in its _padded_bytes by whole-buffer passes.

    Per line: the offsets in the text of its start and its end, its number
    of tokens and the index of its first token.  Keeps buf and the span of
    every token in it.
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
        self.text = text
        self.starts = (starts - _MARGIN).tolist()
        self.ends = (ends - _MARGIN).tolist()
        self.counts = counts.tolist()
        self.first_tokens = first_tokens.tolist()
        self.buf, self.token_starts, self.token_ends = buf, token_starts, token_ends

    def line(self, i: int) -> str:
        return self.text[self.starts[i] : self.ends[i]]

    def head(self, i: int) -> str:
        k = self.first_tokens[i]
        return self.text[self.token_starts[k] - _MARGIN : self.token_ends[k] - _MARGIN]

    def tokens(self, first: int, stop: int) -> list[str]:
        return [tok for i in range(first, stop) for tok in self.line(i).split()]


def _text_table(text: str) -> _Lines | _TextBytes:
    # a text shorter than _VECTOR_MIN exact-mode rows at their widest, or not ASCII, is split by str methods
    if len(text) < _VECTOR_MIN * _ROW or not text.isascii():
        return _Lines(text)
    return _TextBytes(text)
