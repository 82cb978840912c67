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
# spaces on each side, by whole-buffer passes, and give _read_numbers the
# spans of each of its passes of at most _CHUNK values.  It reads them
# through one kernel, _read_decimals, which takes one grammar:
#
#     [-]d[.D{1,30}][(e|E)(+|-)d{1,3}]
#
# a digit, up to 30 decimals and an exponent of 1 to 3 digits, with at most
# 25 significant digits: the tokens of exact-mode text, and those repr and
# %.17g write.  The kernel gathers the 32 bytes that end a token as four
# uint64 words and finds an exponent in the last one; a token with an
# exponent gathers the 32 bytes that end its mantissa as well.  The lead
# digit takes the point's place, the bytes before it are set to "0", and
# words of 8 ASCII digits become the integer D of the digits by SWAR
# (Lemire, Softw. Pract. Exp. 51, 2021).  _scale multiplies D by a
# double-double table entry, _PI * 10**-k for exact-mode text and 10**-k
# for matrix entries, and rounds it; a result within _PARSE_TIE of a
# midpoint between two doubles, where that rounding is not proven, goes to
# the caller's per-value code (Clinger, PLDI 1990), as does every token the
# kernel does not take.

# spaces on each side of a reader's bytes: as many as the 32 bytes a token's
# read reaches back, and more than the 2 it reads past its end
_MARGIN = 32
# bytes a whole-buffer pass takes at once: about a chunk of exact-mode
# tokens, which bounds the pass's temporaries
_SEGMENT = _CHUNK * _ROW
_ASCII_ZEROS = np.uint64(0x3030303030303030)
# by the number j of bytes before a window's digits: masks that keep the other bytes of its four words
_KEEP = ~np.array([[(1 << 8 * min(max(j - step, 0), 8)) - 1 for step in range(0, 32, 8)] for j in range(33)], np.uint64)
# shifts that bring the bytes "e" or "E" and a sign before 1, 2 or 3 exponent digits down to the low 16 bits
_MARK_SHIFTS = np.array([40, 32, 24], np.uint64)
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
    span = _span_type(buf)
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


def _offsets(buf: np.ndarray, byte: int, start: int, stop: int) -> np.ndarray:
    """The offsets of byte in buf[start:stop], found a _SEGMENT at a time, in _token_edges's dtype."""
    span = _span_type(buf)
    found = [np.flatnonzero(buf[at : min(at + _SEGMENT, stop)] == byte) + at for at in range(start, stop, _SEGMENT)]
    return np.concatenate([part.astype(span) for part in found] or [np.empty(0, span)])


def _span_type(buf: np.ndarray):
    """int32 for offsets in buf where they fit: 4 bytes a token, not 8."""
    return np.int32 if buf.size <= np.iinfo(np.int32).max else np.int64


def _windows(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The 32 bytes of buf from each offset in at, one row each."""
    rows = np.ndarray((buf.size - 31,), "V32", buf, 0, (1,))  # one 32-byte item at each offset
    return rows[at].view(np.uint8).reshape(-1, 32)


def _digit_values(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The numbers that words of 8 digits spell, and where every byte is a digit.

    words are ASCII words xor "00000000": a digit byte holds its value, and
    any other byte a value above 9.  The numbers are read little-endian, by
    SWAR, and hold where the check does.
    """
    w = words + np.uint64(0x7676767676767676)  # in place from here: (n, 4) temporaries cost page faults
    w |= words
    w &= np.uint64(0x8080808080808080)
    digits = w == 0
    np.multiply(words, np.uint64(10 * 256 + 1), out=w)
    w >>= np.uint64(8)
    w &= np.uint64(0x00FF00FF00FF00FF)
    w *= np.uint64(100 * 2**16 + 1)
    w >>= np.uint64(16)
    w &= np.uint64(0x0000FFFF0000FFFF)
    w *= np.uint64(10**4 * 2**32 + 1)
    w >>= np.uint64(32)
    return w.view(np.int64), digits


def _scale(dh: np.ndarray, dl: np.ndarray, places: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """The integer dh + dl times table[places] rounded to a double, and where that rounding is proven.

    dh + dl is exact and table holds each factor as _dd does.  The product
    has a relative error below 9 * 2**-106; a result within _PARSE_TIE of a
    midpoint between two doubles is not proven.
    """
    ch, cl, ch_hi, ch_lo = (np.take(column, places) for column in table)
    vh, ve = _two_prod(dh, ch, ch_hi, ch_lo)
    vh, vl = _fast_two_sum(vh, ve + (dh * cl + dl * ch))
    # vh >= 0; the gap to its neighbour on vl's side (NaN for vh = 0)
    gap = (vh.view(np.int64) + ((vl > 0) * 2 - 1)).view(np.float64) - vh
    return vh, (vh == 0) | (np.abs(np.abs(vl) - np.abs(gap) / 2) > _PARSE_TIE * vh)


def _signed(value: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """value (>= 0) with its sign bit set where negative holds."""
    return (value.view(np.uint64) | (negative.astype(np.uint64) << np.uint64(63))).view(np.float64)


def _read_decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, table):
    """(values, shape, proven) of the tokens buf[starts:ends] of a _padded_bytes buffer, read with table.

    shape holds where a token is in the grammar above.  proven holds where,
    besides, its digits spell an integer D below 10**25 and its decimals
    less its exponent make a k from 0 to _PARSE_MAX_PLACES, or D is 0, and
    where the rounding of D * table[k] is proven; values holds that
    rounding, with the token's sign, where proven.
    """
    negative = buf[starts] == ord("-")
    s = starts + negative
    point = buf[s + 1] == ord(".")
    window = _windows(buf, ends - 32)
    size = ends - s  # of the mantissa, once an exponent is taken off
    # "e" or "E" lies 3 to 5 bytes before the end of a token with an
    # exponent; no digit, point or sign byte has bit 0x40 set
    last = window[:, 24:].view("<u8")[:, 0]
    sci = np.flatnonzero(last & np.uint64(0x404040 << 24))
    if sci.size:
        tail = last[sci]
        marks = (tail[:, None] >> _MARK_SHIFTS) & np.uint64(0xFFDF)  # "e" folded to "E", and the byte after it
        minus = marks == ord("E") | ord("-") << 8
        marked = minus | (marks == ord("E") | ord("+") << 8)
        found = marked.any(axis=1)
        sci, tail, column = sci[found], tail[found], marked[found].argmax(axis=1)
        minus, count = minus[found, column], column + 1
        exponent, exponent_digits = _digit_values((tail ^ _ASCII_ZEROS) & _KEEP[32 - count, 3])  # its count bytes
        size[sci] -= 2 + count
        window[sci] = _windows(buf, ends[sci] - 34 - count)
    # the lead digit takes the point's place, and the bytes before it count as "0";
    # a mantissa shorter than 2 bytes has no point (after "-" alone, buf[s + 1] lies past the token)
    point &= size >= 2
    places = point * (size - 2)  # the decimals, until the exponent is known
    before = np.maximum(31 - places, 0)
    window.reshape(-1)[np.arange(0, window.size, 32) + before] = buf[s]
    words = window.view("<u8")
    words ^= _ASCII_ZEROS
    words &= np.take(_KEEP, before, axis=0)
    values, digits = _digit_values(words)
    shape = digits.view(np.uint32)[:, 0] == 0x01010101  # in all four words
    shape &= (size == 1) | (point & (size >= 3) & (size <= 32))
    if sci.size:
        shape[sci] &= exponent_digits
        places[sci] += np.where(minus, exponent, -exponent)
    a, b, c, d = values.T
    taken = shape & (a <= 9)  # D below 10**25
    # D = high * 10**8 + d with high below 10**17.  With high = u * 2**23 + v,
    # D is the sum of two exact doubles: u * 2**23 * 10**8 (u below 2**34,
    # and 10**8 = 5**8 * 2**8 with 5**8 below 2**19) and v * 10**8 + d,
    # which is below the first unless u is 0.
    high = taken * (a * 10**16 + b * 10**8 + c)
    u = (high >> 23).astype(np.float64) * (2.0**23 * 1e8)
    dh, dl = _fast_two_sum(u, ((high & (2**23 - 1)) * 10**8 + taken * d).astype(np.float64))
    fits = (places >= 0) & (places <= _PARSE_MAX_PLACES)
    value, exact = _scale(dh, dl, fits * places, table)
    return _signed(value, negative), shape, taken & (fits | (dh == 0)) & exact


def _read_numbers(text: str, buf, count: int, spans, table, reference, out: np.ndarray, errors=()):
    """Write count numbers of text, whose _padded_bytes is buf, to out, in passes of at most _CHUNK.

    spans(at, stop) gives the starts and ends in buf of the tokens of
    out[at:stop], and where _read_decimals is to read them (None: all); it
    writes the others itself.  _read_decimals reads them with the scale
    table, and reference each token it does not prove from its text.
    Returns (in_shape, failed): whether every token read is in
    _read_decimals's grammar, and the indices in out of those for which
    reference raised one of errors; another error propagates.
    """
    in_shape, failed = True, []
    for at in range(0, count, _CHUNK):
        starts, ends, where = spans(at, min(at + _CHUNK, count))
        read = np.arange(starts.size) if where is None else np.flatnonzero(where)
        if not read.size:  # a pass of lone digits, as in a sparse matrix
            continue
        s, e = starts[read].astype(np.intp), ends[read].astype(np.intp)
        read += at
        out[read], shape, proven = _read_decimals(buf, s, e, table)
        in_shape = in_shape and bool(shape.all())
        rest = np.flatnonzero(~proven)
        for i, first, last in zip(read[rest].tolist(), (s[rest] - _MARGIN).tolist(), (e[rest] - _MARGIN).tolist()):
            try:
                out[i] = reference(text[first:last])
            except errors:
                failed.append(i)
    return in_shape, failed


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
