"""Dense matrix foundation: unitarity certification, padding, file formats.

A matrix is a plain 2-D numpy array (float64 or complex128).  A certified
matrix is wrapped in :class:`UnitaryOperator`, which downstream modules accept
as proof of unitarity.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._bytescan import _INV_POW10, _offsets, _read_numbers, _text_table, _TextBytes
from .errors import JsonFormatError, NotSquareError, NotUnitaryError


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the pipeline.

    unitary:     max-norm bound on U^H U - I accepted at certification.
    real:        largest imaginary magnitude still counted as real.
    angle_zero:  rotation angles at or below this count as vanished gates.
    reconstruct: max-norm bound on round-trip reconstruction errors.
    """

    unitary: float = 1e-10
    real: float = 1e-12
    angle_zero: float = 1e-9
    reconstruct: float = 1e-9

    def __post_init__(self):
        for name in ("unitary", "real", "angle_zero", "reconstruct"):
            if not getattr(self, name) > 0:
                raise ValueError(f"tolerance {name!r} must be strictly positive")


@dataclass(frozen=True)
class UnitaryOperator:
    """A square matrix certified unitary at construction time."""

    mat: np.ndarray
    is_real: bool
    unitarity_residual: float

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def as_complex(self) -> np.ndarray:
        return self.mat.astype(np.complex128, copy=False)

    def as_real(self) -> np.ndarray:
        """Real part as float64; only meaningful when is_real holds."""
        return np.ascontiguousarray(self.mat.real, dtype=np.float64)


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    if a.dtype not in (np.float64, np.complex128):
        a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
    if a.ndim != 2:
        raise NotSquareError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def certify_unitary(m, tol: Tolerances = Tolerances()) -> UnitaryOperator:
    """Wrap ``m`` as a UnitaryOperator, or raise if it fails certification."""
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    gram = a.conj().T @ a
    gram.reshape(-1)[:: len(a) + 1] -= 1.0  # minus I, in place
    # a real Gram matrix takes its abs in place: it is the only d x d temporary
    residual = float(np.abs(gram, out=None if np.iscomplexobj(gram) else gram).max(initial=0.0))
    del gram  # before the copy below
    if residual > tol.unitary:
        raise NotUnitaryError(residual, tol.unitary)
    is_real = not np.iscomplexobj(a) or bool(np.abs(a.imag).max(initial=0.0) <= tol.real)
    a = a.copy()
    a.setflags(write=False)
    return UnitaryOperator(mat=a, is_real=is_real, unitarity_residual=residual)


def pad_to_power_of_two(u: UnitaryOperator) -> tuple[UnitaryOperator, int]:
    """Embed u as the top-left block of diag(u, I) of dimension 2**n.

    n = ceil(log2(dim)); the operator is returned unchanged when its dimension
    is already a power of two.
    """
    d = u.dim
    if d < 1:
        raise NotSquareError("cannot pad an empty matrix")
    n = max(0, (d - 1).bit_length())
    full = 1 << n
    if full == d:
        return u, n
    w = np.zeros((full, full), dtype=u.mat.dtype)
    w[:d, :d] = u.mat
    w[range(d, full), range(d, full)] = 1
    w.setflags(write=False)
    # W^H W - I = diag(U^H U - I, 0): the residual carries over exactly.
    padded = UnitaryOperator(mat=w, is_real=u.is_real, unitarity_residual=u.unitarity_residual)
    return padded, n


# --- matrix file formats ----------------------------------------------------
#
# Text: line 1 holds the dimension d, then d rows of d whitespace-separated
# entries, each written as `re` or `re,im` (scientific notation accepted).
# JSON: {"dim": d, "real": bool, "entries": [[re, im], ...]} in row-major
# order; with "real": true every im is 0.


def format_matrix_text(m) -> str:
    a = _as_matrix(m.mat if isinstance(m, UnitaryOperator) else m)
    lines = [str(a.shape[0])]
    complex_out = np.iscomplexobj(a) and np.abs(a.imag).max(initial=0.0) != 0.0
    for row in a:
        if complex_out:
            lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
        else:
            lines.append(" ".join(f"{z.real:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the text format; every entry is the double that float() makes of it.

    An ASCII text of at least _VECTOR_MIN * _ROW bytes, as circuit texts, is
    read in numpy passes over its bytes (_matrix_values).  A shorter or
    non-ASCII text, or one the passes do not take, is read one token at a
    time by _parse_matrix_per_value, the reference, which raises every error.
    """
    table = _text_table(text)
    values = None if table.buf is None else _matrix_values(table)
    return _parse_matrix_per_value(text) if values is None else values


def _parse_matrix_per_value(text: str) -> np.ndarray:
    """parse_matrix_text through str.split() and float(), one entry at a time."""
    tokens_by_line = [ln.split() for ln in text.splitlines()]
    rows = [t for t in tokens_by_line if t]
    if not rows:
        raise ValueError("empty matrix file")
    if len(rows[0]) != 1:
        raise ValueError("first line must hold the dimension alone")
    d = int(rows[0][0])
    if len(rows) != d + 1:
        raise ValueError(f"expected {d} matrix rows, found {len(rows) - 1}")
    for i, row in enumerate(rows[1:]):
        if len(row) != d:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {d}")
    tokens = itertools.chain.from_iterable(rows[1:])
    is_complex = "," in text  # the dimension line parsed as an int, so it holds none
    if is_complex:
        # each entry becomes its re, im pair, re,0 where it has no comma
        pairs = map(str.partition, tokens, itertools.repeat(","))
        tokens = itertools.chain.from_iterable(
            (re_s, im_s if comma else "0") for re_s, comma, im_s in pairs
        )
    values = np.fromiter(map(float, tokens), np.float64, (1 + is_complex) * d * d)
    return (values.view(np.complex128) if is_complex else values).reshape(d, d)


def _matrix_values(table: _TextBytes) -> np.ndarray | None:
    """The matrix of a text's byte table, its values read by _read_numbers; None if it is not taken.

    Taken: a first line that holds d alone, as str(d) writes it, then d rows
    of d entries, and in a complex text (one with a comma) no entry with a
    comma at an end.  Each pass of _read_numbers splits its entries at
    their commas and reads a digit alone, as %.17g writes 0 and 1, here:
    most tokens of a sparse matrix are, and the kernel costs them more than
    float() does.  _read_numbers reads the other tokens, and float() those
    whose rounding its kernel does not prove; a token float() refuses sends
    the text to the per-value code.
    """
    counts = np.array(table.counts)
    rows = counts[counts > 0]
    d = rows.size - 1
    if d < 1 or rows[0] != 1 or np.any(rows[1:] != d) or table.head(int(np.flatnonzero(counts)[0])) != str(d):
        return None
    text, buf = table.text, table.buf
    starts, ends = table.token_starts[1:], table.token_ends[1:]  # token 0 is d
    is_complex = "," in text
    values = np.empty((1 + is_complex) * d * d)

    def spans(at: int, stop: int):
        # the entries of values[at:stop]: passes start at an even value, a re
        s, e = starts[at >> is_complex : stop >> is_complex], ends[at >> is_complex : stop >> is_complex]
        if is_complex:
            s, e = _complex_spans(buf, s, e)
        return s, e, _lone_digits(buf, s, e, values[at:stop])

    try:
        _read_numbers(text, buf, values.size, spans, _INV_POW10, float, values)
    except ValueError:  # a comma at an entry's end, or a token float() refuses
        return None
    return (values.view(np.complex128) if is_complex else values).reshape(d, d)


def _complex_spans(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The spans of the re and im of each entry buf[starts:ends], in turn; ValueError if a comma ends an entry."""
    commas = _offsets(buf, ord(","), starts[0], ends[-1])
    entry = np.searchsorted(starts, commas, "right") - 1
    if np.any(commas == starts[entry]) or np.any(commas == ends[entry] - 1):
        raise ValueError("a comma at an entry's end")
    cut = ends.copy()
    cut[entry] = commas
    # re before the comma and im after it; an entry without one has an empty im, read as 0,
    # and one with two keeps a comma in re or im, which float() refuses
    return np.column_stack([starts, cut + (cut < ends)]).ravel(), np.column_stack([cut, ends]).ravel()


def _lone_digits(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write to out the values of the tokens buf[starts:ends] that are a digit alone or empty; return where not."""
    size = ends - starts
    negative = buf[starts] == ord("-")
    digit = (buf[ends - 1] - np.uint8(ord("0"))) * (size > 0)  # wraps below "0"
    out[:] = digit
    np.negative(out, out=out, where=negative)
    return (size != 0) & ~(((size == 1) | negative & (size == 2)) & (digit <= 9))


def _index(value) -> int:
    """A JSON dimension, qubit index or count; floats and booleans are not integers here."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# what json.loads makes of a JSON number; true, false and "1.5" are no numbers here
_JSON_NUMBERS = frozenset({int, float})


def _number(value) -> int | float:
    if type(value) not in _JSON_NUMBERS:
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _numbers(values: list) -> list:
    """A list of JSON numbers, after one type pass over it."""
    if not _JSON_NUMBERS.issuperset(map(type, values)):
        _number(next(v for v in values if type(v) not in _JSON_NUMBERS))
    return values


def parse_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
        d = _index(obj["dim"])
        real = obj.get("real", False)
        if type(real) is not bool:
            raise TypeError(f"real must be true or false, got {real!r}")
        entries = obj["entries"]
        if len(entries) != d * d:
            raise ValueError(f"expected {d * d} entries, found {len(entries)}")
        _numbers(list(itertools.chain.from_iterable(entries)))
        a = np.array([complex(re, im) for re, im in entries], dtype=np.complex128).reshape(d, d)
        if real:
            imaginary = np.flatnonzero(a.imag)
            if imaginary.size:
                k = imaginary[0]
                raise ValueError(f"entry {k} has imaginary part {entries[k][1]!r}, but real is true")
            a = np.ascontiguousarray(a.real)
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise JsonFormatError(f"malformed matrix JSON: {exc!r}") from exc
    return a


def load_matrix(path: str) -> np.ndarray:
    """Load a matrix from file, sniffing JSON vs text."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def qubit_count(dim: int) -> int:
    """log2 of a power-of-two dimension."""
    n = dim.bit_length() - 1
    if n < 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n
