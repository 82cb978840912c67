"""Dense matrix foundation: unitarity certification, padding, norms, file formats.

A matrix is a plain 2-D numpy array (float64 or complex128).  A certified
matrix is wrapped in :class:`UnitaryOperator`, which downstream modules accept
as proof of unitarity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import JsonFormatError, NotSquareError, NotUnitaryError, ShapeMismatchError


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
    d = a.shape[0]
    residual = float(np.abs(a.conj().T @ a - np.eye(d)).max()) if d else 0.0
    if residual > tol.unitary:
        raise NotUnitaryError(residual, tol.unitary)
    if np.iscomplexobj(a):
        is_real = bool(np.abs(a.imag).max() <= tol.real) if d else True
    else:
        is_real = True
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


def max_abs_diff(a, b) -> float:
    """Largest entrywise |a_ij - b_ij|."""
    am = a.mat if isinstance(a, UnitaryOperator) else np.asarray(a)
    bm = b.mat if isinstance(b, UnitaryOperator) else np.asarray(b)
    if am.shape != bm.shape:
        raise ShapeMismatchError(f"shape {am.shape} vs {bm.shape}")
    if am.size == 0:
        return 0.0
    return float(np.abs(am - bm).max())


# --- matrix file formats ----------------------------------------------------
#
# Text: line 1 holds the dimension d, then d rows of d whitespace-separated
# entries, each written as `re` or `re,im` (scientific notation accepted).
# JSON: {"dim": d, "real": bool, "entries": [[re, im], ...]} in row-major
# order.


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
    tokens_by_line = [ln.split() for ln in text.splitlines()]
    rows = [t for t in tokens_by_line if t]
    if not rows:
        raise ValueError("empty matrix file")
    if len(rows[0]) != 1:
        raise ValueError("first line must hold the dimension alone")
    d = int(rows[0][0])
    if len(rows) != d + 1:
        raise ValueError(f"expected {d} matrix rows, found {len(rows) - 1}")
    any_complex = any("," in tok for row in rows[1:] for tok in row)
    out = np.zeros((d, d), dtype=np.complex128 if any_complex else np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) != d:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {d}")
        for j, tok in enumerate(row):
            if "," in tok:
                re_s, im_s = tok.split(",", 1)
                out[i, j] = complex(float(re_s), float(im_s))
            else:
                out[i, j] = float(tok)
    return out


def format_matrix_json(m) -> str:
    if isinstance(m, UnitaryOperator):
        a, real = m.mat, m.is_real
    else:
        a = _as_matrix(m)
        real = not (np.iscomplexobj(a) and np.abs(a.imag).max(initial=0.0) != 0.0)
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return json.dumps({"dim": a.shape[0], "real": bool(real), "entries": entries})


def parse_matrix_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
        d = int(obj["dim"])
        entries = obj["entries"]
        if len(entries) != d * d:
            raise ValueError(f"expected {d * d} entries, found {len(entries)}")
        flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
        a = flat.reshape(d, d)
        real = obj.get("real", False)
    except (TypeError, KeyError, ValueError) as exc:
        raise JsonFormatError(f"malformed matrix JSON: {exc!r}") from exc
    if real:
        return np.ascontiguousarray(a.real)
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
    n = int(math.log2(dim)) if dim > 0 else 0
    while (1 << n) < dim:
        n += 1
    if (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n
