import re

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc import _bytescan, matrices
from csdcirc._bytescan import _text_table
from csdcirc.errors import JsonFormatError, NotSquareError, NotUnitaryError
from csdcirc.matrices import (
    Tolerances,
    certify_unitary,
    format_matrix_text,
    pad_to_power_of_two,
    parse_matrix_json,
    parse_matrix_text,
    qubit_count,
)
from paper_data import COMPLEX_8x8, PAPER_MATRIX_TOL


def test_certify_identity():
    op = certify_unitary(np.eye(4))
    assert op.unitarity_residual == 0.0
    assert op.is_real
    assert op.dim == 4


def test_certify_permutation():
    op = certify_unitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert op.unitarity_residual == 0.0
    assert op.is_real


def test_certify_published_complex_matrix():
    with pytest.raises(NotUnitaryError):
        certify_unitary(COMPLEX_8x8)  # 4-decimal transcription is not unitary at 1e-10
    op = certify_unitary(COMPLEX_8x8, Tolerances(unitary=PAPER_MATRIX_TOL))
    assert op.unitarity_residual <= PAPER_MATRIX_TOL
    assert not op.is_real


@pytest.mark.parametrize(
    "a",
    [
        unitary_group.rvs(16, random_state=4).real,
        unitary_group.rvs(16, random_state=5),
        np.zeros((0, 0)),
    ],
    ids=["real", "complex", "empty"],
)
def test_certify_residual_is_the_gram_residual(a):
    expected = np.abs(a.conj().T @ a - np.eye(len(a))).max(initial=0.0)
    op = certify_unitary(a, Tolerances(unitary=10.0))
    assert op.unitarity_residual == expected


def test_certify_rejects_non_square():
    with pytest.raises(NotSquareError):
        certify_unitary(np.ones((2, 3)))


def test_certify_reports_residual():
    with pytest.raises(NotUnitaryError) as err:
        certify_unitary(np.eye(3) * 1.5)
    assert err.value.residual > 1.0


def test_certify_rejects_non_finite():
    m = np.eye(2)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        certify_unitary(m)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(unitary=0.0)


def test_pad_power_of_two_is_unchanged():
    op = certify_unitary(np.eye(8))
    padded, n = pad_to_power_of_two(op)
    assert padded is op
    assert n == 3


def test_pad_three_dim_identity():
    padded, n = pad_to_power_of_two(certify_unitary(np.eye(3)))
    assert n == 2
    assert np.array_equal(padded.mat, np.eye(4))


@pytest.mark.parametrize("dim", [3, 5, 11, 23])
def test_pad_preserves_input_block_exactly(dim):
    rng = np.random.default_rng(dim)
    u = unitary_group.rvs(dim, random_state=rng)
    op = certify_unitary(u)
    padded, n = pad_to_power_of_two(op)
    full = 1 << n
    assert (full // 2) < dim <= full
    assert np.array_equal(padded.mat[:dim, :dim], op.mat)
    assert np.array_equal(padded.mat[dim:, dim:], np.eye(full - dim))
    assert padded.unitarity_residual == op.unitarity_residual
    assert padded.is_real == op.is_real


def test_pad_large_walk_scale_dimension():
    # diagonal stand-in at the published 4011 -> 4096 scale
    rng = np.random.default_rng(0)
    d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=4011))
    op = certify_unitary(np.diag(d))
    padded, n = pad_to_power_of_two(op)
    assert n == 12
    assert padded.dim == 4096
    assert np.array_equal(np.diag(padded.mat)[4011:], np.ones(85, dtype=complex))


def test_qubit_count():
    assert qubit_count(1) == 0
    assert qubit_count(8) == 3
    assert qubit_count(1 << 60) == 60
    for dim in (0, 6, (1 << 60) + 1):
        with pytest.raises(ValueError):
            qubit_count(dim)


def test_matrix_text_round_trip_complex():
    u = unitary_group.rvs(4, random_state=1)
    text = format_matrix_text(u)
    back = parse_matrix_text(text)
    assert np.array_equal(back, u)


def test_matrix_text_round_trip_real():
    m = np.eye(4)
    back = parse_matrix_text(format_matrix_text(m))
    assert back.dtype == np.float64
    assert np.array_equal(back, m)


def test_matrix_text_scientific_notation():
    back = parse_matrix_text("2\n1e0 0\n0,-2.5E-1 1.0,0\n")
    assert back[0, 0] == 1.0
    assert back[1, 0] == complex(0, -0.25)


def test_matrix_text_bad_row_count():
    with pytest.raises(ValueError):
        parse_matrix_text("3\n1 0 0\n0 1 0\n")


def test_parse_matrix_json_reads_the_file_format():
    text = '{"dim": 2, "real": false, "entries": [[0, 1], [1, 0], [1, 0], [0, -1]]}'
    back = parse_matrix_json(text)
    assert back.dtype == np.complex128
    assert np.array_equal(back, np.array([[1j, 1], [1, -1j]]))
    text = '{"dim": 2, "real": true, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}'
    back = parse_matrix_json(text)
    assert back.dtype == np.float64
    assert np.array_equal(back, np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": Infinity, "entries": [[1, 0]]}',
        '{"dim": 1.5, "entries": [[1, 0]]}',
        '{"dim": 1.0, "entries": [[1, 0]]}',
        '{"dim": true, "entries": [[1, 0]]}',
        '{"dim": "1", "entries": [[1, 0]]}',
        '{"dim": 1, "real": "no", "entries": [[1, 0]]}',
        '{"dim": 1, "real": 0, "entries": [[1, 0]]}',
        '{"dim": 1, "real": null, "entries": [[1, 0]]}',
        '{"dim": 1, "entries": [[1' + "0" * 400 + ', 0]]}',
    ],
    ids=[
        "dim-inf",
        "dim-1.5",
        "dim-1.0",
        "dim-true",
        "dim-str",
        "real-str",
        "real-int",
        "real-null",
        "entry-huge",
    ],
)
def test_parse_matrix_json_rejects_non_integer_dim_and_non_bool_real(text):
    with pytest.raises(JsonFormatError):
        parse_matrix_json(text)


@pytest.mark.parametrize(
    "dim, entries",
    [
        (1, "[[true, false]]"),
        (2, "[[1, 0], [0, 0], [0, 0], [1, true]]"),
        (1, '[[1, "0"]]'),
        (1, "[[[1], 0]]"),
    ],
    ids=["bools", "last-imag-bool", "string", "list"],
)
def test_parse_matrix_json_entries_must_be_numbers(dim, entries):
    with pytest.raises(JsonFormatError, match="expected a number"):
        parse_matrix_json(f'{{"dim": {dim}, "entries": {entries}}}')


def test_parse_matrix_json_real_defaults_to_false():
    back = parse_matrix_json('{"dim": 1, "entries": [[0.5, 0]]}')
    assert back.dtype == np.complex128 and back[0, 0] == 0.5


# --- text matrices: the numpy reader against the per-value code ------------------


def write_matrix(m: np.ndarray) -> str:
    """A complex matrix file as the pipeline benchmark writes it: "re,im" entries in %.17g."""
    rows = (" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) for row in m)
    return f"{m.shape[0]}\n" + "\n".join(rows) + "\n"


def matrix_outcome(read, text):
    """The matrix read, as dtype, shape and bits, or the exception's type and message."""
    try:
        a = read(text)
    except Exception as exc:  # the per-value code's own exceptions are the reference
        return type(exc), str(exc)
    return a.dtype.str, a.shape, a.tobytes()


def small_passes(patch):
    """Passes of 64 values over 64-byte segments, so that tokens and commas cross their edges."""
    patch.setattr(_bytescan, "_CHUNK", 64)
    patch.setattr(_bytescan, "_SEGMENT", 64)


def taken_by_numpy(text: str) -> bool:
    table = _text_table(text)
    return table.buf is not None and matrices._matrix_values(table) is not None


def fast_float_counts(monkeypatch, text: str) -> tuple[int, int]:
    """How many tokens parse_matrix_text gives the number kernel, and how many of them it proves."""
    given, proven = [], []
    read_decimals = _bytescan._read_decimals

    def counted(buf, starts, ends, table):
        read = read_decimals(buf, starts, ends, table)
        given.append(starts.size)
        proven.append(int(read[2].sum()))
        return read

    monkeypatch.setattr(_bytescan, "_read_decimals", counted)
    matrix_outcome(parse_matrix_text, text)
    return sum(given), sum(proven)


def test_benchmark_shaped_complex_file_reads_without_float(monkeypatch):
    text = write_matrix(unitary_group.rvs(128, random_state=7))
    assert taken_by_numpy(text)
    assert fast_float_counts(monkeypatch, text) == (2 * 128 * 128,) * 2  # no token left to float()
    assert matrix_outcome(parse_matrix_text, text) == matrix_outcome(matrices._parse_matrix_per_value, text)


def test_real_format_matrix_text_file_reads_without_float(monkeypatch):
    text = format_matrix_text(ortho_group.rvs(128, random_state=7))
    assert "," not in text and taken_by_numpy(text)
    assert fast_float_counts(monkeypatch, text) == (128 * 128,) * 2
    assert matrix_outcome(parse_matrix_text, text) == matrix_outcome(matrices._parse_matrix_per_value, text)


def test_sparse_file_reads_its_digits_without_the_pass(monkeypatch):
    # 0 and 1 entries, as in walk operators and padded identities, never reach the number kernel or float()
    text = format_matrix_text(np.eye(64) * 1j)
    assert taken_by_numpy(text)
    assert fast_float_counts(monkeypatch, text) == (0, 0)
    assert np.array_equal(parse_matrix_text(text), np.eye(64) * 1j)


BIG = write_matrix(unitary_group.rvs(16, random_state=3))  # 10 kB: read by the numpy reader


@pytest.mark.parametrize(
    "edit, taken",
    [
        (lambda t: t.replace("\n", "\r\n"), True),
        (lambda t: t.replace(" ", "\t\x1f ").replace("\n", "\n\x0b\x1c\n"), True),
        (lambda t: t.replace(",0.", ",+0.", 7).replace("e-", "E-", 3), True),
        (lambda t: t.replace(t.split()[1], "1_0,nan", 1).replace(t.split()[2], "1e400,-0", 1), True),
        (lambda t: re.sub(",[^ \n]+", "", t, count=5), True),  # re alone: im 0
        (lambda t: "0" + t, False),  # the dimension as str() does not write it
        (lambda t: "16 16" + t[2:], False),
        (lambda t: t.replace("\n", " ", 2), False),  # row counts
        (lambda t: t[: t.rindex(" ")] + "\n", False),  # an entry short
        (lambda t: t.replace(",", ",,", 1), False),
        (lambda t: t.replace(" ", " ,", 1), False),
        (lambda t: t.replace(" ", ", ", 1), False),
        (lambda t: t.replace(t.split()[1], "1.,-.5", 1), True),
        (lambda t: t.replace(" ", " x", 1), False),  # not a number
        (lambda t: t.replace(" ", "\xa0", 1), False),  # not ASCII
        (lambda t: t[:5000], False),  # short
        (lambda t: t.replace(" ".join(t.split()[1:3]), "- .5", 1), False),  # "-" is no number
        (lambda t: t.replace(" ".join(t.split()[-2:]), "-\t.5", 1), False),
    ],
    ids=["crlf", "tab-us-vt-fs-blank", "plus-E", "underscore-nan-inf", "no-im", "dim-zero-padded", "dim-line",
         "rows", "entries", "two-commas", "leading-comma", "trailing-comma", "bare-points", "word",
         "non-ascii", "short", "sign-alone", "sign-alone-at-end"],
)
def test_matrix_text_edits_read_as_the_per_value_code_reads_them(edit, taken):
    text = edit(BIG)
    assert taken_by_numpy(BIG) and taken_by_numpy(text) == taken
    assert matrix_outcome(parse_matrix_text, text) == matrix_outcome(matrices._parse_matrix_per_value, text)


MATRIX_PIECES = list("0123456789eE+-.,_") + ["\r\n", "\r", "\t", "\x0b", "\x1c", "\n", "\n\n", " ", "\x85"]
MATRIX_PIECES += ["1_0", "nan", "1e400", "-0", "1", "0,1"]


def test_mutated_matrix_texts_read_as_the_per_value_code_reads_them():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    docs = [
        write_matrix(unitary_group.rvs(14, random_state=1)),
        format_matrix_text(ortho_group.rvs(20, random_state=2)),
        write_matrix(np.eye(48) * (1 + 1j) / np.sqrt(2)).replace("\n", "\r\n").replace(" ", "\t"),
    ]
    with pytest.MonkeyPatch.context() as patch:
        small_passes(patch)
        assert all(len(doc) >= 5632 and taken_by_numpy(doc) for doc in docs)

    @st.composite
    def mutated(draw):
        doc = draw(st.sampled_from(docs))
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(doc)))
            op = draw(st.sampled_from(["substitute", "delete", "insert"]))
            if op == "delete":
                doc = doc[:at] + doc[at + draw(st.integers(1, 3)) :]
            else:
                piece = draw(st.sampled_from(MATRIX_PIECES))
                doc = doc[:at] + piece + doc[at + (op == "substitute") :]
        return doc

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutated())
    def check(doc):
        want = matrix_outcome(matrices._parse_matrix_per_value, doc)
        with pytest.MonkeyPatch.context() as patch:
            small_passes(patch)
            assert matrix_outcome(parse_matrix_text, doc) == want

    check()
