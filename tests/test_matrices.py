import numpy as np
import pytest
from scipy.stats import unitary_group

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
