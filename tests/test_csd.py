import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc import decompose
from csdcirc.csd import split_stack
from csdcirc.matrices import Tolerances, certify_unitary


class Split:
    """CSD of one block through split_stack: [[u, 0], [0, v]] . middle . [[x, 0], [0, y]]."""

    def __init__(self, u):
        op = certify_unitary(u)
        a = op.as_real() if op.is_real else op.as_complex()
        lefts, self.theta, rights = split_stack(a[None], Tolerances())
        self.u, self.v = lefts
        self.x, self.y = rights


def middle(theta) -> np.ndarray:
    """Independent oracle for the block rotation [[C, S], [-S, C]]."""
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    return np.block([[c, s], [-s, c]])


def reassemble(f: Split) -> np.ndarray:
    """Independent oracle: explicit block multiplication of the three factors."""
    z = np.zeros((f.theta.size, f.theta.size))
    left = np.block([[f.u, z], [z, f.v]])
    right = np.block([[f.x, z], [z, f.y]])
    return left @ middle(f.theta) @ right


def test_identity_split():
    f = Split(np.eye(8))
    assert np.allclose(f.theta, 0.0)
    assert np.allclose(f.u @ f.x, np.eye(4), atol=1e-14)
    assert np.allclose(f.v @ f.y, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("t", [0.0, 0.3, np.pi / 4, np.pi / 2])
def test_pure_rotation_split(t):
    u = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    f = Split(u)
    assert f.theta[0] == pytest.approx(t, abs=1e-15)
    assert np.abs(reassemble(f) - u).max() < 1e-15
    for factor in (f.u, f.v, f.x, f.y):
        assert abs(abs(factor[0, 0]) - 1.0) < 1e-15


def test_random_8x8_reassembles():
    u = unitary_group.rvs(8, random_state=11)
    f = Split(u)
    assert np.abs(reassemble(f) - u).max() < 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_reconstruction_property(dim):
    # 250 per dimension, 1000 splits in total across the parametrization
    for k in range(250):
        u = unitary_group.rvs(dim, random_state=1000 * dim + k)
        f = Split(u)
        assert np.all(f.theta >= 0.0) and np.all(f.theta <= np.pi / 2 + 1e-15)
        assert np.all(np.diff(f.theta) >= 0.0)
        assert np.abs(reassemble(f) - u).max() < 1e-10


def test_real_input_gives_exactly_real_factors():
    o = ortho_group.rvs(8, random_state=3)
    f = Split(o)
    for factor in (f.u, f.v, f.x, f.y):
        assert not np.iscomplexobj(factor)
        assert certify_unitary(factor).is_real
    assert np.abs(reassemble(f) - o).max() < 1e-12


def test_complex_dtype_real_values_takes_real_path(monkeypatch):
    o = ortho_group.rvs(4, random_state=4).astype(complex)
    dtypes = []

    def spy(blocks, tol):
        dtypes.append(blocks.dtype)
        return split_stack(blocks, tol)

    monkeypatch.setattr(decompose, "split_stack", spy)
    decompose.recursive_csd(certify_unitary(o))
    assert dtypes and not any(np.issubdtype(d, np.complexfloating) for d in dtypes)


def test_split_is_deterministic():
    u = unitary_group.rvs(8, random_state=5)
    f1, f2 = Split(u), Split(u)
    assert np.array_equal(f1.theta, f2.theta)
    for a, b in ((f1.u, f2.u), (f1.v, f2.v), (f1.x, f2.x), (f1.y, f2.y)):
        assert np.array_equal(a, b)


def test_block_diagonal_is_safe():
    q1 = ortho_group.rvs(4, random_state=6)
    q2 = ortho_group.rvs(4, random_state=7)
    z = np.zeros((4, 4))
    u = np.block([[q1, z], [z, q2]])
    f = Split(u)
    assert np.allclose(f.theta, 0.0)
    assert np.abs(reassemble(f) - u).max() < 1e-12


def test_anti_block_diagonal_is_safe():
    q1 = ortho_group.rvs(4, random_state=8)
    q2 = ortho_group.rvs(4, random_state=9)
    z = np.zeros((4, 4))
    u = np.block([[z, q1], [q2, z]])
    f = Split(u)
    assert np.allclose(f.theta, np.pi / 2)
    assert np.abs(reassemble(f) - u).max() < 1e-12


def test_svd_route_agrees_with_lapack_route():
    from csdcirc.csd import _csd_cossin, _csd_svd_real, _canonicalize, _reconstruction_residual

    o = ortho_group.rvs(512, random_state=10)
    fast = _canonicalize(*_csd_svd_real(o))
    ref = _canonicalize(*_csd_cossin(o))
    assert np.abs(fast[2] - ref[2]).max() < 1e-10  # theta is convention-free
    assert _reconstruction_residual(o, *fast) < 1e-12
    assert _reconstruction_residual(o, *ref) < 1e-12


def test_svd_route_handles_identity_padding():
    from csdcirc.csd import _csd_svd_real, _canonicalize, _reconstruction_residual

    o = np.eye(512)
    o[:100, :100] = ortho_group.rvs(100, random_state=12)
    fast = _canonicalize(*_csd_svd_real(o))
    assert _reconstruction_residual(o, *fast) < 1e-12


def test_factors_are_certified():
    u = unitary_group.rvs(16, random_state=13)
    f = Split(u)
    for factor in (f.u, f.v, f.x, f.y):
        assert certify_unitary(factor).unitarity_residual <= Tolerances().unitary
