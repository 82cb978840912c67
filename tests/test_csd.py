import numpy as np
import pytest
from scipy.linalg import cossin, get_lapack_funcs
from scipy.stats import ortho_group, unitary_group

from csdcirc import csd, decompose
from csdcirc.csd import DEGEN_EPS, split_stack
from csdcirc.errors import NumericalFailureError
from csdcirc.matrices import Tolerances, certify_unitary, pad_to_power_of_two
from csdcirc.qwalk import random_graph, walk_unitary


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


@pytest.mark.parametrize("dim", [2, 4, 1024])
def test_non_finite_block_is_a_numerical_failure(dim):
    # 1024 is real and takes the SVD route, whose SVD does not converge on NaN
    a = ortho_group.rvs(dim, random_state=14)[None]
    a[0, 0, 1] = np.nan
    with pytest.raises(NumericalFailureError):
        split_stack(a, Tolerances())


def test_lapack_failure_is_a_numerical_failure(monkeypatch):
    def failing(names, arrays):
        routine, lwork = get_lapack_funcs(names, arrays)
        return (lambda *args, **kwargs: (*routine(*args, **kwargs)[:-1], 1)), lwork

    monkeypatch.setattr(csd, "get_lapack_funcs", failing)
    with pytest.raises(NumericalFailureError):
        split_stack(unitary_group.rvs(8, random_state=15)[None], Tolerances())


def reference_split(blocks):
    """scipy.linalg.cossin per block, sign-remapped and canonicalised alone."""
    h = blocks.shape[1] // 2
    lefts, thetas, rights = [], [], []
    for a in blocks:
        (u1, u2), theta, (v1h, v2h) = cossin(a, p=h, q=h, separate=True)
        one = (u1[None], -u2[None], theta[None], v1h[None], -v2h[None])
        u, v, theta, x, y = (f[0] for f in csd._canonicalize(*one))
        lefts += [u, v]
        rights += [x, y]
        thetas.append(theta)
    return np.stack(lefts), np.concatenate(thetas), np.stack(rights)


def walk_stacks():
    """The m = 4 and m = 8 stacks split_stack sees on a small walk operator."""
    seen = []

    def spy(blocks, tol):
        if blocks.shape[1] in (4, 8):
            seen.append(blocks.copy())
        return split_stack(blocks, tol)

    op, _ = walk_unitary(random_graph(9, 31, seed=2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "split_stack", spy)
        decompose.recursive_csd(pad_to_power_of_two(op)[0])
    return seen


def random_stack(group, m, k, seed):
    return np.stack([group.rvs(m, random_state=seed + i) for i in range(k)])


STACKS = {
    f"{kind}-m{m}": (group, m)
    for m in (4, 8, 16, 64)
    for kind, group in (("real", ortho_group), ("complex", unitary_group))
}


def assert_bit_identical_to_cossin(blocks):
    """split_stack against reference_split; returns theta as (blocks, angles)."""
    got, want = split_stack(blocks, Tolerances()), reference_split(blocks)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got[1].reshape(blocks.shape[0], -1)


@pytest.mark.parametrize("group, m", STACKS.values(), ids=STACKS.keys())
def test_stacked_kernel_is_bit_identical_to_cossin_per_block(group, m):
    assert_bit_identical_to_cossin(random_stack(group, m, 5, seed=100 * m))


def test_stacked_kernel_is_bit_identical_on_walk_stacks():
    stacks = walk_stacks()
    assert {s.shape[1] for s in stacks} == {4, 8}
    clustered = 0
    for blocks in stacks:
        theta = assert_bit_identical_to_cossin(blocks)
        clustered += np.count_nonzero(np.abs(np.diff(theta, axis=1)) <= DEGEN_EPS)
    assert clustered  # the walk stacks carry degenerate theta clusters


def test_canonicalize_stack_equals_one_block_at_a_time():
    blocks = random_stack(unitary_group, 8, 6, seed=16)
    raw = csd._csd_lapack(blocks)
    # a block with repeated and out-of-order angles exercises sort and gauge
    raw[2][1] = [np.pi / 2, 0.3, 0.0, 0.3]
    stacked = csd._canonicalize(*raw)
    for b in range(blocks.shape[0]):
        alone = csd._canonicalize(*(f[b] for f in raw))
        for s, a in zip(stacked, alone):
            assert np.array_equal(s[b], a)
