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


def test_svd_route_agrees_with_lapack_route(monkeypatch):
    o = ortho_group.rvs(512, random_state=10)[None]
    calls = cossin_calls(monkeypatch)
    got = split_stack(o, Tolerances())
    assert not calls
    assert np.abs(got[1] - reference_split(o)[1]).max() < 1e-10  # theta is convention-free
    assert stack_residual(o, got).max() <= 1e-12


def test_svd_route_handles_identity_padding(monkeypatch):
    # X12 = 0: the 256 angles form one cluster at theta = 0
    for group in (ortho_group, unitary_group):
        o = np.eye(512, dtype=complex if group is unitary_group else float)
        o[:100, :100] = group.rvs(100, random_state=12)
        with monkeypatch.context() as mp:
            calls = cossin_calls(mp)
            got = split_stack(o[None], Tolerances())
        assert not calls
        assert np.all(got[1] == 0.0)
        assert stack_residual(o[None], got).max() <= 1e-12


def test_svd_route_splits_a_walk_top_block(monkeypatch):
    # the whole padded operator of a 10-qubit walk: large clusters at 0 and pi/2
    op, _ = walk_unitary(random_graph(40, 1000, seed=3))
    a = pad_to_power_of_two(op)[0].as_real()[None]
    calls = cossin_calls(monkeypatch)
    got = split_stack(a, Tolerances())
    assert not calls
    theta = got[1]
    assert np.count_nonzero(np.abs(np.diff(theta)) <= DEGEN_EPS) > 100
    assert stack_residual(a, got).max() <= 1e-12


def test_a_failed_svd_sends_the_stack_to_lapack(monkeypatch):
    def not_converging(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    real = ortho_group.rvs(512, random_state=19)[None]
    complex_ = random_stack(unitary_group, 32, 3, seed=20)
    monkeypatch.setattr(np.linalg, "svd", not_converging)
    for blocks in (real, complex_):
        assert_bit_identical_to_cossin(blocks)


def test_factors_are_certified():
    u = unitary_group.rvs(16, random_state=13)
    f = Split(u)
    for factor in (f.u, f.v, f.x, f.y):
        assert certify_unitary(factor).unitarity_residual <= Tolerances().unitary


@pytest.mark.parametrize("dim", [2, 4, 1024])
def test_non_finite_block_is_a_numerical_failure(dim):
    # split_stack's finite check rejects NaN before any route runs
    a = ortho_group.rvs(dim, random_state=14)[None]
    a[0, 0, 1] = np.nan
    with pytest.raises(NumericalFailureError):
        split_stack(a, Tolerances())


def stack_params(sizes):
    """pytest parameters: a real and a complex stack of each block size."""
    return {
        f"{kind}-m{m}": (group, m)
        for m in sizes
        for kind, group in (("real", ortho_group), ("complex", unitary_group))
    }


NAN_STACKS = stack_params((4, 16))


@pytest.mark.parametrize("group, m", NAN_STACKS.values(), ids=NAN_STACKS.keys())
def test_non_finite_stack_fails_before_lapack(monkeypatch, group, m):
    def unreachable(*args):
        raise AssertionError("a non-finite stack reached LAPACK")

    monkeypatch.setattr(csd, "cossin", unreachable)
    blocks = random_stack(group, m, 3, seed=17)
    blocks[1, m - 1, 0] = np.nan
    with pytest.raises(NumericalFailureError):
        split_stack(blocks, Tolerances())


@pytest.mark.parametrize(
    "group, m",
    [
        (ortho_group, 2),
        (unitary_group, 2),
        (ortho_group, 4),
        (unitary_group, 8),
        (unitary_group, 16),
        (ortho_group, 32),
    ],
    ids=["real-m2", "complex-m2", "real-m4", "complex-m8", "complex-m16", "real-m32"],
)
def test_chunked_stack_is_bit_identical(monkeypatch, group, m):
    blocks = random_stack(group, m, 7, seed=18)
    whole = split_stack(blocks, Tolerances())
    monkeypatch.setattr(csd, "_CHUNK_ENTRIES", 3 * m * m)  # chunks of 3, 3 and 1 blocks
    for c, w in zip(split_stack(blocks, Tolerances()), whole):
        assert np.array_equal(c, w)


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
    """The stacks of m >= 4 that split_stack sees on a small walk operator."""
    seen = []

    def spy(blocks, tol):
        if blocks.shape[1] >= 4:
            seen.append(blocks.copy())
        return split_stack(blocks, tol)

    op, _ = walk_unitary(random_graph(9, 31, seed=2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decompose, "split_stack", spy)
        decompose.recursive_csd(pad_to_power_of_two(op)[0])
    return seen


def random_stack(group, m, k, seed):
    return np.stack([group.rvs(m, random_state=seed + i) for i in range(k)])


def cossin_calls(monkeypatch) -> list:
    """Record the block of every per-block LAPACK call from here on."""
    calls = []

    def spy(a, *args):
        calls.append(a.copy())
        return cossin_call(a, *args)

    cossin_call = csd.cossin
    monkeypatch.setattr(csd, "cossin", spy)
    return calls


def assert_bit_identical_to_cossin(blocks):
    """split_stack against reference_split; returns theta as (blocks, angles)."""
    got, want = split_stack(blocks, Tolerances()), reference_split(blocks)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got[1].reshape(blocks.shape[0], -1)


def assert_agrees_with_cossin(blocks):
    """A split of separated blocks against reference_split, within rounding.

    Canonical factors are unique when the angles are distinct and away from 0
    and pi/2, so the batched route must land on LAPACK's up to rounding.
    """
    got, want = split_stack(blocks, Tolerances()), reference_split(blocks)
    assert np.abs(got[1] - want[1]).max() <= 1e-12
    for g, w in zip(got[::2], want[::2]):
        assert g.dtype == w.dtype and np.abs(g - w).max() <= 1e-10
    assert stack_residual(blocks, got).max() <= 1e-12
    return got


def stack_residual(blocks, got) -> np.ndarray:
    """Each block's reconstruction residual from split_stack's (lefts, theta, rights)."""
    k, h = blocks.shape[0], blocks.shape[1] // 2
    lefts, theta, rights = (f.reshape(k, -1, *f.shape[1:]) for f in got)
    factors = (lefts[:, 0], lefts[:, 1], theta.reshape(k, h), rights[:, 0], rights[:, 1])
    return csd._reconstruction_residual(blocks, *factors)


LAPACK_STACKS = stack_params((4, 8))
SEPARATED_STACKS = stack_params((16, 64))


@pytest.mark.parametrize("group, m", LAPACK_STACKS.values(), ids=LAPACK_STACKS.keys())
def test_stacked_kernel_is_bit_identical_to_cossin_per_block(group, m):
    assert_bit_identical_to_cossin(random_stack(group, m, 5, seed=100 * m))


@pytest.mark.parametrize("group, m", SEPARATED_STACKS.values(), ids=SEPARATED_STACKS.keys())
def test_batched_route_agrees_with_cossin_per_block(monkeypatch, group, m):
    blocks = random_stack(group, m, 5, seed=100 * m)
    calls = cossin_calls(monkeypatch)
    whole = assert_agrees_with_cossin(blocks)
    assert not calls  # random blocks are separated: none reaches LAPACK
    # each block comes out of a stack as it comes out alone, bit for bit
    h = m // 2
    for b in range(blocks.shape[0]):
        alone = split_stack(blocks[b : b + 1], Tolerances())
        assert np.array_equal(alone[0], whole[0][2 * b : 2 * b + 2])
        assert np.array_equal(alone[1], whole[1][b * h : (b + 1) * h])
        assert np.array_equal(alone[2], whole[2][2 * b : 2 * b + 2])


def test_stacked_kernel_is_bit_identical_on_walk_stacks(monkeypatch):
    stacks = walk_stacks()
    assert {s.shape[1] for s in stacks} == {4, 8, 16, 32}
    calls = cossin_calls(monkeypatch)
    clustered = 0
    for blocks in stacks:
        theta = assert_bit_identical_to_cossin(blocks)
        clustered += np.count_nonzero(np.abs(np.diff(theta, axis=1)) <= DEGEN_EPS)
    assert clustered  # the walk stacks carry degenerate theta clusters
    # the m16 and m32 walk blocks are degenerate too: every block went to LAPACK
    assert len(calls) == sum(s.shape[0] for s in stacks)


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
