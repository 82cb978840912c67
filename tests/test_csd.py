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
    # X12 = 0: the 256 angles form one cluster at theta = 0.  Every row is
    # quadrant-pure, so split_stack pairs them all; the route is called alone
    for group in (ortho_group, unitary_group):
        o = np.eye(512, dtype=complex if group is unitary_group else float)
        o[:100, :100] = group.rvs(100, random_state=12)
        with monkeypatch.context() as mp:
            calls = cossin_calls(mp)
            (_, _, theta, _, _), residual = csd._csd_batched(o[None], Tolerances())
            got = split_stack(o[None], Tolerances())
        assert not calls
        assert np.all(theta == 0.0) and np.all(got[1] == 0.0)
        assert residual.max() <= 1e-12
        assert_deflated(o[None], got)


def test_svd_route_splits_a_walk_top_block(monkeypatch):
    # the whole padded operator of a 10-qubit walk: large clusters at 0 and pi/2.
    # split_stack splits its quadrant-pure rows off first, so the route is called alone
    op, _ = walk_unitary(random_graph(40, 1000, seed=3))
    a = pad_to_power_of_two(op)[0].as_real()[None]
    calls = cossin_calls(monkeypatch)
    (_, _, theta, _, _), residual = csd._csd_batched(a, Tolerances())
    assert not calls
    assert np.count_nonzero(np.abs(np.diff(theta)) <= DEGEN_EPS) > 100
    assert residual.max() <= 1e-12
    assert_deflated(a, split_stack(a, Tolerances()))


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


# complex blocks below 16 go to LAPACK; real blocks from 4 and complex ones from 16
# take the batched route where they are separated
LAPACK_STACKS = {f"complex-m{m}": (unitary_group, m) for m in (4, 8)}
SEPARATED_STACKS = {"real-m4": (ortho_group, 4), "real-m8": (ortho_group, 8), **stack_params((16, 64))}


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


def quadrant_pure_pairs(blocks):
    """Per block, the pairs of rows with zero X12 and X21 rows (theta = 0) and zero X11 and X22 rows."""
    zero_rows = [np.count_nonzero(~q.any(axis=-1), axis=-1) for q in quadrants(blocks)]
    return np.minimum(zero_rows[1], zero_rows[2]), np.minimum(zero_rows[0], zero_rows[3])


def quadrants(blocks):
    """X11, X12, X21 and X22 of each block of a stack."""
    h = blocks.shape[1] // 2
    return blocks[:, :h, :h], blocks[:, :h, h:], blocks[:, h:, :h], blocks[:, h:, h:]


def assert_deflated(blocks, got):
    """Each block's pairs of quadrant-pure rows come out exact: theta 0 or pi/2 with unit u and v columns.

    theta ascends, so the p0 pairs at 0 lead; the p1 pairs at pi/2 come first among the angles there.
    """
    k, h = blocks.shape[0], blocks.shape[1] // 2
    lefts, theta = got[0].reshape(k, 2, h, h), got[1].reshape(k, h)
    for b, (p0, p1) in enumerate(zip(*quadrant_pure_pairs(blocks))):
        right = np.flatnonzero(theta[b] == np.pi / 2)[:p1]
        assert right.size == p1 and np.all(theta[b, :p0] == 0.0)
        paired = lefts[b][..., np.concatenate((np.arange(p0), right))]
        assert np.all(np.count_nonzero(paired, axis=1) == 1) and np.all(paired.sum(axis=1) == 1.0)
    assert stack_residual(blocks, got).max() <= 1e-12


def test_stacked_kernel_is_bit_identical_on_walk_stacks(monkeypatch):
    stacks = walk_stacks()
    assert {s.shape[1] for s in stacks} == {4, 8, 16, 32}
    calls = cossin_calls(monkeypatch)
    clustered = degenerate = 0
    for blocks in stacks:
        k = blocks.shape[0]
        if blocks.shape[1] >= csd.DEFLATE_MIN_DIM:
            # the top block splits its quadrant-pure rows off exactly; the rest of it may call LAPACK
            before = len(calls)
            assert sum(quadrant_pure_pairs(blocks)).min() > 0
            assert_deflated(blocks, split_stack(blocks, Tolerances()))
            del calls[before:]
            continue
        out = split_stack(blocks, Tolerances())
        got = [f.reshape(k, -1) for f in out]
        want = [f.reshape(k, -1) for f in reference_split(blocks)]
        theta = want[1]
        clustered += np.count_nonzero(np.abs(np.diff(theta, axis=1)) <= DEGEN_EPS)
        margins = np.concatenate((np.diff(theta, axis=1), np.cos(theta), np.sin(theta)), axis=1)
        bad = (margins <= DEGEN_EPS).any(axis=1)
        degenerate += np.count_nonzero(bad)
        # degenerate blocks go to LAPACK and come out as it splits them alone
        for g, w in zip(got, want):
            assert np.array_equal(g[bad], w[bad])
        # separated ones take the batched route and agree within rounding
        assert np.abs(got[1][~bad] - theta[~bad]).max(initial=0.0) <= 1e-12
        for g, w in zip(got[::2], want[::2]):
            assert np.abs(g[~bad] - w[~bad]).max(initial=0.0) <= 1e-10
        assert stack_residual(blocks, out).max() <= 1e-12
    assert clustered  # the walk stacks carry degenerate theta clusters
    assert 0 < degenerate < sum(s.shape[0] for s in stacks)
    # the degenerate blocks below DEFLATE_MIN_DIM, and only they, went to LAPACK
    assert len(calls) == degenerate


# per-block LAPACK calls on the walk-n8 benchmark operator at seed 0 (one BLAS
# thread), by block size: one per distinct degenerate block.  Splitting every
# copy made 3,729 calls at m = 4 and 1,006 at m = 8
WALK_N8_COSSIN_CALLS = {4: 1644, 8: 639}


def test_walk_n8_splits_each_distinct_block_once(monkeypatch):
    op, _ = walk_unitary(random_graph(28, 251, seed=0))
    calls = cossin_calls(monkeypatch)
    decompose.recursive_csd(pad_to_power_of_two(op)[0])
    sizes = [c.shape[0] for c in calls]
    assert {m: sizes.count(m) for m in WALK_N8_COSSIN_CALLS} == WALK_N8_COSSIN_CALLS


def rotation(t):
    return np.stack([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]).transpose(2, 0, 1)


def svd2_inputs():
    rng = np.random.default_rng(22)
    diagonal = np.zeros((50, 2, 2))
    diagonal[:, [0, 1], [0, 1]] = rng.standard_normal((50, 2))
    diagonal[0] = np.diag([0.5, 2.0])  # ascending, so the SVD must swap them
    turns = rng.uniform(0, 2 * np.pi, 50)
    return {
        "random": rng.standard_normal((1000, 2, 2)),
        "diagonal": diagonal,
        "rank-1": rng.standard_normal((50, 2, 1)) * rng.standard_normal((50, 1, 2)),
        "zero": np.zeros((3, 2, 2)),
        "equal": 3.0 * rotation(turns),  # a scaled rotation: sigma_1 == sigma_2
        "reflection": 2.0 * rotation(turns) @ np.diag([1.0, -1.0]),  # det < 0
    }


SVD2_INPUTS = svd2_inputs()


@pytest.mark.parametrize("a", SVD2_INPUTS.values(), ids=SVD2_INPUTS.keys())
def test_closed_form_2x2_svd_agrees_with_numpy(a):
    u, sigma, vh = csd._svd2(a)
    u_np, sigma_np, _ = np.linalg.svd(a)
    eps = np.finfo(float).eps
    scale = np.maximum(sigma_np[:, :1], 1.0)
    assert np.abs((u * sigma[:, None, :]) @ vh - a).max() <= 8 * eps * scale.max()
    for f in (u, vh):
        assert np.abs(f @ np.swapaxes(f, -1, -2) - np.eye(2)).max() <= 4 * eps
    assert np.all(sigma[:, 0] >= sigma[:, 1]) and np.all(sigma >= 0.0)
    assert np.abs(sigma - sigma_np).max() <= 8 * eps * scale.max()
    # where the singular values are apart, the singular vectors are numpy's up to sign
    apart = sigma_np[:, 0] - sigma_np[:, 1] > 1e-3 * scale[:, 0]
    overlap = np.abs(np.swapaxes(u_np, -1, -2) @ u)[apart]
    assert np.abs(overlap - np.eye(2)).max(initial=0.0) <= 1e-12


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
