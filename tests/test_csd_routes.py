"""Which blocks of a stack take the batched CSD route, and what the others get.

Blocks are built as diag(u, v) . [[C, S], [-S, C]] . diag(x, y) from drawn
angles, so each test controls whether a block is separated: angles more than
DEGEN_EPS apart, none at 0 or pi/2, and no all-zero line in X11 or X12.
"""

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc import csd
from csdcirc.csd import DEGEN_EPS, split_stack
from csdcirc.errors import NumericalFailureError
from csdcirc.matrices import Tolerances

from test_csd import (
    assert_agrees_with_cossin,
    assert_bit_identical_to_cossin,
    cossin_calls,
    random_stack,
    reference_split,
    stack_residual,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
ROUTES = hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
# angles are multiples of this step: distinct ones lie at least 1.6e-3 apart
STEP = (np.pi / 2) / 1000


def from_angles(theta, group, seed):
    """diag(u, v) . [[C, S], [-S, C]] . diag(x, y) for four drawn unitaries."""
    h = theta.size
    u, v, x, y = (group.rvs(h, random_state=seed + i) for i in range(4))
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    z = np.zeros((h, h))
    return np.block([[u, z], [z, v]]) @ np.block([[c, s], [-s, c]]) @ np.block([[x, z], [z, y]])


@st.composite
def separated_blocks(draw, h, group):
    steps = draw(st.lists(st.integers(1, 999), min_size=h, max_size=h, unique=True))
    return from_angles(np.sort(steps) * STEP, group, draw(st.integers(0, 2**20)))


@st.composite
def degenerate_blocks(draw, h, group):
    """A block that is not separated, for one of four reasons."""
    steps = draw(st.lists(st.integers(1, 999), min_size=h, max_size=h, unique=True))
    theta = np.sort(steps) * STEP
    seed = draw(st.integers(0, 2**20))
    # blocks with zero lines from DEFLATE_MIN_DIM up are test_csd_deflation.py's
    kinds = ["zero", "right-angle", "cluster"] + ["zero-line"] * (2 * h < csd.DEFLATE_MIN_DIM)
    kind = draw(st.sampled_from(kinds))
    i = draw(st.integers(0, h - 1))
    if kind == "zero":
        theta[i] = 0.0
    elif kind == "right-angle":
        theta[i] = np.pi / 2
    elif kind == "cluster":
        j = draw(st.integers(0, h - 1).filter(lambda j: j != i))
        theta[j] = theta[i] + draw(st.floats(0.0, 0.9 * DEGEN_EPS))
    if kind != "zero-line":
        return from_angles(theta, group, seed)
    # 1 (+) W zeroes row 0 of X12; moving column 0 into the right half
    # zeroes row 0 of X11 instead.  Permutations within each half then place
    # that zero line anywhere in its quadrant.
    m = 2 * h
    a = np.zeros((m, m), dtype=complex if group is unitary_group else float)
    a[0, 0] = 1.0
    a[1:, 1:] = group.rvs(m - 1, random_state=seed)
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.permutation(h), h + rng.permutation(h)])
    cols = np.concatenate([rng.permutation(h), h + rng.permutation(h)])
    if draw(st.booleans()):
        cols[[0, h]] = cols[[h, 0]]
    if draw(st.booleans()):  # a zero column instead of a zero row
        a = a.T.copy()
    return a[rows][:, cols]


GROUPS = {"real": ortho_group, "complex": unitary_group}
# half block sizes below SVD_ROUTE_MIN_DIM that take the batched route
HALVES = {"real": (ortho_group, [2, 4, 8, 16]), "complex": (unitary_group, [8, 16])}


@pytest.mark.parametrize("group, halves", HALVES.values(), ids=HALVES.keys())
@ROUTES
@hypothesis.given(data=st.data())
def test_separated_blocks_take_the_batched_route(group, halves, data):
    h = data.draw(st.sampled_from(halves))
    blocks = np.stack(data.draw(st.lists(separated_blocks(h, group), min_size=1, max_size=3)))
    with pytest.MonkeyPatch.context() as mp:
        calls = cossin_calls(mp)
        assert_agrees_with_cossin(blocks)
    assert not calls


@pytest.mark.parametrize("group, halves", HALVES.values(), ids=HALVES.keys())
@ROUTES
@hypothesis.given(data=st.data())
def test_degenerate_blocks_reach_cossin_bit_identically(group, halves, data):
    h = data.draw(st.sampled_from(halves))
    degenerate = data.draw(st.lists(degenerate_blocks(h, group), min_size=1, max_size=3))
    copies = data.draw(st.lists(st.sampled_from(degenerate), max_size=2))
    degenerate = data.draw(st.permutations(degenerate + copies))
    separated = data.draw(separated_blocks(h, group))
    at = data.draw(st.integers(0, len(degenerate)))
    blocks = np.stack(degenerate[:at] + [separated] + degenerate[at:])
    with pytest.MonkeyPatch.context() as mp:
        calls = cossin_calls(mp)
        got = split_stack(blocks, Tolerances())
    # only the degenerate blocks went to LAPACK, each distinct one once, in
    # the stack order of its first copy
    distinct = list({block.tobytes(): block for block in degenerate}.values())
    assert len(calls) == len(distinct)
    for call, block in zip(calls, distinct):
        assert call.tobytes() == block.tobytes()
    # every copy matches per-block LAPACK bit for bit, and the separated block
    # matches its own split alone
    k = len(blocks)
    rest = np.delete(np.arange(k), at)
    alone = split_stack(blocks[at : at + 1], Tolerances())
    for g, w, a in zip(got, reference_split(blocks[rest]), alone):
        g = g.reshape(k, -1, *g.shape[1:])
        assert np.array_equal(g[rest].reshape(w.shape), w)
        assert np.array_equal(g[at].reshape(a.shape), a)


def test_a_block_that_fails_the_batched_check_alone_falls_back():
    # a complex stack, and a real one whose SVDs take the 2 x 2 closed form
    for group, m in ((unitary_group, 16), (ortho_group, 4)):
        blocks = random_stack(group, m, 4, seed=40)
        clean = split_stack(blocks, Tolerances())
        van_loan = csd._csd_van_loan

        def spoiled(stack, live, screen):
            separated, (u, v, theta, x, y) = van_loan(stack, live, screen)
            assert np.array_equal(separated, np.arange(4))
            y[2] = -y[2]  # block 2's X12 and X22 no longer reconstruct
            return separated, (u, v, theta, x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csd, "_csd_van_loan", spoiled)
            calls = cossin_calls(mp)
            got = split_stack(blocks, Tolerances())
        assert len(calls) == 1 and np.array_equal(calls[0], blocks[2])
        want = reference_split(blocks[2:3])
        for g, c, w in zip(got, clean, want):
            g, c = g.reshape(4, -1, *g.shape[1:]), c.reshape(4, -1, *c.shape[1:])
            assert np.array_equal(g[[0, 1, 3]], c[[0, 1, 3]])
            assert np.array_equal(g[2].reshape(w.shape), w)
        assert stack_residual(blocks, got).max() <= 1e-12


def test_blocks_with_a_zero_line_skip_every_svd(monkeypatch):
    # signed permutations, as in walk operators: each has zero lines in X11.
    # From DEFLATE_MIN_DIM up their rows all pair instead (test_csd_deflation.py)
    rng = np.random.default_rng(41)
    blocks = np.stack([np.diag(rng.choice([-1.0, 1.0], 16))[rng.permutation(16)] for _ in range(3)])
    svds = []
    monkeypatch.setattr(csd, "_csd_van_loan", lambda *args: svds.append(args))
    assert_bit_identical_to_cossin(blocks)
    assert not svds


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS.keys())
def test_large_blocks_align_a_cluster_of_small_sin_angles(monkeypatch, group):
    # from 512 up clusters take the batched route; four equal angles below
    # pi/6 leave the residual's SVD free to mix their pairs
    theta = np.linspace(0.05, 1.5, 256)
    theta[10:14] = theta[10]
    blocks = from_angles(theta, group, seed=21)[None]
    calls = cossin_calls(monkeypatch)
    got = split_stack(blocks, Tolerances())
    assert not calls
    assert np.abs(got[1] - theta).max() <= 1e-12
    assert stack_residual(blocks, got).max() <= 1e-12


ROUTE_NAMES = ("_csd_dim2_batch", "_csd_lapack", "_csd_batched", "_csd_van_loan", "cossin")


@ROUTES
@hypothesis.given(
    m=st.sampled_from([2, 4, 16, 32, 1024]),
    real=st.booleans(),
    where=st.integers(0, 2**20),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_non_finite_stacks_fail_before_any_route(m, real, where, value):
    def unreachable(*args):
        raise AssertionError("a non-finite stack reached a CSD route")

    k = 1 if m == 1024 else 3
    blocks = np.zeros((k, m, m)) if real else np.zeros((k, m, m), dtype=complex)
    blocks.reshape(-1)[where % blocks.size] = value
    with pytest.MonkeyPatch.context() as mp:
        for name in ROUTE_NAMES:
            mp.setattr(csd, name, unreachable)
        with pytest.raises(NumericalFailureError):
            split_stack(blocks, Tolerances())
