"""The exact split of quadrant-pure rows, on permuted direct sums of m = 32 to 256.

A block is a direct sum of pieces (unit signs, identities, walk steps and
random unitaries) with its rows and columns permuted.  A row is
quadrant-pure where its piece's columns all lie in one half.  In a "pure"
block every piece lies in one half, and then every top row finds a bottom
partner: a block of pieces holds as many rows as columns, so the top rows
on the left pieces are as many as the bottom rows on the right ones.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.stats import ortho_group, unitary_group

from csdcirc import csd
from csdcirc.csd import split_stack
from csdcirc.matrices import Tolerances
from csdcirc.qwalk import random_graph, walk_unitary

from test_csd import assert_bit_identical_to_cossin, assert_deflated, cossin_calls, quadrant_pure_pairs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
DEFLATION = hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
GROUPS = {"real": ortho_group, "complex": unitary_group}
KINDS = ("sign", "identity", "walk", "random")


def piece(kind: str, room: int, group, rng) -> np.ndarray:
    """One square piece of at most room rows; a unit sign where a walk step does not fit."""
    phase = np.exp(2j * np.pi * rng.random()) if group is unitary_group else rng.choice([-1.0, 1.0])
    if kind == "identity":
        return np.eye(rng.integers(1, min(room, 8) + 1))
    if kind == "random" and room >= 2:
        return group.rvs(rng.integers(2, min(room, 6) + 1), random_state=rng)
    arcs = rng.integers(6, 14)
    if kind == "walk" and arcs <= room:
        step = walk_unitary(random_graph(3 if arcs < 8 else 4, arcs, seed=int(rng.integers(1 << 20))))[0]
        return phase * step.as_real()
    return np.array([[phase]])


def permuted_direct_sum(m: int, group, kinds, pure: bool, rng) -> np.ndarray:
    """A direct sum of pieces of the given kinds in turn, its rows and columns permuted.

    pure: each half of the columns holds whole pieces, and they stay in it.
    """
    parts = []
    for size in (m // 2, m // 2) if pure else (m,):
        while size:
            parts.append(piece(kinds[len(parts) % len(kinds)], size, group, rng))
            size -= parts[-1].shape[0]
    a = block_diag(*parts).astype(complex if group is unitary_group else float)
    h = m // 2
    cols = np.concatenate((rng.permutation(h), h + rng.permutation(h))) if pure else rng.permutation(m)
    return a[rng.permutation(m)][:, cols]


@st.composite
def direct_sums(draw, m, group, pure):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    return permuted_direct_sum(m, group, kinds, pure, rng)


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS.keys())
@DEFLATION
@hypothesis.given(data=st.data())
def test_quadrant_pure_rows_split_exactly(group, data):
    m = data.draw(st.sampled_from([32, 64, 128, 256]))
    pure = data.draw(st.booleans())
    blocks = np.stack(data.draw(st.lists(direct_sums(m, group, pure), min_size=1, max_size=3)))
    with pytest.MonkeyPatch.context() as mp:
        calls = cossin_calls(mp)
        got = split_stack(blocks, Tolerances())
    assert_deflated(blocks, got)  # and every block reconstructs within 1e-12
    if np.all(sum(quadrant_pure_pairs(blocks)) == m // 2):
        assert not calls  # index gathers alone
    k = len(blocks)
    for b in range(k):
        alone = split_stack(blocks[b : b + 1], Tolerances())
        for g, a in zip(got, alone):
            assert np.array_equal(g.reshape(k, -1)[b], a.reshape(-1))


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS.keys())
def test_pure_blocks_below_the_deflation_size_reach_cossin(monkeypatch, group):
    rng = np.random.default_rng(42)
    m = csd.DEFLATE_MIN_DIM // 2
    blocks = np.stack([permuted_direct_sum(m, group, KINDS, True, rng) for _ in range(2)])
    assert np.all(sum(quadrant_pure_pairs(blocks)) == m // 2)
    calls = cossin_calls(monkeypatch)
    assert_bit_identical_to_cossin(blocks)
    assert len(calls) == 2
