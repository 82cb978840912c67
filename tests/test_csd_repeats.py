"""Stacks whose blocks repeat: split_stack splits each byte-distinct block once.

So does every stack of the deflation's remainders: distinct blocks that
leave byte-equal remainders split that remainder once.

Every copy must come out as the block comes out split alone, bit for bit,
whichever route it takes.  Blocks that differ in one bit, as in the sign of
a zero, are different blocks; so are blocks whose 64-bit words weigh the
same under the screen's linear fingerprint, such as a signed permutation and
the same block with two rows negated.
"""

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc import csd
from csdcirc.csd import split_stack
from csdcirc.matrices import Tolerances

from test_csd import cossin_calls, walk_stacks
from test_csd_deflation import direct_sums
from test_csd_routes import degenerate_blocks, separated_blocks

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
REPEATS = hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
GROUPS = {"real": ortho_group, "complex": unitary_group}


@st.composite
def screen_twins(draw, m, group):
    """A signed permutation and the same block with two rows negated.

    Negating a row flips the sign bit of all its words, zeros included, and
    an even number of sign flips leaves a sum of odd-weighted words mod 2**64
    unchanged.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    a = np.diag(rng.choice([-1.0, 1.0], m))[rng.permutation(m)]
    a = a.astype(complex) if group is unitary_group else a
    b = a.copy()
    rows = rng.choice(m, 2, replace=False)
    b[rows] = -b[rows]
    return [a, b]


def negative_zeros(block: np.ndarray, count: int) -> np.ndarray:
    """A copy of block with the first count of its zero words negated."""
    words = block.copy().reshape(-1).view(np.float64)
    words[np.flatnonzero(words == 0.0)[:count]] = -0.0
    return words.view(block.dtype).reshape(block.shape)


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS.keys())
@REPEATS
@hypothesis.given(data=st.data())
def test_every_copy_splits_as_the_block_alone(group, data):
    m = data.draw(st.sampled_from([4, 8, 16, 32, 64]))
    h = m // 2
    kinds = st.one_of(
        separated_blocks(h, group), degenerate_blocks(h, group), direct_sums(m, group, True)
    )
    pool = data.draw(st.lists(kinds, min_size=1, max_size=3)) + data.draw(screen_twins(m, group))
    # the twin with negated rows holds negative zeros; a copy of the plain
    # signed permutation with one or two more differs from it in those alone
    pool.append(negative_zeros(pool[-2], data.draw(st.integers(1, 2))))
    extra = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    order = data.draw(st.permutations(list(range(len(pool))) + extra))
    blocks = np.stack([pool[i] for i in order])
    per_chunk = data.draw(st.sampled_from([0, 2, 3]))  # 0: one chunk for the stack
    with pytest.MonkeyPatch.context() as mp:
        if per_chunk:
            mp.setattr(csd, "_CHUNK_ENTRIES", per_chunk * m * m)
        calls = cossin_calls(mp)
        got = split_stack(blocks, Tolerances())
        stacked = len(calls)
        alone_calls = 0
        seen = set()
        k = len(blocks)
        for b in range(k):
            del calls[:]
            alone = split_stack(blocks[b : b + 1], Tolerances())
            if blocks[b].tobytes() not in seen:
                seen.add(blocks[b].tobytes())
                alone_calls += len(calls)
            for g, a in zip(got, alone):
                assert g.reshape(k, -1)[b].tobytes() == a.tobytes()
    assert len({p.tobytes() for p in pool[-3:]}) == 3  # the near-copies differ
    if not per_chunk:
        # LAPACK ran once per distinct block: as often as on each split alone
        assert stacked == alone_calls


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS.keys())
def test_the_screen_passes_its_twins_to_the_exact_grouping(group):
    rng = np.random.default_rng(5)
    a = np.diag(rng.choice([-1.0, 1.0], 8))[rng.permutation(8)]
    a = a.astype(complex) if group is unitary_group else a
    b = a.copy()
    b[[1, 6]] = -b[[1, 6]]
    words = np.stack((a, b)).reshape(2, -1).view(np.uint64)
    prints = words @ csd._odd_weights(words.shape[1])
    assert prints[0] == prints[1]  # the screen cannot tell them apart
    first, copies = csd._distinct(np.stack((a, b, a, b, b)))
    assert first.tolist() == [0, 1] and copies.tolist() == [0, 1, 0, 1, 1]


def test_repeats_across_chunks_split_as_in_one_chunk(monkeypatch):
    # the low levels of a walk: most blocks repeat, in and across chunks of three
    for blocks in walk_stacks():
        m = blocks.shape[1]
        whole = split_stack(blocks, Tolerances())
        with monkeypatch.context() as mp:
            mp.setattr(csd, "_CHUNK_ENTRIES", 3 * m * m)
            chunked = split_stack(blocks, Tolerances())
        for c, w in zip(chunked, whole):
            assert c.tobytes() == w.tobytes()


def shared_remainder_block(w: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """A 32 x 32 block: the 2r x 2r unitary w on rows and columns 0..r-1 and 16..15+r, signs elsewhere.

    Its other rows are quadrant-pure pairs with theta = 0, each a signed unit
    row.  The paired x and y rows leave unit rows free, so the remainder is w
    itself whatever the signs.
    """
    r, h = w.shape[0] // 2, 16
    outer = np.r_[0:r, h : h + r]
    a = np.diag(signs).astype(w.dtype)
    a[np.ix_(outer, outer)] = w
    return a


@pytest.mark.parametrize("r", [2, 5, 7])
def test_remainders_shared_across_blocks_are_split_once(r):
    # complex remainders of 2r <= 14 go to LAPACK; blocks 0-2 share one, 3-4 another
    rng = np.random.default_rng(r)
    remainders = [unitary_group.rvs(2 * r, random_state=10 * r + i) for i in range(2)]
    blocks = np.stack(
        [shared_remainder_block(remainders[b // 3], rng.choice([-1.0, 1.0], 32)) for b in range(5)]
    )
    assert len({b.tobytes() for b in blocks}) == 5  # the blocks themselves differ
    with pytest.MonkeyPatch.context() as mp:
        calls = cossin_calls(mp)
        got = split_stack(blocks, Tolerances())
    assert [c.tobytes() for c in calls] == [w.tobytes() for w in remainders]
    for b in range(len(blocks)):
        alone = split_stack(blocks[b : b + 1], Tolerances())
        for g, a in zip(got, alone):
            assert g.reshape(len(blocks), -1)[b].tobytes() == a.tobytes()
