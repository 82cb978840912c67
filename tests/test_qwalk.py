import tracemalloc

import numpy as np
import pytest

from csdcirc.errors import AsymmetricAdjacencyError, IsolatedNodeError
from csdcirc.qwalk import (
    Graph,
    arc_basis,
    parse_graph,
    random_graph,
    walk_unitary,
)
from paper_data import SQUARE_GRAPH_TEXT, SQUARE_WALK, STAR_GRAPH_TEXT, star_walk_matrix


def translation_and_coin(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: T and C built arc by arc from the arc basis.

    T maps arc (i, j) to arc (j, i); C is block-diagonal over source nodes,
    2/d off the diagonal and 2/d - 1 on it for a node with d outgoing arcs.
    """
    arcs = arc_basis(g).arcs
    position = {arc: k for k, arc in enumerate(arcs)}
    t = np.zeros((len(arcs), len(arcs)))
    c = np.zeros_like(t)
    for k, (i, j) in enumerate(arcs):
        t[position[(j, i)], k] = 1.0
        block = [m for m, (src, _) in enumerate(arcs) if src == i]
        c[k, block] = 2.0 / len(block)
        c[k, k] -= 1.0
    return t, c


def test_grover_coin_values():
    # node 1 has 8 arcs, nodes 2 and 3 have 2, nodes 4..9 have 1
    g = parse_graph("9\n" + "".join(f"1 {k}\n" for k in range(2, 10)) + "2 3\n")
    t, _ = translation_and_coin(g)
    coin = t @ walk_unitary(g)[0].mat  # T is its own inverse
    c8 = coin[:8, :8]
    assert np.array_equal(np.diag(c8), np.full(8, -0.75))
    assert np.array_equal(c8[~np.eye(8, dtype=bool)], np.full(56, 0.25))
    assert np.array_equal(coin[8:10, 8:10], np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(coin[12:, 12:], np.eye(6))


def test_square_walk_matches_published_matrix():
    op, basis = walk_unitary(parse_graph(SQUARE_GRAPH_TEXT))
    assert basis.arcs == (
        (1, 2), (1, 4), (2, 1), (2, 3), (3, 2), (3, 4), (4, 1), (4, 3),
    )
    assert np.array_equal(op.mat, SQUARE_WALK)


def test_star_walk_matches_published_matrix():
    op, basis = walk_unitary(parse_graph(STAR_GRAPH_TEXT))
    assert basis.size == 16
    assert np.abs(op.mat - star_walk_matrix()).max() < 1e-12


def test_single_node_self_loop():
    op, basis = walk_unitary(Graph(np.array([[True]])))
    assert np.array_equal(op.mat, np.array([[1.0]]))
    assert basis.arcs == ((1, 1),)


def test_walk_unitary_is_translation_times_coin():
    every_node_looped = random_graph(7, 24, seed=5).adjacency | np.eye(7, dtype=bool)
    graphs = [random_graph(12, 60, seed=1), random_graph(12, 61, seed=1), Graph(every_node_looped)]
    graphs += [random_graph(9, arcs, seed=seed) for seed in range(3) for arcs in (30, 31)]
    for g in graphs:
        t, c = translation_and_coin(g)
        assert np.array_equal(t @ t, np.eye(len(t)))
        assert np.array_equal(walk_unitary(g)[0].mat, t @ c)


def test_walk_unitary_holds_two_dense_copies_at_most():
    g = random_graph(40, 1001, seed=3)
    tracemalloc.start()
    try:
        op, _ = walk_unitary(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the step and its certified copy, or the step and its Gram matrix
    assert peak < 2.5 * op.mat.nbytes


def test_walk_entries_come_from_coins():
    g = random_graph(10, 45, seed=2)
    op, _ = walk_unitary(g)
    degrees = set(int(d) for d in g.degrees())
    allowed = {0.0}
    for d in degrees:
        allowed.add(round(2.0 / d - 1.0, 15))
        allowed.add(round(2.0 / d, 15))
    values = set(np.round(np.unique(op.mat), 15))
    assert values <= allowed
    assert op.unitarity_residual < 1e-12
    assert op.is_real


def test_arc_count_is_twice_edges_plus_loops():
    g = random_graph(20, 101, seed=3)
    basis = arc_basis(g)
    loops = int(np.trace(g.adjacency))
    edges = (int(g.adjacency.sum()) - loops) // 2
    assert basis.size == 2 * edges + loops == 101


def test_parse_edge_list():
    g = parse_graph("4\n1 2\n2 3\n3 4\n4 1\n")
    assert g.node_count == 4
    assert g.degrees().tolist() == [2, 2, 2, 2]


def test_parse_dense_adjacency():
    g = parse_graph("0 1 1\n1 0 0\n1 0 0\n")
    assert g.node_count == 3
    assert g.degrees().tolist() == [2, 1, 1]


def test_parse_dense_rejects_asymmetric():
    with pytest.raises(AsymmetricAdjacencyError):
        parse_graph("0 1\n0 0\n")


def test_isolated_node_rejected_at_walk_time():
    g = parse_graph("3\n1 2\n")
    with pytest.raises(IsolatedNodeError):
        walk_unitary(g)


def test_parse_rejects_bad_edge():
    with pytest.raises(ValueError):
        parse_graph("3\n1 5\n")


def test_random_graph_is_deterministic_and_exact():
    g1 = random_graph(100, 4011, seed=7)
    g2 = random_graph(100, 4011, seed=7)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert arc_basis(g1).size == 4011
    assert g1.degrees().min() >= 1
    g3 = random_graph(100, 4011, seed=8)
    assert not np.array_equal(g1.adjacency, g3.adjacency)


def test_random_graph_validates_arguments():
    with pytest.raises(ValueError):
        random_graph(10, 10, seed=0)  # too few arcs for a connected graph
    with pytest.raises(ValueError):
        random_graph(10, 1000, seed=0)  # exceeds simple-graph capacity
