"""Coined quantum-walk step operators on undirected graphs.

The walker lives on directed arcs (i, j) of the graph, ordered by source
node then destination node.  One step applies the Grover coin at every node
(block-diagonal over each node's outgoing arcs) followed by the translation
that reverses every arc; self-loop arcs are fixed points of the translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricAdjacencyError, IsolatedNodeError
from .matrices import Tolerances, UnitaryOperator, certify_unitary


@dataclass(frozen=True)
class Graph:
    adjacency: np.ndarray  # symmetric bool, self-loops on the diagonal

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise AsymmetricAdjacencyError("adjacency matrix is not symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        """Arc count per node; a self-loop contributes one arc."""
        deg = self.adjacency.sum(axis=1).astype(int)
        return deg  # diagonal True adds exactly 1


@dataclass(frozen=True)
class ArcBasis:
    arcs: tuple[tuple[int, int], ...]  # (i, j), 1-based nodes

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple((int(i), int(j)) for i, j in self.arcs))

    @property
    def size(self) -> int:
        return len(self.arcs)

    def index(self, arc: tuple[int, int]) -> int:
        return self.arcs.index(arc)


def arc_basis(g: Graph) -> ArcBasis:
    """Directed arcs ordered by source then destination; self-loops appear once."""
    src, dst = np.nonzero(g.adjacency)
    return ArcBasis(tuple(zip(src + 1, dst + 1)))


def grover_coin(d: int, tol: Tolerances = Tolerances()) -> UnitaryOperator:
    """The d x d reflection with 2/d off the diagonal and 2/d - 1 on it."""
    if d < 1:
        raise ValueError("coin dimension must be positive")
    m = np.full((d, d), 2.0 / d)
    m[np.diag_indices(d)] -= 1.0
    return certify_unitary(m, tol)


def walk_unitary(g: Graph, tol: Tolerances = Tolerances()) -> tuple[UnitaryOperator, ArcBasis]:
    """One walk step, translation times coin, on the graph's arc basis."""
    degrees = g.degrees()
    isolated = np.flatnonzero(degrees == 0)
    if isolated.size:
        raise IsolatedNodeError(f"node {isolated[0] + 1} has no arcs")
    basis = arc_basis(g)
    size = basis.size
    coin = np.zeros((size, size))
    offset = 0
    for d in degrees:
        coin[offset : offset + d, offset : offset + d] = 2.0 / d
        coin[range(offset, offset + d), range(offset, offset + d)] -= 1.0
        offset += d
    # arcs sort by the key source * N + destination, so searchsorted finds
    # the position of every reversed arc
    src, dst = np.nonzero(g.adjacency)
    n = g.node_count
    reverse = np.searchsorted(src * n + dst, dst * n + src)
    step = np.zeros_like(coin)
    step[reverse] = coin  # row permutation: (T C)[rev(a), :] = C[a, :]
    return certify_unitary(step, tol), basis


def parse_graph(text: str) -> Graph:
    """Parse an edge list (node count, then `i j` pairs) or a dense 0/1 adjacency."""
    rows = [ln.split() for ln in text.splitlines()]
    rows = [r for r in rows if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError("empty graph file")
    if len(rows[0]) == 1:
        n = int(rows[0][0])
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        adj = np.zeros((n, n), dtype=bool)
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != 2:
                raise ValueError(f"line {lineno}: expected an `i j` edge, got {row}")
            i, j = int(row[0]), int(row[1])
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"line {lineno}: edge ({i}, {j}) outside 1..{n}")
            adj[i - 1, j - 1] = True
            adj[j - 1, i - 1] = True
        return Graph(adj)
    n = len(rows[0])
    if len(rows) != n:
        raise ValueError(f"dense adjacency needs {n} rows, found {len(rows)}")
    adj = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
        adj[i] = [bool(int(tok)) for tok in row]
    if not np.array_equal(adj, adj.T):
        raise AsymmetricAdjacencyError("dense adjacency matrix is not symmetric")
    return Graph(adj)


def format_graph_edges(g: Graph) -> str:
    lines = [str(g.node_count)]
    adj = g.adjacency
    for i in range(g.node_count):
        for j in range(i, g.node_count):
            if adj[i, j]:
                lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def random_graph(nodes: int, arcs: int, seed: int = 0) -> Graph:
    """Seeded random graph with exactly ``arcs`` directed arcs.

    A random cycle keeps every node connected; remaining edges are sampled
    without replacement, plus one self-loop when the arc count is odd.
    """
    if nodes < 3:
        raise ValueError("need at least 3 nodes")
    loops = arcs % 2
    edges = (arcs - loops) // 2
    if edges < nodes:
        raise ValueError(f"{arcs} arcs is too few for a connected {nodes}-node graph")
    max_edges = nodes * (nodes - 1) // 2
    if edges > max_edges:
        raise ValueError(f"{arcs} arcs exceeds the simple-graph capacity of {nodes} nodes")
    rng = np.random.default_rng(seed)
    adj = np.zeros((nodes, nodes), dtype=bool)
    cycle = rng.permutation(nodes)
    for a, b in zip(cycle, np.roll(cycle, -1)):
        adj[a, b] = adj[b, a] = True
    remaining = edges - nodes
    iu, ju = np.triu_indices(nodes, k=1)
    free = np.flatnonzero(~adj[iu, ju])
    picks = rng.choice(free, size=remaining, replace=False)
    adj[iu[picks], ju[picks]] = True
    adj[ju[picks], iu[picks]] = True
    if loops:
        adj[cycle[0], cycle[0]] = True
    return Graph(adj)
