import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc import decompose
from csdcirc.csd import split_stack
from csdcirc.decompose import (
    DecompositionSequence,
    compile_complex,
    compile_real,
    factor_phase_diagonal,
    factor_sign_diagonal,
    recursive_csd,
)
from csdcirc.errors import NotRealDecompositionError
from csdcirc.gates import Axis, GlobalPhase, PiGate, UniformRotation, circuit_matrix
from csdcirc.matrices import Tolerances, certify_unitary, pad_to_power_of_two
from csdcirc.qwalk import random_graph, walk_unitary
from paper_data import PAPER_MATRIX_TOL, REAL_8x8


def assemble_rotation_factor(level: int, theta: np.ndarray, n: int) -> np.ndarray:
    """Oracle: build the block-diagonal rotation factor directly.

    2**(level-1) diagonal blocks, each [[C, S], [-S, C]] with C, S diagonal
    of size 2**(n-level), consuming theta in block order.
    """
    dim = 1 << n
    half = 1 << (n - level)
    a = np.zeros((dim, dim))
    for blk in range(1 << (level - 1)):
        base = blk * 2 * half
        for l in range(half):
            t = theta[blk * half + l]
            a[base + l, base + l] = np.cos(t)
            a[base + l, base + half + l] = np.sin(t)
            a[base + half + l, base + l] = -np.sin(t)
            a[base + half + l, base + half + l] = np.cos(t)
    return a


def reassemble_sequence(seq: DecompositionSequence) -> np.ndarray:
    """Oracle: multiply out prod_p diag(U_p) A_p times the final diagonal."""
    dim = 1 << seq.n
    out = np.eye(dim, dtype=complex)
    for f in seq.factors:
        out = out @ np.diag(np.exp(1j * f.diag_phases))
        out = out @ assemble_rotation_factor(f.level, f.theta, seq.n)
    return out @ np.diag(np.exp(1j * seq.leaf_phases))


def diag_of_rz_gate(g: UniformRotation, n: int) -> np.ndarray:
    """Oracle: diagonal of a Z uniform rotation computed by bit arithmetic."""
    dim = 1 << n
    d = np.ones(dim, dtype=complex)
    for row in range(dim):
        pattern = 0
        for c in g.controls:
            pattern = (pattern << 1) | ((row >> (n - c)) & 1)
        angle = g.angles[pattern]
        bit = (row >> (n - g.target)) & 1
        d[row] = np.exp(1j * (-angle if bit else angle))
    return d


def diag_of_pi_gate(g: PiGate, n: int) -> np.ndarray:
    dim = 1 << n
    d = np.ones(dim)
    for row in range(dim):
        pattern = 0
        for c in g.controls:
            pattern = (pattern << 1) | ((row >> (n - c)) & 1)
        if g.flags[pattern] and (row >> (n - g.target)) & 1:
            d[row] = -1.0
    return d


def level_of_position(p: int, n: int) -> int:
    """Oracle: the ruler sequence, n minus the number of times 2 divides p."""
    level = n
    while p % 2 == 0:
        p //= 2
        level -= 1
    return level


def test_level_of_position_paper_values():
    assert level_of_position(4, 3) == 1
    assert level_of_position(1, 3) == 3
    assert level_of_position(6, 4) == 3


def test_level_of_position_ruler_pattern():
    assert [level_of_position(p, 3) for p in range(1, 8)] == [3, 2, 3, 1, 3, 2, 3]
    for n in range(1, 7):
        seq = recursive_csd(certify_unitary(np.eye(1 << n)))
        assert [f.level for f in seq.factors] == [level_of_position(p, n) for p in range(1, 1 << n)]


def test_recursive_csd_identity():
    seq = recursive_csd(certify_unitary(np.eye(8)))
    assert seq.n == 3
    assert len(seq.factors) == 7
    for f in seq.factors:
        assert np.allclose(f.theta, 0.0)
        assert np.allclose(f.diag_phases, 0.0)
    assert np.allclose(seq.leaf_phases, 0.0)


def test_recursive_csd_single_qubit_rotation():
    t = 0.7
    u = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    seq = recursive_csd(certify_unitary(u))
    assert len(seq.factors) == 1
    assert seq.factors[0].theta[0] == pytest.approx(t, abs=1e-15)
    assert np.allclose(seq.factors[0].diag_phases, 0.0)
    assert np.allclose(seq.leaf_phases, 0.0)


def test_recursive_csd_levels_follow_ruler():
    u = unitary_group.rvs(16, random_state=0)
    seq = recursive_csd(certify_unitary(u))
    for p, f in enumerate(seq.factors, start=1):
        assert f.level == level_of_position(p, 4)


def depth_first_csd(u_op):
    """Oracle: the depth-first recursion, one split_stack call per tree node.

    Returns ([(level, theta, diagonal), ...] in position order, trailing).
    """

    def recurse(blocks, level):
        if blocks.shape[1] == 1:
            return [], blocks[:, 0, 0].copy()
        lefts, theta, rights = split_stack(blocks, Tolerances())
        left_items, left_trailing = recurse(lefts, level + 1)
        right_items, right_trailing = recurse(rights, level + 1)
        return [*left_items, (level, theta, left_trailing), *right_items], right_trailing

    work = u_op.as_real() if u_op.is_real else u_op.as_complex()
    return recurse(work[None], 1)


def phases(diag):
    return np.angle(diag) if np.iscomplexobj(diag) else np.where(diag > 0, 0.0, np.pi)


def random_op(group, n):
    if n == 0:
        phase = -1.0 if group is ortho_group else np.exp(0.3j)
        return certify_unitary(np.array([[phase]]))
    return certify_unitary(group.rvs(1 << n, random_state=n))


ORACLE_INPUTS = {
    **{
        f"{name}-n{n}": lambda group=group, n=n: random_op(group, n)
        for n in range(7)
        for name, group in (("complex", unitary_group), ("real", ortho_group))
    },
    # 31 arcs padded to 32: degenerate theta clusters and an identity block
    "walk": lambda: pad_to_power_of_two(walk_unitary(random_graph(9, 31, seed=2))[0])[0],
    "padded-dim-11": lambda: pad_to_power_of_two(
        certify_unitary(unitary_group.rvs(11, random_state=3))
    )[0],
}


@pytest.mark.parametrize("make", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
def test_level_synchronous_recursion_equals_depth_first(make):
    op = make()
    items, trailing = depth_first_csd(op)
    seq = recursive_csd(op)
    assert [f.level for f in seq.factors] == [level for level, _, _ in items]
    for f, (_, theta, diag) in zip(seq.factors, items):
        assert np.array_equal(f.theta, theta)
        assert np.array_equal(f.diag_phases, phases(diag))
    assert np.array_equal(seq.leaf_phases, phases(trailing))


def test_one_split_stack_call_per_level(monkeypatch):
    n = 5
    shapes = []

    def spy(blocks, tol):
        shapes.append(blocks.shape)
        return split_stack(blocks, tol)

    monkeypatch.setattr(decompose, "split_stack", spy)
    recursive_csd(certify_unitary(unitary_group.rvs(1 << n, random_state=8)))
    assert shapes == [(4 ** (l - 1), 2 ** (n - l + 1), 2 ** (n - l + 1)) for l in range(1, n + 1)]


@pytest.mark.parametrize("n,seed", [(1, 1), (2, 2), (3, 3), (4, 4)])
def test_sequence_reassembles_complex(n, seed):
    u = unitary_group.rvs(1 << n, random_state=seed)
    seq = recursive_csd(certify_unitary(u))
    assert np.abs(reassemble_sequence(seq) - u).max() < 1e-10


@pytest.mark.parametrize("n,seed", [(2, 5), (3, 6), (4, 7)])
def test_sequence_reassembles_real(n, seed):
    o = ortho_group.rvs(1 << n, random_state=seed)
    seq = recursive_csd(certify_unitary(o))
    assert seq.is_real
    assert np.abs(reassemble_sequence(seq) - o).max() < 1e-10
    for f in seq.factors:
        assert set(np.round(np.cos(f.diag_phases)).astype(int)) <= {-1, 1}


def test_compile_complex_identity_is_all_zero():
    circ = compile_complex(recursive_csd(certify_unitary(np.eye(8))))
    for g in circ.gates:
        if isinstance(g, UniformRotation):
            assert np.allclose(g.angles, 0.0)
        elif isinstance(g, GlobalPhase):
            assert g.phase == 0.0


def test_compile_complex_gate_layout():
    u = unitary_group.rvs(8, random_state=8)
    circ = compile_complex(recursive_csd(certify_unitary(u)))
    # cascade: global phase + one R_z per target, then (A_p, B_p) pairs for
    # p = 7..1, i.e. targets 3,2,3,1,3,2,3 (the ruler pattern reversed)
    assert isinstance(circ.gates[0], GlobalPhase)
    cascade = circ.gates[1:4]
    assert [g.target for g in cascade] == [1, 2, 3]
    assert all(g.axis is Axis.Z for g in cascade)
    pairs = circ.gates[4:]
    assert len(pairs) == 14
    targets = [g.target for g in pairs[0::2]]
    assert targets == [3, 2, 3, 1, 3, 2, 3]
    for a_gate, b_gate in zip(pairs[0::2], pairs[1::2]):
        assert a_gate.axis is Axis.Y and b_gate.axis is Axis.Z
        assert a_gate.target == b_gate.target
        assert a_gate.controls == b_gate.controls


def test_compile_complex_round_trip():
    u = unitary_group.rvs(8, random_state=9)
    circ = compile_complex(recursive_csd(certify_unitary(u)))
    assert np.abs(circuit_matrix(circ).mat - u).max() < 1e-9


def test_compile_real_round_trip_and_structure():
    o = ortho_group.rvs(8, random_state=10)
    circ = compile_real(recursive_csd(certify_unitary(o)))
    rotations = [g for g in circ.gates if isinstance(g, UniformRotation)]
    assert all(g.axis is Axis.Y for g in rotations)
    assert sum(g.angles.size for g in rotations) == 28
    assert len([g for g in circ.gates if isinstance(g, PiGate)]) == 3
    assert np.abs(circuit_matrix(circ).mat - o).max() < 1e-9


def test_compile_real_has_no_rz_and_at_most_a_sign_phase():
    for seed in range(8):
        o = ortho_group.rvs(8, random_state=100 + seed)
        circ = compile_real(recursive_csd(certify_unitary(o)))
        phases = [g for g in circ.gates if isinstance(g, GlobalPhase)]
        assert not any(isinstance(g, UniformRotation) and g.axis is Axis.Z for g in circ.gates)
        assert all(g.phase == np.pi for g in phases) and len(phases) <= 1


def test_real_pipeline_count_stays_under_half_of_complex():
    # max real subgates (rotations + Pi flags) vs the complex pipeline's
    # fixed count, which adds the R_z mirror and the diagonal cascade
    for n in range(1, 8):
        half = 1 << (n - 1)
        dim = 1 << n
        real_max = half * (dim - 1) + (dim - 1)
        complex_total = dim + 2 * half * (dim - 1)
        assert real_max <= complex_total // 2 + dim


def test_real_matrix_through_complex_pipeline():
    o = ortho_group.rvs(8, random_state=11)
    circ = compile_complex(recursive_csd(certify_unitary(o)))
    assert np.abs(circuit_matrix(circ).mat - o).max() < 1e-9


def test_compile_real_rejects_complex_decomposition():
    u = unitary_group.rvs(4, random_state=12)
    seq = recursive_csd(certify_unitary(u))
    with pytest.raises(NotRealDecompositionError):
        compile_real(seq)


def test_dim_one_inputs():
    seq = recursive_csd(certify_unitary(np.array([[1.0]])))
    assert compile_real(seq).gates == ()
    seq = recursive_csd(certify_unitary(np.array([[-1.0]])))
    (gate,) = compile_real(seq).gates
    assert isinstance(gate, GlobalPhase) and gate.phase == np.pi
    phi = 0.83
    seq = recursive_csd(certify_unitary(np.array([[np.exp(1j * phi)]])))
    (gate,) = compile_complex(seq).gates
    assert gate.phase == pytest.approx(phi, abs=1e-15)


def test_published_real_matrix_compiles_to_33_subgates():
    tol = Tolerances(unitary=PAPER_MATRIX_TOL, reconstruct=5e-3)
    op = certify_unitary(REAL_8x8, tol)
    circ = compile_real(recursive_csd(op, tol), tol)
    from csdcirc.gates import count_subgates

    counts = count_subgates(circ)
    assert counts["ry"] == 28
    assert counts["rz"] == 0
    assert counts["pi"] == 5
    assert counts["phase"] == 0
    assert counts["total"] == 33


# --- diagonal factorizations -------------------------------------------------


def test_sign_diagonal_trivial():
    g, gates = factor_sign_diagonal(np.ones(8))
    assert g == 1
    assert all(not gate.flags.any() for gate in gates)


def test_sign_diagonal_exhaustive_small():
    # every +-1 diagonal at n = 2 and n = 3 round-trips through the factorization
    for n in (2, 3):
        dim = 1 << n
        for bits in range(1 << dim):
            signs = np.array([1.0 if (bits >> i) & 1 == 0 else -1.0 for i in range(dim)])
            g, gates = factor_sign_diagonal(signs)
            rebuilt = np.full(dim, float(g))
            for gate in gates:
                rebuilt = rebuilt * diag_of_pi_gate(gate, n)
            assert np.array_equal(rebuilt, signs)


def test_sign_diagonal_flag_bijection():
    # flags -> diagonal -> flags is the identity (d[0] = +1 patterns)
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        for _ in range(50):
            flags_by_target = [rng.integers(0, 2, 1 << (m - 1)).astype(bool) for m in range(1, n + 1)]
            d = np.ones(1 << n)
            for m, flags in enumerate(flags_by_target, start=1):
                gate = PiGate(m, tuple(range(1, m)), flags)
                d = d * diag_of_pi_gate(gate, n)
            g, gates = factor_sign_diagonal(d)
            assert g == 1
            for want, gate in zip(flags_by_target, gates):
                assert np.array_equal(gate.flags, want)


def test_sign_diagonal_random_oracle():
    rng = np.random.default_rng(14)
    for n in range(4, 9):
        for _ in range(40):
            signs = rng.choice([-1.0, 1.0], size=1 << n)
            g, gates = factor_sign_diagonal(signs)
            rebuilt = np.full(1 << n, float(g))
            for gate in gates:
                rebuilt = rebuilt * diag_of_pi_gate(gate, n)
            assert np.array_equal(rebuilt, signs)


def test_sign_diagonal_rejects_bad_values():
    with pytest.raises(ValueError):
        factor_sign_diagonal(np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        factor_sign_diagonal(np.ones(6))


def test_phase_diagonal_constant():
    phi = 1.234
    g, gates = factor_phase_diagonal(np.full(8, phi))
    assert g == pytest.approx(phi, abs=1e-15)
    for gate in gates:
        assert np.allclose(gate.angles, 0.0)


def test_phase_diagonal_single_qubit():
    t = 0.4
    g, gates = factor_phase_diagonal(np.array([t, -t]))
    assert g == pytest.approx(0.0, abs=1e-16)
    assert len(gates) == 1
    assert gates[0].angles[0] == pytest.approx(t, abs=1e-16)


def test_phase_diagonal_random_oracle():
    rng = np.random.default_rng(15)
    for n in range(1, 7):
        for _ in range(30):
            phases = rng.uniform(-np.pi, np.pi, 1 << n)
            g, gates = factor_phase_diagonal(phases)
            rebuilt = np.full(1 << n, np.exp(1j * g))
            for gate in gates:
                rebuilt = rebuilt * diag_of_rz_gate(gate, n)
            assert np.abs(rebuilt - np.exp(1j * phases)).max() < 1e-12
