import numpy as np
import pytest
from scipy.stats import unitary_group

from csdcirc.decompose import compile_complex, recursive_csd
from csdcirc.errors import (
    BadQubitIndexError,
    CircuitTooLargeError,
    LengthMismatchError,
    VerifyFailedError,
)
from csdcirc.gates import (
    Axis,
    Circuit,
    GlobalPhase,
    PiGate,
    UniformRotation,
    apply_to_state,
    circuit_matrix,
    count_subgates,
    gate_matrix,
    verify,
)
from csdcirc.matrices import certify_unitary


def test_uncontrolled_y_rotation_matrix():
    g = UniformRotation(Axis.Y, 1, (), [np.pi / 2])
    m = gate_matrix(g, 1).mat
    assert np.abs(m - np.array([[0, 1], [-1, 0]])).max() < 1e-15


def test_pi_gate_matrix():
    g = PiGate(2, (1,), [False, True])
    m = gate_matrix(g, 2).mat
    assert np.array_equal(m, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))


def test_controlled_z_rotation_is_the_expected_diagonal():
    angles = np.array([0.3, -0.7, 1.1, 2.4])
    g = UniformRotation(Axis.Z, 3, (1, 2), angles)
    m = gate_matrix(g, 3).mat
    expect = np.diag(
        np.exp(1j * np.array([0.3, -0.3, -0.7, 0.7, 1.1, -1.1, 2.4, -2.4]))
    )
    assert np.abs(m - expect).max() < 1e-15


def test_y_rotation_matrix_is_real():
    g = UniformRotation(Axis.Y, 2, (1, 3), [0.1, 0.2, 0.3, 0.4])
    m = gate_matrix(g, 3).mat
    assert np.abs(m.imag).max() == 0.0


def test_gate_matrix_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        target = int(rng.integers(1, n + 1))
        controls = tuple(q for q in range(1, n + 1) if q != target and rng.random() < 0.6)
        g = UniformRotation(
            Axis.Y if rng.random() < 0.5 else Axis.Z,
            target,
            controls,
            rng.uniform(-np.pi, np.pi, 1 << len(controls)),
        )
        assert gate_matrix(g, n).unitarity_residual < 1e-12


def test_pi_gate_matrix_is_real_sign_diagonal():
    g = PiGate(1, (2, 3), [True, False, True, True])
    m = gate_matrix(g, 3).mat
    assert np.abs(m.imag).max() == 0.0
    d = np.diag(m).real
    assert np.array_equal(np.abs(d), np.ones(8))
    assert np.array_equal(m, np.diag(d).astype(complex))


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        target = int(rng.integers(1, n + 1))
        controls = tuple(q for q in range(1, n + 1) if q != target and rng.random() < 0.5)
        kind = rng.integers(0, 3)
        if kind == 0:
            g = UniformRotation(Axis.Y, target, controls, rng.uniform(-3, 3, 1 << len(controls)))
        elif kind == 1:
            g = UniformRotation(Axis.Z, target, controls, rng.uniform(-3, 3, 1 << len(controls)))
        else:
            g = PiGate(target, controls, rng.integers(0, 2, 1 << len(controls)).astype(bool))
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        circ = Circuit(n, (g,))
        direct = gate_matrix(g, n).mat @ psi
        assert np.abs(apply_to_state(circ, psi) - direct).max() < 1e-12


def test_empty_circuit():
    circ = Circuit(3, ())
    assert np.array_equal(circuit_matrix(circ).mat, np.eye(8, dtype=complex))
    psi = np.arange(8, dtype=complex)
    assert np.array_equal(apply_to_state(circ, psi), psi)


def test_global_phase_application():
    circ = Circuit(2, (GlobalPhase(np.pi),))
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0
    out = apply_to_state(circ, psi)
    assert np.abs(out + psi).max() < 1e-15


def test_apply_rejects_wrong_length():
    with pytest.raises(LengthMismatchError):
        apply_to_state(Circuit(2, ()), np.ones(3))


def test_dense_cap():
    with pytest.raises(CircuitTooLargeError):
        circuit_matrix(Circuit(11, ()))


def test_verify_dense_path_passes_and_catches_a_perturbation():
    op = certify_unitary(unitary_group.rvs(8, random_state=21))
    circ = compile_complex(recursive_csd(op))
    assert verify(circ, op) <= 1e-9
    gates = list(circ.gates)
    k = next(i for i, g in enumerate(gates) if isinstance(g, UniformRotation))
    g = gates[k]
    gates[k] = UniformRotation(g.axis, g.target, g.controls, g.angles + 1e-3)
    with pytest.raises(VerifyFailedError):
        verify(Circuit(3, tuple(gates)), op)


def test_verify_sampled_path_above_the_dense_cap():
    identity = certify_unitary(np.eye(1 << 11))
    assert verify(Circuit(11, ()), identity) == 0.0
    for angle in (0.5, np.nan):
        one_gate = Circuit(11, (UniformRotation(Axis.Y, 1, (), [angle]),))
        with pytest.raises(VerifyFailedError):
            verify(one_gate, identity)


def test_gate_validation():
    with pytest.raises(BadQubitIndexError):
        UniformRotation(Axis.Y, 1, (1,), [0.0, 0.0])
    with pytest.raises(LengthMismatchError):
        UniformRotation(Axis.Y, 1, (2,), [0.1])
    with pytest.raises(BadQubitIndexError):
        Circuit(2, (UniformRotation(Axis.Y, 3, (), [0.1]),))


def test_count_subgates():
    circ = Circuit(
        3,
        (
            GlobalPhase(0.0),
            UniformRotation(Axis.Y, 1, (2, 3), [0.5, 0.0, 1e-12, -0.3]),
            UniformRotation(Axis.Z, 2, (), [0.25]),
            PiGate(3, (1, 2), [True, False, True, False]),
        ),
    )
    counts = count_subgates(circ)
    assert counts == {"ry": 2, "rz": 1, "pi": 2, "phase": 0, "total": 5}


def test_complex_count_law():
    from csdcirc.decompose import compile_complex, recursive_csd
    from csdcirc.matrices import certify_unitary

    for n, seed in ((3, 20), (4, 21)):
        u = unitary_group.rvs(1 << n, random_state=seed)
        counts = count_subgates(compile_complex(recursive_csd(certify_unitary(u))))
        assert counts["total"] == (1 << n) + 2 * (1 << (n - 1)) * ((1 << n) - 1)


def test_square_walk_maps_first_basis_state():
    from csdcirc.decompose import compile_real, recursive_csd
    from csdcirc.qwalk import parse_graph, walk_unitary
    from paper_data import SQUARE_GRAPH_TEXT

    op, _ = walk_unitary(parse_graph(SQUARE_GRAPH_TEXT))
    circ = compile_real(recursive_csd(op))
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    out = apply_to_state(circ, e0)
    expect = np.zeros(8, dtype=complex)
    expect[6] = 1.0  # arc (1,2) steps to arc (4,1)
    assert np.abs(out - expect).max() < 1e-12
