import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

from csdcirc import gates
from csdcirc.decompose import compile_complex, recursive_csd
from csdcirc.errors import (
    BadQubitIndexError,
    CircuitTooLargeError,
    CsdcircError,
    LengthMismatchError,
    NonFiniteAngleError,
    OutOfRangeError,
    ShapeMismatchError,
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
    verify,
)
from csdcirc.matrices import certify_unitary


def test_uncontrolled_y_rotation_matrix():
    g = UniformRotation(Axis.Y, 1, (), [np.pi / 2])
    m = circuit_matrix(Circuit(1, (g,))).mat
    assert np.abs(m - np.array([[0, 1], [-1, 0]])).max() < 1e-15


def test_pi_gate_matrix():
    g = PiGate(2, (1,), [False, True])
    m = circuit_matrix(Circuit(2, (g,))).mat
    assert np.array_equal(m, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex))


def test_controlled_z_rotation_is_the_expected_diagonal():
    angles = np.array([0.3, -0.7, 1.1, 2.4])
    g = UniformRotation(Axis.Z, 3, (1, 2), angles)
    m = circuit_matrix(Circuit(3, (g,))).mat
    expect = np.diag(
        np.exp(1j * np.array([0.3, -0.3, -0.7, 0.7, 1.1, -1.1, 2.4, -2.4]))
    )
    assert np.abs(m - expect).max() < 1e-15


def test_y_rotation_matrix_is_real():
    g = UniformRotation(Axis.Y, 2, (1, 3), [0.1, 0.2, 0.3, 0.4])
    m = circuit_matrix(Circuit(3, (g,))).mat
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
        assert circuit_matrix(Circuit(n, (g,))).unitarity_residual < 1e-12


def test_pi_gate_matrix_is_real_sign_diagonal():
    g = PiGate(1, (2, 3), [True, False, True, True])
    m = circuit_matrix(Circuit(3, (g,))).mat
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
        direct = circuit_matrix(circ).mat @ psi
        assert np.abs(apply_to_state(circ, psi) - direct).max() < 1e-12


def _index_kernel(state: np.ndarray, g, n: int) -> np.ndarray:
    """Reference: the gather/scatter kernel over explicit row-index pairs."""
    state = state.astype(np.complex128)
    shift = n - g.target
    lo = np.arange(1 << (n - 1))
    j0 = ((lo >> shift) << (shift + 1)) | (lo & ((1 << shift) - 1))
    j1 = j0 | (1 << shift)
    k = np.zeros_like(j0)
    for c in g.controls:
        k = (k << 1) | ((j0 >> (n - c)) & 1)
    rows = (slice(None),) + (None,) * (state.ndim - 1)
    s0, s1 = state[j0], state[j1]
    if isinstance(g, PiGate):
        state[j1] = np.where(g.flags[k][rows], -s1, s1)
        return state
    a = g.angles[k][rows]
    if g.axis is Axis.Y:
        c, s = np.cos(a), np.sin(a)
        state[j0] = c * s0 + s * s1
        state[j1] = -s * s0 + c * s1
    else:
        e = np.exp(1j * a)
        state[j0] = e * s0
        state[j1] = np.conj(e) * s1
    return state


@pytest.mark.parametrize("n", range(1, 9))
def test_broadcast_kernel_matches_the_index_kernel(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(12):
        target = int(rng.integers(1, n + 1))
        others = [q for q in range(1, n + 1) if q != target]
        subset = [q for q in others if rng.random() < 0.6]
        controls = tuple(int(q) for q in rng.permutation(subset))
        size = 1 << len(controls)
        kind = int(rng.integers(0, 3))
        if kind == 2:
            g = PiGate(target, controls, rng.integers(0, 2, size).astype(bool))
        else:
            g = UniformRotation((Axis.Y, Axis.Z)[kind], target, controls, rng.uniform(-3, 3, size))
        real = kind != 1
        for shape in ((1 << n,), (1 << n, 3)):
            x = rng.normal(size=shape)
            for psi in (x, x + 1j * rng.normal(size=shape)):
                out = apply_to_state(Circuit(n, (g,)), psi)
                assert out.dtype == (np.float64 if real and psi.dtype == np.float64 else complex)
                # R_y and Pi do the same real arithmetic; a complex product may
                # round differently in numpy's vectorised and scalar loops
                tol = 0.0 if real else 2 * np.finfo(float).eps * np.abs(psi).max()
                assert np.abs(out - _index_kernel(psi, g, n)).max() <= tol
        m = circuit_matrix(Circuit(n, (g,))).mat
        assert m.dtype == (np.float64 if real else complex)
        assert np.array_equal(m, _index_kernel(np.eye(1 << n), g, n))


def test_real_circuits_evaluate_in_float64():
    ry = UniformRotation(Axis.Y, 2, (3, 1), [0.1, 0.2, 0.3, 0.4])
    pi = PiGate(1, (3,), [True, False])
    real = Circuit(3, (GlobalPhase(np.pi), ry, pi, GlobalPhase(-np.pi), GlobalPhase(0.0)))
    with_rz = Circuit(3, (ry, UniformRotation(Axis.Z, 1, (), [0.3])))
    with_phase = Circuit(3, (ry, GlobalPhase(0.5)))
    rebuilt = circuit_matrix(real)
    assert rebuilt.mat.dtype == np.float64 and rebuilt.is_real
    assert circuit_matrix(with_rz).mat.dtype == np.complex128
    assert circuit_matrix(with_phase).mat.dtype == np.complex128
    psi = np.arange(8)
    assert apply_to_state(real, psi).dtype == np.float64
    assert apply_to_state(real, psi.astype(complex)).dtype == np.complex128
    assert apply_to_state(with_rz, psi).dtype == np.complex128
    assert np.array_equal(apply_to_state(Circuit(3, (GlobalPhase(np.pi),)), psi), -psi)


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


@pytest.mark.parametrize("psi", [1.0, np.float64(1.0), np.ones((2, 1, 1))], ids=["scalar", "0-d", "3-d"])
def test_apply_rejects_a_state_that_is_not_a_vector_or_stack(psi):
    with pytest.raises(LengthMismatchError):
        apply_to_state(Circuit(1, ()), psi)


def test_a_qubit_count_too_large_to_build_is_a_mismatch():
    huge = Circuit(10**30, ())
    with pytest.raises(LengthMismatchError):
        apply_to_state(huge, np.ones(2))
    with pytest.raises(ShapeMismatchError):
        verify(huge, certify_unitary(np.eye(2)))


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


def test_verify_sampled_path_above_the_dense_cap(monkeypatch):
    identity = certify_unitary(np.eye(1 << 11))
    tracemalloc.start()
    try:
        assert verify(Circuit(11, ()), identity) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sampled path reads its 64 columns, it does not copy the operator
    assert peak < identity.mat.nbytes
    one_gate = Circuit(11, (UniformRotation(Axis.Y, 1, (), [0.5]),))
    with pytest.raises(VerifyFailedError):
        verify(one_gate, identity)
    monkeypatch.setattr(gates, "apply_to_state", lambda c, batch: np.full(batch.shape, np.nan))
    with pytest.raises(VerifyFailedError):  # a NaN residual fails too
        verify(Circuit(11, ()), identity)


def _identity_but_last_columns(swap: bool) -> np.ndarray:
    m = np.eye(1 << 11, dtype=np.complex128)
    if swap:
        m[:, [-2, -1]] = m[:, [-1, -2]]
    else:
        m[:, -1] *= np.exp(0.3j)
    return m


@pytest.mark.parametrize("swap", [True, False], ids=["swapped", "phased"])
def test_verify_above_the_dense_cap_reads_every_column(swap):
    # 64 basis columns picked with seed 0 miss columns 2046 and 2047; every probe reads them
    op = certify_unitary(_identity_but_last_columns(swap))
    with pytest.raises(VerifyFailedError) as err:
        verify(Circuit(11, ()), op)
    assert err.value.residual > 1e-3


def test_verify_dense_path_does_not_certify_the_rebuild(monkeypatch):
    op = certify_unitary(unitary_group.rvs(8, random_state=21))
    circ = compile_complex(recursive_csd(op))

    def refuse(*args, **kwargs):
        raise AssertionError("the rebuild was certified")

    monkeypatch.setattr(gates, "certify_unitary", refuse)
    assert verify(circ, op) <= 1e-9


@pytest.mark.parametrize("n", [2, 11], ids=["dense", "sampled"])
@pytest.mark.parametrize("samples", [0, -3])
def test_verify_needs_a_sample(n, samples):
    identity = certify_unitary(np.eye(1 << n))
    with pytest.raises(OutOfRangeError):
        verify(Circuit(n, ()), identity, samples=samples)


@pytest.mark.parametrize(
    "bad",
    [
        UniformRotation(Axis.Y, 1, (2,), [0.1, np.nan]),
        UniformRotation(Axis.Y, 2, (), [np.inf]),
        UniformRotation(Axis.Z, 1, (), [-np.inf]),
        GlobalPhase(np.inf),
        GlobalPhase(np.nan),
    ],
    ids=["ry-nan", "ry-inf", "rz-minus-inf", "phase-inf", "phase-nan"],
)
def test_library_circuit_rejects_non_finite_angles(bad):
    good = UniformRotation(Axis.Y, 1, (), [0.1])
    with pytest.raises(NonFiniteAngleError) as err:
        Circuit(2, (good, GlobalPhase(0.0), bad, good))
    assert err.value.index == 2
    assert isinstance(err.value, CsdcircError)


def test_gate_validation():
    with pytest.raises(BadQubitIndexError):
        UniformRotation(Axis.Y, 1, (1,), [0.0, 0.0])
    with pytest.raises(LengthMismatchError):
        UniformRotation(Axis.Y, 1, (2,), [0.1])
    with pytest.raises(BadQubitIndexError):
        Circuit(2, (UniformRotation(Axis.Y, 3, (), [0.1]),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: UniformRotation(Axis.Y, 1.5, (), [0.1]),
        lambda: UniformRotation(Axis.Y, 2, (1.7,), [0.1, 0.2]),
        lambda: PiGate(True, (), [True]),
        lambda: Circuit(2.5, ()),
        lambda: Circuit(-1, ()),
    ],
    ids=["float-target", "float-control", "bool-target", "float-count", "negative-count"],
)
def test_qubit_indices_and_counts_must_be_integers(build):
    with pytest.raises(BadQubitIndexError):
        build()


def test_numpy_integer_qubits_are_stored_as_ints():
    g = PiGate(np.int64(2), (np.int32(1),), [False, True])
    circ = Circuit(np.int64(2), (g,))
    assert type(g.target) is int and type(g.controls[0]) is int and type(circ.n_qubits) is int


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


# --- fused runs ---------------------------------------------------------------

EPS = np.finfo(float).eps


def _field(circ: Circuit, psi) -> np.ndarray:
    """A C-ordered copy of psi in the dtype apply_to_state evaluates in."""
    real = gates._is_real(circ.gates) and not np.iscomplexobj(psi)
    return np.array(psi, dtype=np.float64 if real else np.complex128, order="C")


def _gate_by_gate(circ: Circuit, psi) -> np.ndarray:
    v = _field(circ, psi)
    for g in circ.gates:
        gates._apply_gate(v, g, circ.n_qubits)
    return v


def _every_run_fused(circ: Circuit, psi) -> np.ndarray:
    """apply_to_state with every run fused, whatever its length or the state's width."""
    runs = [run for run in gates._runs(circ.gates) if run]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gates, "_MIN_RUN", 1)
        return gates._apply_runs(_field(circ, psi), runs, circ.n_qubits)


def _gate_bound(circ: Circuit, psi) -> float:
    """8 eps times the largest column norm, per gate: each column evolves on its own."""
    norm = np.linalg.norm(np.reshape(psi, (circ.dim, -1)), axis=0).max(initial=0.0)
    return 8 * EPS * norm * len(circ.gates)


def test_runs_split_greedily_and_a_global_phase_never_ends_one():
    def ry(target):
        return UniformRotation(Axis.Y, target, (), [0.1])

    circ = Circuit(5, (ry(1), ry(2), GlobalPhase(0.5), ry(3), ry(4), ry(1), ry(5), ry(2)))
    runs = list(gates._runs(circ.gates))
    assert [[getattr(g, "target", 0) for g in run] for run in runs] == [
        [0],
        [1, 2, 3, 4, 1],
        [5, 2],
    ]


def test_fused_runs_match_the_gate_kernel():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 9), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # a small pool of targets anywhere in the register makes long runs on
        # scattered, non-trailing qubits
        pool = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6, unique=True))
        kinds = data.draw(st.lists(st.sampled_from("yzpg"), max_size=14), label="kinds")
        circuit_gates, real_circuit = [], "z" not in kinds
        for kind in kinds:
            if kind == "g":
                phase = data.draw(st.sampled_from([0.0, np.pi, -np.pi, 0.7]))
                circuit_gates.append(GlobalPhase(phase))
                real_circuit &= phase != 0.7
                continue
            target = int(rng.choice(pool))
            others = [q for q in range(1, n + 1) if q != target]
            controls = tuple(int(q) for q in rng.permutation(others)[: rng.integers(0, n)])
            size = 1 << len(controls)
            if kind == "p":
                circuit_gates.append(PiGate(target, controls, rng.integers(0, 2, size) > 0))
            else:
                angles = rng.uniform(-3, 3, size)
                axis = Axis.Y if kind == "y" else Axis.Z
                circuit_gates.append(UniformRotation(axis, target, controls, angles))
        circ = Circuit(n, tuple(circuit_gates))
        shape = data.draw(st.sampled_from([(1 << n,), (1 << n, 3), (1 << n, 64)]), label="shape")
        psi = rng.normal(size=shape)
        if data.draw(st.booleans(), label="complex input"):
            psi = psi + 1j * rng.normal(size=shape)

        expect = _gate_by_gate(circ, psi)
        real = real_circuit and not np.iscomplexobj(psi)
        assert expect.dtype == (np.float64 if real else np.complex128)
        bound = _gate_bound(circ, psi)
        for out in (_every_run_fused(circ, psi), apply_to_state(circ, psi)):
            assert out.dtype == expect.dtype and out.shape == psi.shape
            assert np.abs(out - expect).max() <= bound
        if n <= gates._BLOCK_QUBITS or psi.size >> n < gates._MIN_FUSE_COLUMNS:
            assert np.array_equal(apply_to_state(circ, psi), expect)

    check()


def _ruler_circuit(n: int, is_complex: bool, seed: int) -> Circuit:
    """benchmarks/bench_eval.py's circuit with the gate layout of a compiled one."""
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_eval.py"
    spec = importlib.util.spec_from_file_location("bench_eval", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ruler_circuit(n, is_complex, seed)


@pytest.mark.parametrize("n", range(5, 10))
@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_fused_ruler_circuits_match_the_gate_kernel(n, is_complex):
    # many runs per shape, runs on non-trailing targets, and R_z runs with
    # complex blocks: what compiled circuits hold and drawn ones rarely do
    circ = _ruler_circuit(n, is_complex, seed=n)
    rng = np.random.default_rng(n)
    for shape in [(1 << n,), (1 << n, 64), (1 << n, 128)]:
        psi = rng.normal(size=shape)
        for state in (psi, psi + 1j * rng.normal(size=shape)):
            out = apply_to_state(circ, state)
            expect = _gate_by_gate(circ, state)
            assert out.dtype == expect.dtype and out.shape == state.shape
            assert np.abs(out - expect).max() <= _gate_bound(circ, state)
    eye = np.eye(circ.dim)
    rebuilt = circuit_matrix(circ).mat
    assert rebuilt.dtype == (np.complex128 if is_complex else np.float64)
    assert np.abs(rebuilt - _gate_by_gate(circ, eye)).max() <= _gate_bound(circ, eye)


def test_fused_walk_circuit_matches_the_gate_kernel():
    from csdcirc.decompose import compile_real
    from csdcirc.matrices import pad_to_power_of_two
    from csdcirc.qwalk import random_graph, walk_unitary

    op, _ = walk_unitary(random_graph(28, 251, seed=0))
    w, n = pad_to_power_of_two(op)
    circ = compile_real(recursive_csd(w))
    assert n == 8
    eye = np.eye(w.dim)
    rebuilt = circuit_matrix(circ).mat
    assert rebuilt.dtype == np.float64
    expect = _gate_by_gate(circ, eye)
    assert np.abs(rebuilt - expect).max() <= _gate_bound(circ, eye)
    residual = verify(circ, w)
    assert residual <= 2 * np.abs(expect - w.mat).max()
