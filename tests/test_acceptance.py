"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The slowest items are the
round-trip property sweep (criterion 1) and the 12-qubit walk compilation
(criterion 6); they carry the `slow` marker, so `pytest -m "not slow"` skips
them.
"""

import time

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc.decompose import (
    compile_complex,
    compile_real,
    factor_phase_diagonal,
    factor_sign_diagonal,
    recursive_csd,
)
from csdcirc.emitters import emit_text
from csdcirc.gates import PiGate, UniformRotation, circuit_matrix, count_subgates, verify
from csdcirc.matrices import Tolerances, certify_unitary, pad_to_power_of_two
from csdcirc.qwalk import parse_graph, random_graph, walk_unitary
from paper_data import (
    COMPLEX_8x8,
    PAPER_MATRIX_TOL,
    REAL_8x8,
    REAL_8x8_RECORDS,
    SQUARE_GRAPH_TEXT,
    SQUARE_RECORDS,
    SQUARE_WALK,
    STAR_GRAPH_TEXT,
    star_walk_matrix,
)
from test_emitters import expected_text


def report(criterion: int, message: str):
    print(f"\nACCEPTANCE {criterion} PASS — {message}")


@pytest.mark.slow
def test_criterion_1_round_trip_reconstruction():
    """200 random unitaries and 200 random orthogonals per n = 1..6, <= 1e-9."""
    t0 = time.time()
    worst_complex = worst_real = 0.0
    for n in range(1, 7):
        dim = 1 << n
        for k in range(200):
            u = unitary_group.rvs(dim, random_state=10_000 * n + k)
            circ = compile_complex(recursive_csd(certify_unitary(u)))
            worst_complex = max(worst_complex, np.abs(circuit_matrix(circ).mat - u).max())
            o = ortho_group.rvs(dim, random_state=20_000 * n + k)
            circ = compile_real(recursive_csd(certify_unitary(o)))
            worst_real = max(worst_real, np.abs(circuit_matrix(circ).mat - o).max())
    elapsed = time.time() - t0
    assert worst_complex <= 1e-9
    assert worst_real <= 1e-9
    report(
        1,
        f"2400 round trips: worst complex {worst_complex:.2e}, "
        f"worst real {worst_real:.2e} ({elapsed:.0f}s)",
    )


def _structural(counts: dict) -> int:
    # The published counting convention: rotation and Pi subgates plus, in
    # the general pipeline, the diagonal-cascade parameters; the real
    # pipeline's +-1 global sign record is bookkeeping, not a gate.
    return counts["ry"] + counts["rz"] + counts["pi"]


def test_criterion_2_gate_count_laws():
    # generic complex 8x8 -> 64 and 16x16 -> 256, including the global phase
    for n, want in ((3, 64), (4, 256)):
        u = unitary_group.rvs(1 << n, random_state=n)
        counts = count_subgates(compile_complex(recursive_csd(certify_unitary(u))))
        assert counts["total"] == want
        assert counts["ry"] == (1 << (n - 1)) * ((1 << n) - 1)
        assert counts["rz"] - counts["ry"] == (1 << n) - 1  # the diagonal cascade
    # generic real 8x8: exactly 28 R_y, instance-dependent Pi flags
    totals = []
    for seed in range(5):
        o = ortho_group.rvs(8, random_state=seed)
        counts = count_subgates(compile_real(recursive_csd(certify_unitary(o))))
        assert counts["ry"] == 28
        assert counts["rz"] == 0
        assert counts["pi"] <= 7
        assert 28 <= _structural(counts) <= 35
        totals.append(_structural(counts))
    # generic real 16x16: exactly 120 R_y, at most 15 Pi flags
    o = ortho_group.rvs(16, random_state=42)
    counts16 = count_subgates(compile_real(recursive_csd(certify_unitary(o))))
    assert counts16["ry"] == 120
    assert counts16["pi"] <= 15
    # the published instances
    tol = Tolerances(unitary=PAPER_MATRIX_TOL, reconstruct=5e-3)
    counts_c = count_subgates(
        compile_complex(recursive_csd(certify_unitary(COMPLEX_8x8, tol), tol))
    )
    assert counts_c["total"] == 64
    counts_r = count_subgates(
        compile_real(recursive_csd(certify_unitary(REAL_8x8, tol), tol), tol)
    )
    assert _structural(counts_r) == 33 and counts_r["phase"] == 0
    report(
        2,
        f"complex 64/256 exact; real 8x8 totals {totals}; real 16x16 "
        f"ry=120 pi={counts16['pi']}; published instances 64 and 33",
    )


def test_criterion_3_walk_operators_match_published_matrices():
    square, _ = walk_unitary(parse_graph(SQUARE_GRAPH_TEXT))
    assert np.array_equal(square.mat, SQUARE_WALK)
    star, _ = walk_unitary(parse_graph(STAR_GRAPH_TEXT))
    diff = np.abs(star.mat - star_walk_matrix()).max()
    assert diff <= 1e-12
    report(3, f"square walk bit-exact; star walk within {diff:.1e}")


def test_criterion_4_square_graph_circuit_structure():
    op, _ = walk_unitary(parse_graph(SQUARE_GRAPH_TEXT))
    circ = compile_real(recursive_csd(op))
    resid = np.abs(circuit_matrix(circ).mat - op.mat).max()
    counts = count_subgates(circ)
    rotations = [g for g in circ.gates if isinstance(g, UniformRotation)]
    for g in rotations:
        turns = g.angles / np.pi
        nonzero = turns[np.abs(turns) > 1e-9]
        assert np.all(np.abs(np.abs(nonzero) - 0.5) <= 1e-10)
    flags = ["".join("Y" if f else "N" for f in g.flags) for g in circ.gates if isinstance(g, PiGate)]
    published_flags = ["Y", "YN", "NYYN"]
    if flags == published_flags and _structural(counts) == 18:
        report(4, "square circuit matches the published gate table exactly")
        return
    # Documented fallback: the +-1 allocation inside exactly degenerate CSD
    # blocks is convention-dependent; require the convention-independent
    # structure instead (see decisions ledger).
    assert resid <= 1e-10
    assert _structural(counts) <= 24
    published_slots = [
        [1, 4], [2, 4], [1, 2], [3, 4], [2, 3], [2, 4], [2, 3],
    ]  # nonzero turn-fraction positions per rotation record, application order
    slots = [list(np.flatnonzero(np.abs(g.angles) > 1e-9) + 1) for g in rotations]
    assert slots == published_slots
    report(
        4,
        f"fallback engaged: flags {flags} differ from published {published_flags} "
        f"(degenerate-gauge convention); nonzero slots and 0.5-turn magnitudes "
        f"match, structural total {_structural(counts)} (published 18), "
        f"reconstruction {resid:.1e}",
    )


def test_criterion_5_star_graph_circuit_sparsity():
    op, _ = walk_unitary(parse_graph(STAR_GRAPH_TEXT))
    circ = compile_real(recursive_csd(op))
    resid = np.abs(circuit_matrix(circ).mat - op.mat).max()
    assert resid <= 1e-10
    counts = count_subgates(circ)
    assert _structural(counts) <= 48
    # stretch goal: the published count of 34 with the last seven rotation
    # factors (positions p = 1..7, applied last) vanishing entirely
    assert _structural(counts) == 34
    rotations = [g for g in circ.gates if isinstance(g, UniformRotation)]
    vanished = [bool(np.all(np.abs(g.angles) <= 1e-9)) for g in rotations[-7:]]
    assert all(vanished)
    flags = ["".join("Y" if f else "N" for f in g.flags) for g in circ.gates if isinstance(g, PiGate)]
    assert flags == ["N", "NN", "NNNN", "NNNNNNNY"]
    report(
        5,
        f"star circuit: structural total 34 (stretch goal met), published Pi "
        f"flags reproduced, last seven rotation factors vanish, "
        f"reconstruction {resid:.1e}",
    )


@pytest.mark.slow
def test_criterion_6_scalability_12_qubits():
    t0 = time.time()
    graph = random_graph(100, 4011, seed=7)
    op, basis = walk_unitary(graph)
    assert basis.size == 4011
    padded, n = pad_to_power_of_two(op)
    assert n == 12 and padded.dim == 4096
    seq = recursive_csd(padded)
    circ = compile_real(seq)
    compile_elapsed = time.time() - t0
    assert compile_elapsed < 600.0
    worst = verify(circ, padded)  # 64 sampled states, limit 1e-8
    report(
        6,
        f"4011-arc walk padded to 4096 compiled in {compile_elapsed:.0f}s "
        f"(< 600s); 64 sampled states agree within {worst:.2e}",
    )


def _pi_gate_diag(gate: PiGate, n: int) -> np.ndarray:
    """Brute-force diagonal of one Pi gate."""
    dim = 1 << n
    d = np.ones(dim)
    for row in range(dim):
        pattern = 0
        for c in gate.controls:
            pattern = (pattern << 1) | ((row >> (n - c)) & 1)
        if gate.flags[pattern] and (row >> (n - gate.target)) & 1:
            d[row] = -1.0
    return d


def _rz_gate_diag(gate: UniformRotation, n: int) -> np.ndarray:
    dim = 1 << n
    d = np.ones(dim, dtype=complex)
    for row in range(dim):
        pattern = 0
        for c in gate.controls:
            pattern = (pattern << 1) | ((row >> (n - c)) & 1)
        sign = -1.0 if (row >> (n - gate.target)) & 1 else 1.0
        d[row] = np.exp(1j * sign * gate.angles[pattern])
    return d


def test_criterion_7_diagonal_factorization_oracles():
    # exhaustive over all flag patterns at n = 2 and 3
    checked = 0
    for n in (2, 3):
        flag_lengths = [1 << (m - 1) for m in range(1, n + 1)]
        total_flags = sum(flag_lengths)
        for bits in range(1 << total_flags):
            flat = [(bits >> i) & 1 == 1 for i in range(total_flags)]
            diag = np.ones(1 << n)
            pos = 0
            wanted = []
            for m, length in enumerate(flag_lengths, start=1):
                flags = np.array(flat[pos : pos + length])
                pos += length
                wanted.append(flags)
                diag = diag * _pi_gate_diag(PiGate(m, tuple(range(1, m)), flags), n)
            g, gates = factor_sign_diagonal(diag)
            assert g == 1
            for want, gate in zip(wanted, gates):
                assert np.array_equal(gate.flags, want)
            checked += 1
    assert checked == 8 + 128
    # random sign patterns at n = 4..8, rebuilt by brute force
    rng = np.random.default_rng(7)
    for n in range(4, 9):
        for _ in range(2000):
            signs = rng.choice([-1.0, 1.0], size=1 << n)
            g, gates = factor_sign_diagonal(signs)
            rebuilt = np.full(1 << n, float(g))
            for gate in gates:
                rebuilt = rebuilt * _pi_gate_diag(gate, n)
            assert np.abs(rebuilt - signs).max() <= 1e-12
    # random phase vectors at n <= 6
    count = 0
    for n in range(1, 7):
        for _ in range(1667):
            phases = rng.uniform(-np.pi, np.pi, 1 << n)
            global_phase, gates = factor_phase_diagonal(phases)
            rebuilt = np.full(1 << n, np.exp(1j * global_phase))
            for gate in gates:
                rebuilt = rebuilt * _rz_gate_diag(gate, n)
            assert np.abs(rebuilt - np.exp(1j * phases)).max() <= 1e-12
            count += 1
    report(
        7,
        f"sign factorization exhaustive at n=2,3 (136 patterns) and 10^4 random "
        f"at n=4..8; phase factorization on {count} random vectors, all <= 1e-12",
    )


def test_criterion_8_format_goldens():
    from paper_data import records_to_circuit

    real_circ = records_to_circuit(REAL_8x8_RECORDS, 3)
    assert emit_text(real_circ, "display") == expected_text(REAL_8x8_RECORDS)
    square_circ = records_to_circuit(SQUARE_RECORDS, 3)
    assert emit_text(square_circ, "display") == expected_text(SQUARE_RECORDS)
    report(8, "published record payload lines reproduced verbatim in display mode")
