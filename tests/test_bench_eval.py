"""Keep benchmarks/bench_eval.py runnable at a small size."""

import importlib.util
from pathlib import Path

import numpy as np

from csdcirc import Axis, PiGate, circuit_matrix

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_eval.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_eval", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_eval_times_both_functions_at_four_qubits():
    rows = _load().bench(dense=(4,), stack=4, columns=8, repeats=1, seed=0)
    assert [(name, n, field) for name, n, field, _, _ in rows] == [
        ("circuit_matrix", 4, "real"),
        ("circuit_matrix", 4, "complex"),
        ("apply_to_state[8]", 4, "real"),
        ("apply_to_state[8]", 4, "complex"),
    ]
    for _, _, _, best, check in rows:
        assert best >= 0.0
        assert check < 1e-12


def test_ruler_circuit_has_the_layout_of_a_compiled_circuit():
    bench_eval = _load()
    real = bench_eval.ruler_circuit(4, False, seed=1)
    assert all(isinstance(g, PiGate) for g in real.gates[:4])
    targets = [g.target for g in real.gates[4:]]
    assert targets == [4, 3, 4, 2, 4, 3, 4, 1, 4, 3, 4, 2, 4, 3, 4]
    complex_ = bench_eval.ruler_circuit(3, True, seed=1)
    axes = [g.axis for g in complex_.gates[4:]]
    assert axes == [Axis.Y, Axis.Z] * 7
    assert circuit_matrix(real).mat.dtype == np.float64
