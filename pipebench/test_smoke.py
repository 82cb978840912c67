"""Smoke test of the pipeline benchmark at toy sizes.

Run from the repository root:

    python3 -m pytest -q pipebench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import csdcirc  # noqa: E402
from scipy.stats import unitary_group  # noqa: E402

TOY = {
    "walk": bench.Workload("walk-n4", "walk", 4, nodes=5, arcs=15),
    "haar": bench.Workload("haar-n3", "haar", 3),
    "stream": bench.Workload("stream-n3", "stream", 3),
}
SECONDS = 0.2
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("toy", TOY.values(), ids=TOY.keys())
def test_every_declared_metric_is_emitted_with_its_unit(toy, trace):
    result = bench.measure(toy, seed=3, seconds=SECONDS, trace=trace)
    line = json.loads(json.dumps(bench.summary(result, trace)))
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        m = result["metrics"]
        levels = sum(v for k, v in m.items() if k.startswith("csd.level.") and k.endswith(".s"))
        assert levels + m["decompose.recurse_self_s"] == pytest.approx(
            m["decompose.recursive_csd_s"], rel=1e-9
        )


def test_a_corrupted_circuit_is_a_failed_op(monkeypatch):
    compile_real = csdcirc.compile_real

    def corrupted(seq, *args):
        circuit = compile_real(seq, *args)
        gates = list(circuit.gates)
        k = next(i for i, g in enumerate(gates) if isinstance(g, csdcirc.UniformRotation))
        g = gates[k]
        gates[k] = csdcirc.UniformRotation(g.axis, g.target, g.controls, g.angles + 0.1)
        return csdcirc.Circuit(circuit.n_qubits, tuple(gates))

    monkeypatch.setattr(csdcirc, "compile_real", corrupted)
    result = bench.measure(TOY["walk"], seed=3, seconds=SECONDS, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert bench.summary(result, False)["correct"] is False


def test_a_missing_wrap_point_is_reported_absent(monkeypatch):
    with monkeypatch.context() as m:
        m.delattr(csdcirc.decompose, "split_stack")
        tracer = bench.Tracer()
    assert tracer.absent == ["csdcirc.decompose.split_stack"]
    op = csdcirc.certify_unitary(unitary_group.rvs(8, random_state=0))
    with tracer.installed():
        csdcirc.recursive_csd(op)
    metrics = tracer.metrics(1)
    assert metrics["csd.cossin.m8.calls"] == 1
    assert metrics["csd.cossin.m4.calls"] == 4
    assert not any(k.startswith("csd.level.") for k in metrics)
    assert "csd.kernel_self_s" not in metrics
