"""Keep benchmarks/bench_csd.py runnable: it imports private kernel functions."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_csd.py"


def test_bench_csd_runs_both_routes_at_a_small_dimension():
    spec = importlib.util.spec_from_file_location("bench_csd", SCRIPT)
    bench_csd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_csd)
    rows = bench_csd.bench(dim=16, repeats=2, seed=0)
    assert [route for route, _, _ in rows] == ["lapack", "svd"]
    for _, best, worst in rows:
        assert best >= 0.0
        assert worst < 1e-12
