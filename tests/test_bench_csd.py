"""Keep benchmarks/bench_csd.py runnable: it imports private kernel functions."""

import importlib.util
import itertools
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_csd.py"


def test_bench_csd_runs_both_routes_at_a_small_dimension():
    spec = importlib.util.spec_from_file_location("bench_csd", SCRIPT)
    bench_csd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_csd)
    for dim, kind in itertools.product((4, 16), ("orthogonal", "walk", "pure")):
        rows = bench_csd.bench(dim=dim, repeats=2, seed=0, kind=kind)
        assert [route for route, _, _ in rows] == ["lapack", "batched", "svd", "deflate"]
        for route, seconds, worst in rows:
            assert seconds >= 0.0
            # the unscreened svd row reports what it leaves on degenerate blocks before a redo
            assert worst < 1e-12 or route == "svd" and worst >= 0.0
