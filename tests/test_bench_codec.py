"""Keep benchmarks/bench_codec.py runnable at a small size."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_codec.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_codec", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_codec_times_all_four_functions_at_four_qubits():
    rows = _load().bench(sizes=(4,), repeats=1, seed=0)
    functions = ["emit_text", "parse_text", "emit_json", "parse_json"]
    assert [(name, n, field) for name, n, field, _, _, _ in rows] == [
        (name, 4, field) for field in ("real", "complex") for name in functions
    ]
    # 15 rotations of 8 angles; the complex layout adds R_z cascades and an R_z per R_y
    assert [angles for _, _, _, angles, _, _ in rows] == [120] * 4 + [255] * 4
    for _, _, _, _, best, size in rows:
        assert best >= 0.0 and size > 0


def test_bench_codec_reads_text_matrices_at_six_qubits():
    rows = _load().bench_matrices(sizes=(6,), repeats=1, seed=0)
    assert [(name, n, field, entries) for name, n, field, entries, _, _, _ in rows] == [
        (name, 6, field, 4096) for field in ("real", "complex") for name in ("parse_matrix_text", "per-value")
    ]
    for _, _, _, _, best, size, peak in rows:
        assert best >= 0.0 and size > 0 and peak > 0


def test_bench_codec_times_the_number_kernel_per_family():
    rows = _load().bench_kernel(tokens=256, repeats=1, seed=0)
    assert [(family, tokens) for family, tokens, _, _ in rows] == [("exact", 256), ("repr", 256), ("%.17g", 256)]
    for _, _, best, proven in rows:
        assert best >= 0.0 and proven > 0.95  # the kernel proves all but the rare near-ties
