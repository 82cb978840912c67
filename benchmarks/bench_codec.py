"""Time the exact text and JSON codecs, and the text matrix reader, on seeded inputs.

The circuits are ``bench_eval.ruler_circuit``'s: a compiled circuit's gate
layout with seeded random angles, so no CSD runs.  For each size and field
this script times, best of ``--repeats`` in-process runs, ``emit_text(c,
"exact")``, ``parse_text`` of that text, ``emit_json`` and ``parse_json`` of
that JSON, and checks that both documents read back as the circuit.

The matrices are 2**n x 2**n, written by ``format_matrix_text`` with seeded
Gaussian entries scaled by 2**(-n/2), the size of a unitary's.  For each of
``--matrix-sizes`` and field it times ``parse_matrix_text`` and its
per-value reference, best of ``--repeats``, measures the ``tracemalloc``
peak of one more call of each, and checks that both read the same bits.

The kernel rows time the number kernel that all three readers share alone,
best of ``--repeats``, on one chunk of 8,192 tokens of each family: the
exact-mode turns of seeded angles in (-pi, pi], those angles as ``repr``
writes them in JSON, and seeded Gaussian entries as ``format_matrix_text``
writes a 128 x 128 unitary's (``%.17g``).  Each row also gives the share of
tokens the kernel proves; the rest go to the readers' per-value code.

Run as a script, it first sets the allocator as ``pipebench/run.py``'s
``keep_freed_memory`` does, so a row's time does not depend on the heap
the rows before it left.

    python benchmarks/bench_codec.py                     # n = 8, 10 and 12; matrices at 7 and 10
    python benchmarks/bench_codec.py --sizes 12 --fields real --repeats 1 --matrix-sizes ""
"""

import argparse
import importlib.util
import os
import resource
import time
import tracemalloc
from pathlib import Path

# One BLAS thread, as bench_eval.py and pipebench pin.  The pools read this
# when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from csdcirc import UniformRotation, emit_json, emit_text, parse_json, parse_text  # noqa: E402
from csdcirc._bytescan import _INV_POW10, _padded_bytes, _read_decimals, _token_edges  # noqa: E402
from csdcirc.emitters import _PI_POW10, _to_turns_exact  # noqa: E402
from csdcirc.matrices import _parse_matrix_per_value, format_matrix_text, parse_matrix_text  # noqa: E402


HERE = Path(__file__).resolve().parent


def _load(path: Path):
    """The module at path, which need not be importable as a package."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _best(fn, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return min(times), out


def bench(sizes=(8, 10, 12), repeats=5, seed=0, fields=("real", "complex")):
    """Rows of (function, n, field, angles, best seconds, bytes) for each case."""
    ruler_circuit = _load(HERE / "bench_eval.py").ruler_circuit
    rows = []
    for n in sizes:
        for field in fields:
            circuit = ruler_circuit(n, field == "complex", seed)
            angles = sum(g.angles.size for g in circuit.gates if isinstance(g, UniformRotation))
            emit_s, text = _best(lambda: emit_text(circuit, "exact"), repeats)
            parse_s, from_text = _best(lambda: parse_text(text, n), repeats)
            emit_json_s, js = _best(lambda: emit_json(circuit), repeats)
            parse_json_s, from_json = _best(lambda: parse_json(js), repeats)
            if from_text != circuit or from_json != circuit:
                raise AssertionError(f"n = {n} {field}: a document did not read back as its circuit")
            rows.append(("emit_text", n, field, angles, emit_s, len(text)))
            rows.append(("parse_text", n, field, angles, parse_s, len(text)))
            rows.append(("emit_json", n, field, angles, emit_json_s, len(js)))
            rows.append(("parse_json", n, field, angles, parse_json_s, len(js)))
            del text, js, from_text, from_json
    return rows


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def bench_matrices(sizes=(7, 10), repeats=5, seed=0, fields=("real", "complex")):
    """Rows of (reader, n, field, entries, best seconds, bytes, tracemalloc peak MiB) for each case."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        for field in fields:
            dim = 1 << n
            m = rng.standard_normal((dim, dim))
            if field == "complex":
                m = m + 1j * rng.standard_normal((dim, dim))
            text = format_matrix_text(m / np.sqrt(dim))
            del m
            got = {}
            for name, read in (("parse_matrix_text", parse_matrix_text), ("per-value", _parse_matrix_per_value)):
                best, got[name] = _best(lambda: read(text), repeats)
                rows.append((name, n, field, dim * dim, best, len(text), _peak_mib(lambda: read(text))))
            a, b = got.values()
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                raise AssertionError(f"n = {n} {field}: parse_matrix_text and the per-value reader differ")
            del text, got, a, b
    return rows


def bench_kernel(tokens=8192, repeats=5, seed=0):
    """Rows of (family, tokens, best seconds, share proven): the number kernel alone on one chunk of each family."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-np.pi, np.pi, tokens).tolist()
    entries = (rng.standard_normal(tokens) / np.sqrt(128)).tolist()
    families = [
        ("exact", [_to_turns_exact(a) for a in angles], _PI_POW10),
        ("repr", [repr(a) for a in angles], _INV_POW10),
        ("%.17g", [f"{x:.17g}" for x in entries], _INV_POW10),
    ]
    rows = []
    for family, words, table in families:
        buf = _padded_bytes("  ".join(words))
        starts, ends, _ = _token_edges(buf, b" ")
        starts, ends = starts.astype(np.intp), ends.astype(np.intp)
        best, (_, _, proven) = _best(lambda: _read_decimals(buf, starts, ends, table), repeats)
        rows.append((family, tokens, best, float(proven.mean())))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="8,10,12", help="comma-separated qubit counts")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fields", default="real,complex", help="real, complex or both")
    parser.add_argument("--matrix-sizes", default="7,10", help="comma-separated qubit counts of the matrix case")
    args = parser.parse_args()
    # the allocator as pipebench sets it, so that whether a row reuses freed
    # memory or faults in fresh pages does not depend on the rows before it
    _load(HERE.parent / "pipebench" / "run.py").keep_freed_memory()

    sizes = tuple(int(n) for n in args.sizes.split(",") if n)
    fields = tuple(f for f in args.fields.split(",") if f)
    if sizes:
        print(f"{'function':>12} {'n':>3} {'field':>8} {'angles':>9} {'best time':>12} {'MB':>8}")
    for name, n, field, angles, best, size in bench(sizes, args.repeats, args.seed, fields):
        print(f"{name:>12} {n:>3} {field:>8} {angles:>9} {best:>11.4f}s {size / 1e6:>8.2f}")
    matrix_sizes = tuple(int(n) for n in args.matrix_sizes.split(",") if n)
    if matrix_sizes:
        print(f"{'reader':>17} {'n':>3} {'field':>8} {'entries':>9} {'best time':>12} {'MB':>8} {'peak MiB':>9}")
    for name, n, field, entries, best, size, peak in bench_matrices(matrix_sizes, args.repeats, args.seed, fields):
        print(f"{name:>17} {n:>3} {field:>8} {entries:>9} {best:>11.4f}s {size / 1e6:>8.2f} {peak:>9.1f}")
    print(f"{'kernel':>17} {'tokens':>9} {'best time':>12} {'proven':>8}")
    for family, tokens, best, proven in bench_kernel(repeats=args.repeats, seed=args.seed):
        print(f"{family:>17} {tokens:>9} {best * 1e3:>10.3f}ms {proven:>8.4f}")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")


if __name__ == "__main__":
    main()
