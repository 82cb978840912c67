"""Command-line front end: compile, walk, verify, stats.

Exit codes: 0 ok, 1 usage, 2 parse/format error, 3 not unitary,
4 numerical failure, 5 verification failed, 6 not a real decomposition.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import emitters, qwalk
from .decompose import compile_complex, compile_real, recursive_csd
from .errors import (
    CsdcircError,
    NotRealDecompositionError,
    NotUnitaryError,
    NumericalFailureError,
    VerifyFailedError,
)
from .gates import Circuit, count_subgates, verify
from .matrices import (
    Tolerances,
    UnitaryOperator,
    certify_unitary,
    format_matrix_text,
    load_matrix,
    pad_to_power_of_two,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NOT_UNITARY = 3
EXIT_NUMERICAL = 4
EXIT_VERIFY = 5
EXIT_NOT_REAL = 6

# A raised exception exits with the code of the nearest class in its MRO.
_EXIT_CODES = {
    NotUnitaryError: EXIT_NOT_UNITARY,
    NumericalFailureError: EXIT_NUMERICAL,
    VerifyFailedError: EXIT_VERIFY,
    NotRealDecompositionError: EXIT_NOT_REAL,
    CsdcircError: EXIT_PARSE,
    ValueError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    KeyError: EXIT_PARSE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="csdcirc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compile_options(p):
        p.add_argument("--pipeline", choices=("auto", "real", "complex"), default="auto")
        p.add_argument(
            "--format",
            default="text",
            help="comma-separated outputs: text, json, latex (default: text)",
        )
        p.add_argument("--mode", choices=("display", "exact"), default="exact")
        p.add_argument("--out", metavar="PREFIX", help="write PREFIX.txt/.json/.tex")
        p.add_argument("--tol-unitary", type=float, default=Tolerances().unitary)
        p.add_argument("--tol-zero", type=float, default=Tolerances().angle_zero)
        p.add_argument("--tol-reconstruct", type=float, default=Tolerances().reconstruct)
        p.add_argument("--verify", action="store_true", help="reconstruct and report the residual")
        p.add_argument("--verify-samples", type=_positive_int, default=64, metavar="K")

    p_compile = sub.add_parser("compile", help="compile a unitary matrix file")
    p_compile.add_argument("matrix", help="matrix file (text or JSON)")
    add_compile_options(p_compile)

    p_walk = sub.add_parser("walk", help="build a quantum-walk operator and compile it")
    p_walk.add_argument("graph", nargs="?", help="graph file (edge list or dense adjacency)")
    p_walk.add_argument("--random", type=int, metavar="N", help="generate a random N-node graph")
    p_walk.add_argument(
        "--arcs", type=int, help="arc count for --random (default: ~40%% of capacity)"
    )
    p_walk.add_argument("--seed", type=int, default=0)
    p_walk.add_argument("--dump-matrix", action="store_true", help="write PREFIX.mat")
    add_compile_options(p_walk)

    p_verify = sub.add_parser("verify", help="check a circuit file against a matrix file")
    p_verify.add_argument("circuit", help="circuit file (text exact mode or JSON)")
    p_verify.add_argument("matrix", help="matrix file the circuit should reproduce")
    p_verify.add_argument("--tol-unitary", type=float, default=Tolerances().unitary)
    p_verify.add_argument("--tol-reconstruct", type=float, default=Tolerances().reconstruct)
    p_verify.add_argument("--verify-samples", type=_positive_int, default=64, metavar="K")

    p_stats = sub.add_parser("stats", help="print subgate counts of a circuit file")
    p_stats.add_argument("circuit")
    p_stats.add_argument("--tol-zero", type=float, default=Tolerances().angle_zero)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handler = {
        "compile": cmd_compile,
        "walk": cmd_walk,
        "verify": cmd_verify,
        "stats": cmd_stats,
    }[args.command]
    try:
        return handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


def _tolerances(args) -> Tolerances:
    return Tolerances(
        unitary=args.tol_unitary,
        angle_zero=args.tol_zero,
        reconstruct=args.tol_reconstruct,
    )


def _compile_operator(op: UnitaryOperator, args, tol: Tolerances) -> int:
    """Pad op to a power-of-two dimension, compile it, and print and write the results."""
    w, n = pad_to_power_of_two(op)
    if w.dim != op.dim:
        print(f"padded {op.dim} -> {w.dim} (n = {n})", file=sys.stderr)
    pipeline = args.pipeline
    if pipeline == "auto":
        pipeline = "real" if w.is_real else "complex"
    if pipeline == "real" and not w.is_real:
        raise NotRealDecompositionError("input is not real; use --pipeline complex or auto")
    t0 = time.perf_counter()
    seq = recursive_csd(w, tol)
    circuit = compile_real(seq, tol) if pipeline == "real" else compile_complex(seq)
    elapsed = time.perf_counter() - t0
    print(f"compiled in {elapsed:.2f}s ({pipeline} pipeline)", file=sys.stderr)

    _print_counts(circuit, tol.angle_zero)
    _write_outputs(circuit, args, tol)
    if args.verify:
        _print_verify(circuit, w, tol, args.verify_samples)
    return EXIT_OK


def _print_counts(circuit: Circuit, angle_zero: float):
    counts = count_subgates(circuit, angle_zero)
    print(f"qubits: {circuit.n_qubits}")
    print("subgates: ry={ry} rz={rz} pi={pi} phase={phase} total={total}".format(**counts))


def _print_verify(circuit: Circuit, w: UnitaryOperator, tol: Tolerances, samples: int):
    """Print the verify residual, also when it is above the limit."""
    try:
        residual = verify(circuit, w, tol, samples)
    except VerifyFailedError as exc:
        print(f"verify residual: {exc.residual:.3e}")
        raise
    print(f"verify residual: {residual:.3e}")


def _write_outputs(circuit: Circuit, args, tol: Tolerances):
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    unknown = set(formats) - {"text", "json", "latex"}
    if unknown:
        raise ValueError(f"unknown output format(s): {sorted(unknown)}")
    if args.out is None:
        if "json" in formats or "latex" in formats:
            raise ValueError("--out PREFIX is required for json/latex output")
        if "text" in formats:
            sys.stdout.write(emitters.emit_text(circuit, args.mode))
        return
    if "text" in formats:
        _write(args.out + ".txt", emitters.emit_text(circuit, args.mode))
    if "json" in formats:
        _write(args.out + ".json", emitters.emit_json(circuit))
    if "latex" in formats:
        _write(args.out + ".tex", emitters.emit_latex(circuit, tol.angle_zero))


def _write(path: str, content: str):
    with open(path, "w") as fh:
        fh.write(content)
    print(f"wrote {path}", file=sys.stderr)


def cmd_compile(args) -> int:
    tol = _tolerances(args)
    return _compile_operator(certify_unitary(load_matrix(args.matrix), tol), args, tol)


def cmd_walk(args) -> int:
    tol = _tolerances(args)
    if args.random is not None:
        nodes = args.random
        default_arcs = max(2 * nodes + 1, 2 * (nodes * (nodes - 1) // 5) + 1)
        arcs = args.arcs if args.arcs is not None else default_arcs
        graph = qwalk.random_graph(nodes, arcs, seed=args.seed)
    elif args.graph is not None:
        with open(args.graph) as fh:
            graph = qwalk.parse_graph(fh.read())
    else:
        raise ValueError("walk needs a graph file or --random N")
    op, basis = qwalk.walk_unitary(graph, tol)
    print(f"walk operator: {basis.size} arcs over {graph.node_count} nodes", file=sys.stderr)
    if args.dump_matrix:
        if args.out is None:
            raise ValueError("--dump-matrix requires --out PREFIX")
        _write(args.out + ".mat", format_matrix_text(op))
    return _compile_operator(op, args, tol)


def _load_circuit(path: str, n_qubits: int | None) -> Circuit:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return emitters.parse_json(text)
    return emitters.parse_text(text, n_qubits)


def cmd_verify(args) -> int:
    tol = Tolerances(unitary=args.tol_unitary, reconstruct=args.tol_reconstruct)
    op = certify_unitary(load_matrix(args.matrix), tol)
    w, n = pad_to_power_of_two(op)
    _print_verify(_load_circuit(args.circuit, n), w, tol, args.verify_samples)
    return EXIT_OK


def cmd_stats(args) -> int:
    _print_counts(_load_circuit(args.circuit, None), args.tol_zero)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
