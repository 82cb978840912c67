"""csdcirc: compile unitary matrices into quantum circuits via recursive CSD."""

from .decompose import (
    DecompositionSequence,
    SequenceFactor,
    compile_complex,
    compile_real,
    factor_phase_diagonal,
    factor_sign_diagonal,
    recursive_csd,
)
from .emitters import emit_json, emit_latex, emit_text, parse_json, parse_text
from .gates import (
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
from .matrices import Tolerances, UnitaryOperator, certify_unitary, pad_to_power_of_two
from .qwalk import ArcBasis, Graph, parse_graph, random_graph, walk_unitary

__all__ = [
    "ArcBasis",
    "Axis",
    "Circuit",
    "DecompositionSequence",
    "GlobalPhase",
    "Graph",
    "PiGate",
    "SequenceFactor",
    "Tolerances",
    "UniformRotation",
    "UnitaryOperator",
    "apply_to_state",
    "certify_unitary",
    "circuit_matrix",
    "compile_complex",
    "compile_real",
    "count_subgates",
    "emit_json",
    "emit_latex",
    "emit_text",
    "factor_phase_diagonal",
    "factor_sign_diagonal",
    "pad_to_power_of_two",
    "parse_graph",
    "parse_json",
    "parse_text",
    "random_graph",
    "recursive_csd",
    "verify",
    "walk_unitary",
]

__version__ = "0.1.0"
