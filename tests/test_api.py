"""The public API: csdcirc.__all__ is pinned, so adding a name is a deliberate change."""

import csdcirc

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(csdcirc.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in csdcirc.__all__:
        assert hasattr(csdcirc, name), name
