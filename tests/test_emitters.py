from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc.decompose import compile_complex, compile_real, recursive_csd
from csdcirc.emitters import emit_json, emit_latex, emit_text, parse_json, parse_text
from csdcirc.errors import BadPayloadLengthError, TextSyntaxError
from csdcirc.gates import (
    Axis,
    Circuit,
    GlobalPhase,
    PiGate,
    UniformRotation,
    count_subgates,
)
from csdcirc.matrices import certify_unitary
from paper_data import REAL_8x8_RECORDS, SQUARE_RECORDS, STAR_RECORDS, records_to_circuit


def test_emit_pi_record():
    circ = Circuit(3, (PiGate(1, (), [True]),))
    assert emit_text(circ, "display") == "GATEPI\n  1;\n  Y\n"


def test_emit_controlled_y_record():
    gate = UniformRotation(Axis.Y, 2, (1, 3), np.pi * np.array([0.0, 0.5, 0.0, 0.5]))
    circ = Circuit(3, (gate,))
    assert emit_text(circ, "display") == "GATEY\n  2;  1,  3\n  0.0000  0.5000  0.0000  0.5000\n"


def test_emit_empty_circuit():
    assert emit_text(Circuit(3, ()), "display") == ""
    assert parse_text("") == Circuit(0, ())


def test_display_payload_wraps_at_four():
    gate = UniformRotation(Axis.Y, 4, (1, 2, 3), np.zeros(8))
    text = emit_text(Circuit(4, (gate,)), "display")
    assert text == (
        "GATEY\n  4;  1,  2,  3\n"
        "  0.0000  0.0000  0.0000  0.0000\n"
        "  0.0000  0.0000  0.0000  0.0000\n"
    )


def test_negative_zero_not_printed():
    gate = UniformRotation(Axis.Y, 1, (), np.array([-0.0]))
    assert "-0.0000" not in emit_text(Circuit(1, (gate,)), "display")
    assert "-0" not in emit_text(Circuit(1, (gate,)), "exact")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_mode_round_trip_is_identity(seed):
    u = unitary_group.rvs(8, random_state=seed)
    circ = compile_complex(recursive_csd(certify_unitary(u)))
    back = parse_text(emit_text(circ, "exact"))
    assert back == circ


def test_exact_mode_round_trip_real_pipeline():
    o = ortho_group.rvs(16, random_state=3)
    circ = compile_real(recursive_csd(certify_unitary(o)))
    assert parse_text(emit_text(circ, "exact")) == circ


def test_display_mode_round_trip_quantizes():
    u = unitary_group.rvs(4, random_state=4)
    circ = compile_complex(recursive_csd(certify_unitary(u)))
    back = parse_text(emit_text(circ, "display"))
    for g1, g2 in zip(circ.gates, back.gates):
        if isinstance(g1, UniformRotation):
            assert np.abs(g1.angles - g2.angles).max() < np.pi * 5.1e-5


def test_angles_outside_principal_range_are_wrapped():
    gate = UniformRotation(Axis.Z, 1, (), np.array([1.5 * np.pi]))
    text = emit_text(Circuit(1, (gate,)), "display")
    assert text.splitlines()[-1] == " -0.5000"


def turns_by_loop(angle: float) -> str:
    """Oracle: exact-mode turns, wrapped by subtracting 2 one turn at a time."""
    with localcontext() as ctx:
        ctx.prec = 25
        pi = Decimal("3.14159265358979323846264338327950288419716939937511")
        turns = Decimal(float(angle) + 0.0) / pi
        while turns > 1:
            turns -= 2
        while turns <= -1:
            turns += 2
        return str(turns)


def test_exact_turns_match_the_subtraction_loop():
    rng = np.random.default_rng(19)
    angles = np.concatenate(
        [
            [np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 0.0, -0.0, 5e-324, -5e-324],
            np.pi * np.arange(-3183, 3184, 53),  # odd and even multiples of pi
            rng.uniform(-20, 20, 300),
            rng.uniform(-1e4, 1e4, 600),
        ]
    )[: 1 << 10]
    circ = Circuit(11, (UniformRotation(Axis.Z, 1, tuple(range(2, 12)), angles),))
    tokens = emit_text(circ, "exact").splitlines()[2].split()
    assert tokens == [turns_by_loop(a) for a in angles]


def test_huge_angle_emits_and_round_trips():
    circ = parse_text("GATEZ\n  1;\n  3e299\n")  # about 9.4e299 rad
    assert circ.gates[0].angles[0] > 1e299
    back = parse_text(emit_text(circ, "exact"))
    # 25 digits of turns hold no fraction of a turn at this size: it wraps to 0
    assert back.gates[0].angles[0] == 0.0
    assert parse_text(emit_text(back, "exact")) == back
    one = Circuit(1, (UniformRotation(Axis.Y, 1, (), [1e300]),))
    assert parse_text(emit_text(one, "exact")).gates[0].angles[0] == 0.0


def test_parse_rejects_bad_keyword():
    with pytest.raises(TextSyntaxError) as err:
        parse_text("GATEQ\n  1;\n  0.5\n")
    assert err.value.line == 1


def test_parse_rejects_bad_payload_length():
    with pytest.raises(BadPayloadLengthError):
        parse_text("GATEY\n  2;  1\n  0.5\n")
    with pytest.raises(BadPayloadLengthError):
        parse_text("GATEY\n  1;\n  0.5  0.5\n")


def test_parse_rejects_bad_flags():
    with pytest.raises(TextSyntaxError):
        parse_text("GATEPI\n  1;\n  Q\n")


def test_parse_infers_qubit_count():
    circ = parse_text("GATEY\n  2;  1,  4\n  0.1  0.1  0.1  0.1\n")
    assert circ.n_qubits == 4
    circ = parse_text("GATEY\n  2;  1,  4\n  0.1  0.1  0.1  0.1\n", n_qubits=6)
    assert circ.n_qubits == 6


def test_json_round_trip_bit_identical():
    u = unitary_group.rvs(8, random_state=5)
    circ = compile_complex(recursive_csd(certify_unitary(u)))
    assert parse_json(emit_json(circ)) == circ


def test_json_global_phase_value():
    circ = Circuit(2, (GlobalPhase(np.pi),))
    text = emit_json(circ)
    assert parse_json(text) == circ
    assert repr(np.pi)[:17] in text


def test_latex_single_rotation():
    circ = Circuit(2, (UniformRotation(Axis.Y, 1, (), [0.5]),))
    tex = emit_latex(circ)
    assert r"\gate{R_y}" in tex
    assert tex.count(r"\Qcircuit") == 1
    wires = [ln for ln in tex.splitlines() if ln.startswith("&")]
    assert len(wires) == 2
    assert r"\qw" in wires[1]


def test_latex_pi_gate_controls():
    circ = Circuit(2, (PiGate(2, (1,), [False, True]),))
    tex = emit_latex(circ)
    assert r"\ctrl{1}" in tex  # pattern bit 1 = filled dot
    assert r"\gate{\pi}" in tex
    assert r"\ctrlo" not in tex


def test_latex_open_controls_for_zero_bits():
    circ = Circuit(2, (PiGate(2, (1,), [True, False]),))
    tex = emit_latex(circ)
    assert r"\ctrlo{1}" in tex


def test_latex_column_count_matches_subgate_count():
    for seed in (6, 7):
        u = unitary_group.rvs(8, random_state=seed)
        circ = compile_complex(recursive_csd(certify_unitary(u)))
        tex = emit_latex(circ)
        counts = count_subgates(circ)
        header = [ln for ln in tex.splitlines() if ln.startswith("% qubits")][0]
        assert f"columns: {counts['total']}" in header


def test_latex_empty_circuit():
    tex = emit_latex(Circuit(3, ()))
    assert "columns: 0" in tex
    assert r"\Qcircuit" not in tex


# --- published record goldens (serialization layer only) ---------------------


def expected_text(records):
    lines = []
    for keyword, target, controls, payload in records:
        head = f"{target:3d};"
        if controls:
            head += "".join(f"{c:3d}," for c in controls[:-1]) + f"{controls[-1]:3d}"
        lines.append(keyword)
        lines.append(head)
        if keyword == "GATEPI":
            lines.append("".join(f"  {ch}" for ch in payload))
        else:
            for start in range(0, len(payload), 4):
                lines.append("".join(f"{v:8.4f}" for v in payload[start : start + 4]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "records,n",
    [(REAL_8x8_RECORDS, 3), (SQUARE_RECORDS, 3), (STAR_RECORDS, 4)],
    ids=["real-8x8", "square-walk", "star-walk"],
)
def test_published_records_round_trip_through_display_mode(records, n):
    circ = records_to_circuit(records, n)
    assert emit_text(circ, "display") == expected_text(records)
