import json

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from csdcirc import matrices
from csdcirc._bytescan import _text_table
from csdcirc.cli import main
from csdcirc.emitters import parse_json, parse_text
from csdcirc.errors import CsdcircError, JsonFormatError, TextSyntaxError
from csdcirc.matrices import format_matrix_text, parse_matrix_json, parse_matrix_text
from paper_data import SQUARE_GRAPH_TEXT, SQUARE_WALK


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_compile_identity(tmp_path, capsys):
    mat = write(tmp_path, "id.mat", format_matrix_text(np.eye(4)))
    assert main(["compile", mat, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "total=0" in out
    assert "verify residual: 0.000e+00" in out


def test_compile_random_real(tmp_path, capsys):
    o = ortho_group.rvs(8, random_state=1)
    mat = write(tmp_path, "o.mat", format_matrix_text(o))
    assert main(["compile", mat, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "ry=28" in out and "rz=0" in out
    assert "GATEY" in out and "GATEZ" not in out


def test_compile_complex_writes_all_formats(tmp_path, capsys):
    u = unitary_group.rvs(8, random_state=2)
    mat = write(tmp_path, "u.mat", format_matrix_text(u))
    out_prefix = str(tmp_path / "circ")
    code = main(
        ["compile", mat, "--format", "text,json,latex", "--mode", "exact",
         "--out", out_prefix, "--verify"]
    )
    assert code == 0
    assert (tmp_path / "circ.txt").exists()
    assert (tmp_path / "circ.json").exists()
    assert (tmp_path / "circ.tex").exists()
    counts_line = [ln for ln in capsys.readouterr().out.splitlines() if "subgates" in ln][0]
    assert "total=64" in counts_line


def test_pipeline_real_rejects_complex_input(tmp_path):
    u = unitary_group.rvs(4, random_state=3)
    mat = write(tmp_path, "u.mat", format_matrix_text(u))
    assert main(["compile", mat, "--pipeline", "real"]) == 6


def test_not_unitary_exit_code(tmp_path):
    mat = write(tmp_path, "bad.mat", format_matrix_text(np.eye(4) * 1.01))
    assert main(["compile", mat]) == 3


def test_parse_error_exit_code(tmp_path):
    mat = write(tmp_path, "junk.mat", "not a matrix\n")
    assert main(["compile", mat]) == 2
    assert main(["compile", str(tmp_path / "missing.mat")]) == 2


def test_usage_exit_code():
    assert main([]) == 1
    assert main(["compile"]) == 1
    assert main(["walk"]) == 2  # neither graph file nor --random


def test_walk_square_graph(tmp_path, capsys):
    graph = write(tmp_path, "square.g", SQUARE_GRAPH_TEXT)
    prefix = str(tmp_path / "sq")
    code = main(["walk", graph, "--dump-matrix", "--out", prefix, "--verify"])
    assert code == 0
    dumped = parse_matrix_text((tmp_path / "sq.mat").read_text())
    assert np.array_equal(dumped, SQUARE_WALK)
    out = capsys.readouterr().out
    assert "total=18" in out


def test_dumped_walk_matrix_compiles_to_the_walk_runs_exact_text(tmp_path, capsys):
    walk = str(tmp_path / "walk")
    assert main(["walk", "--random", "12", "--arcs", "61", "--seed", "5", "--dump-matrix", "--out", walk]) == 0
    assert "qubits: 6" in capsys.readouterr().out
    dumped = (tmp_path / "walk.mat").read_text()
    assert matrices._matrix_values(_text_table(dumped)) is not None  # read by the numpy passes
    assert main(["compile", walk + ".mat", "--out", str(tmp_path / "compiled")]) == 0
    assert (tmp_path / "compiled.txt").read_bytes() == (tmp_path / "walk.txt").read_bytes()


def test_walk_random_graph(tmp_path, capsys):
    code = main(["walk", "--random", "12", "--arcs", "61", "--seed", "5"])
    assert code == 0
    assert "qubits: 6" in capsys.readouterr().out


def test_compile_then_verify_round_trip(tmp_path, capsys):
    o = ortho_group.rvs(8, random_state=6)
    mat = write(tmp_path, "o.mat", format_matrix_text(o))
    prefix = str(tmp_path / "c")
    assert main(["compile", mat, "--format", "text,json", "--mode", "exact", "--out", prefix]) == 0
    assert main(["verify", prefix + ".txt", mat]) == 0
    assert main(["verify", prefix + ".json", mat]) == 0


def test_verify_detects_perturbation(tmp_path):
    o = ortho_group.rvs(8, random_state=7)
    mat = write(tmp_path, "o.mat", format_matrix_text(o))
    prefix = str(tmp_path / "c")
    assert main(["compile", mat, "--format", "json", "--out", prefix]) == 0
    obj = json.loads((tmp_path / "c.json").read_text())
    for gate in obj["gates"]:
        if gate["kind"] == "ry" and any(abs(a) > 0.1 for a in gate["angles"]):
            gate["angles"][0] += 1e-3
            break
    (tmp_path / "c.json").write_text(json.dumps(obj))
    assert main(["verify", prefix + ".json", mat]) == 5


def test_verify_dimension_mismatch(tmp_path):
    o = ortho_group.rvs(8, random_state=8)
    mat8 = write(tmp_path, "o8.mat", format_matrix_text(o))
    mat4 = write(tmp_path, "o4.mat", format_matrix_text(np.eye(4)))
    prefix = str(tmp_path / "c")
    assert main(["compile", mat8, "--format", "json", "--out", prefix]) == 0
    assert main(["verify", prefix + ".json", mat4]) == 2


def test_verify_rejects_a_qubit_count_too_large_to_build(tmp_path, capsys):
    big = write(tmp_path, "big.json", json.dumps({"n_qubits": 10**30, "gates": []}))
    mat = write(tmp_path, "id2.mat", format_matrix_text(np.eye(2)))
    assert main(["verify", big, mat]) == 2
    assert capsys.readouterr().err == f"error: circuit has {10**30} qubits but the matrix needs 1\n"


def test_stats_command(tmp_path, capsys):
    o = ortho_group.rvs(8, random_state=9)
    mat = write(tmp_path, "o.mat", format_matrix_text(o))
    prefix = str(tmp_path / "c")
    assert main(["compile", mat, "--format", "text", "--mode", "exact", "--out", prefix]) == 0
    capsys.readouterr()
    assert main(["stats", prefix + ".txt"]) == 0
    out = capsys.readouterr().out
    assert "ry=28" in out


def test_padding_of_non_power_of_two(tmp_path, capsys):
    u = unitary_group.rvs(5, random_state=10)
    mat = write(tmp_path, "u5.mat", format_matrix_text(u))
    assert main(["compile", mat, "--verify"]) == 0
    assert "qubits: 3" in capsys.readouterr().out


def test_compile_walk_and_stats_print_the_same_report_lines(tmp_path, capsys):
    mat = write(tmp_path, "u5.mat", format_matrix_text(unitary_group.rvs(5, random_state=10)))
    prefix = str(tmp_path / "c")
    assert main(["compile", mat, "--out", prefix]) == 0
    compiled = capsys.readouterr()
    assert compiled.out.startswith("qubits: 3\nsubgates: ry=")
    assert compiled.err.startswith("padded 5 -> 8 (n = 3)\ncompiled in ")
    assert main(["stats", prefix + ".txt"]) == 0
    assert capsys.readouterr() == (compiled.out, "")
    assert main(["walk", "--random", "5", "--seed", "1", "--out", prefix]) == 0
    walked = capsys.readouterr()
    assert walked.err.startswith("walk operator: 11 arcs over 5 nodes\npadded 11 -> 16 (n = 4)\ncompiled in ")
    assert main(["stats", prefix + ".txt"]) == 0
    assert capsys.readouterr() == (walked.out, "")


def test_outputs_are_deterministic(tmp_path):
    u = unitary_group.rvs(8, random_state=11)
    mat = write(tmp_path, "u.mat", format_matrix_text(u))
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["compile", mat, "--format", "text,json,latex", "--out", p1]) == 0
    assert main(["compile", mat, "--format", "text,json,latex", "--out", p2]) == 0
    for ext in (".txt", ".json", ".tex"):
        assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()


def test_unknown_format_rejected(tmp_path):
    mat = write(tmp_path, "id.mat", format_matrix_text(np.eye(2)))
    assert main(["compile", mat, "--format", "qasm"]) == 2


def test_display_mode_output_matches_turn_fractions(tmp_path, capsys):
    mat = write(tmp_path, "x.mat", format_matrix_text(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert main(["compile", mat, "--mode", "display"]) == 0
    out = capsys.readouterr().out
    assert "0.5000" in out


def test_numerical_failure_exit_code(tmp_path):
    u = unitary_group.rvs(4, random_state=12)
    mat = write(tmp_path, "u.mat", format_matrix_text(u))
    assert main(["compile", mat, "--tol-reconstruct", "1e-30"]) == 4


@pytest.mark.parametrize("k", ["0", "-3"])
def test_verify_samples_below_one_is_a_usage_error(tmp_path, k):
    mat = write(tmp_path, "id.mat", format_matrix_text(np.eye(2)))
    assert main(["compile", mat, "--verify", "--verify-samples", k]) == 1
    assert main(["verify", mat, mat, "--verify-samples", k]) == 1


def test_latex_header_counts_the_printed_total(tmp_path, capsys):
    u = unitary_group.rvs(8, random_state=1)
    mat = write(tmp_path, "u8.mat", format_matrix_text(u))
    prefix = str(tmp_path / "c")
    args = ["compile", mat, "--tol-zero", "0.5", "--format", "text,latex", "--out", prefix]
    assert main(args) == 0
    total = capsys.readouterr().out.split("total=")[1].split()[0]
    assert int(total) < 64
    header = (tmp_path / "c.tex").read_text().splitlines()[1]
    assert header.endswith(f"columns: {total}")


GOOD_CIRCUIT = {
    "n_qubits": 2,
    "gates": [
        {"kind": "ry", "target": 2, "controls": [1], "angles": [0.1, 0.2]},
        {"kind": "pi", "target": 2, "controls": [1], "flags": "NY"},
        {"kind": "phase", "phase": 0.3},
    ],
}
BAD_CIRCUITS = {
    "controls-int": lambda c: c["gates"][0].update(controls=5),
    "phase-null": lambda c: c["gates"][2].update(phase=None),
    "gates-int": lambda c: c.update(gates=5),
    "gates-of-int": lambda c: c.update(gates=[1]),
    "flags-int": lambda c: c["gates"][1].update(flags=7),
    "angle-null": lambda c: c["gates"][0].update(angles=[None, 0.2]),
    "angle-nan": lambda c: c["gates"][0].update(angles=[0.1, float("nan")]),
    "angle-inf": lambda c: c["gates"][0].update(angles=[float("inf"), 0.2]),
    "angle-minus-inf": lambda c: c["gates"][0].update(angles=[0.1, float("-inf")]),
    "phase-nan": lambda c: c["gates"][2].update(phase=float("nan")),
    "phase-inf": lambda c: c["gates"][2].update(phase=float("inf")),
    "target-float": lambda c: c["gates"][0].update(target=1.5),
    "control-float": lambda c: c["gates"][1].update(controls=[1.9]),
    "control-bool": lambda c: c["gates"][0].update(controls=[True]),
    "n-qubits-float": lambda c: c.update(n_qubits=2.7),
    "flags-letter": lambda c: c["gates"][1].update(flags="NQ"),
    "flags-list": lambda c: c["gates"][1].update(flags=["N", "Y"]),
    "angle-string": lambda c: c["gates"][0].update(angles=["0.5", 0.2]),
    "angle-bool": lambda c: c["gates"][0].update(angles=[True, 0.2]),
    "angle-huge-int": lambda c: c["gates"][0].update(angles=[10**400, 0.2]),
    "angles-string": lambda c: c["gates"][0].update(angles="ab"),
    "phase-string": lambda c: c["gates"][2].update(phase="1.5"),
    "phase-bool": lambda c: c["gates"][2].update(phase=True),
    "phase-huge-int": lambda c: c["gates"][2].update(phase=10**400),
}
BAD_MATRICES = {
    "entries-int": {"dim": 1, "real": False, "entries": 5},
    "entry-null": {"dim": 1, "real": False, "entries": [[None, 0]]},
    "entry-bools": {"dim": 1, "real": False, "entries": [[True, False]]},
    "entry-imag-bool": {"dim": 1, "real": True, "entries": [[1, False]]},
    # "real": true with an imaginary part: one that would round away, and one of a unitary's
    "real-entry-imag-small": {"dim": 2, "real": True, "entries": [[1, 1e-7], [0, 0], [0, 0], [1, 0]]},
    "real-entry-imag-one": {"dim": 2, "real": True, "entries": [[0, 1], [0, 0], [0, 0], [1, 0]]},
    "entry-string": {"dim": 1, "real": False, "entries": [["1", 0]]},
    "entry-huge-int": {"dim": 1, "real": False, "entries": [[10**400, 0]]},
    "dim-infinity": {"dim": float("inf"), "real": False, "entries": [[1, 0]]},
    "dim-float": {"dim": 1.5, "real": False, "entries": [[1, 0]]},
    "dim-bool": {"dim": True, "real": False, "entries": [[1, 0]]},
    "real-string": {"dim": 1, "real": "no", "entries": [[1, 0]]},
    "real-int": {"dim": 1, "real": 1, "entries": [[1, 0]]},
}


@pytest.mark.parametrize("corrupt", BAD_CIRCUITS.values(), ids=BAD_CIRCUITS.keys())
def test_malformed_circuit_json_is_a_parse_error(tmp_path, corrupt):
    obj = json.loads(json.dumps(GOOD_CIRCUIT))
    corrupt(obj)
    text = json.dumps(obj)
    with pytest.raises(JsonFormatError):
        parse_json(text)
    circuit = write(tmp_path, "c.json", text)
    assert main(["stats", circuit]) == 2
    assert main(["verify", circuit, write(tmp_path, "id.mat", format_matrix_text(np.eye(4)))]) == 2


@pytest.mark.parametrize("keyword", ["GATEY", "GATEZ", "GATEPHASE"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity", "sNaN"])
def test_non_finite_text_angle_is_a_parse_error(tmp_path, keyword, token):
    text = f"{keyword}\n  1;\n  {token}\n"
    with pytest.raises(TextSyntaxError):
        parse_text(text, 1)
    assert main(["stats", write(tmp_path, "c.txt", text)]) == 2


def test_gatephase_with_controls_is_a_parse_error(tmp_path):
    text = "GATEPHASE\n  1;  5\n  0.5  0.25\n"
    with pytest.raises(TextSyntaxError) as err:
        parse_text(text)
    assert err.value.line == 2
    assert main(["stats", write(tmp_path, "c.txt", text)]) == 2


@pytest.mark.parametrize("target", [7, 0, 2])
def test_gatephase_target_other_than_one_is_a_parse_error(tmp_path, target):
    text = f"GATEY\n  1;\n  0.25\nGATEPHASE\n  {target};\n  0.5\n"
    with pytest.raises(TextSyntaxError) as err:
        parse_text(text)
    assert err.value.line == 5
    assert main(["stats", write(tmp_path, "c.txt", text)]) == 2


@pytest.mark.parametrize("obj", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
def test_malformed_matrix_json_is_a_parse_error(tmp_path, obj):
    text = json.dumps(obj)
    with pytest.raises(CsdcircError):
        parse_matrix_json(text)
    assert main(["compile", write(tmp_path, "m.json", text)]) == 2
