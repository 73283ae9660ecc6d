"""CLI: every paper gate name invocable, determinism, exit codes, files."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qubusim import elements as el
from qubusim import pipelines as pl
from qubusim import polarization_state, state_to_dict
from qubusim.analysis import alpha_for_beta2
from qubusim.cli import (
    DEMO_GATES,
    GATES,
    build_parser,
    main,
    parse_state_spec,
    parse_unitary_spec,
)
from qubusim.synthesis import random_haar_unitary

from conftest import THETA, haar_vec

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "qubusim.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )
    return proc


@pytest.mark.parametrize("name", DEMO_GATES)
def test_every_gate_name_invocable(name, tmp_path):
    out = tmp_path / "r.json"
    args = ["gate", name, "--beta2", "20", "--out", str(out)]
    if name == "cn-uk":
        args += ["--targets", "2"]
    code = main(args)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["gate"] == name
    assert doc["report"]["success_probability"] == pytest.approx(1.0, abs=1e-6)


def test_gate_basis_input_and_toffoli_truth(tmp_path):
    out = tmp_path / "t.json"
    assert main(["gate", "toffoli", "--input", "VVH", "--beta2", "20", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["success_probability"] == pytest.approx(1.0, abs=1e-6)
    # output carries |VVV> on the carrier photons
    pols = {
        tuple(sorted((p["id"], p["pol"]) for p in br["photons"]))
        for br in doc["state"]["branches"]
        if abs(complex(br["amplitude"][0], br["amplitude"][1])) > 1e-3
    }
    assert len(pols) == 1
    assert all(pol == "V" for _, pol in next(iter(pols)))


def test_byte_identical_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["gate", "parity", "--input", "haar:3", "--beta2", "20", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_1():
    assert main(["gate", "not-a-gate"]) == 1
    assert main(["bogus-command"]) == 1


@pytest.mark.parametrize("argv", [
    ["gate", "parity", "--eta", "7"],
    ["gate", "parity", "--format", "csv"],
    ["run", "p.json", "--alpha", "3"],
    ["run", "p.json", "--format", "csv"],
    ["decompose", "qft:2", "--theta", "0.9"],
    ["sweep", "spec.json", "--gamma", "5"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv):
    assert main(argv) == 1


def _write_program(tmp_path, photons, coeffs, steps, alpha):
    program = {
        "photons": [{"id": pid, "path": f"t{pid}"} for pid in photons],
        "coeffs": [[float(c.real), float(c.imag)] for c in coeffs],
        "alpha": alpha,
        "theta": THETA,
        "gates": steps,
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(program))
    return path


@pytest.mark.parametrize("name", DEMO_GATES)
def test_gate_demo_as_program_matches_gate_command(name, tmp_path):
    """`run` on a gate's demo wiring reproduces what `gate NAME` reports."""
    extra = ["--targets", "2"] if name == "cn-uk" else []
    n = GATES[name].photons
    coeffs = haar_vec(2**n, 11)
    spec = json.dumps([[float(c.real), float(c.imag)] for c in coeffs])
    gate_out = tmp_path / "gate.json"
    assert main(["gate", name, "--input", spec, "--beta2", "20", "--out", str(gate_out), *extra]) == 0
    gate_doc = json.loads(gate_out.read_text())

    ids = [str(i + 1) for i in range(n)]
    args = build_parser().parse_args(["gate", name, *extra])
    prog = _write_program(tmp_path, ids, coeffs, GATES[name].demo(ids, args),
                          alpha_for_beta2(20.0, THETA))
    run_out = tmp_path / "run.json"
    assert main(["run", str(prog), "--out", str(run_out)]) == 0
    run_doc = json.loads(run_out.read_text())
    assert run_doc["reports"][-1] == gate_doc["report"]
    assert run_doc["final_state"] == gate_doc["state"]


@pytest.mark.parametrize("gate, keys, call", [
    ("multi-qubit", {"photons": ["1", "2", "3"]},
     lambda s, u, a: pl.multi_qubit_gate(s, ["1", "2", "3"], u, a, THETA)),
    ("cn-uk", {"controls": ["1"], "targets": ["2", "3", "4"]},
     lambda s, u, a: pl.cn_uk(s, ["1"], ["2", "3", "4"], u, a, THETA)),
])
def test_program_unitary_spec_is_sized_from_photon_count(gate, keys, call, tmp_path):
    """"haar:5" without a size gets 2^k for the k photons the unitary acts on."""
    ids = sorted({*keys.get("photons", []), *keys.get("controls", []), *keys.get("targets", [])})
    coeffs = haar_vec(2 ** len(ids), 4)
    alpha = alpha_for_beta2(20.0, THETA)
    dim = 2 ** len(keys.get("targets", keys.get("photons")))
    prog = _write_program(tmp_path, ids, coeffs, [{"gate": gate, "unitary": "haar:5", **keys}], alpha)
    out = tmp_path / "out.json"
    assert main(["run", str(prog), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    state = polarization_state(coeffs, [(pid, f"t{pid}") for pid in ids])
    want, report = call(state, random_haar_unitary(dim, 5), alpha)
    assert doc["final_state"] == state_to_dict(want)
    assert doc["reports"][-1]["success_probability"] == report.success_probability


def test_readme_lists_every_registry_step():
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Scope notes")]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == list(GATES)


def test_readme_lists_every_element_kind_with_its_targets():
    lines = README.read_text().splitlines()
    for kind, (keys, _) in el.ELEMENTS.items():
        line = next(line for line in lines if line.startswith(f"- `{kind}`:"))
        assert line.split(";")[0] == f"- `{kind}`: " + ", ".join(f"`{k}`" for k in keys)


def test_validation_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    for state in ("h", "HV", [[1, 0]], [[1, 0], [0, "x"]], [1, 0]):
        program = {"photons": [{"id": "1", "path": "t1", "state": state}], "gates": []}
        bad.write_text(json.dumps(program))
        assert main(["run", str(bad)]) == 2, state
    program = {"photons": [{"id": "1", "path": "t1"}], "coeffs": [[1], [0, 0]], "gates": []}
    bad.write_text(json.dumps(program))
    assert main(["run", str(bad)]) == 2
    matrix = tmp_path / "m.json"
    for data in ([[1, 0], [1, 0]], [[[1]]]):
        matrix.write_text(json.dumps(data))
        assert main(["decompose", str(matrix)]) == 2, data
    assert main(["gate", "parity", "--input", "[[1],[0,0],[0,0],[0,0]]"]) == 2
    assert main(["gate", "parity", "--input", "5"]) == 2
    step = {"gate": "element", "kind": "PolRot", "parameter": "x",
            "targets": {"photon": "1", "path": "t1"}}
    program = {"photons": [{"id": "1", "path": "t1"}], "gates": [step]}
    bad.write_text(json.dumps(program))
    assert main(["run", str(bad)]) == 2


def test_decompose_identity(tmp_path):
    out = tmp_path / "mesh.json"
    matrix = tmp_path / "id.json"
    matrix.write_text(json.dumps([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert main(["decompose", str(matrix), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reconstruction_error"] < 1e-12


def test_decompose_haar_spec(tmp_path):
    out = tmp_path / "mesh.json"
    assert main(["decompose", "haar:5:8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reconstruction_error"] < 1e-10
    assert len(doc["mesh"]["rotations"]) <= 28


def test_fig2_files_and_peak_means(tmp_path):
    prefix = str(tmp_path / "fig2_")
    out = tmp_path / "summary.json"
    assert main([
        "fig2", "--gamma", "100", "--theta-probe", "0.05", "--beta2", "20",
        "--out-prefix", prefix, "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["peak_means"] == pytest.approx([12.50, 49.96, 112.3, 199.3], rel=5e-4)
    for f in doc["files"]:
        lines = Path(f).read_text().strip().splitlines()
        assert lines[0] == "n,probability"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)


def test_sweep_csv(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "quantity": "P_E_formula",
        "grid": {"theta": [0.02, 0.05, 0.1]},
        "fixed": {"eta": 0.9},
    }))
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(spec), "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows


def test_run_program_and_verify_golden(tmp_path):
    assert main(["verify", str(GOLDEN)]) == 0


def test_verify_fails_on_wrong_expectation(tmp_path):
    case = json.loads((GOLDEN / "parity_hv_odd.json").read_text())
    # corrupt the expectation: flip a polarization
    case["expected_state"]["branches"][0]["photons"][0]["pol"] = (
        "V" if case["expected_state"]["branches"][0]["photons"][0]["pol"] == "H" else "H"
    )
    baddir = tmp_path / "golden"
    baddir.mkdir()
    (baddir / "corrupt.json").write_text(json.dumps(case))
    assert main(["verify", str(baddir)]) == 2


@pytest.mark.parametrize("spelling", ["c_path", "c-path", "c_Path"])
def test_run_program_step_name_spellings(spelling, tmp_path):
    """Step names match with '-' and '_' ignored; case still matters."""
    case = json.loads((GOLDEN / "cpath_superposition.json").read_text())
    program = case["program"]
    assert program["gates"][0]["gate"] == "cpath"
    prog, ref, out = tmp_path / "prog.json", tmp_path / "ref.json", tmp_path / "out.json"
    prog.write_text(json.dumps(program))
    assert main(["run", str(prog), "--out", str(ref)]) == 0
    program["gates"][0]["gate"] = spelling
    prog.write_text(json.dumps(program))
    if spelling == "c_Path":
        assert main(["run", str(prog), "--out", str(out)]) == 1
    else:
        assert main(["run", str(prog), "--out", str(out)]) == 0
        assert out.read_bytes() == ref.read_bytes()


def test_run_program_raw_element_step(tmp_path):
    program = {
        "photons": [{"id": "1", "path": "t1", "state": "H"}],
        "gates": [
            {"gate": "element", "kind": "WavePlateX", "targets": {"photon": "1", "path": "t1"}}
        ],
    }
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps(program))
    out = tmp_path / "out.json"
    assert main(["run", str(prog), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["final_state"]["branches"][0]["photons"][0]["pol"] == "V"


def test_run_program_teleport_roundtrip(tmp_path):
    program = {
        "photons": [
            {"id": "1", "path": "t1", "state": [[0.6, 0.0], [0.8, 0.0]]},
            {"id": "2", "path": "t2", "state": "+"},
        ],
        "alpha": math.sqrt(4000.0),
        "gates": [{"gate": "teleport", "photons": ["1", "2"]}],
    }
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps(program))
    out = tmp_path / "out.json"
    assert main(["run", str(prog), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["success_probability"] == pytest.approx(1.0, abs=1e-6)


def test_parse_state_spec_variants():
    s = parse_state_spec("HV", 2, 0)
    assert len(s.branches) == 1
    s = parse_state_spec("haar:5", 2, 0)
    assert abs(sum(abs(b.amplitude) ** 2 for b in s.branches) - 1.0) < 1e-9
    s = parse_state_spec("[[1,0],[0,0],[0,0],[1,0]]", 2, 0)
    assert len(s.branches) == 2


def test_parse_unitary_spec_variants():
    assert np.allclose(parse_unitary_spec("qft:2"), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    u = parse_unitary_spec("haar:3:4")
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    cnot = parse_unitary_spec("cnot")
    assert np.allclose(cnot @ cnot, np.eye(4))


def test_console_entry_point():
    proc = run_cli(["gate", "parity", "--input", "HH", "--beta2", "20"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["gate"] == "parity"
