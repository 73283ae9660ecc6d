"""CLI: every paper gate name invocable, determinism, exit codes, files."""

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from qubusim import StateError, cli
from qubusim import analysis as an
from qubusim import elements as el
from qubusim import pipelines as pl
from qubusim import polarization_state, state_from_dict, state_to_dict
from qubusim.analysis import alpha_for_beta2
from qubusim.cli import (
    DEMO_GATES,
    GATES,
    build_parser,
    main,
    parse_state_spec,
    parse_unitary_spec,
)
from qubusim.detection import MAX_FOCK_CUTOFF
from qubusim.synthesis import random_haar_unitary

from conftest import THETA, haar_vec, uncache

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


@pytest.mark.parametrize("photons", ["2", "4"])
def test_multi_qubit_demo_sizes_its_unitary_from_the_photon_count(photons, tmp_path):
    out = tmp_path / "r.json"
    assert main(["gate", "multi-qubit", "--photons", photons, "--beta2", "20", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["success_probability"] == pytest.approx(1.0, abs=1e-6)


MERGE = ["merging", "entangler1", "merging_readout"]
REPORT_NAMES = [
    (["entangler1"], ["entangler1"]),
    (["entangler2"], ["entangler2"]),
    (["entangler3"], ["entangler3"]),
    (["entangler4"], ["entangler4"]),
    (["merging"], MERGE),
    (["merging-n"], ["merging_n", "entangler4", "merging_n_readout"]),
    (["from-qudit"], ["from_qudit", "entangler3", "entangler3",
                      "merging_n", "entangler4", "merging_n_readout"]),
    (["from-qudit", "--photons", "2"], ["from_qudit", "entangler2", *MERGE]),
    (["toffoli"], ["toffoli", "c_path", "c_path3", *MERGE, *MERGE]),
]


@pytest.mark.parametrize("args, names", REPORT_NAMES, ids=[" ".join(a) for a, _ in REPORT_NAMES])
def test_gate_report_names(args, names, tmp_path):
    # depth-first gate names of the report tree: the two-rail Entangler and
    # Merging stages keep their own names
    out = tmp_path / "r.json"
    assert main(["gate", *args, "--beta2", "20", "--out", str(out)]) == 0

    def walk(rep):
        return [rep["gate"]] + [n for child in rep["children"] for n in walk(child)]

    assert walk(json.loads(out.read_text())["report"]) == names


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


@pytest.mark.parametrize("name, flag, value, code", [
    ("two-qubit", "--unitary", "cnot", 0),
    ("parity", "--unitary", "cnot", 1),
    ("cn-uk", "--targets", "2", 0),
    ("toffoli", "--targets", "2", 1),
    ("toffoli", "--layout", "compact", 0),
    ("parity", "--layout", "compact", 1),
    ("parity", "--layout", "split", 1),
    ("from-qudit", "--interference", "hadamard4", 0),
    ("cpath", "--interference", "hadamard4", 1),
    ("cn-uk", "--seed", "9", 0),
    ("parity", "--seed", "9", 1),
])
def test_gate_flag_its_demo_does_not_read_is_a_usage_error(name, flag, value, code, tmp_path,
                                                            capsys):
    argv = ["gate", name, flag, value, "--beta2", "20", "--out", str(tmp_path / "r.json")]
    assert main(argv) == code
    if code:
        assert f"gate {name!r} does not take {flag}" in capsys.readouterr().err


def test_alpha_and_beta2_are_exclusive(capsys):
    # beta2 sets alpha, so an alpha beside it would be ignored
    assert main(["gate", "parity", "--beta2", "20", "--alpha", "5"]) == 1
    assert "argument --alpha: not allowed with argument --beta2" in capsys.readouterr().err


def test_an_overflowing_beta2_is_refused_by_name(tmp_path, capsys):
    # alpha = sqrt(beta2 / (2 sin^2 theta)) passes the float range: the error
    # names the beta2 and theta given, not the alpha they would set
    assert main(["gate", "parity", "--beta2", "1e308"]) == 2
    err = capsys.readouterr().err
    assert "beta2 = 1e+308 at theta = 0.05" in err and "alpha must" not in err
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"quantity": "gate_fidelity", "grid": {"beta2": [4.0, 1e308]}}))
    assert main(["sweep", str(spec)]) == 2
    assert "beta2 = 1e+308 at theta = 0.05" in capsys.readouterr().err


def test_a_fock_cutoff_past_the_limit_is_refused_in_a_short_line(capsys):
    assert main(["gate", "parity", "--beta2", "1e250"]) == 2
    err = capsys.readouterr().err
    assert f"exceeds the limit {MAX_FOCK_CUTOFF}" in err and len(err) < 200, err


@pytest.mark.parametrize("quantity", ["pmf", "P_E_direct", None], ids=["pmf", "P_E_direct", "fig2"])
def test_a_poisson_cutoff_past_the_limit_is_refused_in_a_short_line(quantity, tmp_path, capsys):
    if quantity is None:
        argv = ["fig2", "--beta2", "1e250", "--out-prefix", str(tmp_path / "f_")]
    else:
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"quantity": quantity, "grid": {"beta2": [1e250]}}))
        argv = ["sweep", str(spec)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"needs cutoff 1e+250, above the limit {MAX_FOCK_CUTOFF}" in err and len(err) < 200, err


def test_seed_is_read_by_a_bare_haar_input(tmp_path):
    bare, seeded = tmp_path / "bare.json", tmp_path / "seeded.json"
    common = ["--beta2", "20", "--out"]
    assert main(["gate", "parity", "--input", "haar", "--seed", "9", *common, str(bare)]) == 0
    assert main(["gate", "parity", "--input", "haar:9", *common, str(seeded)]) == 0
    bare_doc, seeded_doc = json.loads(bare.read_text()), json.loads(seeded.read_text())
    assert bare_doc["seed"] == 9 and bare_doc["state"] == seeded_doc["state"]


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
    # the keys column lists each step's declared keys in order, "?" marking optional ones
    for row in rows:
        name, keys = row.split("`")[1], row.split("|")[3]
        assert re.findall(r"`([^`]+)`", keys) == list(GATES[name].keys), name


def test_readme_lists_every_element_kind_with_its_targets():
    lines = README.read_text().splitlines()
    for kind, (keys, _) in el.ELEMENTS.items():
        line = next(line for line in lines if line.startswith(f"- `{kind}`:"))
        assert line.split(";")[0] == f"- `{kind}`: " + ", ".join(f"`{k}`" for k in keys)


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e-170, 1e-200, 1e-320])
def test_extreme_coefficients_read_as_their_direction(scale, tmp_path):
    # Σ|a|² of these overflows or underflows; `gate --input` and a program's
    # coeffs still give what [1, 1, 0, 0] gives
    def outputs(coeffs):
        docs = []
        for argv in (["gate", "parity", "--input", json.dumps(coeffs), "--beta2", "20"],
                     ["run", str(_write_program(tmp_path, ["1", "2"], coeffs,
                                                [{"gate": "parity", "photons": ["1", "2"]}],
                                                alpha_for_beta2(20.0, THETA)))]):
            out = tmp_path / "out.json"
            assert main([*argv, "--out", str(out)]) == 0, argv
            docs.append(json.loads(out.read_text()))
        (gate, run) = docs
        return [(gate["report"], gate["state"]), (run["reports"][-1], run["final_state"])]

    for (rep, st), (want_rep, want_st) in zip(outputs([scale, scale, 0, 0]), outputs([1, 1, 0, 0])):
        assert abs(rep["success_probability"] - want_rep["success_probability"]) <= 1e-12
        got, want = state_from_dict(st), state_from_dict(want_st)
        assert np.array_equal(got.codes, want.codes) and np.array_equal(got.qubus, want.qubus)
        assert np.abs(got.amps - want.amps).max() <= 1e-12


def test_an_all_zero_or_non_finite_coefficient_vector_exits_2(tmp_path, capsys):
    zero = "cannot normalize a (numerically) zero state"
    for coeffs, err in (
        ([0, 0, 0, 0], zero),
        ([math.inf, 0, 0, 0], "entry inf is not a finite number"),
        ([math.nan, 1, 0, 0], "entry nan is not a finite number"),
        ([10**400, 0, 0, 0], f"entry {10**400} is not a finite number"),
    ):
        program = tmp_path / "prog.json"
        program.write_text(json.dumps({"photons": [{"id": "1", "path": "t1"}, {"id": "2", "path": "t2"}],
                                       "coeffs": coeffs}))
        for argv in (["gate", "parity", "--input", json.dumps(coeffs)], ["run", str(program)]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert f"error: {err}" in capsys.readouterr().err, argv


_CPATH_PLUS = [{"gate": "cpath", "control": "1", "target": "2"}, {"gate": "plus", "photon": "anc"}]


@pytest.mark.parametrize("steps, err", [
    ([{"gate": "cpath", "control": "2", "target": "2"}],
     "control and target must be distinct, got ['2', '2']"),
    ([{"gate": "parity", "photons": ["1", "1"]}], "parity photons must be distinct, got ['1', '1']"),
    (_CPATH_PLUS + [{"gate": "merging", "photon": "2", "ancilla": "anc", "companions": ["2"]}],
     "photon, ancilla and companions must be distinct, got ['2', 'anc', '2']"),
    (_CPATH_PLUS + [{"gate": "merging", "photon": "2", "ancilla": "anc", "companions": ["anc"]}],
     "photon, ancilla and companions must be distinct, got ['2', 'anc', 'anc']"),
    (_CPATH_PLUS + [{"gate": "merging", "photon": "2", "ancilla": "anc", "companions": ["1"],
                     "rails": ["t2", "t2"]}], "rails must be distinct, got ['t2', 't2']"),
], ids=["cpath", "parity", "merging-companion-photon", "merging-companion-ancilla",
        "merging-rails"])
def test_a_program_naming_one_photon_in_two_roles_exits_2(steps, err, tmp_path, capsys):
    prog = _write_program(tmp_path, ["1", "2"], haar_vec(4, 5), steps, alpha_for_beta2(20.0, THETA))
    assert main(["run", str(prog)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_validation_error_exit_2(tmp_path, capsys, monkeypatch):
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
    for data in ([[1, 0], [1, 0]], [[[1]]], 5, [1, 2]):
        matrix.write_text(json.dumps(data))
        assert main(["decompose", str(matrix)]) == 2, data
    assert main(["gate", "parity", "--input", "[[1],[0,0],[0,0],[0,0]]"]) == 2
    assert main(["gate", "parity", "--input", "5"]) == 2
    for flag in ("--alpha", "--theta"):
        capsys.readouterr()
        assert main(["gate", "parity", flag, "nan"]) == 2
        assert f"{flag[2:]} must be a finite number" in capsys.readouterr().err
    step = {"gate": "element", "kind": "PolRot", "parameter": "x",
            "targets": {"photon": "1", "path": "t1"}}
    program = {"photons": [{"id": "1", "path": "t1"}], "gates": [step]}
    bad.write_text(json.dumps(program))
    assert main(["run", str(bad)]) == 2
    step = {"gate": "element", "kind": "PolPhase", "parameter": 1.0,
            "targets": {"photon": "1", "path": "t1", "pol": "X"}}
    for program, err in (
        ({"photons": [{"id": "1", "path": "t1"}], "gates": [step]}, "bad polarization 'X'"),
        ({"photons": []}, "a program needs at least one photon"),
        ({"photons": "x"}, "program: key 'photons' must be a list of objects, got 'x'"),
        ({"photons": [5]}, "program: key 'photons' must be a list of objects, got [5]"),
        ({"photons": [{"id": "1", "path": "t1"}], "gates": 5},
         "program: key 'gates' must be a list of objects, got 5"),
        ({"photons": [{"id": "1", "path": "t1"}], "gates": [5]},
         "program: key 'gates' must be a list of objects, got [5]"),
        ([], "program must be a JSON object, got []"),
    ):
        bad.write_text(json.dumps(program))
        capsys.readouterr()
        assert main(["run", str(bad)]) == 2, program
        assert f"error: {err}" in capsys.readouterr().err, program
    # a beam splitter or switch that names one path twice is refused by name
    for kind in ("PhotonBS", "PathSwitch"):
        step = {"gate": "element", "kind": kind,
                "targets": {"photon": "1", "path_a": "a", "path_b": "a"}}
        bad.write_text(json.dumps({"photons": [{"id": "1", "path": "a"}], "gates": [step]}))
        capsys.readouterr()
        assert main(["run", str(bad)]) == 2, kind
        assert "path 'a' named twice for photon '1'" in capsys.readouterr().err, kind
    photons = [{"id": pid, "path": f"t{pid}"} for pid in ("1", "2", "3")]
    for gate in ("parity", "two-qubit"):
        step = {"gate": gate, "photons": ["1", "2", "3"], "unitary": "cnot"}
        bad.write_text(json.dumps({"photons": photons, "gates": [step]}))
        capsys.readouterr()
        assert main(["run", str(bad)]) == 2, gate
        assert f"step 0 ({gate}): key 'photons' must be a list of two photon ids" in (
            capsys.readouterr().err)
    for step, err in (
        ({"gate": "cn-uk", "controls": [], "targets": ["2", "3"], "unitary": "identity"},
         "controls must name at least one photon"),
        ({"gate": "cn-uk", "controls": ["1", "2"], "targets": [], "unitary": "identity"},
         "targets must name at least one photon"),
        ({"gate": "toffoli", "controls": ["1", "1"], "target": "2"},
         "photon ids must be distinct, repeated: ['1']"),
        ({"gate": "to-qudit", "photons": ["1", "1", "2"]},
         "photon ids must be distinct, repeated: ['1']"),
        ({"gate": "multi-qubit", "photons": ["1", "1", "3"], "unitary": "identity"},
         "photon ids must be distinct, repeated: ['1']"),
        ({"gate": "toffoli", "controls": ["1", "2"], "target": "3", "layout": "bogus"},
         "unknown C-path-3 layout 'bogus'"),
        # one control leaves no C-path-3 stage, and the layout is refused all the same
        ({"gate": "toffoli", "controls": ["1"], "target": "3", "layout": "bogus"},
         "unknown C-path-3 layout 'bogus'"),
        ({"gate": "cn-u1", "controls": ["1"], "target": "3", "unitary": "identity",
          "layout": "bogus"}, "unknown C-path-3 layout 'bogus'"),
    ):
        bad.write_text(json.dumps({"photons": photons, "gates": [step]}))
        capsys.readouterr()
        assert main(["run", str(bad)]) == 2, step
        assert err in capsys.readouterr().err, step
    to_qudit = {"gate": "to-qudit", "photons": ["1", "2", "3"]}
    # each key below was once parsed and ignored, or read without a type check
    toffoli = {"gate": "toffoli", "controls": ["1", "2"], "target": "3"}
    cpath = {"gate": "cpath", "control": "1", "target": "2"}
    disentangler = {**cpath, "gate": "disentangler", "rails": "t2"}
    waveplate = {"gate": "element", "kind": "WavePlateX",
                 "targets": {"photon": "1", "path": "t1", "pol": "H"}}
    for program, err in (
        ({"photons": photons, "gates": [{**toffoli, "layuot": "compact"}]},
         "step 0 (toffoli): unknown key 'layuot'"),
        ({"photons": photons, "alhpa": 5, "gates": [toffoli]}, "program: unknown key 'alhpa'"),
        ({"photons": photons, "gates": [{"gate": "toffoli", "target": "3"}]},
         "step 0 (toffoli): missing key 'controls'"),
        ({"photons": photons, "gates": [{"gate": 5}]},
         "step 0: key 'gate' must be a string, got 5"),
        ({"photons": photons, "gates": [cpath, disentangler]},
         "step 1 (disentangler): key 'rails' must be a list of strings, got 't2'"),
        ({"photons": [{"id": 5, "path": "t1"}, {"id": "2", "path": "t2"}]},
         "photon 0: key 'id' must be a string, got 5"),
        ({"photons": photons, "gates": [to_qudit, {"gate": "entangler3", "companion": "1",
                                                   "qudit": "3", "bit": True}]},
         "step 1 (entangler3): key 'bit' must be an integer, got True"),
        ({"photons": photons, "gates": [waveplate]}, "step 0 (element) targets: unknown key 'pol'"),
        # an unknown kind is refused before its targets, which no kind's keys can check
        ({"photons": photons, "gates": [
            toffoli, {"gate": "element", "kind": "Mirror", "targets": {"photon": "1", "bogus": "x"}}
        ]}, "step 1 (element): key 'kind' must be an element kind (PhotonBS, PBS, "),
        ({"photons": [{"id": "1", "path": "t1", "state": "V"}], "coeffs": [1, 0]},
         "photon 0: unknown key 'state'"),
    ):
        bad.write_text(json.dumps(program))
        capsys.readouterr()
        assert main(["run", str(bad)]) == 2, program
        assert f"error: {err}" in capsys.readouterr().err, program
    for spec, err in (
        ({"quantity": "P_E_formula", "grid": {"theta": [0.05]}, "fixd": {"beta2": 2000}},
         "sweep spec: unknown key 'fixd'"),
        ({"quantity": "P_E_formula", "grid": {"theta": 5}},
         "sweep grid 'theta' must be a non-empty list of finite numbers, got 5"),
        ({"quantity": "P_E_formula", "grid": {"theta": [0.05]}, "fixed": {"beta2": "x"}},
         "sweep fixed 'beta2' must be a finite number, got 'x'"),
    ):
        bad.write_text(json.dumps(spec))
        capsys.readouterr()
        assert main(["sweep", str(bad)]) == 2, spec
        assert f"error: {err}" in capsys.readouterr().err, spec
    # a program's unitary is a spec or a matrix, never a file name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cnot.json").write_text(json.dumps(parse_unitary_spec("cnot").real.tolist()))
    step = {"gate": "two-qubit", "photons": ["1", "2"], "unitary": "cnot.json"}
    bad.write_text(json.dumps({"photons": photons[:2], "gates": [step]}))
    assert main(["run", str(bad)]) == 2
    for step, err in (
        ({"bit": -1}, "bit must be 0..1 for 4 rails, got -1"),
        ({"bit": 2}, "bit must be 0..1 for 4 rails, got 2"),
        ({"bit": 5}, "bit must be 0..1 for 4 rails, got 5"),
        ({"rails": ["p1", "p2", "p3"]}, "rail count must be a power of two >= 2, got 3"),
        ({"rails": ["p1"]}, "rail count must be a power of two >= 2, got 1"),
    ):
        step = {"gate": "entangler3", "companion": "1", "qudit": "3", **step}
        bad.write_text(json.dumps({"photons": photons, "gates": [to_qudit, step]}))
        capsys.readouterr()
        assert main(["run", str(bad)]) == 2, step
        assert err in capsys.readouterr().err, step
    compact = "the compact layout needs at least two controls"
    for argv, err in (
        (["from-qudit", "--photons", "2", "--interference", "hadamard4"],
         "'hadamard4' interference needs four rails"),
        (["cn-u1", "--photons", "2", "--layout", "compact"], compact),
        (["toffoli", "--photons", "2", "--layout", "compact"], compact),
    ):
        capsys.readouterr()
        assert main(["gate", *argv]) == 2, argv
        assert err in capsys.readouterr().err, argv
    for argv, err in (
        (["--photons", "1"], "gate 'parity' needs at least 2 photons, got 1"),
        (["--photons", "-1"], f"--photons must be 1..{pl.MAX_PHOTONS}, got -1"),
        (["--photons", "0"], f"--photons must be 1..{pl.MAX_PHOTONS}, got 0"),
        (["--photons", str(pl.MAX_PHOTONS + 1)],
         f"--photons must be 1..{pl.MAX_PHOTONS}, got {pl.MAX_PHOTONS + 1}"),
        (["--beta2", "-5"], "beta2 must be a finite number >= 0, got -5.0"),
        (["--beta2", "nan"], "beta2 must be a finite number >= 0, got nan"),
        (["--beta2", "20", "--theta", "0"], "sin(theta) != 0, got 0.0"),
        (["--alpha", "0"], "coupling cannot separate outcomes: 2|alpha|^2 sin^2(theta) = 0"),
        (["--theta", "0"], "coupling cannot separate outcomes: 2|alpha|^2 sin^2(theta) = 0"),
        (["--alpha", "1e200"], "beam mean photon number inf is not finite"),
    ):
        capsys.readouterr()
        assert main(["gate", "parity", *argv]) == 2, argv
        assert err in capsys.readouterr().err, argv


def test_a_coupling_too_weak_to_reach_an_n_above_0_is_refused(capsys, tmp_path):
    """Below |β|² = −ln(1 − MIN_PROB) no n ≥ 1 outcome is kept, so every branch
    would read n=0 and report success from one outcome."""
    for argv in (["--theta", "1e-20"], ["--beta2", "1e-20"], ["--beta2", "1e-300"]):
        capsys.readouterr()
        assert main(["gate", "parity", *argv]) == 2, argv
        err = capsys.readouterr().err
        assert "coupling too weak to separate outcomes: |beta|^2" in err, argv
        assert "threshold 1e-13" in err, argv
    assert main(["gate", "parity", "--beta2", "4", "--out", str(tmp_path / "r.json")]) == 0


def _report_tree(report):
    yield report
    for child in report["children"]:
        yield from _report_tree(child)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=hst.sampled_from(DEMO_GATES), seed=hst.integers(0, 2**16),
       beta2=hst.sampled_from(["20", "200"]))
@example(name="toffoli", seed=3, beta2="20")
@example(name="cn-uk", seed=3, beta2="20")
def test_every_report_in_a_gate_tree_has_success_at_most_1(name, seed, beta2, tmp_path_factory):
    out = tmp_path_factory.mktemp("tree") / "r.json"
    args = ["gate", name, "--input", f"haar:{seed}", "--beta2", beta2, "--out", str(out)]
    if name == "cn-uk":
        args += ["--targets", "2"]
    assert main(args) == 0
    for report in _report_tree(json.loads(out.read_text())["report"]):
        assert 0.0 <= report["success_probability"] <= 1.0, report["gate"]


GOLDEN_PROGRAMS = [json.loads(p.read_text())["program"] for p in sorted(GOLDEN.glob("*.json"))]


def _checked_objects(program):
    """(object, its declared keys) for each object of a program that the schema checks."""
    yield program, cli._PROGRAM_KEYS
    for photon in program["photons"]:
        yield photon, cli._PHOTON_KEYS
    for step in program.get("gates", []):
        yield step, {**GATES[step["gate"]].keys, **cli._STEP_KEYS}
        if step["gate"] == "element":
            yield step["targets"], dict.fromkeys(el.ELEMENTS[step["kind"]][0])


def _json_kind(v) -> str:
    return "number" if isinstance(v, (int, float)) and not isinstance(v, bool) else type(v).__name__


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=hst.data())
def test_golden_program_mutants_are_refused_before_a_state_is_built(data):
    """Drop a required key, misspell a key or change a value's JSON type in a
    golden program: the check refuses it, names the key and builds no state."""
    program = copy.deepcopy(data.draw(hst.sampled_from(GOLDEN_PROGRAMS)))
    obj, keys = data.draw(hst.sampled_from(list(_checked_objects(program))))
    key = data.draw(hst.sampled_from(sorted(obj)))
    required = key in keys
    how = data.draw(hst.sampled_from(["drop", "misspell", "retype"] if required
                                     else ["misspell", "retype"]))
    named = key
    if how == "drop":
        del obj[key]
    elif how == "misspell":
        i = data.draw(hst.integers(0, len(key) - 2))
        typo = key[:i] + key[i + 1] + key[i] + key[i + 2:]
        assume(typo != key)
        obj[typo] = obj.pop(key)
        # a required key is reported missing before the unknown one
        named = key if required else typo
    else:
        # no key that takes one of these values takes a value of another JSON type
        others = [v for v in (True, 5, {"x": 1}) if _json_kind(v) != _json_kind(obj[key])]
        obj[key] = data.draw(hst.sampled_from(others))

    def unreachable(*args):
        raise AssertionError("a state was built for a program the schema refuses")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "polarization_state", unreachable)
        with pytest.raises(StateError, match=re.escape(repr(named))):
            cli.run_program(program)


def test_huge_photon_count_is_refused_before_a_state_is_built(monkeypatch, capsys):
    # 40 photons would ask for a 2**40-entry vector; the state builder must not be reached
    def unreachable(*args):
        raise AssertionError("a state was built for an out-of-range --photons")

    monkeypatch.setattr("qubusim.cli.parse_state_spec", unreachable)
    assert main(["gate", "parity", "--photons", "40"]) == 2
    assert f"--photons must be 1..{pl.MAX_PHOTONS}, got 40" in capsys.readouterr().err


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


@pytest.mark.parametrize("beta2", ["1e9", "nan", "-1"])
def test_fig2_refuses_a_bad_or_too_bright_beta2(beta2, tmp_path, capsys):
    assert main(["fig2", "--beta2", beta2, "--out-prefix", str(tmp_path / "f_")]) == 2
    assert re.match(r"error: .*beta2", capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize(
    "kind, targets",
    [
        ("WavePlateX", {"path": "t9"}),
        ("WavePlateZ", {"path": "t9"}),
        ("PBS", {"in_path": "t9", "out_h": "h", "out_v": "v"}),
        ("PBSpm", {"in_path": "t9", "out_plus": "p", "out_minus": "m"}),
        ("PolPhase", {"path": "t9", "pol": "V"}),
        ("PolRot", {"path": "t9"}),
    ],
)
def test_element_on_an_unregistered_path_exits_2(tmp_path, capsys, kind, targets):
    step = {"gate": "element", "kind": kind, "parameter": 0.3,
            "targets": {"photon": "1", **targets}}
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps({"photons": [{"id": "1", "path": "t1"}], "gates": [step]}))
    assert main(["run", str(prog)]) == 2
    assert "RegistryError: path 't9' not registered for photon '1'" in capsys.readouterr().err


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


@pytest.mark.parametrize("spec", ["haar:1:2", "hv", "", "XYZ", "haar:x", "haar:-1", "haar:", "{}"])
def test_malformed_input_spec_is_refused(spec, capsys):
    assert main(["gate", "parity", "--input", spec]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: input {spec!r} is not a basis string, a coefficient list "
                   "or haar[:seed]\n")


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


#: the program steps that couple nothing to a qubus, and so take no alpha or theta
UNCOUPLED_STEPS = ("disentangler", "element", "plus")
_PROGRAM_ONLY_STEPS = {
    "element": {"gate": "element", "kind": "WavePlateX", "targets": {"photon": "1", "path": "t1"}},
    "plus": {"gate": "plus", "photon": "anc"},
}


def _one_step(name: str) -> dict:
    """A step of gate name that the schema takes: its demo's last step."""
    if name in _PROGRAM_ONLY_STEPS:
        return _PROGRAM_ONLY_STEPS[name]
    args = build_parser().parse_args(["gate", name])
    return GATES[name].demo(["1", "2", "3"], args)[-1]


def test_alpha_and_theta_are_taken_by_exactly_the_coupling_steps(tmp_path, capsys):
    coupling = [name for name in GATES if name not in UNCOUPLED_STEPS]
    assert len(coupling) == 18 and set(UNCOUPLED_STEPS) <= set(GATES)
    for name in coupling:
        for key in ("alpha", "theta"):
            cli._checked_steps([{**_one_step(name), key: 0.5}])
    prog = tmp_path / "prog.json"
    photons = [{"id": "1", "path": "t1"}, {"id": "2", "path": "t2"}]
    takes = {"disentangler": "control, target, rails?, gate", "plus": "photon, path?, gate",
             "element": "kind, targets, parameter?, gate"}
    for name in UNCOUPLED_STEPS:
        for key in ("alpha", "theta"):
            step = {**_one_step(name), key: 1e-30}
            prog.write_text(json.dumps({"photons": photons, "gates": [step]}))
            capsys.readouterr()
            assert main(["run", str(prog)]) == 2, (name, key)
            assert capsys.readouterr().err == (
                f"error: step 0 ({name}): unknown key {key!r} (it takes {takes[name]})\n")


UNITARY_REFUSED = "is not cnot, identity, hadamard4, qft:N, haar:SEED[:N] or a JSON matrix"


@pytest.mark.parametrize("spec", ["haar:1:4:9", "qft:4:3", "haar: 1", "qft:x", "haar:1:x",
                                  "haar:-1:4", "haar:1:0", "identity:3", "qft:0", "haar:",
                                  "QFT:4", "cnot "])
def test_malformed_unitary_spec_is_refused(spec, capsys):
    assert main(["gate", "two-qubit", "--unitary", spec, "--beta2", "20"]) == 2
    assert capsys.readouterr().err == f"error: unitary {spec!r} {UNITARY_REFUSED}\n"
    assert main(["decompose", spec]) == 2
    assert capsys.readouterr().err == f"error: unitary {spec!r} {UNITARY_REFUSED}\n"


@pytest.mark.parametrize("argv, err", [
    (["two-qubit", "--unitary", "haar:1:8"], "unitary 'haar:1:8' is 8x8, but 4x4 is needed"),
    (["two-qubit", "--unitary", "qft:2"], "unitary 'qft:2' is 2x2, but 4x4 is needed"),
    (["cn-u1", "--unitary", "cnot"], "unitary 'cnot' is 4x4, but 2x2 is needed"),
    (["cn-uk", "--targets", "3", "--unitary", "hadamard4", "--photons", "4"],
     "unitary 'hadamard4' is 4x4, but 8x8 is needed"),
])
def test_a_unitary_spec_of_the_wrong_size_is_refused(argv, err, capsys):
    assert main(["gate", *argv, "--beta2", "20"]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_a_unitary_spec_of_the_wrong_size_builds_no_matrix(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a matrix was built for a spec of the wrong size")

    monkeypatch.setattr(cli.syn, "random_haar_unitary", unreachable)
    monkeypatch.setattr(cli.syn, "qft_matrix", unreachable)
    for spec in ("haar:1:100000", "qft:100000"):
        with pytest.raises(StateError, match="is 100000x100000, but 4x4 is needed"):
            parse_unitary_spec(spec, 4)


class _Built(Exception):
    """Raised by a stand-in matrix builder; main lets it through."""


def test_decompose_refuses_a_spec_past_the_desk_scale_cap_before_building_it(monkeypatch, capsys):
    def built(n, *args):
        raise _Built(n)

    monkeypatch.setattr(cli.syn, "random_haar_unitary", built)
    monkeypatch.setattr(cli.syn, "qft_matrix", built)
    cap = 2**pl.MAX_PHOTONS
    for spec in (f"haar:1:{cap + 1}", f"qft:{cap + 1}", "haar:1:100000", "qft:100000"):
        assert main(["decompose", spec]) == 2
        n = int(spec.rsplit(":", 1)[1])
        assert capsys.readouterr().err == (
            f"error: unitary {spec!r} is {n}x{n}, past the desk-scale cap of {cap}x{cap} "
            f"({pl.MAX_PHOTONS} photons)\n")
    for spec in (f"haar:1:{cap}", f"qft:{cap}"):  # the cap itself reaches the builder
        with pytest.raises(_Built):
            main(["decompose", spec])


@pytest.mark.parametrize("name", DEMO_GATES)
@pytest.mark.parametrize("photons", [1, 2])
def test_every_demo_on_one_or_two_photons_runs_or_is_refused(name, photons, tmp_path, capsys):
    least = GATES[name].least
    assert least == (3 if name in ("cpath2", "cpath3", "entangler3", "entangler4", "merging-n")
                     else 2)
    code = main(["gate", name, "--photons", str(photons), "--beta2", "20",
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == (0 if photons >= least else 2), err
    assert "Traceback" not in err
    if code:
        assert err == f"error: gate {name!r} needs at least {least} photons, got {photons}\n"


#: the demos of the n-rail gate families, whose reports name the gate from the rail count
RAIL_SHAPED = ("entangler1", "entangler2", "entangler3", "entangler4", "merging", "merging-n")


@pytest.mark.parametrize("name", DEMO_GATES)
@pytest.mark.parametrize("photons", range(3, pl.MAX_PHOTONS + 1))
def test_every_demo_runs_at_every_count_up_to_the_cap(name, photons, tmp_path):
    """With the counts the test above covers, every demo runs at every count
    from its least to MAX_PHOTONS, and still demos its own gate."""
    out = tmp_path / "r.json"
    argv = ["gate", name, "--photons", str(photons), "--beta2", "20", "--input", "haar:3"]
    assert main([*argv, "--out", str(out)]) == 0
    if name in RAIL_SHAPED:
        assert json.loads(out.read_text())["report"]["gate"] == name.replace("-", "_")


def test_a_demo_below_its_least_count_prints_no_traceback():
    proc = run_cli(["gate", "cpath2", "--photons", "2"])
    assert proc.returncode == 2
    assert proc.stderr == "error: gate 'cpath2' needs at least 3 photons, got 2\n"


@pytest.mark.parametrize("photons, targets", [(3, -1), (3, 0), (3, 3), (4, 4), (2, 2)])
def test_cn_uk_targets_outside_1_to_n_minus_1_are_refused(photons, targets, capsys):
    argv = ["gate", "cn-uk", "--photons", str(photons), "--targets", str(targets)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: gate 'cn-uk' needs 1 <= --targets <= --photons - 1, "
        f"got --targets {targets} with --photons {photons}\n")


@pytest.mark.parametrize("rails", [["t2"], ["t2", "t2x", "t2y"], []])
def test_a_cpath3_step_needs_two_rails(rails, tmp_path, capsys):
    photons = [{"id": pid, "path": f"t{pid}"} for pid in ("1", "2", "3")]
    steps = [{"gate": "cpath", "control": "1", "target": "2"},
             {"gate": "cpath3", "control": "2", "target": "3", "rails": rails}]
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps({"photons": photons, "gates": steps}))
    assert main(["run", str(prog)]) == 2
    assert capsys.readouterr().err == (
        f"error: step 1 (cpath3): key 'rails' must be a list of two rails, got {rails!r}\n")


def test_a_cpath3_step_on_a_four_rail_control_is_refused(tmp_path, capsys):
    # the rails a qudit transform routed its carrier onto are four, not two
    photons = [{"id": pid, "path": f"t{pid}"} for pid in ("1", "2", "3", "4")]
    steps = [{"gate": "to-qudit", "photons": ["1", "2", "3"]},
             {"gate": "cpath3", "control": "3", "target": "4"}]
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps({"photons": photons, "gates": steps}))
    assert main(["run", str(prog)]) == 2
    assert "error: C-path-3 needs the control's two rails, got [" in capsys.readouterr().err


def test_readme_marks_the_coupling_steps_and_each_sweep_quantitys_parameters():
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Scope notes")]
    steps = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    assert {row[1].strip(" `"): row[4].strip() == "yes" for row in steps} == {
        name: gate.couples for name, gate in GATES.items()}
    table = section[section.index("| parameter | default |"):].split("\n\n")[0].splitlines()
    quantities = [cell.strip().split(", ") for cell in table[0].split("|")[3:-1]]
    marked = {}
    for row in table[2:]:
        cells = [cell.strip() for cell in row.split("|")[1:-1]]
        for names, mark in zip(quantities, cells[2:]):
            for name in names:
                marked.setdefault(name, set()).update({cells[0]} if mark == "yes" else set())
    assert marked == {name: set(q.reads) for name, q in an._SWEEPS.items()}


@pytest.mark.parametrize("name", DEMO_GATES)
def test_warm_index_memos_give_every_demo_the_bytes_of_a_cold_run(name, tmp_path, monkeypatch):
    """A demo whose index memos compute every call afresh writes the same
    report and output, byte for byte, as a run on warm memos."""
    runs = []
    for beta2 in ("20", "200", "2000"):
        argv = ["gate", name, "--beta2", beta2, "--input", "haar:3"]
        for k in range(2):  # the second run meets every structure again
            assert main([*argv, "--out", str(tmp_path / f"warm{k}.json")]) == 0
        runs.append((argv, (tmp_path / "warm1.json").read_bytes()))
    with monkeypatch.context() as patch:
        uncache(patch)
        for argv, warm in runs:
            assert main([*argv, "--out", str(tmp_path / "cold.json")]) == 0
            assert (tmp_path / "cold.json").read_bytes() == warm, argv
