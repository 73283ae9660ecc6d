"""Command-line front end.

Subcommands: `gate` (named gate demos on small inputs), `run` (JSON circuit
programs), `sweep` (parameter sweeps to CSV/JSON), `decompose` (unitary to
Reck mesh), `fig2` (detector-model data files), `verify` (golden-state
comparisons).  Same config and seed give byte-identical JSON output.

Exit codes: 0 ok, 1 usage, 2 numeric/validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable

import numpy as np

from . import analysis as an
from . import elements as el
from . import gates
from . import pipelines as pl
from . import synthesis as syn
from .gates import DEFAULTS, GateError, GateReport
from .state import (
    HybridState,
    StateError,
    fidelity,
    polarization_state,
    random_polarization_state,
    state_from_dict,
    state_to_dict,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def parse_state_spec(spec: str, n_photons: int, seed: int) -> HybridState:
    """Basis string ("HVH"), JSON coefficient list, or "haar[:seed]"."""
    ids = [str(i + 1) for i in range(n_photons)]
    paths = [f"t{i + 1}" for i in range(n_photons)]
    photons = list(zip(ids, paths))
    if spec.startswith("haar"):
        parts = spec.split(":")
        return random_polarization_state(n_photons, int(parts[1]) if len(parts) > 1 else seed)
    if all(ch in "HV" for ch in spec) and spec:
        if len(spec) != n_photons:
            raise StateError(f"basis string {spec!r} needs {n_photons} letters")
        idx = int("".join("1" if ch == "V" else "0" for ch in spec), 2)
        coeffs = [0.0] * 2**n_photons
        coeffs[idx] = 1.0
        return polarization_state(coeffs, photons)
    data = json.loads(spec)
    if not isinstance(data, list):
        raise StateError(f"input {spec!r} is not a basis string, a coefficient list or haar[:seed]")
    vals = [_entry(c) for c in data]
    if len(vals) != 2**n_photons:
        raise StateError(f"need {2**n_photons} coefficients, got {len(vals)}")
    return polarization_state(vals, photons)


def parse_unitary_spec(spec, dim: int | None = None) -> np.ndarray:
    """"cnot" | "qft:N" | "hadamard4" | "haar:seed[:N]" | JSON matrix | file path,
    or an already parsed JSON matrix; dim sizes the specs that leave it open."""
    if not isinstance(spec, str):
        return _matrix_from_json(spec)
    if spec == "cnot":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if spec == "identity":
        return np.eye(dim or 4, dtype=complex)
    if spec == "hadamard4":
        return syn.HADAMARD4.copy()
    if spec.startswith("qft:"):
        return syn.qft_matrix(int(spec.split(":")[1]))
    if spec.startswith("haar:"):
        parts = spec.split(":")
        seed = int(parts[1])
        n = int(parts[2]) if len(parts) > 2 else (dim or 4)
        return syn.random_haar_unitary(n, seed)
    if Path(spec).exists():
        data = json.loads(Path(spec).read_text())
    else:
        data = json.loads(spec)
    return _matrix_from_json(data)


def _entry(c) -> complex:
    """A JSON amplitude or matrix entry: a number or an [re, im] pair."""
    parts = c if isinstance(c, list) and len(c) == 2 else [c]
    if not all(isinstance(x, (int, float)) for x in parts):
        raise StateError(f"entry {c!r} is not a number or an [re, im] pair")
    return complex(*parts)


def _matrix_from_json(data) -> np.ndarray:
    """Rows of entries, each a number or an [re, im] pair."""
    return np.array([[_entry(c) for c in row] for row in data], dtype=complex)


#: the named single-photon states of a program's "state" key
_PHOTON_STATES = {
    "H": [1, 0],
    "V": [0, 1],
    "+": [1 / math.sqrt(2), 1 / math.sqrt(2)],
    "-": [1 / math.sqrt(2), -1 / math.sqrt(2)],
}


def _photon_vector(photon: dict) -> np.ndarray:
    """A program photon's "state": H, V, +, - or two [re, im] pairs (default H)."""
    spec = photon.get("state", "H")
    if isinstance(spec, str) and spec in _PHOTON_STATES:
        return np.array(_PHOTON_STATES[spec], dtype=complex)
    if isinstance(spec, list) and len(spec) == 2 and all(isinstance(c, list) for c in spec):
        try:
            return np.array([_entry(c) for c in spec], dtype=complex)
        except StateError:
            pass
    raise StateError(
        f"photon {photon['id']!r}: state {spec!r} is not H, V, +, - or two [re, im] pairs"
    )


def _emit(payload, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        rows = payload if isinstance(payload, list) else [payload]
        buf = io.StringIO()
        keys = sorted({k for r in rows for k in r})
        w = csv.DictWriter(buf, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in keys})
        text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# program steps and the gate registry
# ---------------------------------------------------------------------------
# A step function runs one JSON program step st on state s:
#   (s, st, alpha, theta, rails) -> (state, report or None),
# where rails maps a photon id to the rails it was last routed onto by a
# C-path-family gate or a qudit transform.


def _rails(st: dict, pid: str, rails: dict[str, list[str]]) -> list[str]:
    """The step's "rails", else the rails photon pid was last routed onto."""
    if "rails" in st:
        return list(st["rails"])
    if pid not in rails:
        raise GateError(f"{st['gate']!r} step: no rails known for photon {pid!r}")
    return rails[pid]


def _disentangler(s, st, a, t, rails):
    routed = _rails(st, st["target"], rails)
    # the V rails are the half that the last C-path-family gate added
    return gates.disentangler(s, st["control"], st["target"], routed[len(routed) // 2 :])


def _entangler3(s, st, a, t, rails):
    rails_a, rails_b = pl.split_rails(_rails(st, st["qudit"], rails), st.get("bit", 0))
    return gates.entangler3(s, st["companion"], st["qudit"], rails_a, rails_b, a, t)


def _merging(s, st, a, t, rails):
    return gates.merging(
        s, st["photon"], _rails(st, st["photon"], rails), st["ancilla"],
        [(c, None) for c in st["companions"]], a, t, keep_recycled=False,
    )


def _merging_n(s, st, a, t, rails):
    return gates.merging_n(
        s, st["photon"], _rails(st, st["photon"], rails), st["ancilla"],
        [(c, None) for c in st["companions"]], a, t,
        interference=st.get("interference", "qft"), keep_recycled=False,
    )


def _element(s, st, a, t, rails):
    """Program-only step: one raw optical element."""
    op = el.op(st["kind"], st.get("parameter", 0.0), **st.get("targets", {}))
    return el.apply_element(s, op), None


def _plus(s, st, a, t, rails):
    """Program-only step: a fresh |+⟩ ancilla photon."""
    return gates.inject_plus(s, st["photon"], st.get("path"))[0], None


@dataclass(frozen=True)
class Gate:
    """A program step; those with a demo are the gates `qubusim gate` runs."""

    #: photon count of the demo input (0 for program-only steps)
    photons: int
    #: the step function
    step: Callable
    #: (photon ids, parsed args) -> the demo's program steps, the gate itself last
    demo: Callable | None = None


def _pair(gate: str, control: str, target: str) -> dict:
    return {"gate": gate, "control": control, "target": target}


_PLUS = {"gate": "plus", "photon": "anc"}


# Library functions are looked up on their module at call time, never stored
# here, so that rebinding a module attribute reaches every caller.
GATES: dict[str, Gate] = {
    "parity": Gate(
        2, lambda s, st, a, t, r: gates.parity_gate(s, *st["photons"], a, t),
        lambda p, o: [{"gate": "parity", "photons": p[:2]}],
    ),
    "cpath": Gate(
        2, lambda s, st, a, t, r: gates.c_path(s, st["control"], st["target"], a, t),
        lambda p, o: [_pair("cpath", p[0], p[1])],
    ),
    "cpath2": Gate(
        3, lambda s, st, a, t, r: gates.c_path2(
            s, st["control"], st["target"], _rails(st, st["target"], r), a, t
        ),
        lambda p, o: [_pair("cpath", p[1], p[2]), _pair("disentangler", p[1], p[2]),
                      _pair("cpath2", p[0], p[2])],
    ),
    "cpath3": Gate(
        3, lambda s, st, a, t, r: gates.c_path3(
            s, st["control"], _rails(st, st["control"], r), st["target"], a, t
        ),
        lambda p, o: [_pair("cpath", p[0], p[1]), _pair("cpath3", p[1], p[2])],
    ),
    "disentangler": Gate(
        2, _disentangler,
        lambda p, o: [_pair("cpath", p[0], p[1]), _pair("disentangler", p[0], p[1])],
    ),
    "entangler1": Gate(
        2, lambda s, st, a, t, r: gates.entangler1(
            s, st["photon"], _rails(st, st["photon"], r), st["ancilla"], a, t
        ),
        lambda p, o: [_pair("cpath", p[0], p[1]), _PLUS,
                      {"gate": "entangler1", "photon": p[1], "ancilla": "anc"}],
    ),
    "entangler2": Gate(
        2, lambda s, st, a, t, r: gates.entangler2(
            s, st["companion"], st["qudit"], _rails(st, st["qudit"], r), a, t
        ),
        lambda p, o: [{"gate": "to-qudit", "photons": p},
                      {"gate": "entangler2", "companion": p[0], "qudit": p[1]}],
    ),
    "entangler3": Gate(
        3, _entangler3,
        lambda p, o: [{"gate": "to-qudit", "photons": p},
                      {"gate": "entangler3", "companion": p[0], "qudit": p[2]}],
    ),
    "entangler4": Gate(
        3, lambda s, st, a, t, r: gates.entangler4(
            s, st["ancilla"], st["qudit"], _rails(st, st["qudit"], r), a, t
        ),
        lambda p, o: [{"gate": "to-qudit", "photons": p}, _PLUS,
                      {"gate": "entangler4", "ancilla": "anc", "qudit": p[2]}],
    ),
    "merging": Gate(
        2, _merging,
        lambda p, o: [_pair("cpath", p[0], p[1]), _PLUS,
                      {"gate": "merging", "photon": p[1], "ancilla": "anc",
                       "companions": [p[0]]}],
    ),
    "merging-n": Gate(
        3, _merging_n,
        lambda p, o: [{"gate": "to-qudit", "photons": p},
                      {"gate": "entangler3", "companion": p[0], "qudit": p[2]},
                      {"gate": "entangler3", "companion": p[1], "qudit": p[2], "bit": 1},
                      _PLUS,
                      {"gate": "merging-n", "photon": p[2], "ancilla": "anc",
                       "companions": p[:2], "interference": o.interference}],
    ),
    "two-qubit": Gate(
        2, lambda s, st, a, t, r: pl.two_qubit_gate(
            s, *st["photons"], parse_unitary_spec(st["unitary"], 4), a, t
        ),
        lambda p, o: [{"gate": "two-qubit", "photons": p[:2], "unitary": o.unitary or "cnot"}],
    ),
    "multi-qubit": Gate(
        3, lambda s, st, a, t, r: pl.multi_qubit_gate(
            s, st["photons"], parse_unitary_spec(st["unitary"], 2 ** len(st["photons"])),
            a, t, st.get("interference", "qft"),
        ),
        lambda p, o: [{"gate": "multi-qubit", "photons": p,
                       "unitary": o.unitary or f"haar:{o.seed}:8",
                       "interference": o.interference}],
    ),
    "toffoli": Gate(
        3, lambda s, st, a, t, r: pl.toffoli(
            s, st["controls"], st["target"], a, t, layout=st.get("layout", "split")
        ),
        lambda p, o: [{"gate": "toffoli", "controls": p[:-1], "target": p[-1],
                       "layout": o.layout}],
    ),
    "cn-u1": Gate(
        3, lambda s, st, a, t, r: pl.cn_u1(
            s, st["controls"], st["target"], parse_unitary_spec(st["unitary"], 2), a, t,
            layout=st.get("layout", "split"),
        ),
        lambda p, o: [{"gate": "cn-u1", "controls": p[:-1], "target": p[-1],
                       "unitary": o.unitary or "haar:0:2", "layout": o.layout}],
    ),
    "cn-uk": Gate(
        3, lambda s, st, a, t, r: pl.cn_uk(
            s, st["controls"], st["targets"],
            parse_unitary_spec(st["unitary"], 2 ** len(st["targets"])), a, t,
        ),
        lambda p, o: [{"gate": "cn-uk", "controls": p[: -o.targets],
                       "targets": p[-o.targets :],
                       "unitary": o.unitary or f"haar:{o.seed}:{2**o.targets}"}],
    ),
    "to-qudit": Gate(
        3, lambda s, st, a, t, r: pl.to_qudit_circuit(s, st["photons"], a, t),
        lambda p, o: [{"gate": "to-qudit", "photons": p}],
    ),
    "from-qudit": Gate(
        3, lambda s, st, a, t, r: pl.from_qudit(
            s, st["qudit"], st["companions"], _rails(st, st["qudit"], r), a, t,
            interference=st.get("interference", "qft"),
        ),
        lambda p, o: [{"gate": "to-qudit", "photons": p},
                      {"gate": "from-qudit", "qudit": p[-1], "companions": p[:-1],
                       "interference": o.interference}],
    ),
    "teleport": Gate(
        2, lambda s, st, a, t, r: pl.to_qudit_teleport(s, st["photons"], a, t),
        lambda p, o: [{"gate": "teleport", "photons": p}],
    ),
    "element": Gate(0, _element),
    "plus": Gate(0, _plus),
}

#: the gates `qubusim gate` can demo
DEMO_GATES = tuple(name for name, gate in GATES.items() if gate.demo)


def _step_key(name: str) -> str:
    """Program step names match with '-' and '_' ignored: c_path, c-path, cpath."""
    return name.replace("-", "").replace("_", "")


_STEP_NAMES = {_step_key(name): name for name in GATES}


def _run_steps(
    state: HybridState, steps: list[dict], alpha: float, theta: float
) -> tuple[HybridState, list[GateReport]]:
    """Run program steps in order; each step may override alpha and theta."""
    rails: dict[str, list[str]] = {}
    reports = []
    for step in steps:
        name = _STEP_NAMES.get(_step_key(step["gate"]))
        if name is None:
            raise UsageError(f"unknown program gate {step['gate']!r}")
        state, rep = GATES[name].step(
            state, step, step.get("alpha", alpha), step.get("theta", theta), rails
        )
        if rep is not None:
            reports.append(rep)
            if "rails" in rep.extras:
                # C-path-family gates route the step's target, transforms their carrier
                rails[rep.extras.get("carrier", step.get("target"))] = list(rep.extras["rails"])
    return state, reports


def cmd_gate(args) -> int:
    gate = GATES[args.name]
    state = parse_state_spec(args.input, args.photons or gate.photons, args.seed)
    alpha = args.alpha if args.beta2 is None else an.alpha_for_beta2(args.beta2, args.theta)
    steps = gate.demo(list(state.registry.photons), args)
    out, reports = _run_steps(state, steps, alpha, args.theta)
    payload = {
        "gate": args.name,
        "input": args.input,
        "seed": args.seed,
        "report": reports[-1].to_dict(),
        "state": state_to_dict(out),
    }
    _emit(payload, "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# circuit programs
# ---------------------------------------------------------------------------


def run_program(program: dict) -> dict:
    photons = program["photons"]
    pairs = [(p["id"], p["path"]) for p in photons]
    if "coeffs" in program:
        state = polarization_state([_entry(c) for c in program["coeffs"]], pairs)
    else:
        state = polarization_state(reduce(np.kron, map(_photon_vector, photons)), pairs)

    alpha = program.get("alpha", DEFAULTS["alpha"])
    theta = program.get("theta", DEFAULTS["theta"])
    state, reports = _run_steps(state, program.get("gates", []), alpha, theta)
    return {"reports": [rep.to_dict() for rep in reports], "final_state": state_to_dict(state)}


def cmd_run(args) -> int:
    program = json.loads(Path(args.program).read_text())
    result = run_program(program)
    _emit(result, "json", args.out)
    return 0


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    spec_data = json.loads(Path(args.spec).read_text())
    spec = an.SweepSpec(
        quantity=spec_data["quantity"],
        grid=spec_data["grid"],
        fixed=spec_data.get("fixed", {}),
    )
    rows = an.run_sweep(spec)
    _emit(rows, args.format, args.out)
    return 0


def cmd_decompose(args) -> int:
    u = parse_unitary_spec(args.matrix)
    mesh = syn.reck_decompose(u)
    err = float(np.max(np.abs(mesh.matrix() - u)))
    payload = {"mesh": mesh.to_dict(), "reconstruction_error": err}
    _emit(payload, "json", args.out)
    return 0


def cmd_fig2(args) -> int:
    data = an.fig2_data(args.gamma, args.theta_probe, args.beta2)
    prefix = args.out_prefix
    Path(f"{prefix}a.csv").write_text(an.pmf_to_csv(data.signal_n, data.signal_pmf))
    for k, (ns, pmf) in enumerate(data.peak_pmfs, start=1):
        Path(f"{prefix}b_k{k}.csv").write_text(an.pmf_to_csv(ns, pmf))
    summary = {
        "beta2": data.beta2,
        "gamma": data.gamma,
        "theta_probe": data.theta_probe,
        "dominant_range": [data.dominant_lo, data.dominant_hi],
        "dominant_count": data.dominant_count,
        "peak_means": data.peak_means,
        "files": [f"{prefix}a.csv"] + [f"{prefix}b_k{k}.csv" for k in range(1, 5)],
    }
    _emit(summary, "json", args.out)
    return 0


def cmd_verify(args) -> int:
    golden = sorted(Path(args.golden_dir).glob("*.json"))
    if not golden:
        print(f"no golden cases under {args.golden_dir}")
        return 2
    failures = 0
    for case_path in golden:
        case = json.loads(case_path.read_text())
        tol = case.get("tolerance", 1e-8)
        try:
            result = run_program(case["program"])
            got = state_from_dict(result["final_state"])
            want = state_from_dict(case["expected_state"])
            fid = fidelity(got, want)
            ok = fid >= 1.0 - tol
        except Exception as exc:  # report, keep going
            print(f"FAIL {case_path.name}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {case_path.name}: fidelity={fid:.12f}")
        failures += 0 if ok else 1
    print(f"{len(golden) - failures}/{len(golden)} golden cases passed")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="qubusim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gate", help="run a named gate demo")
    g.add_argument("name", choices=DEMO_GATES)
    g.add_argument("--input", default="haar:0",
                   help='basis string "HVH", JSON coefficients, or haar[:seed]')
    g.add_argument("--photons", type=int, default=None)
    g.add_argument("--unitary", default=None)
    g.add_argument("--targets", type=int, default=1, help="target count for cn-uk")
    g.add_argument("--layout", choices=("split", "compact"), default="split")
    g.add_argument("--interference", choices=("qft", "hadamard4"), default="qft")
    g.add_argument("--alpha", type=float, default=DEFAULTS["alpha"])
    g.add_argument("--theta", type=float, default=DEFAULTS["theta"])
    g.add_argument("--beta2", type=float, default=None,
                   help="set alpha from |beta|^2 = 2 alpha^2 sin^2(theta)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gate)

    r = sub.add_parser("run", help="execute a JSON circuit program")
    r.add_argument("program")
    r.add_argument("--out", default=None)
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("sweep", help="evaluate a sweep spec file")
    s.add_argument("spec")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=cmd_sweep)

    d = sub.add_parser("decompose", help="Reck-decompose a unitary")
    d.add_argument("matrix", help="JSON matrix/file, haar:seed:N, or qft:N")
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_decompose)

    f = sub.add_parser("fig2", help="emit detector-model data files")
    f.add_argument("--beta2", type=float, default=20.0)
    f.add_argument("--out-prefix", default="fig2_")
    f.add_argument("--gamma", type=float, default=DEFAULTS["gamma"])
    f.add_argument("--theta-probe", type=float, default=DEFAULTS["theta_probe"])
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_fig2)

    v = sub.add_parser("verify", help="compare against golden state snapshots")
    v.add_argument("golden_dir")
    v.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GateError, StateError, an.AnalysisError, syn.SynthesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
