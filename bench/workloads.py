"""The benchmark's workloads: seeded Haar inputs, the timed call, dense oracles.

Each workload builds its inputs from the run's seed, calls one public entry
point of qubusim per circuit, and reads the output back as a dense vector
that is compared with an oracle computed here, independently of the
simulator: the parity-sorted target, the Kronecker product of the input
qubits, and the 8×8 Toffoli matrix applied to the input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qubusim import amplitude_of, path_pol_vector, pol_qubit, polarization_state
from qubusim import polarization_vector, state_from_dict, tensor
from qubusim import cli, gates, pipelines

THETA = 0.05
#: an output counts as the gate's action if its infidelity to the oracle is below this
ORACLE_TOL = 1e-6
#: and if the gate report certifies at least this much success probability
SUCCESS_TOL = 1e-6
#: reference outputs must be reproduced to this absolute difference
REFERENCE_TOL = 1e-12
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def alpha_for(beta2: float) -> float:
    """Qubus amplitude that gives |β|² = 2α² sin²θ at THETA."""
    return math.sqrt(beta2 / (2.0 * math.sin(THETA) ** 2))


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def flatten_outcomes(report: dict) -> list[list]:
    """[gate, outcome value, probability] for every outcome of a report tree."""
    rows = [[report["gate"], o["value"], o["probability"]] for o in report["outcomes"]]
    for child in report["children"]:
        rows.extend(flatten_outcomes(child))
    return rows


@dataclass
class Reading:
    """What the checks read from one call's result."""

    vector: np.ndarray
    success: float
    outcomes: list[list]


class Workload:
    """One named workload; subclasses fill in the hooks below."""

    name = ""
    why = ""
    salt = 0
    #: distinct inputs the timed loop cycles through
    pool = 32
    #: inputs whose circuits make up one pass of the traced run
    traced = 4
    #: traced functions that must record calls on this workload
    required: tuple[str, ...] = ()

    def inputs(self, seed: int, count: int | None = None) -> list[np.ndarray]:
        rng = np.random.default_rng([seed, self.salt])
        return [self.draw(rng) for _ in range(count or self.pool)]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def build(self, raw: np.ndarray):
        """The argument of `call`, built from a raw input vector."""
        raise NotImplementedError

    def call(self, arg):
        """One circuit: the only code inside the timed region."""
        raise NotImplementedError

    def read(self, result) -> Reading:
        raise NotImplementedError

    def oracle(self, raw: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_bytes(self, result) -> int:
        return 0


#: traced functions every workload reaches: the shared qubus block and the state algebra
_CORE = (
    "state.HybridState.__init__", "state.canonicalize", "state.inner_product", "state.norm",
    "state.fidelity", "state.coherent_overlap", "elements.xpm", "elements.qubus_bs",
    "elements.apply_elements", "numerics.fock_amplitude", "detection.fock_distribution",
    "detection.fock_outcomes", "detection.project_qubus_coherent", "gates.run_qubus_block",
    "gates.couple_qubus_pair", "gates.FeedForwardPlan.correct",
)


class ParityBright(Workload):
    name = "parity-bright"
    why = ("parity gate at |beta|^2=2000: ~600 Fock outcomes on <=8 branches, so Fock "
           "enumeration, feed-forward, disposal and scoring dominate")
    salt = 1
    pool = 64
    traced = 8
    required = _CORE + ("gates.parity_gate",)
    alpha = alpha_for(2000.0)

    def draw(self, rng):
        return haar(rng, 4)

    def build(self, raw):
        return polarization_state(raw, [("1", "t1"), ("2", "t2")])

    def call(self, s):
        return gates.parity_gate(s, "1", "2", self.alpha, THETA)

    def read(self, result):
        out, rep = result
        p1, even = rep.extras["even_paths"]
        odd = rep.extras["odd_paths"][1]
        vec = np.array([
            amplitude_of(out, {"1": (p1, a), "2": (even if a == b else odd, b)})
            for a in "HV" for b in "HV"
        ])
        return Reading(vec, rep.success_probability, flatten_outcomes(rep.to_dict()))

    def oracle(self, raw):
        # parity-sorted target: same coefficients, even terms on the new rail
        return raw


class QuditWide(Workload):
    name = "qudit-wide"
    why = ("teleport-based qudit transform, n=3 at |beta|^2=20: 256-branch blocks and 4^3 "
           "Bell outcomes, so state construction, canonicalize and Gram sums dominate")
    salt = 2
    pool = 16
    traced = 2
    required = _CORE + ("pipelines.to_qudit_teleport", "gates.c_path", "gates.c_path2",
                        "detection.bell_outcomes", "state.tensor")
    alpha = alpha_for(20.0)
    photons = ("1", "2", "3")

    def draw(self, rng):
        return np.concatenate([haar(rng, 2) for _ in self.photons])

    def build(self, raw):
        s = None
        for i, pid in enumerate(self.photons):
            q = pol_qubit(pid, f"t{pid}", raw[2 * i], raw[2 * i + 1])
            s = q if s is None else tensor(s, q)
        return s

    def call(self, s):
        return pipelines.to_qudit_teleport(s, list(self.photons), self.alpha, THETA)

    def read(self, result):
        out, rep = result
        vec = path_pol_vector(out, rep.extras["carrier"], list(rep.extras["rails"]))
        return Reading(vec, rep.success_probability, flatten_outcomes(rep.to_dict()))

    def oracle(self, raw):
        vec = raw[0:2]
        for i in range(1, len(self.photons)):
            vec = np.kron(vec, raw[2 * i : 2 * i + 2])
        return vec


class ToffoliProgram(Workload):
    name = "toffoli-program"
    why = ("JSON Toffoli programs at |beta|^2=200 through cli.run_program plus serialization: "
           "the user-facing path with medium branch and outcome counts")
    salt = 3
    pool = 32
    traced = 4
    required = _CORE + ("cli.run_program", "pipelines.toffoli", "pipelines.cn_u1",
                        "detection.presence_outcomes", "state.remove_photon",
                        "state.state_to_dict")
    alpha = alpha_for(200.0)

    def draw(self, rng):
        return haar(rng, 8)

    def build(self, raw):
        return {
            "photons": [{"id": str(i), "path": f"t{i}"} for i in (1, 2, 3)],
            "coeffs": [[float(z.real), float(z.imag)] for z in raw],
            "alpha": self.alpha,
            "theta": THETA,
            "gates": [{"gate": "toffoli", "controls": ["1", "2"], "target": "3"}],
        }

    def call(self, program):
        # what `qubusim run --out` writes
        return json.dumps(cli.run_program(program), sort_keys=True, indent=2) + "\n"

    def read(self, text):
        doc = json.loads(text)
        (report,) = doc["reports"]
        state = state_from_dict(doc["final_state"])
        vec = polarization_vector(state, report["extras"]["photon_order"])
        return Reading(vec, report["success_probability"], flatten_outcomes(report))

    def oracle(self, raw):
        return raw[[0, 1, 2, 3, 4, 5, 7, 6]]

    def output_bytes(self, text):
        return len(text.encode())


WORKLOADS = {w.name: w for w in (ParityBright(), QuditWide(), ToffoliProgram())}


def oracle_fidelity(reading: Reading, target: np.ndarray) -> float:
    """|⟨target|output⟩|²; both vectors are normalized."""
    return abs(np.vdot(target, reading.vector)) ** 2


def problems(reading: Reading, target: np.ndarray) -> list[str]:
    """Why one call's output is not the gate's action (empty if it is)."""
    found = []
    fid = oracle_fidelity(reading, target)
    if not fid >= 1.0 - ORACLE_TOL:
        found.append(f"oracle fidelity {fid!r} < 1 - {ORACLE_TOL}")
    if not reading.success >= 1.0 - SUCCESS_TOL:
        found.append(f"success_probability {reading.success!r} < 1 - {SUCCESS_TOL}")
    return found


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------


def _pairs(z: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in z]


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def reference_path(w: Workload) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def reference_entry(raw: np.ndarray, reading: Reading) -> dict:
    return {
        "input": _pairs(raw),
        "vector": _pairs(reading.vector),
        "success_probability": reading.success,
        "outcomes": reading.outcomes,
    }


def load_reference(w: Workload) -> list[dict]:
    doc = json.loads(reference_path(w).read_text())
    for entry in doc["calls"]:
        entry["input"] = _complex(entry["input"])
        entry["vector"] = _complex(entry["vector"])
    return doc["calls"]


def reference_mismatches(entry: dict, reading: Reading) -> list[str]:
    """Differences from a stored reference call beyond REFERENCE_TOL."""
    found = []
    if reading.vector.shape != entry["vector"].shape:
        return [f"output vector shape {reading.vector.shape} != {entry['vector'].shape}"]
    diff = float(np.max(np.abs(reading.vector - entry["vector"])))
    if not diff <= REFERENCE_TOL:
        found.append(f"output vector differs by {diff:.3e}")
    if not abs(reading.success - entry["success_probability"]) <= REFERENCE_TOL:
        found.append(f"success probability {reading.success!r} != {entry['success_probability']!r}")
    ref = entry["outcomes"]
    if [r[:2] for r in reading.outcomes] != [r[:2] for r in ref]:
        found.append("outcome table lists different outcomes")
    else:
        worst = max((abs(a[2] - b[2]) for a, b in zip(reading.outcomes, ref)), default=0.0)
        if not worst <= REFERENCE_TOL:
            found.append(f"outcome probability differs by {worst:.3e}")
    return found
