"""Composite gates: measurement plus classical feed-forward.

Every gate here follows the same recipe.  Two fresh qubus beams |α⟩|α⟩ are
coupled to the photonic modes listed in the gate's coupling table (θ per
coupling), both beams get a −θ compensation, a 50:50 qubus BS forms the
difference/sum ports, and the difference port is read out by the QND module
(enumerated exactly as Fock outcomes).  A feed-forward plan then turns every
outcome into the same output state; the unmeasured sum port is disposed of by
heralded projection onto its dominant coherent value, whose tiny residual
which-path weight is the only nondeterminism left (≤ ~e^{−|β|²} in fidelity,
with |β|² = 2α²sin²θ).

Each gate returns (output state, GateReport); the report logs every outcome
with its probability and fidelity against the representative output, the
resource counts, and the feed-forward table actually used.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import elements as el
from . import synthesis as syn
from .detection import (
    fock_outcomes,
    presence_outcomes,
    project_qubus_coherent,
)
from .state import (
    H,
    V,
    HybridState,
    attach_qubus,
    fidelity,
    inner_product,
    plus_photon,
    remove_photon,
    tensor,
)

#: default physical parameters shared by the gates, the sweeps and the CLI:
#: qubus amplitude α and XPM phase θ, probe amplitude γ and phase θ_probe,
#: detector efficiency η
DEFAULTS = {
    "alpha": math.sqrt(4000.0),
    "theta": 0.05,
    "gamma": 100.0,
    "eta": 0.95,
    "theta_probe": 0.05,
}

#: outcomes below this probability are not enumerated
MIN_PROB = 1e-13
#: an outcome "agrees" with the representative above this fidelity
AGREEMENT_TOL = 1e-6


class GateError(ValueError):
    pass


# ---------------------------------------------------------------------------
# couplings and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """One XPM coupling: beam index, photon slot (pol=None hits both pols)."""

    beam: int
    photon: str
    path: str
    pol: str | None

    @property
    def mode_count(self) -> int:
        return 1 if self.pol else 2


def coupling_mode_count(couplings: Sequence[Coupling]) -> int:
    return sum(c.mode_count for c in couplings)


@dataclass
class Resources:
    xpm_couplings: int = 0
    qubus_modes: int = 0
    detections: int = 0
    ancilla_photons: int = 0

    def add(self, other: "Resources") -> None:
        self.xpm_couplings += other.xpm_couplings
        self.qubus_modes += other.qubus_modes
        self.detections += other.detections
        self.ancilla_photons += other.ancilla_photons

    def to_dict(self) -> dict:
        return {
            "xpm_couplings": self.xpm_couplings,
            "qubus_modes": self.qubus_modes,
            "detections": self.detections,
            "ancilla_photons": self.ancilla_photons,
        }


@dataclass
class OutcomeEntry:
    kind: str
    value: object
    probability: float
    fidelity: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "probability": self.probability,
            "fidelity": self.fidelity,
        }


@dataclass
class GateReport:
    """Per-gate log: outcome table, determinism figure, resources."""

    gate: str
    success_probability: float = 1.0
    min_fidelity: float = 1.0
    outcomes: list[OutcomeEntry] = field(default_factory=list)
    resources: Resources = field(default_factory=Resources)
    gates: Counter = field(default_factory=Counter)
    feedforward: list[tuple[str, list[dict]]] = field(default_factory=list)
    children: list["GateReport"] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def absorb(self, child: "GateReport") -> None:
        self.children.append(child)
        self.resources.add(child.resources)
        self.gates.update(child.gates)
        self.success_probability *= child.success_probability
        self.min_fidelity = min(self.min_fidelity, child.min_fidelity)

    def to_dict(self) -> dict:
        return {
            "gate": self.gate,
            "success_probability": self.success_probability,
            "min_fidelity": self.min_fidelity,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "resources": self.resources.to_dict(),
            "gates": dict(self.gates),
            "feedforward": [
                {"outcome": label, "ops": ops} for label, ops in self.feedforward
            ],
            "children": [c.to_dict() for c in self.children],
            "extras": {k: v for k, v in self.extras.items() if _jsonable(v)},
        }


def _jsonable(v) -> bool:
    if isinstance(v, (str, int, float, bool, type(None))):
        return True
    if isinstance(v, (list, tuple)):
        return all(_jsonable(x) for x in v)
    if isinstance(v, dict):
        return all(isinstance(k, str) and _jsonable(x) for k, x in v.items())
    return False


# ---------------------------------------------------------------------------
# feed-forward plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    label: str
    matches: Callable
    ops: Callable  # record -> list[ElementOp]


class FeedForwardPlan:
    """Outcome → corrective-element map; every outcome must match one rule."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)

    def correct(self, state: HybridState, record) -> tuple[HybridState, str, list]:
        hits = [r for r in self.rules if r.matches(record)]
        if len(hits) != 1:
            raise GateError(
                f"feed-forward plan matched {len(hits)} rules for outcome "
                f"{record.kind}={record.value!r}"
            )
        ops = hits[0].ops(record)
        return el.apply_elements(state, ops), hits[0].label, ops

    def describe(self, sample_records) -> list[tuple[str, list[dict]]]:
        out = []
        for rec in sample_records:
            hits = [r for r in self.rules if r.matches(rec)]
            if hits:
                out.append(
                    (f"{hits[0].label}", [o.to_dict() for o in hits[0].ops(rec)])
                )
        return out


def fock_plan(zero_ops, even_ops, odd_ops) -> FeedForwardPlan:
    """The universal n=0 / even / odd structure of the qubus-gate corrections."""
    return FeedForwardPlan(
        [
            Rule("n=0", lambda r: r.value == 0, lambda r: list(zero_ops)),
            Rule("n even", lambda r: r.value > 0 and r.value % 2 == 0, lambda r: list(even_ops)),
            Rule("n odd", lambda r: r.value % 2 == 1, lambda r: list(odd_ops)),
        ]
    )


# ---------------------------------------------------------------------------
# the shared qubus block
# ---------------------------------------------------------------------------


@dataclass
class Scored:
    """Every outcome of one measurement stage scored against the representative."""

    value: object  # the representative (most probable) outcome
    state: HybridState  # the representative's corrected output
    outcomes: list[OutcomeEntry]
    min_fidelity: float
    success_probability: float
    states: list[tuple[object, float, HybridState]]  # (value, prob, corrected state)

    def report(self, name: str, resources: Resources, **fields) -> GateReport:
        """The stage's GateReport; fields fill the remaining report fields."""
        return GateReport(
            name, self.success_probability, self.min_fidelity, self.outcomes, resources,
            **fields,
        )


def score_outcomes(kind: str, corrected: list[tuple[object, float, HybridState]]) -> Scored:
    """Pick the most probable outcome as representative and score all against it.

    corrected holds (value, probability, corrected state) per outcome.  An
    outcome counts towards the success mass when its fidelity with the
    representative is within AGREEMENT_TOL of 1.
    """
    ref_value, _, ref_state = max(corrected, key=lambda t: t[1])
    outcomes = []
    min_fid = 1.0
    success = 0.0
    for value, p, st in corrected:
        f = fidelity(st, ref_state)
        outcomes.append(OutcomeEntry(kind, value, p, f))
        min_fid = min(min_fid, f)
        if f >= 1.0 - AGREEMENT_TOL:
            success += p
    return Scored(ref_value, ref_state, outcomes, min_fid, success, corrected)


def couple_qubus_pair(
    s: HybridState, couplings: Sequence[Coupling], alpha: float, theta: float
) -> tuple[HybridState, tuple[str, str]]:
    """Attach |α⟩|α⟩, run the XPM pattern, −θ on both beams, then the qubus BS.

    Returns the pre-measurement state and the two beam names (difference
    port first).
    """
    reg = s.registry
    for c in couplings:
        if c.path not in reg.paths_of(c.photon):
            raise GateError(f"coupling path {c.path!r} not registered for {c.photon!r}")
    b0 = reg.fresh_qubus("beam0")
    s = attach_qubus(s, b0, alpha)
    b1 = s.registry.fresh_qubus("beam1")
    s = attach_qubus(s, b1, alpha)
    beams = (b0, b1)
    for c in couplings:
        s = el.xpm(s, beams[c.beam], c.photon, c.path, c.pol, theta)
    s = el.qubus_phase(s, b0, -theta)
    s = el.qubus_phase(s, b1, -theta)
    s = el.qubus_bs(s, b0, b1)
    return s, beams


def run_qubus_block(
    s: HybridState,
    couplings: Sequence[Coupling],
    alpha: float,
    theta: float,
    plan: FeedForwardPlan,
    post: Callable[[HybridState], HybridState] | None = None,
) -> Scored:
    """Couple, measure the difference port, feed forward, dispose of the sum port.

    Every Fock outcome above MIN_PROB is enumerated, corrected and scored
    against the highest-probability outcome.
    """
    coupled, (b0, b1) = couple_qubus_pair(s, couplings, alpha, theta)
    records = fock_outcomes(coupled, b0, min_prob=MIN_PROB)
    corrected: list[tuple[object, float, HybridState]] = []
    for rec in records:
        st, _, _ = plan.correct(rec.collapsed, rec)
        st, _ = project_qubus_coherent(st, b1)
        if post is not None:
            st = post(st)
        corrected.append((rec.value, rec.probability, st))
    return score_outcomes("fock", corrected)


def _block_report(
    name: str, block: Scored, couplings: Sequence[Coupling], plan: FeedForwardPlan, **extras
) -> GateReport:
    """The report of a gate made of one qubus block."""
    return block.report(
        name,
        Resources(xpm_couplings=coupling_mode_count(couplings), qubus_modes=2, detections=1),
        gates=Counter({name: 1}),
        feedforward=plan.describe(_sample_fock_records()),
        extras=extras,
    )


def _require_single_path(s: HybridState, pid: str) -> str:
    used = s.photon_paths_in_use(pid)
    if len(used) != 1:
        raise GateError(f"photon {pid!r} must be single-path, occupies {used}")
    return used[0]


def _require_plus(s: HybridState, pid: str, tol: float = 1e-9) -> str:
    """The photon must factor out as |+⟩ on a single path; returns the path."""
    path = _require_single_path(s, pid)
    flipped = el.wave_plate(s, pid, None, "x")
    if abs(abs(inner_product(flipped, s)) - 1.0) > tol:
        raise GateError(f"ancilla {pid!r} is not in |+⟩")
    return path


def _sample_fock_records():
    """Representative records used only to render feed-forward tables."""

    class _R:
        def __init__(self, value):
            self.kind = "fock"
            self.value = value

    return [_R(0), _R(2), _R(1)]


# ---------------------------------------------------------------------------
# coupling tables for each gate family
# ---------------------------------------------------------------------------


def parity_couplings(p1: str, p1_path: str, p2: str, rail_a: str, rail_b: str):
    return (
        Coupling(0, p1, p1_path, H),
        Coupling(0, p2, rail_a, H),
        Coupling(0, p2, rail_b, V),
        Coupling(1, p1, p1_path, V),
        Coupling(1, p2, rail_a, V),
        Coupling(1, p2, rail_b, H),
    )


def c_path_couplings(ctrl: str, c_path_: str, tgt: str, rail1: str, rail2: str):
    return (
        Coupling(0, ctrl, c_path_, V),
        Coupling(0, tgt, rail1, None),
        Coupling(1, ctrl, c_path_, H),
        Coupling(1, tgt, rail2, None),
    )


def c_path2_couplings(
    ctrl: str, c_path_: str, tgt: str, originals: Sequence[str], fresh: Sequence[str]
):
    first = [Coupling(0, ctrl, c_path_, V)] + [Coupling(0, tgt, r, None) for r in originals]
    second = [Coupling(1, ctrl, c_path_, H)] + [Coupling(1, tgt, r, None) for r in fresh]
    return tuple(first + second)


def c_path3_couplings(
    ctrl: str,
    first: str,
    first_aux: str | None,
    second: str,
    tgt: str,
    rail1: str,
    rail2: str,
    layout: str = "split",
    witness: tuple[str, str, str] | None = None,
):
    """Couplings for a control photon that is itself split over two rails.

    layout="split": the control's first rail is PBS-split (H on `first`,
    flipped V on `first_aux`), and the second beam couples H on both plus H
    on the second rail.  layout="compact" replaces the two first-rail
    couplings by a single upstream witness slot, saving one mode.
    layout="direct" couples both polarizations of the first rail outright.
    """
    beam0 = [Coupling(0, ctrl, second, V), Coupling(0, tgt, rail1, None)]
    if layout == "split":
        if first_aux is None:
            raise GateError("split layout needs the auxiliary first rail")
        beam1 = [
            Coupling(1, ctrl, first, H),
            Coupling(1, ctrl, first_aux, H),
            Coupling(1, ctrl, second, H),
            Coupling(1, tgt, rail2, None),
        ]
    elif layout == "compact":
        if witness is None:
            raise GateError("compact layout needs the witness slot")
        wp, wpath, wpol = witness
        beam1 = [
            Coupling(1, wp, wpath, wpol),
            Coupling(1, ctrl, second, H),
            Coupling(1, tgt, rail2, None),
        ]
    elif layout == "direct":
        beam1 = [
            Coupling(1, ctrl, first, None),
            Coupling(1, ctrl, second, H),
            Coupling(1, tgt, rail2, None),
        ]
    else:
        raise GateError(f"unknown C-path-3 layout {layout!r}")
    return tuple(beam0 + beam1)


def entangler3_couplings(
    comp: str, comp_path: str, qudit: str, rails_a: Sequence[str], rails_b: Sequence[str]
):
    """Entangler-2/3: beam 1 couples H of the companion and all modes of the
    B rail group; beam 2 couples V of the companion and the A rail group."""
    beam0 = [Coupling(0, comp, comp_path, H)] + [Coupling(0, qudit, r, None) for r in rails_b]
    beam1 = [Coupling(1, comp, comp_path, V)] + [Coupling(1, qudit, r, None) for r in rails_a]
    return tuple(beam0 + beam1)


def entangler4_couplings(anc: str, anc_path: str, qudit: str, rails: Sequence[str]):
    """Entangler/Entangler-4: beam 1 couples H of the ancilla and V on every
    rail; beam 2 couples V of the ancilla and H on every rail."""
    beam0 = [Coupling(0, anc, anc_path, H)] + [Coupling(0, qudit, r, V) for r in rails]
    beam1 = [Coupling(1, anc, anc_path, V)] + [Coupling(1, qudit, r, H) for r in rails]
    return tuple(beam0 + beam1)


# ---------------------------------------------------------------------------
# parity gate
# ---------------------------------------------------------------------------


def parity_gate(
    s: HybridState,
    photon1: str,
    photon2: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    split_path: str | None = None,
) -> tuple[HybridState, GateReport]:
    """Send even/odd parity components of a two-photon state to distinct paths.

    Photon 2 splits over (its path, split_path); after feed-forward the even
    component (|HH⟩, |VV⟩ weights) rides on the new rail and the odd one on
    the original rail, for every measurement outcome.
    """
    p1_path = _require_single_path(s, photon1)
    rail_a = _require_single_path(s, photon2)
    rail_b = split_path or s.registry.fresh_path(rail_a + "s")
    s = HybridState(s.registry.with_path(photon2, rail_b), s.branches)
    s = el.photon_bs(s, photon2, rail_a, rail_b)

    couplings = parity_couplings(photon1, p1_path, photon2, rail_a, rail_b)
    switch = el.op("PathSwitch", photon=photon2, path_a=rail_a, path_b=rail_b)
    pi_v1 = el.op("PolPhase", math.pi, photon=photon1, path=p1_path, pol=V)
    plan = fock_plan([], [switch], [pi_v1, switch])

    block = run_qubus_block(s, couplings, alpha, theta, plan)
    report = _block_report(
        "parity", block, couplings, plan,
        even_paths=(p1_path, rail_b),
        odd_paths=(p1_path, rail_a),
        outcome_states=block.states,  # (n, prob, state); not serialized
    )
    return block.state, report


# ---------------------------------------------------------------------------
# C-path family
# ---------------------------------------------------------------------------


def c_path(
    s: HybridState,
    control: str,
    target: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    split_path: str | None = None,
) -> tuple[HybridState, GateReport]:
    """Route the target photon to rail 1 (control H) or rail 2 (control V).

    Rail 1 is the target's input path; rail 2 is split_path (fresh when not
    given).  Deterministic through a conditional rail switch plus a π phase
    on rail 1 for odd outcomes.
    """
    c_path_ = _require_single_path(s, control)
    rail1 = _require_single_path(s, target)
    rail2 = split_path or s.registry.fresh_path(rail1 + "s")
    s = HybridState(s.registry.with_path(target, rail2), s.branches)
    s = el.photon_bs(s, target, rail1, rail2)

    couplings = c_path_couplings(control, c_path_, target, rail1, rail2)
    switch = el.op("PathSwitch", photon=target, path_a=rail1, path_b=rail2)
    pi_rail1 = el.op("PolPhase", math.pi, photon=target, path=rail1, pol=None)
    plan = fock_plan([], [switch], [switch, pi_rail1])

    block = run_qubus_block(s, couplings, alpha, theta, plan)
    return block.state, _block_report("c_path", block, couplings, plan, rails=(rail1, rail2))


def c_path2(
    s: HybridState,
    control: str,
    target: str,
    rails: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Simultaneously control every rail of a multi-rail target.

    Each rail r_i splits to (r_i, r'_i); control H keeps the original rails,
    control V moves the photon to the fresh ones.  The rail count doubles and
    the output order is originals followed by fresh rails (the new control
    bit is the most significant).
    """
    c_path_ = _require_single_path(s, control)
    rails = list(rails)
    occupied = set(s.photon_paths_in_use(target))
    if not occupied.issubset(set(rails)):
        raise GateError(f"target occupies {occupied}, outside the given rails")
    reg = s.registry
    new_rails = []
    for r in rails:
        fresh = reg.fresh_path(r + "n")
        new_rails.append(fresh)
        reg = reg.with_path(target, fresh)
    s = HybridState(reg, s.branches)
    for r, rn in zip(rails, new_rails):
        s = el.photon_bs(s, target, r, rn)

    couplings = c_path2_couplings(control, c_path_, target, rails, new_rails)
    switches = [
        el.op("PathSwitch", photon=target, path_a=r, path_b=rn)
        for r, rn in zip(rails, new_rails)
    ]
    pis = [
        el.op("PolPhase", math.pi, photon=target, path=r, pol=None) for r in rails
    ]
    plan = fock_plan([], switches, switches + pis)

    block = run_qubus_block(s, couplings, alpha, theta, plan)
    report = _block_report(
        "c_path2", block, couplings, plan, rails=tuple(rails) + tuple(new_rails)
    )
    return block.state, report


def c_path3(
    s: HybridState,
    control: str,
    control_rails: tuple[str, str],
    target: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    split_path: str | None = None,
    layout: str = "split",
    witness: tuple[str, str, str] | None = None,
) -> tuple[HybridState, GateReport]:
    """C-path conditioned on a control photon that is itself split over two rails.

    The target goes to rail 2 only when the control photon sits on its second
    rail with polarization V (the all-controls-V component of a multi-control
    chain).  layout picks the Table-5 coupling arrangement ("split"), the
    coupling-saving variant with an upstream witness slot ("compact"), or the
    unsplit generalization ("direct"); all three act identically.
    """
    first, second = control_rails
    rail1 = _require_single_path(s, target)
    rail2 = split_path or s.registry.fresh_path(rail1 + "s")
    reg = s.registry.with_path(target, rail2)
    s = HybridState(reg, s.branches)
    s = el.photon_bs(s, target, rail1, rail2)

    first_aux = None
    if layout == "split":
        first_aux = s.registry.fresh_path(first + "v")
        s = el.pbs(s, control, first, first, first_aux)
        s = el.wave_plate(s, control, first_aux, "x")
    couplings = c_path3_couplings(
        control, first, first_aux, second, target, rail1, rail2, layout, witness
    )

    switch = el.op("PathSwitch", photon=target, path_a=rail1, path_b=rail2)
    pi_rail1 = el.op("PolPhase", math.pi, photon=target, path=rail1, pol=None)
    plan = fock_plan([], [switch], [switch, pi_rail1])

    def unsplit(st: HybridState) -> HybridState:
        if layout != "split":
            return st
        st = el.wave_plate(st, control, first_aux, "x")
        st = el.pbs_merge(st, control, first, first_aux, first)
        return HybridState(st.registry.without_path(control, first_aux), st.branches)

    block = run_qubus_block(s, couplings, alpha, theta, plan, post=unsplit)
    report = _block_report(
        "c_path3", block, couplings, plan, rails=(rail1, rail2), layout=layout
    )
    return block.state, report


# ---------------------------------------------------------------------------
# Disentangler
# ---------------------------------------------------------------------------


def disentangler(
    s: HybridState,
    control: str,
    target: str,
    v_rails: Sequence[str] | None = None,
) -> tuple[HybridState, GateReport]:
    """Project the control onto |±⟩ without destroying it.

    A PBS± Mach-Zehnder splits the control, QND modules detect the arm, and
    the |−⟩ outcome is fixed up by σ_z on the control plus a π phase on the
    target rails that the control's V component selected (v_rails; derived
    from the dominant branch weights when not given).  The control leaves in
    |+⟩ exactly; the target keeps all four coefficients.
    """
    path = _require_single_path(s, control)
    if v_rails is None:
        # classify rails by where the weight sits; upstream gates leave
        # ~e^{−|β|²} dust on the wrong side, hence the relative threshold
        wh: dict[str, float] = {}
        wv: dict[str, float] = {}
        for br in s.branches:
            acc = wv if br.slot(control)[1] == V else wh
            r = br.slot(target)[0]
            acc[r] = acc.get(r, 0.0) + abs(br.amplitude) ** 2
        pi_rails = sorted(
            r for r, w in wv.items() if w > 0 and wh.get(r, 0.0) < 1e-6 * w
        )
    else:
        pi_rails = sorted(v_rails)

    reg = s.registry
    arm_p = reg.fresh_path(path + "p")
    arm_m = reg.fresh_path(path + "m")
    split = el.pbs_pm(s, control, path, arm_p, arm_m)

    records = presence_outcomes(split, control, [arm_p, arm_m])
    corrected = []
    feedforward = []
    for rec in records:
        st = rec.collapsed
        st = el.pbs_pm_merge(st, control, arm_p, arm_m, path)
        st = HybridState(
            st.registry.without_path(control, arm_p).without_path(control, arm_m),
            st.branches,
        )
        ops = []
        if rec.value == arm_m:
            ops.append(el.op("WavePlateZ", photon=control, path=path))
            ops += [
                el.op("PolPhase", math.pi, photon=target, path=r, pol=None)
                for r in pi_rails
            ]
        st = el.apply_elements(st, ops)
        corrected.append((rec.value, rec.probability, st))
        feedforward.append(
            ("+" if rec.value == arm_p else "-", [o.to_dict() for o in ops])
        )
    scored = score_outcomes("presence", corrected)
    report = scored.report(
        "disentangler",
        Resources(detections=1),
        gates=Counter({"disentangler": 1}),
        feedforward=feedforward,
    )
    return scored.state, report


# ---------------------------------------------------------------------------
# Entangler variants
# ---------------------------------------------------------------------------


def _entangler_block(
    s: HybridState,
    couplings: Sequence[Coupling],
    flip_photon: str,
    alpha: float,
    theta: float,
    name: str,
) -> tuple[HybridState, GateReport]:
    sx = el.op("WavePlateX", photon=flip_photon, path=None)
    sz = el.op("WavePlateZ", photon=flip_photon, path=None)
    plan = fock_plan([], [sx], [sx, sz])
    block = run_qubus_block(s, couplings, alpha, theta, plan)
    return block.state, _block_report(name, block, couplings, plan)


def entangler1(
    s: HybridState,
    photon: str,
    rails: tuple[str, str],
    ancilla: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Correlate a |+⟩ ancilla with a two-rail photon's polarization."""
    anc_path = _require_plus(s, ancilla)
    couplings = entangler4_couplings(ancilla, anc_path, photon, rails)
    return _entangler_block(s, couplings, ancilla, alpha, theta, "entangler1")


def entangler2(
    s: HybridState,
    companion: str,
    qudit: str,
    rails: tuple[str, str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Re-entangle a |+⟩ companion with which-rail of a two-rail qudit."""
    comp_path = _require_single_path(s, companion)
    couplings = entangler3_couplings(companion, comp_path, qudit, rails[:1], rails[1:])
    return _entangler_block(s, couplings, companion, alpha, theta, "entangler2")


def entangler3(
    s: HybridState,
    companion: str,
    qudit: str,
    rails_a: Sequence[str],
    rails_b: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Entangler-2 generalized: each rail half behaves as one spatial mode."""
    comp_path = _require_single_path(s, companion)
    couplings = entangler3_couplings(companion, comp_path, qudit, rails_a, rails_b)
    out, rep = _entangler_block(s, couplings, companion, alpha, theta, "entangler3")
    return out, rep


def entangler4(
    s: HybridState,
    ancilla: str,
    qudit: str,
    rails: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Couple the ancilla to every rail of a multi-rail qudit photon."""
    anc_path = _require_plus(s, ancilla)
    couplings = entangler4_couplings(ancilla, anc_path, qudit, rails)
    return _entangler_block(s, couplings, ancilla, alpha, theta, "entangler4")


# ---------------------------------------------------------------------------
# Merging family
# ---------------------------------------------------------------------------


def merging(
    s: HybridState,
    photon: str,
    rails: tuple[str, str],
    ancilla: str,
    companions: Sequence[tuple[str, str | None]],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    keep_recycled: bool = True,
) -> tuple[HybridState, GateReport]:
    """Merge a photon's two rails onto a fresh |+⟩ ancilla (inverse of C-path).

    After the Entangler and its feed-forward, a 50:50 BS interferes the two
    rails, PBS± fan them out onto four arms, and QND modules find the photon
    on one arm in |±⟩ (probability 1/4 each).  Conditional σ_z on the listed
    companion V slot and/or the ancilla then restore one fixed output; the
    detected photon survives on its arm for recycling.

    companions names the (photon, path-or-None) V slot that tags rail 2, e.g.
    [("1", None)] when rail 2 is correlated with photon 1 being V.
    """
    return merging_n(
        s,
        photon,
        rails,
        ancilla,
        companions,
        alpha=alpha,
        theta=theta,
        interference="bs",
        keep_recycled=keep_recycled,
        name="merging",
    )


def merging_n(
    s: HybridState,
    photon: str,
    rails: Sequence[str],
    ancilla: str,
    companions: Sequence[tuple[str, str | None]],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    interference: str | object = "qft",
    keep_recycled: bool = True,
    name: str = "merging_n",
) -> tuple[HybridState, GateReport]:
    """Merge 2^{n−1} rails into the ancilla via an interference mesh.

    interference: "qft" (Fourier matrix through a Reck mesh), "hadamard4" (the
    real 4×4 choice that leaves σ_z-only corrections), "bs" (N=2 50:50 BS,
    the standard Merging gate), or an explicit unitary.  The feed-forward
    phases are obtained by factorizing conj(U[k,j]/U[k,0]) over the rail-index
    bits; each bit's phase lands on the matching companion's V slot.
    """
    rails = list(rails)
    n_rails = len(rails)
    if n_rails < 2 or n_rails & (n_rails - 1):
        raise GateError("rail count must be a power of two")
    qbits = n_rails.bit_length() - 1
    if len(companions) != qbits:
        raise GateError(f"need {qbits} companions for {n_rails} rails")
    anc_path = _require_plus(s, ancilla)

    report = GateReport(name, gates=Counter({name: 1}))

    # Entangler: correlate ancilla polarization with the photon polarization
    ent_name = "entangler1" if n_rails == 2 else "entangler4"
    couplings = entangler4_couplings(ancilla, anc_path, photon, rails)
    out, ent_report = _entangler_block(s, couplings, ancilla, alpha, theta, ent_name)
    report.absorb(ent_report)

    # interference across the rails
    if isinstance(interference, str):
        if interference == "bs":
            u = syn.qft_matrix(2)
            if n_rails != 2:
                raise GateError("'bs' interference is the two-rail case")
        elif interference == "qft":
            u = syn.qft_matrix(n_rails)
        elif interference == "hadamard4":
            if n_rails != 4:
                raise GateError("'hadamard4' interference needs four rails")
            u = syn.HADAMARD4
        else:
            raise GateError(f"unknown interference {interference!r}")
    else:
        u = syn.check_unitary(interference)
        if u.shape[0] != n_rails:
            raise GateError("interference matrix size does not match rails")
    if interference == "bs":
        out = el.photon_bs(out, photon, rails[0], rails[1])
        report.extras["interference"] = "bs"
    else:
        mesh = syn.reck_decompose(u)
        out = syn.apply_mesh_ops(out, photon, rails, mesh)
        report.extras["interference"] = interference if isinstance(interference, str) else "custom"
        report.gates.update({"lomi": 1})

    # feed-forward phases per rail bit: conj(U[k,j]) must factorize over bits
    phases = _factorize_corrections(u, qbits)

    # PBS± fan-out and presence detection
    arms = []
    for r in rails:
        ap, am = out.registry.fresh_path(r + "p"), out.registry.fresh_path(r + "m")
        out = el.pbs_pm(out, photon, r, ap, am)
        arms.append((ap, am))

    flat_arms = [a for pair in arms for a in pair]
    records = presence_outcomes(out, photon, flat_arms)
    corrected = []
    feedforward = []
    for rec in records:
        arm = rec.value
        k = next(i for i, pair in enumerate(arms) if arm in pair)
        minus = arm == arms[k][1]
        ops = []
        for m in range(qbits):
            phi = phases[m][k]
            if abs(phi) > 1e-12:
                pid, cpath = companions[m]
                if abs(abs(phi) - math.pi) < 1e-12 and cpath is None:
                    ops.append(el.op("WavePlateZ", photon=pid, path=None))
                else:
                    ops.append(el.op("PolPhase", phi, photon=pid, path=cpath, pol=V))
        if minus:
            ops.append(el.op("WavePlateZ", photon=ancilla, path=None))
        st = el.apply_elements(rec.collapsed, ops)
        corrected.append((f"{k}{'-' if minus else '+'}", rec.probability, st))
        feedforward.append((f"arm {k}{'-' if minus else '+'}", [o.to_dict() for o in ops]))

    scored = score_outcomes(
        "presence", [(v, p, remove_photon(st, photon)) for v, p, st in corrected]
    )
    stage = scored.report(name + "_readout", Resources(detections=1), feedforward=feedforward)
    report.absorb(stage)
    report.feedforward = feedforward
    report.outcomes = stage.outcomes
    report.extras.update(
        {"carrier": (ancilla, anc_path), "recycled": photon, "arms": tuple(flat_arms)}
    )

    rep_state = next(st for v, p, st in corrected if v == scored.value)
    if not keep_recycled:
        rep_state = remove_photon(rep_state, photon)
    else:
        rep_arm = next(
            arm for arm in flat_arms if arm in rep_state.photon_paths_in_use(photon)
        )
        flipped = el.wave_plate(rep_state, photon, None, "x")
        sign = inner_product(flipped, rep_state).real
        report.extras["recycled_arm"] = rep_arm
        report.extras["recycled_sign"] = "+" if sign > 0 else "-"
    return rep_state, report


def _factorize_corrections(u, qbits: int) -> list[list[float]]:
    """Per-bit correction phases: conj(U[k,j]/U[k,0]) = Π_m f_m(k)^{bit_m(j)}.

    bit 0 is the most significant rail-index bit (first companion).
    Raises when the interference matrix does not factorize.
    """
    import cmath

    n = u.shape[0]
    mags = abs(u)
    if mags.max() - mags.min() > 1e-10:
        raise GateError("interference matrix must have uniform magnitudes")
    phases = []
    for m in range(qbits):
        j = 1 << (qbits - 1 - m)
        row = []
        for k in range(n):
            row.append(cmath.phase((u[k, j] / u[k, 0]).conjugate()))
        phases.append(row)
    for j in range(n):
        for k in range(n):
            acc = 0.0
            for m in range(qbits):
                if (j >> (qbits - 1 - m)) & 1:
                    acc += phases[m][k]
            want = cmath.phase((u[k, j] / u[k, 0]).conjugate())
            if abs(cmath.exp(1j * acc) - cmath.exp(1j * want)) > 1e-10:
                raise GateError("interference corrections do not factorize over rails")
    return phases


# ---------------------------------------------------------------------------
# convenience: ancilla injection
# ---------------------------------------------------------------------------


def inject_plus(
    s: HybridState, pid: str | None = None, path: str | None = None
) -> tuple[HybridState, str, str]:
    """Tensor a fresh |+⟩ photon into the state; returns (state, id, path)."""
    pid = pid or s.registry.fresh_photon("anc")
    path = path or s.registry.fresh_path(pid)
    return tensor(s, plus_photon(pid, path)), pid, path
