"""End-to-end procedures: multi-photon → single-photon-qudit transforms, their
inverses, and the full logic gates built from them.

Basis ordering is lexicographic with H < V and photon 1 most significant
throughout; a qudit photon's rails are kept in that bit order.  Pipelines run
each composite gate on its representative outcome (every gate has already
validated determinism over all of its own outcomes), aggregate the gate
reports, and dispose of recycled photons before returning.

Desk-scale cap: at most four logical photons per transform; the rail count
doubles per photon and nothing here tries to be clever about it.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Sequence

import numpy as np

from . import elements as el
from . import synthesis as syn
from .detection import BELLS
from .gates import (
    DEFAULTS,
    FeedForwardPlan,
    GateError,
    GateReport,
    Resources,
    c_path,
    c_path2,
    c_path3,
    disentangler,
    entangler3,
    inject_plus,
    merging_n,
    run_bell_stage,
)
from .state import (
    H,
    HybridState,
    _ancilla,
    _put_in,
    _stand_in,
    remove_photon,
    tensor,
)

MAX_PHOTONS = 4

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


class PipelineError(GateError):
    pass


def _require_photons(s: HybridState, least: int, **lists: Sequence[str]) -> None:
    """The photon-list check of every pipeline entry: each named list is
    non-empty, and together they hold least to MAX_PHOTONS distinct photons,
    each registered in s and on a single path."""
    for name, ids in lists.items():
        if not ids:
            raise PipelineError(f"{name} must name at least one photon")
    photons = [pid for ids in lists.values() for pid in ids]
    if len(photons) < least:
        raise PipelineError(f"need at least {least} photons, got {len(photons)}")
    if len(photons) > MAX_PHOTONS:
        raise PipelineError(f"desk-scale cap is {MAX_PHOTONS} photons, got {len(photons)}")
    repeated = sorted(pid for pid, count in Counter(photons).items() if count > 1)
    if repeated:
        raise PipelineError(f"photon ids must be distinct, repeated: {repeated}")
    for pid in photons:
        if pid not in s.registry.photons:
            raise PipelineError(f"photon {pid!r} is not in the state")
        if len(s.photon_paths_in_use(pid)) != 1:
            raise PipelineError(f"photon {pid!r} must start single-path")


# ---------------------------------------------------------------------------
# multi-photon -> single-photon qudit (circuit-based)
# ---------------------------------------------------------------------------


def to_qudit_circuit(
    s: HybridState,
    photons: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Map an n-photon polarization state onto the n-th photon's 2^{n−1} rails.

    Iterates C-path (last control) then C-path-2 stages, each followed by a
    Disentangler, consuming no ancillas: n−1 C-path-family gates and n−1
    Disentanglers total.  Companions exit in |+⟩; the report's extras carry
    the bit-ordered rail list and the carrier photon.
    """
    photons = list(photons)
    n = len(photons)
    _require_photons(s, 2, photons=photons)
    carrier = photons[-1]
    report = GateReport("to_qudit_circuit", gates=Counter({"to_qudit_circuit": 1}))

    out, rep = c_path(s, photons[-2], carrier, alpha, theta)
    report.absorb(rep)
    rails = list(rep.extras["rails"])
    out, rep = disentangler(out, photons[-2], carrier, v_rails=rails[1:])
    report.absorb(rep)

    for m in range(n - 3, -1, -1):
        out, rep = c_path2(out, photons[m], carrier, rails, alpha, theta)
        report.absorb(rep)
        fresh = list(rep.extras["rails"][len(rails) :])
        rails = rails + fresh  # originals then fresh: new bit is MSB
        out, rep = disentangler(out, photons[m], carrier, v_rails=fresh)
        report.absorb(rep)

    report.extras.update({"rails": tuple(rails), "carrier": carrier})
    return out, report


# ---------------------------------------------------------------------------
# teleportation variant
# ---------------------------------------------------------------------------


def to_qudit_teleport(
    s: HybridState,
    photons: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Teleport n polarization qubits onto one Bell-pair photon's rails.

    Ancillas: n−1 fresh photons in |+⟩ plus one Bell pair |Φ⁺⟩.  This
    resource state is prepared first, on its own: each |+⟩ ancilla controls
    the Bell photon's paths through a C-path / C-path-2 gate.  Then the
    inputs join it, and Bell measurements on (input_i, ancilla_i) pairs are
    enumerated and the I/σx/−iσy/σz corrections are fed forward; all 4ⁿ
    outcome combinations land on the same state.  The resource is built
    beside a one-row stand-in for s, so its photon, path and beam names are
    the ones it would get beside s.
    """
    photons = list(photons)
    n = len(photons)
    _require_photons(s, 2, photons=photons)
    report = GateReport("to_qudit_teleport", gates=Counter({"to_qudit_teleport": 1}))

    plus_ids = []
    work = _stand_in(s)
    for i in range(n - 1):
        work, pid, _ = inject_plus(work)
        plus_ids.append(pid)
    m1 = work.registry.fresh_photon("bellA")
    p1 = work.registry.fresh_path("bA")
    m2 = work.registry.fresh_photon("bellB")
    p2_ = work.registry.fresh_path("bB")
    work = tensor(work, _ancilla("phi+", m1, p1, m2, p2_))
    report.resources.add(Resources(ancilla_photons=n + 1))

    # ancilla q_1 controls first (its bit is most significant); later splits
    # interleave so earlier bits stay more significant
    out, rep = c_path(work, plus_ids[0], m1, alpha, theta)
    report.absorb(rep)
    rails = list(rep.extras["rails"])
    for i in range(1, n - 1):
        out, rep = c_path2(out, plus_ids[i], m1, rails, alpha, theta)
        report.absorb(rep)
        all_rails = rep.extras["rails"]
        fresh = list(all_rails[len(rails) :])
        rails = [r for pair in zip(rails, fresh) for r in pair]
    out = _put_in(s, out)

    # Bell measurements with feed-forward, pair by pair: input i with
    # ancilla i acts on rail-index bit i of the Bell photon, the last input
    # with the Bell pair's second photon on its polarization (_bell_plan)
    for i, pid_in in enumerate(photons):
        if i < n - 1:
            pid_anc, plan = plus_ids[i], _bell_plan(m1, *map(tuple, split_rails(rails, i)))
        else:
            pid_anc, plan = m2, _bell_plan(m1)
        scored = run_bell_stage(out, pid_in, pid_anc, plan)
        report.absorb(scored.report(f"bell({pid_in},{pid_anc})", plan, Resources(detections=1)))
        out = scored.state

    report.extras.update({"rails": tuple(rails), "carrier": m1})
    return out, report


@functools.lru_cache(maxsize=64)
def _bell_plan(
    carrier: str, clear: tuple[str, ...] = (), set_: tuple[str, ...] = ()
) -> FeedForwardPlan:
    """A teleport Bell stage's I/σx/−iσy/σz table on the carrier, by BELLS
    outcome.  With rails, σx switches each clear rail with its set partner
    and σz puts π on the set rails (one rail-index bit); without, both act
    on the carrier's polarization.  A plan is immutable, so each layout's
    is built once and shared."""
    if clear:
        sx = [el.op("PathSwitch", photon=carrier, path_a=a, path_b=b) for a, b in zip(clear, set_)]
        sz = [el.op("PolPhase", math.pi, photon=carrier, path=r, pol=None) for r in set_]
    else:
        sx = [el.op("WavePlateX", photon=carrier, path=None)]
        sz = [el.op("WavePlateZ", photon=carrier, path=None)]
    return FeedForwardPlan(list(zip(BELLS, ([], sz, sx, sx + sz))), BELLS.index)


# ---------------------------------------------------------------------------
# inverse transform
# ---------------------------------------------------------------------------


def split_rails(rails: Sequence[str], bit: int) -> tuple[list[str], list[str]]:
    """Split bit-ordered qudit rails by one index bit (bit 0 is the most
    significant): the rails with that bit clear, then those with it set."""
    n_rails = len(rails)
    if n_rails < 2 or n_rails & (n_rails - 1):
        raise PipelineError(f"rail count must be a power of two >= 2, got {n_rails}")
    bits = n_rails.bit_length() - 1
    if not (isinstance(bit, int) and 0 <= bit < bits):
        raise PipelineError(f"bit must be 0..{bits - 1} for {n_rails} rails, got {bit!r}")
    mask = 1 << (bits - 1 - bit)
    return (
        [r for j, r in enumerate(rails) if not j & mask],
        [r for j, r in enumerate(rails) if j & mask],
    )


def from_qudit(
    s: HybridState,
    qudit: str,
    companions: Sequence[str],
    rails: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    interference: str = "qft",
) -> tuple[HybridState, GateReport]:
    """Inverse of to_qudit_circuit: re-entangle companions, then merge rails.

    rails must be in bit order (first companion = most significant bit).  The
    merged photon comes out on a fresh |+⟩ ancilla; the report's extras name
    the carrier.  Round trip with to_qudit_circuit is the identity.
    """
    companions = list(companions)
    rails = list(rails)
    _require_photons(s, 1, companions=companions)
    n = len(companions) + 1
    if len(rails) != 2 ** (n - 1):
        raise PipelineError(f"need {2 ** (n - 1)} rails for {n - 1} companions")
    report = GateReport("from_qudit", gates=Counter({"from_qudit": 1}))
    out, anc_id = _fold_back(s, qudit, companions, rails, report, alpha, theta, interference)
    report.extras.update({"carrier": anc_id})
    return out, report


def _fold_back(
    out: HybridState,
    qudit: str,
    companions: list[str],
    rails: list[str],
    report: GateReport,
    alpha: float,
    theta: float,
    interference: str,
) -> tuple[HybridState, str]:
    """Re-entangle each companion with its rail-index bit, then merge the
    rails onto a fresh |+⟩ ancilla; the gates' reports go into report.
    Returns the state and the ancilla id."""
    for m, comp in enumerate(companions):
        out, rep = entangler3(out, comp, qudit, *split_rails(rails, m), alpha, theta)
        report.absorb(rep)

    out, anc_id, _ = inject_plus(out)
    report.resources.add(Resources(ancilla_photons=1))
    out, rep = merging_n(
        out, qudit, rails, anc_id, [(c, None) for c in companions], alpha, theta,
        interference, keep_recycled=False,
    )
    report.absorb(rep)
    return out, anc_id


# ---------------------------------------------------------------------------
# general two-qubit / multi-qubit gates
# ---------------------------------------------------------------------------


def multi_qubit_gate(
    s: HybridState,
    photons: Sequence[str],
    u: np.ndarray,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    interference: str = "qft",
) -> tuple[HybridState, GateReport]:
    """Any U(2ⁿ) on n polarization qubits (2 ≤ n ≤ 4), lexicographic H/V basis.

    n−1 C-path-family gates map the state onto the last photon's 2^{n−1}
    rails, a 2ⁿ-port Reck mesh applies U on the all-H rails, n−1 Entangler-3
    re-entangle the companions, and a Merging-n gate (second LOMI: QFT or the
    σz-only Hadamard variant) folds the rails onto one ancilla.  The last
    logical qubit exits on that ancilla, named in the report's photon order.
    On two photons this is the two-qubit gate, and its report is named so:
    Entangler-2 and Merging (the two-rail QFT is the 50:50 BS) fold it back.
    """
    photons = list(photons)
    n = len(photons)
    _require_photons(s, 2, photons=photons)
    u = syn.check_unitary(np.asarray(u, dtype=complex))
    if u.shape != (2**n, 2**n):
        raise PipelineError(f"need a {2**n}x{2**n} unitary for {n} photons")
    name = "two_qubit_gate" if n == 2 else "multi_qubit_gate"
    report = GateReport(name, gates=Counter({name: 1}))
    qudit = photons[-1]

    out, rep = to_qudit_circuit(s, photons, alpha, theta)
    report.absorb(rep)
    rails = list(rep.extras["rails"])

    # the mesh acts on 2N all-H rails in lexicographic order: r, then its V rail
    out, fresh = el.pbs_fan_out(out, qudit, rails)
    wide = [r for pair in zip(rails, fresh) for r in pair]
    out = syn.mesh_apply(out, qudit, wide, syn.reck_decompose(u))
    report.gates.update({"lomi": 1})
    out = el.pbs_fan_in(out, qudit, rails, fresh)

    out, anc_id = _fold_back(out, qudit, photons[:-1], rails, report, alpha, theta, interference)
    report.extras.update({"photon_order": tuple(photons[:-1]) + (anc_id,)})
    return out, report


# ---------------------------------------------------------------------------
# multi-control gates
# ---------------------------------------------------------------------------


def cn_u1(
    s: HybridState,
    controls: Sequence[str],
    target: str,
    u1: np.ndarray,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    layout: str = "split",
) -> tuple[HybridState, GateReport]:
    """C^n(U1): U1 hits the target only when every control is |V⟩.

    The controls and the target form a chain.  A C-path routes its second
    photon by the first one's polarization, and a C-path-3 routes each later
    photon onto two rails by the all-V-so-far rail of the one before; layout
    picks the couplings of the first C-path-3.  U1 (wave plates) then acts on
    the target's all-V rail alone, and n Merging gates fold everything back,
    recycling one ancilla photon throughout.  The extras map each logical
    qubit to its carrier photon.  cn_uk on one target is this gate; on k ≥ 2
    targets it is the multi-qubit gate instead, with no carriers extra.
    """
    controls = list(controls)
    n = len(controls)
    _require_photons(s, 2, controls=controls, target=[target])
    u1 = syn.check_unitary(np.asarray(u1, dtype=complex))
    if u1.shape != (2, 2):
        raise PipelineError("U1 must be 2x2")
    if layout not in ("split", "compact"):
        raise PipelineError(f"unknown C-path-3 layout {layout!r}")
    if layout == "compact" and n < 2:
        raise PipelineError(
            "the compact layout needs at least two controls: "
            "one control leaves no C-path-3 stage for it to act on"
        )
    report = GateReport("cn_u1", gates=Counter({"cn_u1": 1}))

    chain = controls + [target]
    rails: dict[str, tuple[str, str]] = {}  # each routed photon's (first, second) rails
    out = s
    for i, (ctrl, photon) in enumerate(zip(chain, chain[1:])):
        if i == 0:
            out, rep = c_path(out, ctrl, photon, alpha, theta)
        elif i == 1:  # the first C-path-3 stage takes the layout
            witness = (controls[0], out.photon_paths_in_use(controls[0])[0], H)
            out, rep = c_path3(
                out, ctrl, rails[ctrl], photon, alpha, theta, layout=layout, witness=witness
            )
        else:
            out, rep = c_path3(out, ctrl, rails[ctrl], photon, alpha, theta)
        report.absorb(rep)
        rails[photon] = rep.extras["rails"]

    out = el.pol_unitary(out, target, rails[target][1], u1)

    # Fold the routed photons back, last first, with one Merging gate each.
    # Each step's companion is the V slot that marks "every control before
    # it is V": the first control's polarization, then each split control's
    # V on its second rail.  The first gate merges onto a fresh |+⟩ ancilla,
    # each later one onto the photon the previous gate recycled, and the
    # photon recycled last is dropped.
    flags = [(controls[0], None)] + [(c, rails[c][1]) for c in controls[1:]]
    out, anc, _ = inject_plus(out)
    report.resources.add(Resources(ancilla_photons=1))
    sign = "+"
    carriers = {controls[0]: controls[0]}
    for photon, companion in reversed(list(zip(chain[1:], flags))):
        if sign == "-":
            out = el.wave_plate(out, anc, None, "z")
        out, rep = merging_n(out, photon, rails[photon], anc, [companion], alpha, theta)
        report.absorb(rep)
        carriers[photon] = anc
        anc, sign = photon, rep.extras["recycled_sign"]
    if sign == "-":
        out = el.wave_plate(out, anc, None, "z")

    order = tuple(carriers[p] for p in chain)
    report.extras.update({"photon_order": order, "carriers": carriers})
    return remove_photon(out, anc), report


def toffoli(
    s: HybridState,
    controls: Sequence[str],
    target: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    layout: str = "split",
) -> tuple[HybridState, GateReport]:
    """C^n(σx): flips the target iff every control is |V⟩."""
    out, report = cn_u1(s, controls, target, SIGMA_X, alpha, theta, layout)
    report.gate = "toffoli"
    report.gates.update({"toffoli": 1})
    return out, report


def cn_uk(
    s: HybridState,
    controls: Sequence[str],
    targets: Sequence[str],
    uk: np.ndarray,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """C^n(U_k): a k-qubit unitary on the targets when every control is |V⟩.

    On one target this is C^n(U1), report name included.  For k ≥ 2 it is
    the multi-qubit gate of diag(1, …, 1, U_k) on the controls then the
    targets, built from qubus gates: qudit transform, Reck mesh, Entangler-3
    and Merging-n.  Its report is named "cn_uk"; the last target exits on
    the merge ancilla named in the report's photon order, and there is no
    carriers extra.
    """
    controls, targets = list(controls), list(targets)
    _require_photons(s, 2, controls=controls, targets=targets)
    k = len(targets)
    uk = syn.check_unitary(np.asarray(uk, dtype=complex))
    if uk.shape != (2**k, 2**k):
        raise PipelineError(f"U_k must be {2**k}x{2**k} for {k} target(s)")
    if k == 1:
        return cn_u1(s, controls, targets[0], uk, alpha, theta)
    dim = 2 ** (len(controls) + k)
    u = np.eye(dim, dtype=complex)
    u[dim - 2**k :, dim - 2**k :] = uk
    out, report = multi_qubit_gate(s, controls + targets, u, alpha, theta)
    report.gate = "cn_uk"
    report.gates.update({"cn_uk": 1})
    return out, report
