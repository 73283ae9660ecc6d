"""Composite gates: measurement plus classical feed-forward.

Every gate here follows the same recipe.  Two fresh qubus beams |α⟩|α⟩ are
coupled to the photonic modes listed in the gate's coupling table (θ per
coupling), both beams get a −θ compensation, a 50:50 qubus BS forms the
difference/sum ports, and the difference port is read out by the QND module
(enumerated exactly as Fock outcomes).  A feed-forward plan, here the
n=0 / n even / n odd table, then turns every outcome into the same output
state; the unmeasured sum port is disposed of by heralded projection onto its
dominant coherent value, whose tiny residual which-path weight is the only
nondeterminism left (≤ ~e^{−|β|²} in fidelity, with |β|² = 2α²sin²θ).

Every measurement stage runs through one stage algebra.  A readout splits
the stage's input into K parts ψ_k, and outcome i is Σ_k w[k, i] ψ_k,
corrected by its FeedForwardPlan row; a qubus block then disposes of its
sum port.  The cases are:
  * a qubus block: the parts are the rows at each distinct value α_k of the
    difference port (0 and ±β in every gate here), and w[k, n] = ⟨n|α_k⟩;
  * a Bell readout (the teleport transform): the parts are the pair's
    patterns HH, HV, VH and VV, both photons dropped, and w[k, j] =
    _BELL[k, j]/√2 (K = 4, no disposal beam);
  * a presence readout: the parts are the photon's arms, w is the
    identity, and the Disentangler's arms' PBS± recombination, or the
    release of a Merging gate's detected photon, ends the split.
Correction and disposal are linear once the disposal value is fixed, and
act on photons only, so each (feed-forward row, disposal value) group gives
every outcome of it from K fixed parts.  None of that depends on the
amplitudes: for one input structure (registry, label codes and beam values)
with one readout and plan, the stage is compiled once (_stage_algebra) into
each group's part rows as maps of the input amplitudes and the overlaps of
those rows.  A readout whose weights are fixed (Bell, presence) folds them
into the compile, so its outcome k is its part k, corrected only by plan
row k.  The beam values are part of the structure, so a new α or θ
compiles afresh: the cache pays off only when a structure repeats.  A
block call still couples and enumerates the Fock outcomes (the MIN_PROB cut
and the tail check); then every stage only does array work on its
amplitudes: a block's dominant disposal value per outcome and the TIE_TOL
tie rule, the parts (with canonicalize's dust rule after a disposal), one
K×K Gram matrix per group for the norms (a readout without a beam reads its
probabilities there and cuts them at MIN_PROB), and the overlaps with the
representative.  Only the representative, and every outcome whose disposal
value is not unique, get a state: the per-outcome route (a block's
collapse, correct, dispose; a readout's detection call for that one
outcome, then its correction, and a Merging gate's remove_photon); the
representative's batched overlap with its route's state, over its Gram
norm, must be 1, so the compiled algebra is checked on every call.
C-path-3's fan-in is one unitary on every outcome, so it leaves the scores
as they are and runs once, on the gate's output.

The parity gate and the C-path family share one rail-routing block: a fresh
rail opens beside each target rail with a 50:50 split, and even n switches
the rails while odd n adds a π phase; the splits and the plan are built once
per layout (photon, rails, fresh rails) and shared, as both are immutable.
C-path is C-path-2 on a one-rail target, and likewise Entangler-1,
Entangler-2 and Merging are entangler4, entangler3 and merging_n at two
rails, whose reports take the two-rail names.
pbs_fan_out / pbs_fan_in move each rail's V component to a fresh rail as
H and back, all rails in one slot table; C-path-3 and the qudit unitaries
use them.

Each gate returns (output state, GateReport); the report holds columns of
every outcome's value, probability and fidelity against the representative
output, the resource counts, and the stage's feed-forward table, a row per
outcome class.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import elements as el
from . import synthesis as syn
from .detection import (
    _BELL,
    BELLS,
    MIN_PROB,
    FockOutcomes,
    MeasurementRecord,
    _bell_pattern,
    _project_onto,
    bell_outcomes,
    fock_outcomes,
    presence_outcomes,
    project_qubus_coherent,
)
from .registry import ModeRegistry
from .state import (
    CANON_TOL,
    H,
    V,
    HybridState,
    StateError,
    _ancilla,
    _binned,
    _pairs,
    _recode,
    _reregistered,
    _runs,
    _slot_digits,
    attach_qubus,
    coherent_overlap,
    fidelity,
    inner_product,
    norm,
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

#: an outcome "agrees" with the representative above this fidelity
AGREEMENT_TOL = 1e-6

#: two magnitudes within this relative gap tie: an outcome whose disposal
#: value ties, and every outcome tied for most probable, take the per-outcome
#: route in a qubus block
TIE_TOL = 1e-9

#: a qubus block's batched representative must match its per-outcome route
#: to this fidelity
ROUTE_TOL = 1e-9

#: a success mass above 1 by at most this is rounding and reads 1; above
#: that it raises GateError
SUCCESS_TOL = 1e-12

#: stage structures whose compiled algebra is kept (_stage_algebra): qubus
#: blocks, Bell readouts and presence readouts share the cache
BLOCK_CACHE = 64


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
        for name, count in vars(other).items():
            setattr(self, name, getattr(self, name) + count)

    def to_dict(self) -> dict:
        return dict(vars(self))


class OutcomeTable:
    """A stage's outcomes as columns: one kind, and each outcome's value,
    probability and fidelity with the representative.

    to_dicts writes the JSON rows from the columns, without the kind, which
    a report writes once.  The default is the empty table, of kind "".
    """

    __slots__ = ("kind", "values", "probabilities", "fidelities")

    def __init__(
        self,
        kind: str = "",
        values: Sequence[object] = (),
        probabilities: Sequence[float] = (),
        fidelities: Sequence[float] = (),
    ):
        self.kind, self.values = kind, values
        self.probabilities, self.fidelities = probabilities, fidelities

    def __len__(self) -> int:
        return len(self.values)

    def to_dicts(self) -> list[dict]:
        """Each outcome's value, probability and fidelity as a JSON row."""
        return [
            {"value": v, "probability": p, "fidelity": f}
            for v, p, f in zip(self.values, self.probabilities, self.fidelities)
        ]


@dataclass
class GateReport:
    """Per-gate log: outcome table, determinism figure, resources."""

    gate: str
    success_probability: float = 1.0
    min_fidelity: float = 1.0
    outcomes: OutcomeTable = field(default_factory=OutcomeTable)
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
        """The report as JSON: its outcome table's kind once, as outcome_kind
        ("" for an empty table), and one {value, probability, fidelity} row
        per outcome; children nest as their own reports."""
        return {
            "gate": self.gate,
            "success_probability": self.success_probability,
            "min_fidelity": self.min_fidelity,
            "outcome_kind": self.outcomes.kind,
            "outcomes": self.outcomes.to_dicts(),
            "resources": self.resources.to_dict(),
            "gates": dict(self.gates),
            "feedforward": [
                {"outcome": label, "ops": ops} for label, ops in self.feedforward
            ],
            "children": [c.to_dict() for c in self.children],
            "extras": dict(self.extras),
        }


# ---------------------------------------------------------------------------
# feed-forward plans
# ---------------------------------------------------------------------------


class FeedForwardPlan:
    """The correction table of one measurement stage: labelled rows of ElementOps.

    row_of(value) is the row an outcome value uses, correct(state, value)
    applies that row, and describe() is the table as a report lists it, one
    row per outcome class whether or not an outcome of it was found.  A plan
    is immutable, so gates build theirs once per layout and share it;
    describe() builds new lists and dicts on every call, so each report owns
    its table and a caller that edits one leaves the plan and the next
    report alone.
    """

    def __init__(
        self,
        rows: Sequence[tuple[str, Sequence[el.ElementOp]]],
        row_of: Callable[[object], int],
    ):
        self.labels = tuple(label for label, _ in rows)
        self.rows = tuple(tuple(ops) for _, ops in rows)
        self.row_of = row_of

    def correct(self, state: HybridState, value) -> HybridState:
        return el.apply_elements(state, self.rows[self.row_of(value)])

    def describe(self) -> list[tuple[str, list[dict]]]:
        return [(label, [o.to_dict() for o in ops]) for label, ops in zip(self.labels, self.rows)]


def _parity_plan(
    even_ops: Sequence[el.ElementOp], odd_ops: Sequence[el.ElementOp]
) -> FeedForwardPlan:
    """A qubus block's table: only the parity of the detected photon number n
    matters, so n=0 needs no correction, even n the even_ops and odd n the
    odd_ops.  row_of maps an int n, or an array of them, to 0, 1 or 2."""
    return FeedForwardPlan(
        [("n=0", []), ("n even", even_ops), ("n odd", odd_ops)], lambda n: (n > 0) * (1 + n % 2)
    )


# ---------------------------------------------------------------------------
# the shared qubus block
# ---------------------------------------------------------------------------


@dataclass
class Scored:
    """Every outcome of one measurement stage scored against the representative."""

    value: object  # the representative (most probable) outcome
    state: HybridState  # the representative's corrected output
    outcomes: OutcomeTable
    min_fidelity: float
    success_probability: float

    def report(
        self, name: str, plan: FeedForwardPlan, resources: Resources, **fields
    ) -> GateReport:
        """The stage's GateReport with plan's full correction table; fields
        fill the remaining report fields."""
        return GateReport(
            name, self.success_probability, self.min_fidelity, self.outcomes, resources,
            feedforward=plan.describe(), **fields,
        )


def _score(
    kind: str,
    values: Sequence[object],
    probs: Sequence[float] | np.ndarray,
    fidelities: Callable[[int], np.ndarray],
    state_of: Callable[[int], HybridState],
) -> Scored:
    """Pick the most probable outcome as representative and score all against it.

    Outcomes within TIE_TOL of the largest probability tie, and the first of
    them represents, so sums that round differently pick the same one.
    fidelities(rep) gives every outcome's fidelity with outcome rep's
    corrected state, and state_of(rep), called after it, gives that state;
    no other outcome's state is asked for.  An outcome counts towards the
    success mass when its fidelity with the representative is within
    AGREEMENT_TOL of 1; the mass is summed in outcome order (a cumulative
    sum, not a pairwise one), and a mass above 1 by no more than rounding
    (SUCCESS_TOL) reads 1; a larger one means outcomes were counted twice
    and raises GateError.
    """
    p = np.asarray(probs, dtype=float)
    rep = int(np.argmax(p >= (1 - TIE_TOL) * p.max()))
    fids = fidelities(rep)
    agree = p[fids >= 1.0 - AGREEMENT_TOL]
    success = float(agree.cumsum()[-1]) if len(agree) else 0.0
    if success > 1.0 + SUCCESS_TOL:
        raise GateError(f"{kind} outcomes that agree hold probability {success!r} > 1")
    success = min(success, 1.0)
    outcomes = OutcomeTable(kind, values, p.tolist(), fids.tolist())
    min_fidelity = min(1.0, float(fids.min()))
    return Scored(values[rep], state_of(rep), outcomes, min_fidelity, success)


def couple_qubus_pair(
    s: HybridState, couplings: Sequence[Coupling], alpha: float, theta: float
) -> tuple[HybridState, tuple[str, str]]:
    """Attach |α⟩|α⟩, run the XPM pattern, −θ on both beams, then the qubus BS.

    Returns the pre-measurement state and the two beam names (difference
    port first).  α and θ must be finite numbers, and the difference beam's
    displacement |β|² = 2|α|²sin²θ must not vanish: with β = 0 every outcome
    is n=0 and the block cannot tell the photon's modes apart.  Nor may it be
    so small that 1 − e^{−|β|²}, the most any n ≥ 1 outcome can hold, falls
    below detection.MIN_PROB: then every kept outcome is n=0 too.
    """
    for name, x in (("alpha", alpha), ("theta", theta)):
        if not (isinstance(x, numbers.Number) and cmath.isfinite(x)):
            raise GateError(f"{name} must be a finite number, got {x!r}")
    a, sn = abs(alpha), abs(cmath.sin(theta))
    beta2 = 2 * a * a * sn * sn  # products, not powers: a huge α gives inf, not OverflowError
    if beta2 == 0:
        raise GateError(
            f"coupling cannot separate outcomes: 2|alpha|^2 sin^2(theta) = 0 "
            f"(alpha={alpha!r}, theta={theta!r})"
        )
    if -math.expm1(-beta2) < MIN_PROB:
        raise GateError(
            f"coupling too weak to separate outcomes: |beta|^2 = 2|alpha|^2 sin^2(theta) "
            f"= {beta2:.3g} puts every n >= 1 outcome below the kept-outcome threshold "
            f"{MIN_PROB:g} (alpha={alpha!r}, theta={theta!r})"
        )
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


class _PmMerge(NamedTuple):
    """A presence readout's recombination as data: pbs_pm_merge of the
    photon's plus and minus arms onto out, then both arms dropped from the
    registry.  The Disentangler's readout ends with it."""

    photon: str
    plus: str
    minus: str
    out: str

    def apply(self, s: HybridState) -> HybridState:
        s = el.pbs_pm_merge(s, self.photon, self.plus, self.minus, self.out)
        reg = s.registry.without_path(self.photon, self.plus).without_path(self.photon, self.minus)
        return _reregistered(s, reg)


def _outcome_route(rec: MeasurementRecord, plan: FeedForwardPlan, beam: str) -> HybridState:
    """One outcome on its own: feed-forward on its collapsed state, then
    disposal of the beam onto its dominant value."""
    st = plan.correct(rec.collapsed, rec.value)
    return project_qubus_coherent(st, beam)[0]


# ---------------------------------------------------------------------------
# the stage algebra: every readout stage compiled once per input structure
# ---------------------------------------------------------------------------

#: every input row's amplitude while a stage compiles: a power of two, so
#: dividing it out is exact, and so large that no compiled row is dust
_COMPILE_AMP = 2.0**600


def _measured(
    s: HybridState, reg: ModeRegistry, src: np.ndarray, codes: np.ndarray, part: np.ndarray,
    weight: np.ndarray | float = 1.0,
) -> tuple[HybridState, int]:
    """The readout of a tagged state s (the tag its last beam column) that
    reads no beam: for each entry, row src of s times weight, over reg with
    label code codes, and a column holding its part inserted before the
    tag.  Returns the state and that column's index."""
    tag = reg.qubus_modes[-1]
    reg = reg.without_qubus(tag).with_qubus(reg.fresh_qubus("part")).with_qubus(tag)
    q = s.qubus.take(src, 0)
    qubus = np.column_stack((q[:, :-1], part, q[:, -1]))
    return HybridState._sorted(reg, s.amps[src] * weight, codes, qubus), len(reg.qubus_modes) - 2


class _FockParts(NamedTuple):
    """A qubus block's readout: its parts are the rows at each distinct value
    of beam column `measured`, in row order (as FockPmf's values), every
    feed-forward row corrects every part, and `beam` is disposed of."""

    measured: int
    beam: str

    def split(self, s: HybridState) -> tuple[HybridState, int, list]:
        return s, self.measured, list(dict.fromkeys(s.qubus[:, self.measured].tolist()))


#: a Bell readout's weights: row k of pattern k (HH, HV, VH, VV) in each
#: outcome (columns, in BELLS order), as bell_outcomes takes them
_BELL_WEIGHTS = _BELL * (1 / math.sqrt(2))
_BELL_WEIGHTS.flags.writeable = False


class _BellParts(NamedTuple):
    """A Bell readout of (pid_a, pid_b), both photons dropped.  Its four
    pattern parts HH, HV, VH and VV (detection._bell_pattern) enter outcome j
    with the fixed weights _BELL_WEIGHTS[:, j], so the split folds them in:
    its parts are the outcomes, in BELLS order."""

    pid_a: str
    pid_b: str

    def split(self, s: HybridState) -> tuple[HybridState, int, list]:
        pattern, _ = _bell_pattern(s, self.pid_a, self.pid_b)
        reg = s.registry.without_photon(self.pid_a).without_photon(self.pid_b)
        weights = _BELL_WEIGHTS[pattern]
        src, outcome = weights.nonzero()
        codes = _recode(s.codes[src], s.registry, reg)
        st, measured = _measured(s, reg, src, codes, outcome, weights[src, outcome])
        return st, measured, list(range(len(BELLS)))


class _Release(NamedTuple):
    """A Merging readout's end step as data: PBS± leaves the detected photon
    in (H ± V)/√2 on a plus (minus) arm whatever the rest, so it drops as its
    H rows times √2.  Each H row needs its V row (same other labels and beam
    values) at ±1 times its amplitude, within 1e-9 of the largest amplitude,
    else StateError, as remove_photon checks; on a compile's tagged rows
    that holds for every amplitude of the structure."""

    photon: str
    minus: tuple[str, ...]  # the minus arms

    def apply(self, s: HybridState) -> HybridState:
        reg, pid = s.registry, self.photon
        digits = _slot_digits(s, pid)
        v = digits & 1
        # each row keyed by its H row: its code with the photon's V digit cleared
        h_codes = s.codes - v * reg._stride[reg.slot_index(pid)]
        order, new = _runs(h_codes, s.qubus, CANON_TOL)
        pair = (new.cumsum() - 1)[order.argsort()]
        first = order[new]
        h = _binned(pair, np.where(v, 0, s.amps), len(first))
        minus = np.isin(digits[first] >> 1, [reg.paths_of(pid).index(p) for p in self.minus])
        off = abs(_binned(pair, np.where(v, s.amps, 0), len(first)) - np.where(minus, -h, h))
        if (off > 1e-9 * abs(s.amps).max(initial=0.0)).any():
            raise StateError(f"photon {pid!r} is entangled with the rest; cannot remove")
        rest = reg.without_photon(pid)
        codes = _recode(h_codes[first], reg, rest)
        return HybridState._rows(rest, h * math.sqrt(2), codes, s.qubus.take(first, 0)).canonical()


class _PresenceParts(NamedTuple):
    """A presence readout: the split ops run, its parts are the rows with the
    photon on each of paths (rows elsewhere are not read), and the end step
    (the Disentangler's _PmMerge, a Merging gate's _Release) finishes the
    split.  Each part is an outcome: the weights are the identity."""

    photon: str
    paths: tuple[str, ...]
    split_ops: tuple[el.ElementOp, ...]
    end: _PmMerge | _Release

    def split(self, s: HybridState) -> tuple[HybridState, int, list]:
        s = el.apply_elements(s, self.split_ops)
        paths = s.registry.paths_of(self.photon)
        lookup = np.full(len(paths), -1)
        lookup[[paths.index(p) for p in self.paths]] = np.arange(len(self.paths))
        part = lookup[_slot_digits(s, self.photon) >> 1]
        src = np.flatnonzero(part >= 0)
        s, measured = _measured(s, s.registry, src, s.codes[src], part[src])
        return self.end.apply(s), measured, list(range(len(self.paths)))


class _Algebra(NamedTuple):
    """A stage's compiled algebra (see _stage_algebra).

    A group is one (feed-forward row, disposal value v): the input corrected
    by the row, projected onto ⟨v| on the disposal beam and split into its
    K parts; a readout without a disposal beam has one group per row, which
    holds only the part of that row's outcome.  R is the number of input
    rows.  A map is (target, source, coefficient) arrays, one entry per
    term, so it is linear in R (see _gather); every array is read-only.
    """

    branch: tuple | None  # map onto (basis, rows, K) flattened: each feed-forward
    #                       row's corrected amplitudes over its merged rows
    #                       (measured column dropped) and the K parts; None
    #                       without a disposal beam
    group: np.ndarray | None  # (basis, rows): the group of each basis row's
    #                           disposal value; -1 pads a row to the largest
    #                           basis; None without a disposal beam
    registry: ModeRegistry  # the layout of the part rows
    codes: np.ndarray  # every group's part rows, sorted by code, then group and part
    qubus: np.ndarray  # their beam values left
    cell: np.ndarray  # group·K + part of each part row
    parts: tuple  # map onto the part rows
    groups: int  # the number of groups
    gram: tuple  # (i, j, overlap, cell): the part-row pairs of a group that share
    #              a code, their beam overlap and their cell (group, k, l) of the
    #              groups' K×K Gram matrices


def _gather(mapping: tuple, amps: np.ndarray, size: int) -> np.ndarray:
    """A compiled map applied to the input amplitudes: Σ coefficient ·
    amps[source] into each of `size` targets."""
    target, source, coef = mapping
    return _binned(target, coef * amps[source], size)


def _compile_rows(s: HybridState, merge_on: list[int], values: list, measured: int) -> tuple:
    """The rows of a tagged state (see _stage_algebra), merged by
    canonicalize's rule at CANON_TOL on their code and the beam columns
    merge_on.  Returns (the first row of each merged row, in canonical order;
    each row's merged row; each row's part, the index in values of its value
    at column measured; each row's source row and coefficient)."""
    order, new = _runs(s.codes, s.qubus[:, merge_on], CANON_TOL)
    merged = np.empty(len(order), int)
    merged[order] = new.cumsum() - 1
    index = {v: k for k, v in enumerate(values)}
    part = np.array([index[v] for v in s.qubus[:, measured].tolist()], int)
    return order[new], merged, part, s.qubus[:, -1].real.astype(int), s.amps / _COMPILE_AMP


@functools.lru_cache(maxsize=BLOCK_CACHE)
def _stage_algebra(
    reg: ModeRegistry,
    codes: bytes,
    qubus: bytes,
    readout: _FockParts | _BellParts | _PresenceParts,
    rows: tuple[tuple[el.ElementOp, ...], ...],
) -> _Algebra:
    """What a readout stage does that does not depend on the amplitudes.

    The input's rows (registry reg, label codes and beam values as bytes),
    the readout that splits them into K parts (a qubus block's also names
    its disposal beam) and the feed-forward rows fix every step of the
    stage but the amplitudes, and every step is linear in them.  So each
    step runs once, on a tagged copy of the R input rows: an extra beam
    column holds each row's index, which keeps the rows of different sources
    from merging, and every amplitude is _COMPILE_AMP, so no row is dropped
    as dust.  The readout marks each row's part in a measured column (a
    qubus block's measured beam; a column of its own for a Bell or presence
    readout, whose split drops or recombines photons).  Merging the results
    by canonicalize's rule gives each output row as a fixed combination of
    input rows.  The copies of every feed-forward row (of every part for a
    qubus block, of part k alone for plan row k of a beamless readout), and
    then of every group, go through the steps side by side in one state, so
    a compile takes one correction per row and one projection and merge for
    all groups.  The beam values are part of the key, so a block at a new α
    or θ compiles afresh; only stages that repeat their structure (one gate
    on many inputs) gain from the cache.
    """
    codes = np.frombuffer(codes, np.int64)
    qubus = np.frombuffer(qubus, complex).reshape(len(codes), -1)
    n = len(codes)
    tag = reg.fresh_qubus("tag")
    tagged = HybridState._derived(reg.with_qubus(tag), np.full(n, _COMPILE_AMP, complex),
                                  codes, np.column_stack((qubus, np.arange(n))))
    split, measured, values = readout.split(tagged)
    reg = split.registry.without_qubus(tag)
    modes, mode, k = len(reg.qubus_modes), reg.qubus_modes[measured], len(values)
    key = reg.fresh_qubus("key")

    def corrected(copies: list) -> HybridState:
        # copy r corrected by feed-forward row r, all side by side, r in beam
        # column `key`, which keeps rows of different copies from merging
        done = [el.apply_elements(x, ops) for x, ops in zip(copies, rows)]
        beams = np.concatenate([x.qubus for x in done])
        copy = np.repeat(np.arange(len(rows)), [len(x.amps) for x in done])
        return HybridState._rows(
            reg.with_qubus(key).with_qubus(tag), np.concatenate([x.amps for x in done]),
            np.concatenate([x.codes for x in done]),
            np.column_stack((beams[:, :-1], copy, beams[:, -1])))

    branch, group, groups = None, None, len(rows)
    if isinstance(readout, _FockParts):
        every = corrected([split] * len(rows))
        idx = reg.qubus_index(readout.beam)
        disposals = {v: c for c, v in enumerate(dict.fromkeys(split.qubus[:, idx].tolist()))}
        c = len(disposals)
        unmeasured = [x for x in range(modes) if x != measured]
        first, merged, part, source, coef = _compile_rows(every, [*unmeasured, modes], values, measured)
        # basis row b of feed-forward row r is the b-th merged row of copy r
        row = every.qubus[first, modes].real.astype(int)
        by_row = np.argsort(row, kind="stable")
        place = np.empty(len(row), int)
        place[by_row] = np.arange(len(row)) - row[by_row].searchsorted(row[by_row])
        branch = ((place[merged] * len(rows) + row[merged]) * k + part, source, coef)
        group = np.full((place.max() + 1, len(rows)), -1)
        group[place, row] = row * c + [disposals[v] for v in every.qubus[first, idx].tolist()]
        # group r·c + d: row r's copy projected onto disposal value d, all at once
        d = np.repeat(np.arange(c), len(every.amps))
        q = np.tile(every.qubus, (c, 1))
        q[:, modes] = q[:, modes] * c + d
        kept = _project_onto(HybridState._rows(every.registry, np.tile(every.amps, c),
                                               np.tile(every.codes, c), q),
                             idx, np.array(list(disposals))[d, None])
        groups *= c
    else:
        # outcome r is part r, corrected by plan row r alone: every beamless
        # plan lists its rows in outcome order
        own = split.qubus[:, measured].real.astype(int)
        kept = corrected([HybridState._derived(split.registry, split.amps[m], split.codes[m],
                                               split.qubus.take(m, 0))
                          for m in (np.flatnonzero(own == r) for r in range(len(rows)))])
    m, at = kept.registry.qubus_index(mode), kept.registry.qubus_index(key)
    rest = [x for x in range(at) if x != m]
    first, merged, part, source, coef = _compile_rows(kept, [*rest, m, at], values, m)
    registry = kept.registry.without_qubus(tag).without_qubus(key).without_qubus(mode)
    codes, qubus, part = kept.codes[first], kept.qubus[first][:, rest], part[first]
    owner = kept.qubus[first, at].real.astype(int)
    order = np.lexsort((part, owner, codes))
    codes, qubus, part, owner = codes[order], qubus[order], part[order], owner[order]
    renumber = np.empty(len(order), int)
    renumber[order] = np.arange(len(order))
    i, j = _pairs(codes, codes)
    i, j = i[owner[i] == owner[j]], j[owner[i] == owner[j]]
    gram = (i, j, coherent_overlap(qubus[i], qubus[j]), (owner[i] * k + part[i]) * k + part[j])
    algebra = _Algebra(branch, group, registry, codes, qubus, owner * k + part,
                       (renumber[merged], source, coef), groups, gram)
    for x in (*(branch or ()), group, codes, qubus, algebra.cell, *algebra.parts, *gram):
        if x is not None:
            x.setflags(write=False)
    return algebra


def _algebra_of(s: HybridState, readout, plan: FeedForwardPlan) -> _Algebra:
    """The stage algebra of input s (see _stage_algebra)."""
    return _stage_algebra(s.registry, s.codes.tobytes(), s.qubus.tobytes(), readout, plan.rows)


class _StageOutputs:
    """The outcomes of one compiled stage: each one's value, probability and
    fidelity with the representative, and the representative's state.

    Computed from the input state s through the stage's compiled algebra
    (_stage_algebra), as the module docstring describes: outcome i is
    Σ_k weights[k, i] ψ_k over the K parts ψ_k, corrected by its
    feed-forward row rows[i].  With a disposal beam the outcomes are grouped
    by (feed-forward row, disposal value); an outcome's disposal value is the
    sum-port value of its largest row, read from one (basis × outcomes)
    array.  Without one, an outcome's group is its row, and its norm² from
    the group's Gram matrix is its probability: the outcomes below MIN_PROB
    are dropped.  `part_amps` holds the part rows of every group (with
    canonicalize's dust rule applied after a disposal); `routed` holds the
    states of the outcomes that went their per-outcome route, route(i,
    value): the representative, whose batched state must match it, and every
    outcome whose disposal value ties with another within TIE_TOL (group
    -1).  No other outcome's state is built.
    """

    def __init__(
        self,
        s: HybridState,
        alg: _Algebra,
        weights: np.ndarray,
        values: Sequence[object],
        rows: Sequence[int] | np.ndarray,
        route: Callable[[int, object], HybridState],
        probs: np.ndarray | None = None,
    ):
        self.algebra, self.route, self.routed = alg, route, {}
        z = _gather(alg.parts, s.amps, len(alg.codes))
        if alg.group is not None:
            # the part rows are the projection's rows: its canonicalize's dust rule
            z[abs(z) < CANON_TOL] = 0.0
        self.part_amps = z
        # every group's K×K Gram matrix, and a zero one last for group -1
        k, size = len(weights), (alg.groups + 1) * len(weights) ** 2
        i, j, overlap, cell = alg.gram
        grams = _binned(cell, z[i].conj() * z[j] * overlap, size)
        rows, every = np.asarray(rows), np.arange(len(values))
        tied = np.zeros(len(rows), bool)
        if alg.group is None:
            group_of = rows
        else:
            # each outcome's amplitudes over the basis rows of its feed-forward
            # row: its weights sit in that row's block, zeros elsewhere
            blocks = np.zeros((alg.group.shape[1], k, len(rows)), complex)
            blocks[rows, :, every] = weights.T
            branch = _gather(alg.branch, s.amps, alg.group.size * k).reshape(len(alg.group), -1)
            amps = np.abs(branch @ blocks.reshape(-1, len(rows)))
            top = amps.argmax(axis=0)
            dominant = alg.group[top, rows]
            # a tie needs a second row within TIE_TOL of the largest: a rival
            # group is looked for only where there is one
            bar = (1 - TIE_TOL) * amps[top, every]
            amps[top, every] = 0.0
            close = np.flatnonzero(amps.max(axis=0) >= bar)
            if len(close):
                rival = (amps[:, close] >= bar[close]) & (alg.group[:, rows[close]] != dominant[close])
                tied[close] = rival.any(axis=0)
            group_of = np.where(tied, -1, dominant)
        # ‖outcome i‖² = wᵢᴴ G wᵢ with its group's Gram matrix G
        pairs = (weights.conj()[:, None] * weights[None]).reshape(k * k, -1)
        forms = (grams.reshape(-1, k * k) @ pairs)[group_of, every].real
        if probs is None:
            keep = np.flatnonzero(forms >= MIN_PROB)
            values = [values[x] for x in keep.tolist()]
            weights, group_of, tied = weights[:, keep], group_of[keep], tied[keep]
            probs = forms = forms[keep]
        self.values, self.probs, self.weights, self.group_of = values, probs, weights, group_of
        self.norms = np.where(tied, 1.0, np.sqrt(np.maximum(forms, 0.0)))
        for n in np.flatnonzero(tied).tolist():
            self.routed[n] = route(n, values[n])

    def fidelities(self, rep: int) -> np.ndarray:
        """Every outcome's fidelity with outcome rep, which goes the per-outcome
        route.  A batched representative must match that route: its overlap
        with the route's state, over its norm from the Gram matrix, must give
        fidelity 1 within ROUTE_TOL."""
        check = rep not in self.routed
        if check:
            self.routed[rep] = self.route(rep, self.values[rep])
        ref, alg, w = self.routed[rep], self.algebra, self.weights
        # ⟨part|ref⟩ of every group's parts, paired over the part rows (sorted
        # by code); group -1 reads the zero row last
        i, j = _pairs(alg.codes, _recode(ref.codes, ref.registry, alg.registry))
        t = self.part_amps[i].conj() * ref.amps[j] * coherent_overlap(
            alg.qubus.take(i, 0), ref.qubus.take(j, 0))
        overlaps = _binned(alg.cell[i], t, (alg.groups + 1) * len(w))
        z = (overlaps.reshape(-1, len(w)) @ w.conj())[self.group_of, np.arange(len(self.values))]
        fids = np.abs(z / self.norms) ** 2
        if check and not abs(fids[rep] - 1.0) <= ROUTE_TOL:  # a NaN fails too
            raise GateError(
                f"batched outcome {self.values[rep]!r} disagrees with its per-outcome route"
            )
        fids = np.minimum(fids, 1.0)
        for n, st in self.routed.items():
            fids[n] = fidelity(st, ref)
        return fids

    def scored(self, kind: str) -> Scored:
        return _score(kind, self.values, self.probs, self.fidelities, self.routed.__getitem__)


def _block_outputs(found: FockOutcomes, plan: FeedForwardPlan, beam: str) -> _StageOutputs:
    """A qubus block's outputs: the Fock outcomes of `found` through the
    block's compiled algebra, the disposal beam projected onto each
    outcome's dominant value; its route is _outcome_route."""
    st = found.state
    alg = _algebra_of(st, _FockParts(found.mode_index, beam), plan)
    return _StageOutputs(st, alg, found.weights, found.values, plan.row_of(found.ns),
                         lambda i, v: _outcome_route(found[i], plan, beam), found.probabilities)


def run_qubus_block(
    s: HybridState,
    couplings: Sequence[Coupling],
    alpha: float,
    theta: float,
    plan: FeedForwardPlan,
) -> Scored:
    """Couple, measure the difference port, feed forward, dispose of the sum port.

    Every Fock outcome above detection.MIN_PROB is enumerated, corrected and
    scored against the highest-probability outcome (see _StageOutputs).  The
    coupling and the Fock enumeration run on every call; the rest of the
    block runs through its algebra, compiled once per coupled-state
    structure and plan (_stage_algebra), and checked against the
    representative's per-outcome route.
    """
    coupled, (b0, b1) = couple_qubus_pair(s, couplings, alpha, theta)
    return _block_outputs(fock_outcomes(coupled, b0), plan, b1).scored("fock")


def _readout_stage(
    kind: str, s: HybridState, readout, values: Sequence[object], plan: FeedForwardPlan,
    route: Callable[[int, object], HybridState],
) -> Scored:
    """A readout without a beam through its compiled algebra: its parts are
    its outcomes (values, weights the identity), part k corrected by plan
    row k, and every outcome from MIN_PROB up is scored."""
    k = len(values)
    return _StageOutputs(s, _algebra_of(s, readout, plan), np.eye(k), values, np.arange(k),
                         route).scored(kind)


def run_bell_stage(s: HybridState, pid_a: str, pid_b: str, plan: FeedForwardPlan) -> Scored:
    """Bell-measure two single-path photons, feed forward plan's row for each
    outcome, and score every outcome against the most probable one.

    Outcome j is Σ_k (_BELL[k, j]/√2) ψ_k over the four pattern parts ψ_k
    (_BellParts), so the stage runs through its algebra, compiled once per
    input structure and plan (_stage_algebra); the representative takes its
    per-outcome route, detection.bell_outcomes of its value alone corrected
    by its row, and must match.
    """

    def route(i: int, value: str) -> HybridState:
        (rec,) = bell_outcomes(s, pid_a, pid_b, (value,))
        return plan.correct(rec.collapsed, value)

    return _readout_stage("bell", s, _BellParts(pid_a, pid_b), BELLS, plan, route)


def _block_report(
    name: str, block: Scored, couplings: Sequence[Coupling], plan: FeedForwardPlan, **extras
) -> GateReport:
    """The report of a gate made of one qubus block."""
    return block.report(
        name,
        plan,
        Resources(xpm_couplings=coupling_mode_count(couplings), qubus_modes=2, detections=1),
        gates=Counter({name: 1}),
        extras=extras,
    )


def _require_distinct(what: str, names: Sequence[str]) -> None:
    """A gate may not name one photon in two roles, nor one rail twice."""
    if len(set(names)) != len(names):
        raise GateError(f"{what} must be distinct, got {list(names)!r}")


def _require_single_path(s: HybridState, pid: str) -> str:
    used = s.photon_paths_in_use(pid)
    if len(used) != 1:
        raise GateError(f"photon {pid!r} must be single-path, occupies {used}")
    return used[0]


def _require_plus(s: HybridState, pid: str) -> str:
    """The photon must factor out as |+⟩ on a single path: ⟨σx⟩ on it must
    be +1 within 1e-9 (a factor |−⟩ gives −1, any other state less than 1 in
    modulus; a global phase cancels).  Returns the path."""
    path = _require_single_path(s, pid)
    flipped = el.wave_plate(s, pid, None, "x")
    if abs(inner_product(flipped, s) - 1.0) > 1e-9:
        raise GateError(f"ancilla {pid!r} is not in |+⟩")
    return path


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
# rail routing shared by the parity gate and the C-path family
# ---------------------------------------------------------------------------


def _open_rails(
    s: HybridState, photon: str, rails: Sequence[str], suffix: str
) -> tuple[HybridState, tuple[str, ...]]:
    """Open a fresh rail beside each of the photon's rails and 50:50-split onto it.

    Rail r's fresh rail is r+suffix (made unique); returns the state and them
    in order.  The splits run as one compiled slot-map run (_splits).
    """
    reg, fresh = _fresh_rails(s.registry, photon, rails, suffix)
    # not _reregistered: bench/workloads._CORE needs this HybridState.__init__ call
    s = HybridState(reg, s.branches)
    return el.apply_elements(s, _splits(photon, tuple(rails), fresh)), fresh


def _fresh_rails(reg: ModeRegistry, photon: str, rails: Sequence[str], suffix: str) -> tuple:
    """reg with a fresh rail r+suffix (made unique) registered beside each of
    the photon's rails, and those rails in order."""
    fresh = []
    for r in rails:
        fresh.append(reg.fresh_path(r + suffix))
        reg = reg.with_path(photon, fresh[-1])
    return reg, tuple(fresh)


@functools.lru_cache(maxsize=64)
def _splits(
    photon: str, rails: tuple[str, ...], fresh: tuple[str, ...]
) -> tuple[el.ElementOp, ...]:
    """The 50:50 PhotonBS of each rail with its fresh partner, built once per layout."""
    return tuple(el.op("PhotonBS", photon=photon, path_a=r, path_b=f) for r, f in zip(rails, fresh))


@functools.lru_cache(maxsize=64)
def _switch_plan(
    photon: str,
    rails: tuple[str, ...],
    fresh: tuple[str, ...],
    odd_phase: tuple[str, str] | None = None,
) -> FeedForwardPlan:
    """Even n switches every rail with its fresh partner; odd n also needs a π.

    The π goes on the original rails after the switches, unless odd_phase
    names a (photon, path) whose V takes it (the parity gate's π on photon
    1's V), which then goes first.  A plan is immutable, so each layout's is
    built once and shared.
    """
    switches = [el.op("PathSwitch", photon=photon, path_a=r, path_b=f) for r, f in zip(rails, fresh)]
    if odd_phase is not None:
        pid, path = odd_phase
        pi = el.op("PolPhase", math.pi, photon=pid, path=path, pol=V)
        return _parity_plan(switches, [pi] + switches)
    pis = [el.op("PolPhase", math.pi, photon=photon, path=r, pol=None) for r in rails]
    return _parity_plan(switches, switches + pis)


def pbs_fan_out(
    s: HybridState, photon: str, rails: Sequence[str]
) -> tuple[HybridState, list[str]]:
    """PBS each rail: H stays, V goes to a fresh rail r+"v" and is flipped to H.

    The fresh rails are registered in one update and every rail's (r, V) →
    (f, H) is one slot table.  Returns the state and the fresh rails;
    pbs_fan_in undoes it.
    """
    el._require_paths(s.registry, photon, *rails)
    reg, fresh = _fresh_rails(s.registry, photon, rails, "v")
    routes = tuple((r, V, f, H) for r, f in zip(rails, fresh))
    return el._remap(_reregistered(s, reg), photon, el._route_table, routes), list(fresh)


def pbs_fan_in(
    s: HybridState, photon: str, rails: Sequence[str], fresh: Sequence[str]
) -> HybridState:
    """Inverse of pbs_fan_out: (f, H) → (r, V) for every rail in one slot
    table, so each fresh rail is flipped back and PBS-merged home, then the
    fresh rails dropped in one registry update.  A merge takes H on its rail
    and V, H before the flip, on its fresh rail; any other component is
    refused, rail by rail, the lower slot first.
    """
    reg = s.registry
    el._require_paths(reg, photon, *rails, *fresh)
    digits = _slot_digits(s, photon)
    for r, f in zip(rails, fresh):
        # (r, V) is V on the H input; (f, V) is H on the V input once flipped
        for d, pol, port, path in sorted([(reg._digit(photon, r, V), V, H, r),
                                          (reg._digit(photon, f, V), H, V, f)]):
            if (digits == d).any():
                raise StateError(f"{pol} component present on {port} input {path!r} of PBS merge")
    routes = tuple((f, H, r, V) for r, f in zip(rails, fresh))
    s = el._remap(s, photon, el._route_table, routes)
    for f in fresh:
        reg = reg.without_path(photon, f)
    return _reregistered(s, reg)


# ---------------------------------------------------------------------------
# parity gate
# ---------------------------------------------------------------------------


def parity_gate(
    s: HybridState,
    photon1: str,
    photon2: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Send even/odd parity components of a two-photon state to distinct paths.

    Photon 2 splits over its path and a fresh one; after feed-forward the even
    component (|HH⟩, |VV⟩ weights) rides on the new rail and the odd one on
    the original rail, for every measurement outcome.
    """
    _require_distinct("parity photons", [photon1, photon2])
    p1_path = _require_single_path(s, photon1)
    rail_a = _require_single_path(s, photon2)
    s, (rail_b,) = _open_rails(s, photon2, [rail_a], "s")

    couplings = parity_couplings(photon1, p1_path, photon2, rail_a, rail_b)
    plan = _switch_plan(photon2, (rail_a,), (rail_b,), odd_phase=(photon1, p1_path))

    block = run_qubus_block(s, couplings, alpha, theta, plan)
    report = _block_report(
        "parity", block, couplings, plan,
        even_paths=(p1_path, rail_b),
        odd_paths=(p1_path, rail_a),
    )
    return block.state, report


# ---------------------------------------------------------------------------
# C-path family
# ---------------------------------------------------------------------------


def _route_rails(
    s: HybridState,
    control: str,
    target: str,
    rails: Sequence[str],
    alpha: float,
    theta: float,
    name: str,
    suffix: str,
) -> tuple[HybridState, GateReport]:
    """C-path on every rail of the target: control H keeps the rails, control
    V moves the photon to the fresh rail beside each."""
    _require_distinct("control and target", [control, target])
    c_path_ = _require_single_path(s, control)
    rails = tuple(rails)
    s, fresh = _open_rails(s, target, rails, suffix)
    couplings = c_path2_couplings(control, c_path_, target, rails, fresh)
    plan = _switch_plan(target, rails, fresh)
    block = run_qubus_block(s, couplings, alpha, theta, plan)
    return block.state, _block_report(name, block, couplings, plan, rails=rails + fresh)


def c_path(
    s: HybridState,
    control: str,
    target: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Route the target photon to rail 1 (control H) or rail 2 (control V).

    Rail 1 is the target's input path; rail 2 is fresh, the second of the
    report's rails.  Deterministic through a conditional rail switch plus a
    π phase on rail 1 for odd outcomes.  This is c_path2 on a one-rail target.
    """
    rail1 = _require_single_path(s, target)
    return _route_rails(s, control, target, [rail1], alpha, theta, "c_path", "s")


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
    occupied = set(s.photon_paths_in_use(target))
    if not occupied.issubset(set(rails)):
        raise GateError(f"target occupies {occupied}, outside the given rails")
    return _route_rails(s, control, target, rails, alpha, theta, "c_path2", "n")


def c_path3(
    s: HybridState,
    control: str,
    control_rails: tuple[str, str],
    target: str,
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    layout: str = "split",
    witness: tuple[str, str, str] | None = None,
) -> tuple[HybridState, GateReport]:
    """C-path conditioned on a control photon that is itself split over two rails.

    The target goes to rail 2 only when the control photon sits on its second
    rail with polarization V (the all-controls-V component of a multi-control
    chain).  layout picks the Table-5 coupling arrangement ("split") or the
    coupling-saving variant with an upstream witness slot ("compact"); both
    act identically.  The split layout fans the first rail's V out before
    the block and back in after it: the fan-in is one unitary on every
    outcome, so the block's scores stand, and it runs once, on the output.
    """
    if len(control_rails) != 2:
        raise GateError(f"C-path-3 needs the control's two rails, got {list(control_rails)!r}")
    _require_distinct("control and target", [control, target])
    first, second = control_rails
    rail1 = _require_single_path(s, target)
    s, (rail2,) = _open_rails(s, target, [rail1], "s")

    first_aux = None
    if layout == "split":
        s, (first_aux,) = pbs_fan_out(s, control, [first])
    couplings = c_path3_couplings(
        control, first, first_aux, second, target, rail1, rail2, layout, witness
    )
    plan = _switch_plan(target, (rail1,), (rail2,))
    block = run_qubus_block(s, couplings, alpha, theta, plan)
    report = _block_report(
        "c_path3", block, couplings, plan, rails=(rail1, rail2), layout=layout
    )
    out = block.state
    if layout == "split":
        out = pbs_fan_in(out, control, [first], [first_aux])
    return out, report


# ---------------------------------------------------------------------------
# Disentangler
# ---------------------------------------------------------------------------


def disentangler(
    s: HybridState,
    control: str,
    target: str,
    v_rails: Sequence[str],
) -> tuple[HybridState, GateReport]:
    """Project the control onto |±⟩ without destroying it.

    A PBS± Mach-Zehnder splits the control, QND modules detect the arm, and
    the |−⟩ outcome is fixed up by σ_z on the control plus a π phase on the
    target rails that the control's V component selected (v_rails).  The
    control leaves in |+⟩ exactly; the target keeps all four coefficients.

    The readout is a presence stage of identity weights, the arms'
    recombination (_PmMerge) ending its split, and runs through the stage
    algebra (_stage_algebra) from the input rows; the representative takes
    its per-outcome route (split, presence_outcomes on its arm, merge,
    correct) and must match.  The readout and plan are built once per
    layout (_mach_zehnder).
    """
    path = _require_single_path(s, control)
    readout, plan = _mach_zehnder(s.registry, control, path, target, tuple(sorted(v_rails)))

    def route(i: int, arm: str) -> HybridState:
        (rec,) = presence_outcomes(el.apply_elements(s, readout.split_ops), control, [arm])
        return plan.correct(readout.end.apply(rec.collapsed), arm)

    scored = _readout_stage("presence", s, readout, readout.paths, plan, route)
    report = scored.report(
        "disentangler", plan, Resources(detections=1), gates=Counter({"disentangler": 1})
    )
    return scored.state, report


@functools.lru_cache(maxsize=64)
def _mach_zehnder(
    reg: ModeRegistry, control: str, path: str, target: str, v_rails: tuple[str, ...]
) -> tuple[_PresenceParts, FeedForwardPlan]:
    """The Disentangler's readout and plan on one layout: the PBS± split of
    the control's path onto a plus and a minus arm, presence on the arms and
    their recombination, and the table that leaves the plus arm alone and
    fixes the minus arm by σ_z on the control and π on the target's v_rails.
    Both are immutable, so they are built once and shared."""
    arm_p, arm_m = reg.fresh_path(path + "p"), reg.fresh_path(path + "m")
    split = el.op("PBSpm", photon=control, in_path=path, out_plus=arm_p, out_minus=arm_m)
    minus = [el.op("WavePlateZ", photon=control, path=path)] + [
        el.op("PolPhase", math.pi, photon=target, path=r, pol=None) for r in v_rails
    ]
    arms = (arm_p, arm_m)
    readout = _PresenceParts(control, arms, (split,), _PmMerge(control, arm_p, arm_m, path))
    return readout, FeedForwardPlan([("+", []), ("-", minus)], arms.index)


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
    plan = _entangler_plan(flip_photon)
    block = run_qubus_block(s, couplings, alpha, theta, plan)
    return block.state, _block_report(name, block, couplings, plan)


@functools.lru_cache(maxsize=64)
def _entangler_plan(flip_photon: str) -> FeedForwardPlan:
    """An Entangler's table: σx on the flipped photon for even n, σx then σz
    for odd n; built once per photon and shared, as a plan is immutable."""
    sx = el.op("WavePlateX", photon=flip_photon, path=None)
    sz = el.op("WavePlateZ", photon=flip_photon, path=None)
    return _parity_plan([sx], [sx, sz])


def entangler3(
    s: HybridState,
    companion: str,
    qudit: str,
    rails_a: Sequence[str],
    rails_b: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Re-entangle a |+⟩ companion with which rail half a qudit occupies.

    Each rail half behaves as one spatial mode; with one rail per half this is
    the two-rail Entangler-2, and reports as "entangler2".
    """
    comp_path = _require_single_path(s, companion)
    couplings = entangler3_couplings(companion, comp_path, qudit, rails_a, rails_b)
    name = "entangler2" if len(rails_a) == 1 else "entangler3"
    return _entangler_block(s, couplings, companion, alpha, theta, name)


def entangler4(
    s: HybridState,
    ancilla: str,
    qudit: str,
    rails: Sequence[str],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
) -> tuple[HybridState, GateReport]:
    """Correlate a |+⟩ ancilla with the polarization on every rail of a qudit.

    On a two-rail photon this is Entangler-1, and reports as "entangler1".
    """
    anc_path = _require_plus(s, ancilla)
    couplings = entangler4_couplings(ancilla, anc_path, qudit, rails)
    name = "entangler1" if len(rails) == 2 else "entangler4"
    return _entangler_block(s, couplings, ancilla, alpha, theta, name)


# ---------------------------------------------------------------------------
# Merging family
# ---------------------------------------------------------------------------


def merging_n(
    s: HybridState,
    photon: str,
    rails: Sequence[str],
    ancilla: str,
    companions: Sequence[tuple[str, str | None]],
    alpha: float = DEFAULTS["alpha"],
    theta: float = DEFAULTS["theta"],
    interference: str = "qft",
    keep_recycled: bool = True,
) -> tuple[HybridState, GateReport]:
    """Merge 2^{n−1} rails onto a fresh |+⟩ ancilla (inverse of the C-path family).

    After the Entangler and its feed-forward, an interference mesh mixes the
    rails, PBS± fan them out onto 2·2^{n−1} arms, and QND modules find the
    photon on one arm in |±⟩.  Conditional phases on the companions' V slots
    and σ_z on the ancilla then restore one fixed output; the detected photon
    survives on its arm for recycling unless keep_recycled is false.

    interference: "qft" (Fourier matrix through a Reck mesh) or "hadamard4"
    (the real 4×4 choice that leaves σ_z-only corrections).  On two rails the
    QFT is the 50:50 BS of the standard Merging gate: it runs as that BS, and
    the report is "merging" with interference "bs" and no LOMI.  The
    feed-forward phases are obtained by factorizing
    conj(U[k,j]/U[k,0]) over the rail-index bits; each bit's phase lands on
    the matching companion's V slot.  companions names one (photon,
    path-or-None) V slot per bit, e.g. [("1", None)] when rail 2 of two is
    correlated with photon 1 being V.

    The readout, a presence stage ended by the photon's release, runs
    through the stage algebra, built once per layout (_readout); the
    representative's route (the mesh, el.pbs_pm_fan_out, presence_outcomes
    on its arm, correction, remove_photon) must match.  Each call still
    gets a report of its own, feed-forward table included.
    """
    rails = list(rails)
    n_rails = len(rails)
    if n_rails < 2 or n_rails & (n_rails - 1):
        raise GateError("rail count must be a power of two")
    qbits = n_rails.bit_length() - 1
    if len(companions) != qbits:
        raise GateError(f"need {qbits} companions for {n_rails} rails")
    _require_distinct("photon, ancilla and companions", [photon, ancilla, *(c for c, _ in companions)])
    _require_distinct("rails", rails)
    if not (isinstance(interference, str) and interference in ("qft", "hadamard4")):
        raise GateError(f"interference must be 'qft' or 'hadamard4', got {interference!r}")
    if interference == "hadamard4" and n_rails != 4:
        raise GateError("'hadamard4' interference needs four rails")

    # Entangler: correlate ancilla polarization with the photon polarization
    out, ent_report = entangler4(s, ancilla, photon, rails, alpha, theta)
    (anc_path,) = s.photon_paths_in_use(ancilla)  # entangler4 checked: one path, |+⟩
    name = "merging" if n_rails == 2 else "merging_n"
    report = GateReport(name, gates=Counter({name: 1}))
    report.absorb(ent_report)

    readout, plan, names = _readout(out.registry, photon, tuple(rails), ancilla,
                                    tuple(map(tuple, companions)), interference)
    arms = readout.paths
    report.extras["interference"] = "bs" if n_rails == 2 else interference
    if n_rails != 2:
        report.gates.update({"lomi": 1})
    recycled = {}

    def route(i: int, value: str) -> HybridState:
        # the mesh, then the PBS± fan-out onto every arm in one pass
        mixed = el.apply_elements(out, readout.split_ops[:-n_rails])
        arm = arms[names.index(value)]
        (rec,) = presence_outcomes(el.pbs_pm_fan_out(mixed, photon, rails, arms), photon, [arm])
        recycled[value] = plan.correct(rec.collapsed, arm)
        return remove_photon(recycled[value], photon)

    scored = _readout_stage("presence", out, readout, names, plan, route)
    stage = scored.report(name + "_readout", plan, Resources(detections=1))
    report.absorb(stage)
    report.feedforward = stage.feedforward
    report.outcomes = stage.outcomes
    report.extras.update({"carrier": (ancilla, anc_path), "recycled": photon, "arms": arms})

    if not keep_recycled:
        return scored.state, report  # the representative, its photon removed
    # the representative's row names its arm, and the photon stays there in
    # |+⟩ on a plus arm and |−⟩ on a minus arm
    report.extras["recycled_arm"] = arms[names.index(scored.value)]
    report.extras["recycled_sign"] = scored.value[-1]
    return recycled[scored.value], report


@functools.lru_cache(maxsize=64)
def _readout(
    reg: ModeRegistry,
    photon: str,
    rails: tuple[str, ...],
    ancilla: str,
    companions: tuple[tuple[str, str | None], ...],
    interference: str,
) -> tuple[_PresenceParts, FeedForwardPlan, tuple[str, ...]]:
    """merging_n's readout on the layout reg it meets after its Entangler,
    built once per (registry, photon, rails, ancilla, companions,
    interference) and shared: (the presence stage, its plan, each plan row's
    outcome value "k±").  The split runs the mesh of U (on two rails the
    50:50 PhotonBS), then a PBSpm per rail k onto its plus arm (paths[2k])
    and minus arm (paths[2k + 1]).  Rail k's rows put its phases on the
    companions' V slots (see _factorize_corrections), then σ_z on the
    ancilla for a minus arm; no row touches the photon the release drops.
    """
    u = syn.HADAMARD4 if interference == "hadamard4" else syn.qft_matrix(len(rails))
    mesh = ([el.op("PhotonBS", photon=photon, path_a=rails[0], path_b=rails[1])] if len(rails) == 2
            else syn.reck_decompose(u).element_ops(photon, rails))
    phases = _factorize_corrections(u, len(rails).bit_length() - 1)
    sz = el.op("WavePlateZ", photon=ancilla, path=None)
    arms, fan, rows = [], [], []
    for k, r in enumerate(rails):
        ap, am = reg.fresh_path(r + "p"), reg.fresh_path(r + "m")
        reg = reg.with_path(photon, ap).with_path(photon, am)
        fan.append(el.op("PBSpm", photon=photon, in_path=r, out_plus=ap, out_minus=am))
        fix = []
        for (pid, cpath), phi in zip(companions, [bit[k] for bit in phases]):
            if abs(abs(phi) - math.pi) < 1e-12 and cpath is None:
                fix.append(el.op("WavePlateZ", photon=pid, path=None))
            elif abs(phi) > 1e-12:
                fix.append(el.op("PolPhase", phi, photon=pid, path=cpath, pol=V))
        arms += [ap, am]
        rows += [(f"arm {k}+", fix), (f"arm {k}-", fix + [sz])]
    arms = tuple(arms)
    readout = _PresenceParts(photon, arms, (*mesh, *fan), _Release(photon, arms[1::2]))
    plan = FeedForwardPlan(rows, arms.index)
    return readout, plan, tuple(label[4:] for label in plan.labels)


def _factorize_corrections(u, qbits: int) -> list[list[float]]:
    """Per-bit correction phases: conj(U[k,j]/U[k,0]) = Π_m f_m(k)^{bit_m(j)}.

    bit 0 is the most significant rail-index bit (first companion).
    Raises when the interference matrix does not factorize.
    """
    mags = abs(u)
    if mags.max() - mags.min() > 1e-10:
        raise GateError("interference matrix must have uniform magnitudes")
    ratio = (u / u[:, :1]).conj()
    phases = [[cmath.phase(z) for z in ratio[:, 1 << (qbits - 1 - m)].tolist()] for m in range(qbits)]
    # bits[j, m] is bit m of rail index j: column j's phases must sum to its own
    bits = np.arange(len(u))[:, None] >> np.arange(qbits - 1, -1, -1) & 1
    if (abs(np.exp(1j * (bits @ phases)) - np.exp(1j * np.angle(ratio.T))) > 1e-10).any():
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
    return tensor(s, _ancilla("plus", pid, path)), pid, path
