"""Measurement chain for qubus beams and photons.

Exact Fock projection on a qubus mode, QND presence detection that keeps the
photon, the (idealized, projective) Bell measurement, heralded disposal of a
spent beam, and the closed forms of the probe's readout peaks that the
analysis module uses.

Every measurement is enumerated: `*_outcomes` lists each outcome above
MIN_PROB with its exact probability and collapsed state.  A beam's Fock pmf
comes from its decomposition into parts, one per distinct beam value α_k:
outcome n collapses to Σ_k ⟨n|α_k⟩ ψ_k, so P(n) = fₙᴴ G fₙ with fₙ the
column n of a K-row ⟨n|α_k⟩ table and G the K×K Gram matrix of the parts.
The table is numerics' FockTable, kept per (beam values, cutoff), which also
holds each column's weight ‖fₙ‖² and the moments Σ_n conj(fₙ) fₙᵀ.  The
tail check needs only the total Σ_n P(n), one K×K sum against the moments,
and the array of every P(n) is built only when a caller reads it.
`fock_outcomes` takes the quadratic form only on a window, the n whose
weight times tr(G) can reach MIN_PROB (P(n) ≤ tr(G)‖fₙ‖²), so its work
grows with the outcomes it keeps rather than with the cutoff.  It returns
the kept outcomes as a sequence carrying the state, its beam values and the
weights; a record, with its collapsed state, is built only when an outcome
is read.  The corrections that follow an outcome are the gates module's
FeedForwardPlan tables.

The Bell readout splits the state in one pass: the rows group by their
remaining labels and beam values (found on the codes with the pair's digits
set to 0, so only the groups' first rows are recoded), a (groups × 4) matrix
holds each group's amplitudes on the measured pair's HH, HV, VH and VV, and
one product with the 4×4 Bell matrix gives all four outcomes' amplitudes.
`bell_outcomes` takes the outcomes to enumerate, as `presence_outcomes`
takes its paths, and an outcome's record does not depend on which others
are asked for: the gates module's compiled Bell stage reads only its
representative's, on that outcome's per-outcome route.  Presence and Bell
parts carry their norm √Σ|a|² when their codes strictly increase, since each
row then pairs only with itself; other parts take `norm`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import FockTable, default_fock_cutoff, fock_amplitude, fock_table, poisson_pmf
from .state import (
    HybridState,
    _binned,
    _drop_column,
    _gram,
    _part,
    _recode,
    _runs,
    _slot_digits,
    coherent_overlap,
    norm,
)


#: outcomes below this probability are not enumerated
MIN_PROB = 1e-13

#: largest Fock cutoff a beam may need; the pmf table holds K × (cutoff + 1)
#: complex numbers, about 50 MB for K = 3 at this limit, and numerics keeps
#: two such records (about 100 MB)
MAX_FOCK_CUTOFF = 10**6


class MeasurementError(ValueError):
    """Raised for a measurement that cannot be enumerated: a split Bell photon,
    a beam too bright for the Fock cutoff limit, or a cutoff too small."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One detection outcome: what fired, how likely, and the collapsed state."""

    kind: str  # "fock" | "presence" | "bell"
    value: object
    probability: float
    collapsed: HybridState

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1 + 1e-9:
            raise MeasurementError(f"probability {self.probability} outside [0, 1]")


# ---------------------------------------------------------------------------
# Fock projection |n⟩⟨n| on a qubus mode
# ---------------------------------------------------------------------------


def _fock_collapsed(s: HybridState, idx: int, n: int) -> HybridState:
    """Unnormalized collapse: amplitudes × ⟨n|α_b⟩, mode removed.

    ⟨n|α⟩ is evaluated once per distinct beam value and gathered."""
    col = s.qubus[:, idx]
    w = np.zeros(len(col), complex)
    for a in dict.fromkeys(col.tolist()):
        w[col == a] = fock_amplitude(n, a)
    hit = w != 0
    rest = _drop_column(s.qubus[hit], idx)
    reg = s.registry.without_qubus(s.registry.qubus_modes[idx])
    return HybridState._rows(reg, s.amps[hit] * w[hit], s.codes[hit], rest).canonical(0.0)


def _split_by_value(
    s: HybridState, idx: int, values: Sequence[complex] | None = None
) -> tuple[list[complex], list[HybridState]]:
    """The distinct values α_k of qubus mode idx and the parts ψ_k.

    ψ_k holds the rows whose value is α_k, with the mode removed, so the
    state is Σ_k ψ_k ⊗ |α_k⟩ and a projection ⟨n| on the mode gives
    Σ_k ⟨n|α_k⟩ ψ_k.  values fixes the α_k and their order (default: the
    distinct values in row order).  A part keeps its rows' canonical order:
    they share the removed value.
    """
    reg = s.registry.without_qubus(s.registry.qubus_modes[idx])
    col, rest = s.qubus[:, idx], _drop_column(s.qubus, idx)
    if values is None:
        values = list(dict.fromkeys(col.tolist()))
    parts = []
    for a in values:
        m = (col == a).nonzero()[0]
        parts.append(HybridState._derived(reg, s.amps[m], s.codes[m], rest.take(m, 0)))
    return values, parts


def _quadratic_forms(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """fₙᴴ G fₙ for every column fₙ of f."""
    return (f.conj() * (g @ f)).sum(axis=0).real


@dataclass(frozen=True)
class FockPmf:
    """P(n) of one qubus beam for n = 0..cutoff, with the decomposition behind it.

    Unpacks as (ns, probs).  values[k] = α_k are the beam's distinct values,
    and fock is numerics' FockTable of them, whose table[k, n] = ⟨n|α_k⟩ is
    read-only (numerics keeps it for the next beam with the same values);
    outcome n collapses to Σ_k table[k, n] ψ_k, where ψ_k holds the rows
    whose beam value is α_k, with the beam removed, and gram is their K×K
    Gram matrix.  total = Σ_n P(n), from the table's moments.  The array
    probs is built when it is first read, ns likewise.
    """

    values: tuple[complex, ...]
    fock: FockTable
    gram: np.ndarray
    total: float

    @property
    def table(self) -> np.ndarray:
        return self.fock.table

    @functools.cached_property
    def ns(self) -> np.ndarray:
        return np.arange(self.table.shape[1])

    @functools.cached_property
    def probs(self) -> np.ndarray:
        return _quadratic_forms(self.gram, self.table)

    def __iter__(self):
        return iter((self.ns, self.probs))


def fock_distribution(
    s: HybridState, mode: str, cutoff: int | None = None, tail_tol: float = 1e-10
) -> FockPmf:
    """Photon-number pmf of one qubus beam: P(n) = ‖Σ_k ⟨n|α_k⟩ ψ_k‖².

    The beam takes a few distinct values α_k; ψ_k are the parts of the state
    at each (see FockPmf).  Every n = 0..cutoff comes from one log-domain
    ⟨n|α_k⟩ table with K rows and the K×K Gram matrix G of the parts, as
    P(n) = fₙᴴ G fₙ; no collapsed state is built, and the array of every
    P(n) only when the pmf's probs are read.  The enumerated mass Σ_n P(n)
    is Σ_jk G_jk M_jk, with the table's moments M_jk = Σ_n conj(⟨n|α_j⟩)
    ⟨n|α_k⟩: one K×K sum.  The cutoff defaults to mean + 12√mean of the
    largest value's intensity; a mean that is not finite there, or any
    cutoff above MAX_FOCK_CUTOFF, is an error before the table is
    allocated.  If the enumerated mass misses 1 by more than tail_tol (or is
    not a number) the cutoff was too small and an error reports the
    measured tail mass.
    """
    idx = s.registry.qubus_index(mode)
    values, parts = _split_by_value(s, idx)
    # a.real² + a.imag² reaches inf where abs(a) ** 2 would raise OverflowError
    mean = max((a.real * a.real + a.imag * a.imag for a in values), default=0.0)
    if cutoff is None:
        if not math.isfinite(mean):
            raise MeasurementError(
                f"beam mean photon number {mean} is not finite "
                f"(Fock cutoff limit {MAX_FOCK_CUTOFF})"
            )
        cutoff = default_fock_cutoff(mean)
    if cutoff > MAX_FOCK_CUTOFF:
        raise MeasurementError(
            f"Fock cutoff {cutoff:.7g} for beam mean photon number {mean:.6g} "
            f"exceeds the limit {MAX_FOCK_CUTOFF}"
        )
    fock = fock_table(values, cutoff)
    gram = _gram(parts)
    total = float((gram * fock.moments).sum().real)
    if not abs(total - 1.0) <= tail_tol:  # a NaN total fails too
        raise MeasurementError(
            f"Fock cutoff {cutoff} too small: tail mass {max(1.0 - total, 0.0):.3e}"
        )
    return FockPmf(tuple(values), fock, gram, total)


def _window(pmf: FockPmf) -> tuple[np.ndarray, np.ndarray]:
    """The n where P(n) can reach MIN_PROB, as an array, and their table columns.

    P(n) = fₙᴴ G fₙ ≤ λ_max(G) ‖fₙ‖² ≤ tr(G) ‖fₙ‖², and ‖fₙ‖² is the
    table's weights[n], so an outcome above MIN_PROB has weights[n] · tr(G)
    ≥ MIN_PROB; the window keeps every n with weights[n] · L ≥ MIN_PROB/2,
    where L is tr(G) rounded up to a power of two ≥ 1.  L keys the window in
    the table's record, so the states of a run share a few windows.
    """
    mantissa, level = math.frexp(float(pmf.gram.trace().real))
    level = max(level - (mantissa == 0.5), 0)  # 2**level: tr(G) rounded up, at least 1
    windows = pmf.fock.windows
    if level not in windows:
        ns = np.flatnonzero(pmf.fock.weights * math.ldexp(1.0, level) >= MIN_PROB / 2)
        columns = pmf.table[:, ns]
        ns.flags.writeable = columns.flags.writeable = False
        windows[level] = ns, columns
    return windows[level]


class FockOutcomes(Sequence):
    """The Fock outcomes of one beam above MIN_PROB, in increasing n.

    The quadratic form P(n) = fₙᴴ G fₙ is taken only on the pmf's window
    (_window): the n whose table column could carry MIN_PROB at all, a few
    hundred around the Poisson peaks of a bright beam out of thousands up
    to the cutoff.  values (a list) and ns (the same n, an int array),
    probabilities and weights (the columns ⟨n|α_k⟩ of the pmf table) are
    those of the kept n, so outcome i is Σ_k weights[k, i] ψ_k, the parts
    ψ_k of state at beam_values[k] on mode_index, without building a state.
    Indexing or iterating collapses the state into outcome i's
    MeasurementRecord, whose probability is the collapsed state's own norm².
    """

    def __init__(self, s: HybridState, mode: str, pmf: FockPmf):
        ns, columns = _window(pmf)
        probs = _quadratic_forms(pmf.gram, columns)
        keep = np.flatnonzero(probs >= MIN_PROB)
        self.ns = ns.take(keep)
        self.values = self.ns.tolist()
        self.probabilities = probs.take(keep)
        self.weights = columns.take(keep, axis=1)
        self.beam_values = pmf.values
        self.state = s
        self.mode_index = s.registry.qubus_index(mode)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> MeasurementRecord:
        n = self.values[i]
        collapsed = _fock_collapsed(self.state, self.mode_index, n)
        nrm = norm(collapsed)
        return MeasurementRecord("fock", n, nrm**2, collapsed.scaled(1.0 / nrm))


def fock_outcomes(s: HybridState, mode: str) -> FockOutcomes:
    """All Fock outcomes with probability above MIN_PROB (see FockOutcomes)."""
    return FockOutcomes(s, mode, fock_distribution(s, mode))


# ---------------------------------------------------------------------------
# QND presence detection (keeps the photon)
# ---------------------------------------------------------------------------


def presence_outcomes(s: HybridState, pid: str, paths: Sequence[str]) -> list[MeasurementRecord]:
    """Where the photon is found among the given paths, photon preserved."""
    on = _slot_digits(s, pid) >> 1
    out = []
    for path in paths:
        m = (on == s.registry.paths_of(pid).index(path)).nonzero()[0]
        part = _part(s.registry, s.amps[m], s.codes[m], s.qubus.take(m, 0))
        p = norm(part) ** 2
        if p >= MIN_PROB:
            out.append(MeasurementRecord("presence", path, p, part.normalized()))
    return out


# ---------------------------------------------------------------------------
# Bell measurement (idealized projective)
# ---------------------------------------------------------------------------

#: the Bell outcomes in record order, and √2 times the matrix taking a row's
#: amplitudes on the pair's HH, HV, VH, VV (rows) to its outcomes (columns);
#: the amplitudes take the 1/√2 first, so a pair that cancels gives exactly 0
BELLS = ("phi+", "phi-", "psi+", "psi-")
_BELL = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], complex)
_BELL.flags.writeable = False


def _bell_pattern(s: HybridState, pid_a: str, pid_b: str) -> tuple[np.ndarray, np.ndarray]:
    """The Bell pair read off s: each row's pattern 2·a + b of the pair's
    polarizations (HH, HV, VH, VV as 0..3), and its label code with both
    photons' digits set to 0, which orders and groups the rows as their
    codes without the pair do.  Both photons must be single-path."""
    reg, digits, rest = s.registry, [], s.codes
    for pid in (pid_a, pid_b):
        d = _slot_digits(s, pid)
        if not len(d) or ((d >> 1) != (d[0] >> 1)).any():
            raise MeasurementError(f"Bell measurement needs single-path photons; {pid!r} is split")
        digits.append(d % 2)
        rest = rest - d * reg._stride[reg.slot_index(pid)]
    return 2 * digits[0] + digits[1], rest


def bell_outcomes(
    s: HybridState, pid_a: str, pid_b: str, values: Sequence[str] = BELLS
) -> list[MeasurementRecord]:
    """Project two single-path photons onto the Bell basis; removes both.

    One pass (see the module docstring).  Rows group by the rule of
    canonical(0.0); an outcome's part holds, in canonical order, each group
    with a row on the outcome's two patterns, a group that cancels to 0
    included.  values names the outcomes to enumerate, in the order given
    (default: all four, in BELLS order), as presence_outcomes takes its
    paths; the record of an outcome is the same whichever others are asked
    for.
    """
    pattern, rest = _bell_pattern(s, pid_a, pid_b)
    for v in values:
        if v not in BELLS:
            raise MeasurementError(f"unknown Bell outcome {v!r}; expected one of {BELLS}")
    order, new = _runs(rest, s.qubus, 0.0)
    group = np.empty(len(order), np.int64)
    group[order] = new.cumsum() - 1
    first = order[new]
    cells = 4 * group + pattern  # HH, HV, VH, VV
    size = 4 * len(first)
    amps = ((_binned(cells, s.amps, size) * (1 / math.sqrt(2))).reshape(-1, 4) @ _BELL).T
    on = np.bincount(cells, minlength=size).reshape(-1, 4) > 0
    reached = (on[:, 0] | on[:, 3], on[:, 1] | on[:, 2])  # Φ±, Ψ±
    reg = s.registry.without_photon(pid_a).without_photon(pid_b)
    codes, qubus = _recode(s.codes[first], s.registry, reg), s.qubus.take(first, 0)
    out = []
    for v in values:
        j = BELLS.index(v)
        m = reached[j // 2].nonzero()[0]
        part = _part(reg, amps[j, m], codes[m], qubus.take(m, 0))
        p = norm(part) ** 2
        if p >= MIN_PROB:
            out.append(MeasurementRecord("bell", v, p, part.normalized()))
    return out


# ---------------------------------------------------------------------------
# heralded disposal of a spent qubus beam
# ---------------------------------------------------------------------------


def project_qubus_coherent(s: HybridState, mode: str) -> tuple[HybridState, float]:
    """Project one qubus mode onto its dominant coherent value and drop it.

    The value is the mode's value in the branch of largest |amplitude|;
    returns (state, prob).  Composite gates dispose of their unmeasured beam
    this way; the tiny residual which-path weight (~e^{−|β|²}) becomes the
    gates' deterministic-fidelity leak.
    """
    idx = s.registry.qubus_index(mode)
    value = s.qubus[np.argmax(abs(s.amps)), idx]
    collapsed = _project_onto(s, idx, value)
    p = norm(collapsed) ** 2
    return collapsed.normalized(), p


def _project_onto(s: HybridState, idx: int, value: complex) -> HybridState:
    """⟨value| on qubus mode idx, the mode removed; canonical, not normalized.

    One coherent_overlap call covers every row."""
    reg = s.registry.without_qubus(s.registry.qubus_modes[idx])
    col = s.qubus[:, idx : idx + 1]
    w = coherent_overlap(np.full(col.shape, value), col)
    return HybridState._rows(reg, s.amps * w, s.codes, _drop_column(s.qubus, idx)).canonical()


# ---------------------------------------------------------------------------
# closed forms of the probe readout, used by the analysis module
# ---------------------------------------------------------------------------


def probe_peak_mean(gamma: float, theta_probe: float, k: int) -> float:
    """μ_k = 2γ² sin²(kθ/2): mean count of the probe difference port for |k⟩."""
    return 2.0 * abs(gamma) ** 2 * math.sin(k * theta_probe / 2.0) ** 2


def poisson_overlap(mu1: float, mu2: float) -> float:
    """Σ_n min(Poisson(μ₁, n), Poisson(μ₂, n)): total-variation style overlap."""
    cutoff = default_fock_cutoff(max(mu1, mu2))
    return math.fsum(min(poisson_pmf(mu1, n), poisson_pmf(mu2, n)) for n in range(cutoff + 1))
