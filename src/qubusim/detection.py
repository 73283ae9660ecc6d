"""Measurement chain for qubus beams and photons.

Exact Fock projection on a qubus mode, QND presence detection that keeps the
photon, the (idealized, projective) Bell measurement, heralded disposal of a
spent beam, and the closed forms of the probe's readout peaks that the
analysis module uses.

Every measurement is enumerated: `*_outcomes` lists each outcome above
MIN_PROB with its exact probability and collapsed state.  A beam's Fock pmf
comes from its decomposition into parts, one per distinct beam value α_k:
outcome n collapses to Σ_k ⟨n|α_k⟩ ψ_k, so P(n) for every n is one array pass
over a K-row ⟨n|α_k⟩ table and the K×K Gram matrix of the parts.
`fock_outcomes` returns the kept outcomes as a sequence carrying those parts
and weights; a record, with its collapsed state, is built only when an
outcome is read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import default_fock_cutoff, fock_amplitude, fock_amplitude_table, poisson_pmf
from .state import (
    Branch,
    HybridState,
    coherent_overlap,
    inner_product,
    norm,
)


#: outcomes below this probability are not enumerated
MIN_PROB = 1e-13

#: largest Fock cutoff a beam may need; the pmf table holds K × (cutoff + 1)
#: complex numbers, about 50 MB for K = 3 at this limit
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
    collapsed: HybridState | None  # None only in the qubus block's feed-forward row record

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1 + 1e-9:
            raise MeasurementError(f"probability {self.probability} outside [0, 1]")


# ---------------------------------------------------------------------------
# Fock projection |n⟩⟨n| on a qubus mode
# ---------------------------------------------------------------------------


def _fock_collapsed(s: HybridState, idx: int, n: int) -> HybridState:
    """Unnormalized collapse: amplitudes × ⟨n|α_b⟩, mode removed."""
    mode = s.registry.qubus_modes[idx]
    reg = s.registry.without_qubus(mode)
    out = []
    for br in s.branches:
        w = fock_amplitude(n, br.qubus[idx])
        if w == 0:
            continue
        out.append(Branch(br.amplitude * w, br.photons, br.qubus[:idx] + br.qubus[idx + 1 :]))
    return HybridState._derived(reg, out).canonical(0.0)


def _split_by_value(s: HybridState, idx: int) -> tuple[list[complex], list[HybridState]]:
    """The distinct values α_k of qubus mode idx and the parts ψ_k.

    ψ_k holds the branches whose value is α_k, with the mode removed, so the
    state is Σ_k ψ_k ⊗ |α_k⟩ and a projection ⟨n| on the mode gives
    Σ_k ⟨n|α_k⟩ ψ_k.
    """
    reg = s.registry.without_qubus(s.registry.qubus_modes[idx])
    groups: dict[complex, list[Branch]] = {}
    for br in s.branches:
        rest = Branch(br.amplitude, br.photons, br.qubus[:idx] + br.qubus[idx + 1 :])
        groups.setdefault(br.qubus[idx], []).append(rest)
    return list(groups), [HybridState._derived(reg, brs) for brs in groups.values()]


def _gram(parts: Sequence[HybridState]) -> np.ndarray:
    """G_kl = ⟨parts_k|parts_l⟩, Hermitian, from the upper triangle."""
    g = np.empty((len(parts), len(parts)), dtype=complex)
    for k, a in enumerate(parts):
        for j in range(k, len(parts)):
            g[k, j] = inner_product(a, parts[j])
            g[j, k] = g[k, j].conjugate()
    return g


def _quadratic_forms(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """fₙᴴ G fₙ for every column fₙ of f."""
    return np.einsum("kn,kl,ln->n", f.conj(), g, f).real


@dataclass(frozen=True)
class FockPmf:
    """P(n) of one qubus beam for n = 0..cutoff, with the decomposition behind it.

    Unpacks as (ns, probs).  parts[k] holds the branches whose beam value is
    α_k, with the beam removed, and table[k, n] = ⟨n|α_k⟩; outcome n
    collapses to Σ_k table[k, n] parts[k].
    """

    ns: np.ndarray
    probs: np.ndarray
    parts: tuple[HybridState, ...]
    table: np.ndarray

    def __iter__(self):
        return iter((self.ns, self.probs))


def fock_distribution(
    s: HybridState, mode: str, cutoff: int | None = None, tail_tol: float = 1e-10
) -> FockPmf:
    """Photon-number pmf of one qubus beam: P(n) = ‖Σ_k ⟨n|α_k⟩ ψ_k‖².

    The beam takes a few distinct values α_k; ψ_k are the parts of the state
    at each (see FockPmf).  Every n = 0..cutoff comes from one log-domain
    ⟨n|α_k⟩ table with K rows and the K×K Gram matrix G of the parts, as
    P(n) = fₙᴴ G fₙ; no collapsed state is built.  The cutoff defaults to
    mean + 12√mean of the largest value's intensity; a mean that is not
    finite there, or any cutoff above MAX_FOCK_CUTOFF, is an error before
    the table is allocated.  If the enumerated mass misses 1 by more than
    tail_tol the cutoff was too small and an error reports the measured tail
    mass.
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
            f"Fock cutoff {cutoff} for beam mean photon number {mean:.6g} "
            f"exceeds the limit {MAX_FOCK_CUTOFF}"
        )
    table = fock_amplitude_table(values, cutoff)
    probs = _quadratic_forms(_gram(parts), table)
    total = float(probs.sum())
    if not abs(total - 1.0) <= tail_tol:  # a NaN total fails too
        raise MeasurementError(
            f"Fock cutoff {cutoff} too small: tail mass {max(1.0 - total, 0.0):.3e}"
        )
    return FockPmf(np.arange(cutoff + 1), probs, tuple(parts), table)


class FockOutcomes(Sequence):
    """The Fock outcomes of one beam above MIN_PROB, in increasing n.

    values, probabilities and weights (the columns ⟨n|α_k⟩ of the pmf table)
    come from the pmf, and parts from its decomposition, so outcome i is
    Σ_k weights[k, i] parts[k] without building a state.  Indexing or
    iterating collapses the state into outcome i's MeasurementRecord, whose
    probability is the collapsed state's own norm².
    """

    def __init__(self, s: HybridState, mode: str, pmf: FockPmf):
        keep = pmf.probs >= MIN_PROB
        self.values = [int(n) for n in pmf.ns[keep]]
        self.probabilities = pmf.probs[keep]
        self.weights = pmf.table[:, keep]
        self.parts = pmf.parts
        self._state = s
        self._idx = s.registry.qubus_index(mode)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> MeasurementRecord:
        n = self.values[i]
        collapsed = _fock_collapsed(self._state, self._idx, n)
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
    i = s.registry.slot_index(pid)
    out = []
    for path in paths:
        kept = [br for br in s.branches if br.photons[i][1] == path]
        part = HybridState(s.registry, kept)
        p = norm(part) ** 2
        if p >= MIN_PROB:
            out.append(MeasurementRecord("presence", path, p, part.normalized()))
    return out


# ---------------------------------------------------------------------------
# Bell measurement (idealized projective)
# ---------------------------------------------------------------------------

_BELL = {
    "phi+": {("H", "H"): 1, ("V", "V"): 1},
    "phi-": {("H", "H"): 1, ("V", "V"): -1},
    "psi+": {("H", "V"): 1, ("V", "H"): 1},
    "psi-": {("H", "V"): 1, ("V", "H"): -1},
}

#: polarization correction that undoes each Bell outcome in teleportation
BELL_CORRECTIONS = {"phi+": (), "phi-": ("z",), "psi+": ("x",), "psi-": ("x", "z")}


def bell_outcomes(s: HybridState, pid_a: str, pid_b: str) -> list[MeasurementRecord]:
    """Project two single-path photons onto the Bell basis; removes both."""
    for pid in (pid_a, pid_b):
        if len(s.photon_paths_in_use(pid)) != 1:
            raise MeasurementError(f"Bell measurement needs single-path photons; {pid!r} is split")
    reg = s.registry.without_photon(pid_a).without_photon(pid_b)
    ia, ib = s.registry.slot_index(pid_a), s.registry.slot_index(pid_b)
    lo, hi = sorted((ia, ib))
    out = []
    r = 1 / math.sqrt(2)
    for name, pattern in _BELL.items():
        collapsed = []
        for br in s.branches:
            photons = br.photons
            w = pattern.get((photons[ia][2], photons[ib][2]))
            if w is None:
                continue
            rest = photons[:lo] + photons[lo + 1 : hi] + photons[hi + 1 :]
            collapsed.append(Branch(br.amplitude * w * r, rest, br.qubus))
        part = HybridState._derived(reg, collapsed).canonical(0.0)
        p = norm(part) ** 2
        if p >= MIN_PROB:
            out.append(MeasurementRecord("bell", name, p, part.normalized()))
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
    value = max(s.branches, key=lambda br: abs(br.amplitude)).qubus[idx]
    collapsed = _project_onto(s, idx, value)
    p = norm(collapsed) ** 2
    return collapsed.normalized(), p


def _project_onto(s: HybridState, idx: int, value: complex) -> HybridState:
    """⟨value| on qubus mode idx, the mode removed; canonical, not normalized."""
    reg = s.registry.without_qubus(s.registry.qubus_modes[idx])
    out = []
    for br in s.branches:
        w = coherent_overlap((complex(value),), (br.qubus[idx],))
        out.append(Branch(br.amplitude * w, br.photons, br.qubus[:idx] + br.qubus[idx + 1 :]))
    return HybridState._derived(reg, out).canonical()


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
