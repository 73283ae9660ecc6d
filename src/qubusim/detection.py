"""Measurement chain for qubus beams and photons.

Exact Fock projection on a qubus mode, the QND probe module (probe beam +
XPM + 50:50 BS + non-resolving detector), the non-resolving POVM
Π₀ = Σ (1−η)ⁿ |n⟩⟨n|, Π₁ = I − Π₀, binned readout, QND presence detection
that keeps the photon, and the (idealized, projective) Bell measurement.

Every measurement is enumerated: `*_outcomes` lists each outcome above
MIN_PROB with its exact probability and collapsed state.  The Fock pmf of a
beam is computed for every n in one array pass over the branches; only the
outcomes it keeps are then collapsed into states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import default_fock_cutoff, fock_amplitude, fock_amplitude_table, poisson_pmf
from .state import (
    Branch,
    HybridState,
    coherent_overlap,
    norm,
)


#: outcomes below this probability are not enumerated
MIN_PROB = 1e-13


class MeasurementError(ValueError):
    """Raised for impossible outcomes, ambiguous readout, bad configs."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One detection outcome: what fired, how likely, and the collapsed state."""

    kind: str  # "fock" | "bin" | "povm" | "presence" | "bell"
    value: object
    probability: float
    collapsed: HybridState | None

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
    return HybridState(reg, out).canonical(0.0)


def _fock_pmf(s: HybridState, idx: int, cutoff: int) -> np.ndarray:
    """P(n) = Σ_bb' conj(c_b F_bn) G_bb' c_b' F_b'n for n = 0..cutoff.

    F_bn = ⟨n|α_b⟩ on the measured mode; G_bb' is the coherent overlap of the
    other modes, nonzero only between branches with equal photon labels and
    Hermitian, so each label group adds its upper triangle twice.
    """
    branches = s.branches
    w = fock_amplitude_table([br.qubus[idx] for br in branches], cutoff)
    w *= np.array([br.amplitude for br in branches], dtype=complex)[:, None]
    probs = (w.real**2 + w.imag**2).sum(axis=0)
    groups: dict[tuple, list[int]] = {}
    for b, br in enumerate(branches):
        groups.setdefault(br.photons, []).append(b)
    rest = [br.qubus[:idx] + br.qubus[idx + 1 :] for br in branches]
    for members in groups.values():
        for i, b in enumerate(members[:-1]):
            others = members[i + 1 :]
            g = np.array([coherent_overlap(rest[b], rest[k]) for k in others])
            cross = (g[:, None] * w[others]).sum(axis=0)
            probs += 2.0 * (w[b].conj() * cross).real
    return probs


def fock_distribution(
    s: HybridState, mode: str, cutoff: int | None = None, tail_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Photon-number pmf of one qubus beam: P(n) = ‖Σ_b amp_b ⟨n|α_b⟩ |rest_b⟩‖².

    Every n = 0..cutoff comes from one array pass (a log-domain ⟨n|α_b⟩
    table and the Gram matrix of the other modes within each label group);
    no collapsed state is built.  The cutoff defaults to mean + 12√mean of
    the largest branch intensity; if the enumerated mass misses 1 by more
    than tail_tol the cutoff was too small and an error reports the measured
    tail mass.
    """
    idx = s.registry.qubus_index(mode)
    if cutoff is None:
        mean = max((abs(br.qubus[idx]) ** 2 for br in s.branches), default=0.0)
        cutoff = default_fock_cutoff(mean)
    probs = _fock_pmf(s, idx, cutoff)
    total = float(probs.sum())
    if not abs(total - 1.0) <= tail_tol:  # a NaN total fails too
        raise MeasurementError(
            f"Fock cutoff {cutoff} too small: tail mass {max(1.0 - total, 0.0):.3e}"
        )
    return np.arange(cutoff + 1), probs


def fock_project(s: HybridState, mode: str, n: int) -> MeasurementRecord:
    """Condition on the projection |n⟩⟨n| of one qubus beam."""
    if n < 0:
        raise MeasurementError("n must be >= 0")
    idx = s.registry.qubus_index(mode)
    collapsed = _fock_collapsed(s, idx, n)
    p = norm(collapsed) ** 2
    if p < 1e-300:
        raise MeasurementError(f"impossible outcome n={n} (probability < 1e-300)")
    return MeasurementRecord("fock", n, p, collapsed.normalized())


def fock_outcomes(s: HybridState, mode: str) -> list[MeasurementRecord]:
    """All Fock outcomes with probability above MIN_PROB.

    The pmf picks the outcomes; each kept n is collapsed once, and its
    record carries the collapsed state's own norm² and normalized state.
    """
    ns, probs = fock_distribution(s, mode)
    idx = s.registry.qubus_index(mode)
    out = []
    for n in ns[probs >= MIN_PROB]:
        collapsed = _fock_collapsed(s, idx, int(n))
        nrm = norm(collapsed)
        out.append(MeasurementRecord("fock", int(n), nrm**2, collapsed.scaled(1.0 / nrm)))
    return out


# ---------------------------------------------------------------------------
# QND module: probe beam, binned non-resolving readout
# ---------------------------------------------------------------------------


def probe_peak_mean(gamma: float, theta_probe: float, k: int) -> float:
    """μ_k = 2γ² sin²(kθ/2): mean count of the probe difference port for |k⟩."""
    return 2.0 * abs(gamma) ** 2 * math.sin(k * theta_probe / 2.0) ** 2


@dataclass(frozen=True)
class QndConfig:
    """Probe amplitude γ, probe XPM angle, detector efficiency η and readout bins.

    Each bin is (peak index k, mean photon number μ_k, [lo, hi)).  Bins must
    be ordered and non-overlapping, with μ_k on the 2γ²sin²(kθ/2) curve.
    """

    gamma: float
    theta_probe: float
    eta: float
    bins: tuple[tuple[int, float, float, float], ...]

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise MeasurementError("eta must be in (0, 1]")
        prev_hi = -math.inf
        for k, mu, lo, hi in self.bins:
            if lo >= hi or lo < prev_hi:
                raise MeasurementError("bins must be ordered and non-overlapping")
            prev_hi = hi
            want = probe_peak_mean(self.gamma, self.theta_probe, k)
            if abs(mu - want) > 1e-9 * max(1.0, want):
                raise MeasurementError(f"bin {k}: mean {mu} is off the 2γ²sin²(kθ/2) curve")

    @classmethod
    def with_default_bins(cls, gamma: float, theta_probe: float, eta: float, k_max: int | None = None):
        """Midpoint bins between consecutive peak means, k = 0 .. k_max.

        The fold point of μ_k sits at kθ = π; peaks beyond it are not
        resolvable and are left out.
        """
        fold = int(math.pi / theta_probe)
        k_max = fold if k_max is None else min(k_max, fold)
        mus = [probe_peak_mean(gamma, theta_probe, k) for k in range(k_max + 2)]
        bins = []
        lo = 0.0
        for k in range(k_max + 1):
            hi = 0.5 * (mus[k] + mus[k + 1]) if k < k_max else 2.0 * gamma**2 + 1.0
            bins.append((k, mus[k], lo, hi))
            lo = hi
        return cls(gamma, theta_probe, eta, tuple(bins))

    def bin_of(self, mu: float) -> int | None:
        for k, _, lo, hi in self.bins:
            if lo <= mu < hi:
                return k
        return None


def qnd_outcomes(
    s: HybridState, mode: str, cfg: QndConfig, readout: str = "ideal"
) -> list[MeasurementRecord]:
    """Enumerate the QND module's outcomes on one qubus beam.

    "ideal" realizes |n⟩⟨n| directly (the chain's net effect).  "binned"
    simulates the probe: |γ⟩ picks up e^{inθ} by XPM, a 50:50 BS forms the
    difference port |(γe^{inθ}−γ)/√2⟩ with mean count μ_n, the η-efficient
    non-resolving detector registers an intensity that lands in one bin, and
    the no-click channel (probability e^{−ημ_n}) is indistinguishable from
    the k=0 bin.  Two Fock values of non-negligible weight falling into one
    bin cannot be collapsed within coherent branches and raise "ambiguous
    readout", as does a value outside every bin.
    """
    base = fock_outcomes(s, mode)
    if readout == "ideal":
        return base
    if readout != "binned":
        raise ValueError(f"unknown readout mode {readout!r}")

    by_bin: dict[int, list[MeasurementRecord]] = {}
    for rec in base:
        mu = probe_peak_mean(cfg.gamma, cfg.theta_probe, rec.value)
        k = cfg.bin_of(mu)
        if k is None:
            raise MeasurementError(f"ambiguous readout: n={rec.value} falls outside all bins")
        by_bin.setdefault(k, []).append(rec)

    out = []
    noclick_mass = {}
    for k, recs in sorted(by_bin.items()):
        if len(recs) > 1:
            ns = [r.value for r in recs]
            raise MeasurementError(f"ambiguous readout: Fock values {ns} share bin {k}")
        rec = recs[0]
        mu = probe_peak_mean(cfg.gamma, cfg.theta_probe, rec.value)
        p_noclick = math.exp(-cfg.eta * mu)
        if k == 0:
            out.append(rec)
            continue
        noclick_mass[rec.value] = rec.probability * p_noclick
        out.append(MeasurementRecord("bin", k, rec.probability * (1.0 - p_noclick), rec.collapsed))
    # fold the no-click leakage of every clicked peak into the k=0 outcome
    extra = sum(noclick_mass.values())
    for i, rec in enumerate(out):
        if rec.kind == "fock":
            out[i] = MeasurementRecord("bin", 0, rec.probability + extra, rec.collapsed)
            break
    else:
        if extra > 0:
            # no Fock value sits in bin 0: the no-click channel alone feeds it
            out.insert(0, MeasurementRecord("bin", 0, extra, None))
    return out


# ---------------------------------------------------------------------------
# non-resolving POVM on a qubus mode
# ---------------------------------------------------------------------------


def povm_outcomes(
    s: HybridState, mode: str, eta: float, tol: float = 1e-9, strict: bool = True
) -> list[MeasurementRecord]:
    """Outcomes of Π₀/Π₁ with efficiency η on one beam.

    Outcome 0 has the exact coherent closed form √Π₀|α⟩ = e^{−η|α|²/2}|α√(1−η)⟩.
    Outcome 1 (√Π₁) does not stay inside coherent branches; the mode is
    removed instead, which is exact when its value is branch-uniform.  For a
    non-uniform mode the strict default raises; strict=False still returns
    both exact probabilities, with the outcome-1 collapse left as None.
    """
    if not 0.0 < eta <= 1.0:
        raise MeasurementError("eta must be in (0, 1]")
    idx = s.registry.qubus_index(mode)
    reg0 = s.registry
    damp = math.sqrt(1.0 - eta)
    out0 = []
    for br in s.branches:
        a = br.qubus[idx]
        w = math.exp(-0.5 * eta * (a.real**2 + a.imag**2))
        out0.append(
            Branch(br.amplitude * w, br.photons, br.qubus[:idx] + (a * damp,) + br.qubus[idx + 1 :])
        )
    collapsed0 = HybridState(reg0, out0)
    p0 = norm(collapsed0) ** 2
    p1 = max(1.0 - p0, 0.0)
    records = [MeasurementRecord("povm", 0, p0, collapsed0.normalized() if p0 > 1e-300 else None)]
    if p1 < 1e-15:
        records.append(MeasurementRecord("povm", 1, p1, None))
        return records
    values = {br.qubus[idx] for br in s.branches}
    ref = next(iter(values))
    if any(abs(v - ref) > tol for v in values):
        if strict:
            raise MeasurementError(
                "povm outcome-1 collapse needs a branch-uniform mode "
                "(mixed states are out of scope)"
            )
        records.append(MeasurementRecord("povm", 1, p1, None))
        return records
    reg1 = s.registry.without_qubus(mode)
    rest = HybridState(
        reg1, [Branch(br.amplitude, br.photons, br.qubus[:idx] + br.qubus[idx + 1 :]) for br in s.branches]
    )
    records.append(MeasurementRecord("povm", 1, p1, rest.normalized()))
    return records


# ---------------------------------------------------------------------------
# QND presence detection (keeps the photon)
# ---------------------------------------------------------------------------


def presence_outcomes(s: HybridState, pid: str, paths: Sequence[str]) -> list[MeasurementRecord]:
    """Where the photon is found among the given paths, photon preserved."""
    out = []
    for path in paths:
        kept = [br for br in s.branches if br.slot(pid)[0] == path]
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
    """Project two single-path photons onto the Bell basis; removes both.

    All four outcomes are listed, impossible ones with probability 0.
    """
    for pid in (pid_a, pid_b):
        if len(s.photon_paths_in_use(pid)) != 1:
            raise MeasurementError(f"Bell measurement needs single-path photons; {pid!r} is split")
    reg = s.registry.without_photon(pid_a).without_photon(pid_b)
    out = []
    r = 1 / math.sqrt(2)
    for name, pattern in _BELL.items():
        collapsed = []
        for br in s.branches:
            pa = br.slot(pid_a)[1]
            pb = br.slot(pid_b)[1]
            w = pattern.get((pa, pb))
            if w is None:
                continue
            rest = tuple(t for t in br.photons if t[0] not in (pid_a, pid_b))
            collapsed.append(Branch(br.amplitude * w * r, rest, br.qubus))
        part = HybridState(reg, collapsed).canonical(0.0)
        p = norm(part) ** 2
        out.append(MeasurementRecord("bell", name, p, part.normalized() if p > 1e-300 else None))
    return out


# ---------------------------------------------------------------------------
# heralded disposal of a spent qubus beam
# ---------------------------------------------------------------------------


def project_qubus_coherent(s: HybridState, mode: str) -> tuple[HybridState, float]:
    """Project one qubus mode onto its dominant coherent value and drop it.

    The dominant branch's amplitude is the value; returns (state, prob).
    Composite gates dispose of their unmeasured beam this way; the tiny
    residual which-path weight (~e^{−|β|²}) becomes the gates'
    deterministic-fidelity leak.
    """
    idx = s.registry.qubus_index(mode)
    value = max(s.branches, key=lambda br: abs(br.amplitude)).qubus[idx]
    reg = s.registry.without_qubus(mode)
    out = []
    for br in s.branches:
        w = coherent_overlap((complex(value),), (br.qubus[idx],))
        out.append(Branch(br.amplitude * w, br.photons, br.qubus[:idx] + br.qubus[idx + 1 :]))
    collapsed = HybridState(reg, out).canonical()
    p = norm(collapsed) ** 2
    return collapsed.normalized(), p


# ---------------------------------------------------------------------------
# closed-form checks used by tests and the analysis module
# ---------------------------------------------------------------------------


def poisson_overlap(mu1: float, mu2: float) -> float:
    """Σ_n min(Poisson(μ₁, n), Poisson(μ₂, n)): total-variation style overlap."""
    cutoff = default_fock_cutoff(max(mu1, mu2))
    return math.fsum(min(poisson_pmf(mu1, n), poisson_pmf(mu2, n)) for n in range(cutoff + 1))
