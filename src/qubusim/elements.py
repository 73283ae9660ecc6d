"""Primitive unitary elements on hybrid states.

Photonic linear optics (beam splitters, PBS, wave plates, path relabels),
qubus linear optics (phase shifters, the 50:50 qubus beam splitter) and the
cross-phase-modulation coupling that writes a conditional e^{iθ} onto a
coherent beam.

Conventions fixed here and used by every composite gate:
  * photon_bs:  |x⟩_A → (|x⟩_A + |x⟩_B)/√2,  |x⟩_B → (|x⟩_A − |x⟩_B)/√2,
    the same in any polarization basis.  The variable-angle form B(θ) has
    matrix [[cosθ, sinθ], [sinθ, −cosθ]]; θ = π/4 is the 50:50 case.
  * qubus_bs:  |α₁⟩|α₂⟩ → |(α₁−α₂)/√2⟩|(α₁+α₂)/√2⟩.
  * xpm: in every branch whose selected photon slot is occupied, the chosen
    beam amplitude picks up e^{iθ}; two matched couplings compose to e^{2iθ}.

Every element preserves the norm and the photon content of each branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .state import (
    H,
    V,
    Branch,
    HybridState,
    RegistryError,
    StateError,
    _sorted_slots,
)

ELEMENT_KINDS = (
    "PhotonBS",
    "PBS",
    "PBSpm",
    "WavePlateX",
    "WavePlateZ",
    "PolPhase",
    "PolRot",
    "PathSwitch",
    "XPM",
    "QubusPhase",
    "QubusBS",
)


@dataclass(frozen=True)
class ElementOp:
    """Serializable description of one primitive element."""

    kind: str
    targets: tuple[tuple[str, object], ...]
    parameter: float = 0.0

    def __post_init__(self):
        if self.kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if not math.isfinite(self.parameter):
            raise ValueError("element parameter must be finite")

    def target(self, key: str):
        for k, v in self.targets:
            if k == key:
                return v
        raise KeyError(key)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "targets": dict(self.targets), "parameter": self.parameter}


def op(kind: str, parameter: float = 0.0, **targets) -> ElementOp:
    return ElementOp(kind, tuple(sorted(targets.items())), parameter)


# ---------------------------------------------------------------------------
# photonic elements
# ---------------------------------------------------------------------------


def _remap_slot(s: HybridState, pid: str, fn) -> HybridState:
    """Expand each branch through fn(path, pol) -> [(coef, path, pol), ...]."""
    s.registry.paths_of(pid)

    def expand(br: Branch):
        path, pol = br.slot(pid)
        rest = tuple(t for t in br.photons if t[0] != pid)
        for coef, new_path, new_pol in fn(path, pol):
            if coef == 0:
                continue
            yield Branch(
                br.amplitude * coef,
                _sorted_slots(rest + ((pid, new_path, new_pol),)),
                br.qubus,
            )

    return s.map_branches(expand)


def photon_bs(
    s: HybridState, pid: str, path_a: str, path_b: str, theta: float = math.pi / 4
) -> HybridState:
    """Beam splitter between two paths of one photon (default 50:50)."""
    for p in (path_a, path_b):
        if p not in s.registry.paths_of(pid):
            raise RegistryError(f"path {p!r} not registered for photon {pid!r}")
    c, sn = math.cos(theta), math.sin(theta)

    def fn(path, pol):
        if path == path_a:
            return [(c, path_a, pol), (sn, path_b, pol)]
        if path == path_b:
            return [(sn, path_a, pol), (-c, path_b, pol)]
        return [(1.0, path, pol)]

    return _remap_slot(s, pid, fn)


def pbs(s: HybridState, pid: str, in_path: str, out_h: str, out_v: str) -> HybridState:
    """Polarizing beam splitter: H → out_h, V → out_v."""
    reg = s.registry
    for out in (out_h, out_v):
        if out not in reg.paths_of(pid):
            reg = reg.with_path(pid, out)
    s = HybridState(reg, s.branches)

    def fn(path, pol):
        if path == in_path:
            return [(1.0, out_h if pol == H else out_v, pol)]
        return [(1.0, path, pol)]

    return _remap_slot(s, pid, fn)


def pbs_merge(s: HybridState, pid: str, h_path: str, v_path: str, out: str) -> HybridState:
    """Inverse PBS: H from h_path and V from v_path recombine on one path."""
    reg = s.registry
    if out not in reg.paths_of(pid):
        reg = reg.with_path(pid, out)
    s = HybridState(reg, s.branches)

    def fn(path, pol):
        if path == h_path:
            if pol != H:
                raise StateError(f"V component present on H input {h_path!r} of PBS merge")
            return [(1.0, out, H)]
        if path == v_path:
            if pol != V:
                raise StateError(f"H component present on V input {v_path!r} of PBS merge")
            return [(1.0, out, V)]
        return [(1.0, path, pol)]

    return _remap_slot(s, pid, fn)


def pbs_pm(s: HybridState, pid: str, in_path: str, out_plus: str, out_minus: str) -> HybridState:
    """PBS in the |±⟩ basis: |+⟩ → out_plus, |−⟩ → out_minus."""
    reg = s.registry
    for out in (out_plus, out_minus):
        if out not in reg.paths_of(pid):
            reg = reg.with_path(pid, out)
    s = HybridState(reg, s.branches)

    def fn(path, pol):
        if path != in_path:
            return [(1.0, path, pol)]
        sign = 1.0 if pol == H else -1.0
        # |H⟩ = (|+⟩+|−⟩)/√2, |V⟩ = (|+⟩−|−⟩)/√2; |±⟩ = (H ± V)/√2 on the arm
        return [
            (0.5, out_plus, H),
            (0.5, out_plus, V),
            (0.5 * sign, out_minus, H),
            (-0.5 * sign, out_minus, V),
        ]

    return _remap_slot(s, pid, fn)


def pbs_pm_merge(
    s: HybridState, pid: str, plus_path: str, minus_path: str, out: str
) -> HybridState:
    """Second PBS± of a Mach-Zehnder: |+⟩ from the plus arm and |−⟩ from the
    minus arm exit on one path.  Amplitude that would leave through the dark
    port (|−⟩ on the plus arm or |+⟩ on the minus arm) is an error.
    """
    reg = s.registry
    if out not in reg.paths_of(pid):
        reg = reg.with_path(pid, out)
    dark = reg.fresh_path("_dark")
    reg = reg.with_path(pid, dark)
    s = HybridState(reg, s.branches)

    def fn(path, pol):
        sv = 1.0 if pol == H else -1.0  # sign of the |−⟩ content of the slot
        if path == plus_path:
            return [
                (0.5, out, H),
                (0.5, out, V),
                (0.5 * sv, dark, H),
                (-0.5 * sv, dark, V),
            ]
        if path == minus_path:
            return [
                (0.5 * sv, out, H),
                (-0.5 * sv, out, V),
                (0.5, dark, H),
                (0.5, dark, V),
            ]
        return [(1.0, path, pol)]

    mapped = _remap_slot(s, pid, fn)
    leak = math.fsum(
        abs(br.amplitude) ** 2 for br in mapped.branches if br.slot(pid)[0] == dark
    )
    if leak > 1e-9:
        raise StateError(f"PBS± merge dark port carries weight {leak:.3e}")
    kept = [br for br in mapped.branches if br.slot(pid)[0] != dark]
    return HybridState(mapped.registry.without_path(pid, dark), kept)


def wave_plate(s: HybridState, pid: str, path: str | None, kind: str, phi: float = 0.0) -> HybridState:
    """σx, σz or a polarization phase on one path (or all paths, path=None).

    kind: "x" swaps H↔V; "z" maps |V⟩ → −|V⟩; "phase" multiplies |V⟩ by e^{iφ}.
    """
    if kind == "x":
        def fn(p, pol):
            if path is None or p == path:
                return [(1.0, p, V if pol == H else H)]
            return [(1.0, p, pol)]
    elif kind == "z":
        def fn(p, pol):
            if (path is None or p == path) and pol == V:
                return [(-1.0, p, pol)]
            return [(1.0, p, pol)]
    elif kind == "phase":
        w = cmath.exp(1j * phi)

        def fn(p, pol):
            if (path is None or p == path) and pol == V:
                return [(w, p, pol)]
            return [(1.0, p, pol)]
    else:
        raise ValueError(f"unknown wave plate kind {kind!r}")
    return _remap_slot(s, pid, fn)


def pol_rotate(s: HybridState, pid: str, path: str | None, theta: float) -> HybridState:
    """Polarization rotation: H → cosθ H + sinθ V, V → −sinθ H + cosθ V."""
    c, sn = math.cos(theta), math.sin(theta)

    def fn(p, pol):
        if path is not None and p != path:
            return [(1.0, p, pol)]
        if pol == H:
            return [(c, p, H), (sn, p, V)]
        return [(-sn, p, H), (c, p, V)]

    return _remap_slot(s, pid, fn)


def path_phase(s: HybridState, pid: str, path: str, phi: float) -> HybridState:
    """Phase e^{iφ} on every polarization component of one path."""
    w = cmath.exp(1j * phi)

    def fn(p, pol):
        return [(w if p == path else 1.0, p, pol)]

    return _remap_slot(s, pid, fn)


def slot_phase(s: HybridState, pid: str, path: str, pol: str, phi: float) -> HybridState:
    """Phase e^{iφ} on a single (path, pol) slot, e.g. σz restricted to a path."""
    w = cmath.exp(1j * phi)

    def fn(p, q):
        return [(w if (p == path and q == pol) else 1.0, p, q)]

    return _remap_slot(s, pid, fn)


def path_switch(s: HybridState, pid: str, path_a: str, path_b: str) -> HybridState:
    """Swap two path labels of one photon."""
    for p in (path_a, path_b):
        if p not in s.registry.paths_of(pid):
            raise RegistryError(f"path {p!r} not registered for photon {pid!r}")

    def fn(p, pol):
        if p == path_a:
            return [(1.0, path_b, pol)]
        if p == path_b:
            return [(1.0, path_a, pol)]
        return [(1.0, p, pol)]

    return _remap_slot(s, pid, fn)


def pol_unitary(s: HybridState, pid: str, path: str | None, u: np.ndarray) -> HybridState:
    """Arbitrary 2×2 unitary on (H, V) of one path, phase-exact.

    ZYZ: two polarization-phase plates around a rotation, plus a closing
    whole-path phase.  The closing phase matters: when the unitary acts on
    one rail of a superposition, its "global" phase is relative.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
        raise ValueError("pol_unitary needs a 2x2 unitary")
    det = np.linalg.det(u)
    su = u / np.sqrt(det)
    b = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) > 1e-12 and abs(su[1, 0]) > 1e-12:
        apc = -2.0 * cmath.phase(su[0, 0])  # a + c
        amc = 2.0 * cmath.phase(su[1, 0])   # a - c
        a, c = (apc + amc) / 2.0, (apc - amc) / 2.0
    elif abs(su[0, 0]) > 1e-12:
        a, c = -2.0 * cmath.phase(su[0, 0]), 0.0
    else:
        a, c = 2.0 * cmath.phase(su[1, 0]), 0.0
    # plates implement P(a)·Ry(b)·P(c) with P(t) = diag(1, e^{it})
    cb, sb = math.cos(b / 2.0), math.sin(b / 2.0)
    impl = np.array(
        [[1, 0], [0, cmath.exp(1j * a)]], dtype=complex
    ) @ np.array([[cb, -sb], [sb, cb]], dtype=complex) @ np.array(
        [[1, 0], [0, cmath.exp(1j * c)]], dtype=complex
    )
    ij = np.unravel_index(np.argmax(np.abs(impl)), impl.shape)
    residue = cmath.phase(u[ij] / impl[ij])
    out = wave_plate(s, pid, path, "phase", c)
    out = pol_rotate(out, pid, path, b / 2.0)
    out = wave_plate(out, pid, path, "phase", a)
    if abs(residue) > 1e-14:
        if path is None:
            for p in out.photon_paths_in_use(pid):
                out = path_phase(out, pid, p, residue)
        else:
            out = path_phase(out, pid, path, residue)
    return out


# ---------------------------------------------------------------------------
# qubus elements
# ---------------------------------------------------------------------------


def xpm(
    s: HybridState,
    qubus_mode: str,
    pid: str,
    path: str,
    pol: str | None,
    theta: float,
) -> HybridState:
    """Conditional cross-phase: the beam gains e^{iθ} when the slot is occupied.

    pol=None couples every polarization on the path (two photonic modes).
    """
    idx = s.registry.qubus_index(qubus_mode)
    w = cmath.exp(1j * theta)
    out = []
    for br in s.branches:
        p, q = br.slot(pid)
        if p == path and (pol is None or q == pol):
            qubus = br.qubus[:idx] + (br.qubus[idx] * w,) + br.qubus[idx + 1 :]
            out.append(Branch(br.amplitude, br.photons, qubus))
        else:
            out.append(br)
    return HybridState(s.registry, out)


def qubus_phase(s: HybridState, mode: str, phi: float) -> HybridState:
    """Unconditional phase shifter on a qubus beam: α → α e^{iφ}."""
    idx = s.registry.qubus_index(mode)
    w = cmath.exp(1j * phi)
    return HybridState(
        s.registry,
        [
            Branch(br.amplitude, br.photons, br.qubus[:idx] + (br.qubus[idx] * w,) + br.qubus[idx + 1 :])
            for br in s.branches
        ],
    )


def qubus_bs(s: HybridState, mode_a: str, mode_b: str) -> HybridState:
    """50:50 qubus beam splitter: (α₁, α₂) → ((α₁−α₂)/√2, (α₁+α₂)/√2)."""
    ia = s.registry.qubus_index(mode_a)
    ib = s.registry.qubus_index(mode_b)
    r = 1 / math.sqrt(2)
    out = []
    for br in s.branches:
        qs = list(br.qubus)
        a1, a2 = qs[ia], qs[ib]
        qs[ia], qs[ib] = (a1 - a2) * r, (a1 + a2) * r
        out.append(Branch(br.amplitude, br.photons, tuple(qs)))
    return HybridState(s.registry, out).canonical()


# ---------------------------------------------------------------------------
# ElementOp dispatcher
# ---------------------------------------------------------------------------


def apply_element(s: HybridState, e: ElementOp) -> HybridState:
    """Execute one serializable element; used by feed-forward and meshes."""
    k = e.kind
    if k == "PhotonBS":
        return photon_bs(s, e.target("photon"), e.target("path_a"), e.target("path_b"), e.parameter or math.pi / 4)
    if k == "PBS":
        return pbs(s, e.target("photon"), e.target("in_path"), e.target("out_h"), e.target("out_v"))
    if k == "PBSpm":
        return pbs_pm(s, e.target("photon"), e.target("in_path"), e.target("out_plus"), e.target("out_minus"))
    if k == "WavePlateX":
        return wave_plate(s, e.target("photon"), e.target("path"), "x")
    if k == "WavePlateZ":
        return wave_plate(s, e.target("photon"), e.target("path"), "z")
    if k == "PolPhase":
        pol = e.target("pol")
        pid, path = e.target("photon"), e.target("path")
        if pol is None:
            return path_phase(s, pid, path, e.parameter)
        if path is None:
            return wave_plate(s, pid, None, "phase", e.parameter)
        return slot_phase(s, pid, path, pol, e.parameter)
    if k == "PolRot":
        return pol_rotate(s, e.target("photon"), e.target("path"), e.parameter)
    if k == "PathSwitch":
        return path_switch(s, e.target("photon"), e.target("path_a"), e.target("path_b"))
    if k == "XPM":
        return xpm(s, e.target("mode"), e.target("photon"), e.target("path"), e.target("pol"), e.parameter)
    if k == "QubusPhase":
        return qubus_phase(s, e.target("mode"), e.parameter)
    if k == "QubusBS":
        return qubus_bs(s, e.target("mode_a"), e.target("mode_b"))
    raise ValueError(f"unknown element kind {k!r}")


def apply_elements(s: HybridState, ops: Sequence[ElementOp]) -> HybridState:
    for e in ops:
        s = apply_element(s, e)
    return s
