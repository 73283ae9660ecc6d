"""Primitive unitary elements on hybrid states.

Photonic linear optics (beam splitters, PBS, wave plates, path relabels),
qubus linear optics (phase shifters, the 50:50 qubus beam splitter) and the
cross-phase-modulation coupling that writes a conditional e^{iθ} onto a
coherent beam.

Every photonic element is a slot table: a dict from one photon's
(path, pol) slot to its images [(coefficient, path, pol), ...].  Slots
missing from the table pass through unchanged, and `_remap_slot` is the one
routine that applies a table, by arithmetic on every row's label code.
Path maps (beam splitter, switch) act alike on H and V; polarization maps
(wave plates, rotations, 2×2 unitaries) act on (H, V) of one path, or of
every registered path when the path is None; `phase` and the PBS routings
are tables of their own.  Qubus elements are column operations on the beam
values.  `ELEMENTS` maps each serializable kind to its function.

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
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .state import (
    POLS,
    H,
    V,
    HybridState,
    RegistryError,
    StateError,
    _distinct,
    _reregistered,
    _slot_digits,
)


@dataclass(frozen=True)
class ElementOp:
    """Serializable description of one primitive element."""

    kind: str
    targets: tuple[tuple[str, object], ...]
    parameter: float = 0.0

    def __post_init__(self):
        if self.kind not in ELEMENTS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if not isinstance(self.parameter, numbers.Real):
            raise ValueError(f"element parameter {self.parameter!r} is not a number")
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


def _remap_slot(s: HybridState, pid: str, table: dict) -> HybridState:
    """Expand each row through table[(path, pol)] -> [(coef, path, pol), ...].

    Slots missing from the table pass through unchanged.  The photon's digit
    is rewritten by integer arithmetic on the label code: the k-th images of
    all rows come from two arrays over the digit, a coefficient and a
    destination digit, one gather each.  An image is checked against the
    registry when an occupied slot emits it.  A table that gives the
    occupied slots one image each, all distinct, merges no rows: its result
    is re-sorted, and neither merged nor cleared of dust.
    """
    reg = s.registry
    i = reg.slot_index(pid)
    paths, stride, radix = reg._layout[i][1], reg._stride[i], reg._radix[i]
    digits = s.codes // stride % radix
    images = {}
    for d in _distinct(digits):
        slot = (paths[d >> 1], POLS[d & 1])
        images[d] = [(c, reg._digit(pid, p, q)) for c, p, q in table.get(slot, [(1, *slot)]) if c]
    width = max(map(len, images.values()), default=0)
    full = all(len(row) == width for row in images.values())
    amps, codes, emitted = [], [], []
    for k in range(width):
        have = [d for d, row in images.items() if len(row) > k]
        coef, dest = np.zeros(radix, complex), np.zeros(radix, np.int64)
        coef[have], dest[have] = zip(*(images[d][k] for d in have))
        c = coef[digits]
        amps.append(s.amps * c)
        codes.append(s.codes + (dest[digits] - digits) * stride)
        emitted.append(None if full else c != 0)
    if width == 1:
        amps, codes, qubus = amps[0], codes[0], s.qubus
    else:
        amps, codes = np.concatenate(amps or [s.amps[:0]]), np.concatenate(codes or [s.codes[:0]])
        qubus = np.concatenate([s.qubus] * width or [s.qubus[:0]])
    if not full:
        keep = np.concatenate(emitted).nonzero()[0]
        amps, codes, qubus = amps[keep], codes[keep], qubus.take(keep, 0)
    targets = [t for row in images.values() for _, t in row]
    if width == 1 and len(set(targets)) == len(targets):
        return HybridState._sorted(reg, amps, codes, qubus)
    return HybridState._rows(reg, amps, codes, qubus).canonical()


def _require_paths(s: HybridState, pid: str, *paths: str) -> None:
    """Every path named must be registered for the photon."""
    registered = s.registry.paths_of(pid)
    for p in paths:
        if p not in registered:
            raise RegistryError(f"path {p!r} not registered for photon {pid!r}")


def _path_map(s: HybridState, pid: str, path_a: str, path_b: str, m) -> HybridState:
    """2×2 map m on the amplitudes of (path_a, path_b), alike for H and V."""
    _require_paths(s, pid, path_a, path_b)
    table = {}
    for pol in POLS:
        table[path_a, pol] = [(m[0][0], path_a, pol), (m[1][0], path_b, pol)]
        table[path_b, pol] = [(m[0][1], path_a, pol), (m[1][1], path_b, pol)]
    return _remap_slot(s, pid, table)


def _pol_map(s: HybridState, pid: str, path: str | None, m) -> HybridState:
    """2×2 map m on the (H, V) amplitudes of one path (every path if None)."""
    if path is not None:
        _require_paths(s, pid, path)
    table = {}
    for p in s.registry.paths_of(pid) if path is None else (path,):
        table[p, H] = [(m[0][0], p, H), (m[1][0], p, V)]
        table[p, V] = [(m[0][1], p, H), (m[1][1], p, V)]
    return _remap_slot(s, pid, table)


def _with_paths(s: HybridState, pid: str, *paths: str) -> HybridState:
    """s with those of paths not yet registered for pid added to it."""
    reg = s.registry
    for p in paths:
        if p not in reg.paths_of(pid):
            reg = reg.with_path(pid, p)
    return _reregistered(s, reg)


def _pm_table(in_path: str, out_plus: str, out_minus: str) -> dict:
    """Route |±⟩ = (H ± V)/√2 of in_path to out_plus / out_minus, in H/V form."""
    plus = [(0.5, out_plus, H), (0.5, out_plus, V)]
    return {
        (in_path, H): plus + [(0.5, out_minus, H), (-0.5, out_minus, V)],
        (in_path, V): plus + [(-0.5, out_minus, H), (0.5, out_minus, V)],
    }


def photon_bs(
    s: HybridState, pid: str, path_a: str, path_b: str, theta: float = math.pi / 4
) -> HybridState:
    """Beam splitter between two paths of one photon (default 50:50)."""
    c, sn = math.cos(theta), math.sin(theta)
    return _path_map(s, pid, path_a, path_b, ((c, sn), (sn, -c)))


def path_switch(s: HybridState, pid: str, path_a: str, path_b: str) -> HybridState:
    """Swap two path labels of one photon."""
    return _path_map(s, pid, path_a, path_b, ((0, 1), (1, 0)))


def pbs(s: HybridState, pid: str, in_path: str, out_h: str, out_v: str) -> HybridState:
    """Polarizing beam splitter: H → out_h, V → out_v."""
    _require_paths(s, pid, in_path)
    table = {(in_path, H): [(1, out_h, H)], (in_path, V): [(1, out_v, V)]}
    return _remap_slot(_with_paths(s, pid, out_h, out_v), pid, table)


def pbs_merge(s: HybridState, pid: str, h_path: str, v_path: str, out: str) -> HybridState:
    """Inverse PBS: H from h_path and V from v_path recombine on one path."""
    _require_paths(s, pid, h_path, v_path)
    digits = _slot_digits(s, pid)
    wrong = (s.registry._digit(pid, h_path, V), s.registry._digit(pid, v_path, H))
    for d in _distinct(digits[np.isin(digits, wrong)]):
        path, port = (h_path, "H") if d == wrong[0] else (v_path, "V")
        raise StateError(f"{POLS[d % 2]} component present on {port} input {path!r} of PBS merge")
    table = {(h_path, H): [(1, out, H)], (v_path, V): [(1, out, V)]}
    return _remap_slot(_with_paths(s, pid, out), pid, table)


def pbs_pm(s: HybridState, pid: str, in_path: str, out_plus: str, out_minus: str) -> HybridState:
    """PBS in the |±⟩ basis: |+⟩ → out_plus, |−⟩ → out_minus."""
    _require_paths(s, pid, in_path)
    s = _with_paths(s, pid, out_plus, out_minus)
    return _remap_slot(s, pid, _pm_table(in_path, out_plus, out_minus))


def pbs_pm_merge(
    s: HybridState, pid: str, plus_path: str, minus_path: str, out: str
) -> HybridState:
    """Second PBS± of a Mach-Zehnder: |+⟩ from the plus arm and |−⟩ from the
    minus arm exit on one path.  Amplitude that would leave through the dark
    port (|−⟩ on the plus arm or |+⟩ on the minus arm) is an error.
    """
    _require_paths(s, pid, plus_path, minus_path)
    s = _with_paths(s, pid, out)
    dark = s.registry.fresh_path("_dark")
    s = _with_paths(s, pid, dark)
    table = _pm_table(plus_path, out, dark) | _pm_table(minus_path, dark, out)
    mapped = _remap_slot(s, pid, table)
    dark_rows = _slot_digits(mapped, pid) >> 1 == mapped.registry.paths_of(pid).index(dark)
    leak = math.fsum((abs(mapped.amps[dark_rows]) ** 2).tolist())
    if leak > 1e-9:
        raise StateError(f"PBS± merge dark port carries weight {leak:.3e}")
    kept = ~dark_rows
    kept = HybridState._derived(
        mapped.registry, mapped.amps[kept], mapped.codes[kept], mapped.qubus[kept]
    )
    return _reregistered(kept, mapped.registry.without_path(pid, dark))


def wave_plate(s: HybridState, pid: str, path: str | None, kind: str) -> HybridState:
    """σx ("x": H↔V) or σz ("z": |V⟩ → −|V⟩) on one path (every path if None)."""
    if kind == "x":
        return _pol_map(s, pid, path, ((0, 1), (1, 0)))
    if kind == "z":
        return _pol_map(s, pid, path, ((1, 0), (0, -1)))
    raise ValueError(f"unknown wave plate kind {kind!r}")


def pol_rotate(s: HybridState, pid: str, path: str | None, theta: float) -> HybridState:
    """Polarization rotation: H → cosθ H + sinθ V, V → −sinθ H + cosθ V."""
    c, sn = math.cos(theta), math.sin(theta)
    return _pol_map(s, pid, path, ((c, -sn), (sn, c)))


def pol_unitary(s: HybridState, pid: str, path: str | None, u: np.ndarray) -> HybridState:
    """Arbitrary 2×2 unitary on (H, V) of one path (every path if None).

    Phase-exact: when the unitary acts on one rail of a superposition, its
    "global" phase is relative.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
        raise ValueError("pol_unitary needs a 2x2 unitary")
    return _pol_map(s, pid, path, [[complex(x) for x in row] for row in u])


def phase(s: HybridState, pid: str, path: str | None, pol: str | None, phi: float) -> HybridState:
    """Phase e^{iφ} on one (path, pol) slot of a photon; None selects every
    path or both polarizations (pol=None phases a whole path)."""
    if path is not None:
        _require_paths(s, pid, path)
    if pol is not None and pol not in POLS:
        raise StateError(f"bad polarization {pol!r}")
    w = cmath.exp(1j * phi)
    paths = s.registry.paths_of(pid) if path is None else (path,)
    pols = POLS if pol is None else (pol,)
    return _remap_slot(s, pid, {(p, q): [(w, p, q)] for p in paths for q in pols})


# ---------------------------------------------------------------------------
# qubus elements
# ---------------------------------------------------------------------------


def xpm(
    s: HybridState, qubus_mode: str, pid: str, path: str, pol: str | None, theta: float
) -> HybridState:
    """Conditional cross-phase: the beam gains e^{iθ} when the slot is occupied.

    pol=None couples every polarization on the path (two photonic modes).
    """
    idx = s.registry.qubus_index(qubus_mode)
    paths = s.registry.paths_of(pid)
    k = paths.index(path) if path in paths else -1
    digits = _slot_digits(s, pid)
    hit = digits >> 1 == k if pol is None else digits == 2 * k + POLS.index(pol)
    qubus = s.qubus.copy()
    np.multiply(qubus[:, idx], cmath.exp(1j * theta), out=qubus[:, idx], where=hit)
    return HybridState._sorted(s.registry, s.amps, s.codes, qubus)


def qubus_phase(s: HybridState, mode: str, phi: float) -> HybridState:
    """Unconditional phase shifter on a qubus beam: α → α e^{iφ}."""
    qubus = s.qubus.copy()
    qubus[:, s.registry.qubus_index(mode)] *= cmath.exp(1j * phi)
    return HybridState._sorted(s.registry, s.amps, s.codes, qubus)


def qubus_bs(s: HybridState, mode_a: str, mode_b: str) -> HybridState:
    """50:50 qubus beam splitter: (α₁, α₂) → ((α₁−α₂)/√2, (α₁+α₂)/√2)."""
    ia, ib = s.registry.qubus_index(mode_a), s.registry.qubus_index(mode_b)
    r = 1 / math.sqrt(2)
    qubus = s.qubus.copy()
    a1, a2 = s.qubus[:, ia], s.qubus[:, ib]
    qubus[:, ia], qubus[:, ib] = (a1 - a2) * r, (a1 + a2) * r
    return HybridState._rows(s.registry, s.amps, s.codes, qubus).canonical()


# ---------------------------------------------------------------------------
# ElementOp dispatcher
# ---------------------------------------------------------------------------


#: kind -> (the ElementOp target keys it reads, in call order, and the call
#: on the state, those targets and the parameter).  Functions are looked up at
#: call time, so rebinding a module attribute reaches apply_element too.
ELEMENTS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "PhotonBS": (("photon", "path_a", "path_b"),
                 lambda s, pid, a, b, x: photon_bs(s, pid, a, b, x or math.pi / 4)),
    "PBS": (("photon", "in_path", "out_h", "out_v"),
            lambda s, pid, i, h, v, x: pbs(s, pid, i, h, v)),
    "PBSpm": (("photon", "in_path", "out_plus", "out_minus"),
              lambda s, pid, i, p, m, x: pbs_pm(s, pid, i, p, m)),
    "WavePlateX": (("photon", "path"), lambda s, pid, path, x: wave_plate(s, pid, path, "x")),
    "WavePlateZ": (("photon", "path"), lambda s, pid, path, x: wave_plate(s, pid, path, "z")),
    "PolPhase": (("photon", "path", "pol"), lambda s, *a: phase(s, *a)),
    "PolRot": (("photon", "path"), lambda s, *a: pol_rotate(s, *a)),
    "PathSwitch": (("photon", "path_a", "path_b"),
                   lambda s, pid, a, b, x: path_switch(s, pid, a, b)),
    "XPM": (("mode", "photon", "path", "pol"), lambda s, *a: xpm(s, *a)),
    "QubusPhase": (("mode",), lambda s, *a: qubus_phase(s, *a)),
    "QubusBS": (("mode_a", "mode_b"), lambda s, a, b, x: qubus_bs(s, a, b)),
}
ELEMENT_KINDS = tuple(ELEMENTS)


def apply_element(s: HybridState, e: ElementOp) -> HybridState:
    """Execute one serializable element; used by feed-forward and meshes."""
    keys, call = ELEMENTS[e.kind]
    return call(s, *map(e.target, keys), e.parameter)


def apply_elements(s: HybridState, ops: Sequence[ElementOp]) -> HybridState:
    for e in ops:
        s = apply_element(s, e)
    return s
