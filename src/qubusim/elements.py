"""Primitive unitary elements on hybrid states.

Photonic linear optics (beam splitters, PBS, wave plates, path relabels),
qubus linear optics (phase shifters, the 50:50 qubus beam splitter) and the
cross-phase-modulation coupling that writes a conditional e^{iθ} onto a
coherent beam.

Every photonic element is a slot table: a dict from one photon's
(path, pol) slot to its images [(coefficient, path, pol), ...].  Slots
missing from the table pass through unchanged.  Path maps (beam splitter,
switch) act alike on H and V; polarization maps (wave plates, rotations,
2×2 unitaries) act on (H, V) of one path, or of every registered path when
the path is None; `phase` and the PBS routings are tables of their own.
Qubus elements are column operations on the beam values.  `ELEMENTS` maps
each serializable kind to its function.

There is one compiled path for every slot table.  A table builder and its
arguments key the table's images, compiled once per (path layout, photon,
table) by `_images` into arrays of coefficients and destination digits over
every digit (`_slot_images`); `_apply_images` is the one routine that
applies them, by arithmetic on every row's label code.  An image the
registry refuses is raised only when an occupied slot emits it, as if the
table were built for the occupied slots alone.  An element call looks its
images up; a repeated call on one layout compiles nothing.

`apply_elements` runs a sequence of ElementOps.  Each maximal run of the
slot-map kinds (PhotonBS, PathSwitch, PolPhase, PolRot, WavePlateX,
WavePlateZ) is composed once per path layout into one digit map per photon
it touches, and each map is applied in one gather pass; the other kinds run
one by one in their place.  Feed-forward rows and Reck meshes run this way.

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
import functools
import itertools
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
    ModeRegistry,
    RegistryError,
    StateError,
    _distinct,
    _reregistered,
    _slot_digits,
)
from .registry import _require_paths


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


def _slot_images(reg: ModeRegistry, pid: str, table: dict) -> tuple[np.ndarray, np.ndarray, dict]:
    """(coef, dest, bad): coef and dest, shape (width, radix) each, hold in
    row k the k-th image of every digit of photon pid under
    table[(path, pol)] -> [(coef, path, pol), ...], as a coefficient and a
    destination digit.

    Slots missing from the table map to themselves.  Images with coefficient
    0 are left out, the rest packed first, so a digit with fewer images than
    the widest has coefficient 0 in its last rows.  An image the registry
    refuses is not raised here: bad maps its digit to the (error type,
    message) of its first such image, for `_apply_images` to raise when an
    occupied slot emits it, and the digit gets no images.
    """
    paths, radix = reg.paths_of(pid), reg._radix[reg.slot_index(pid)]
    images, bad = [], {}
    for d in range(radix):
        slot = (paths[d >> 1], POLS[d & 1])
        row = []
        for c, p, q in table.get(slot, [(1, *slot)]):
            if c:
                try:
                    row.append((c, reg._digit(pid, p, q)))
                except (RegistryError, StateError) as exc:
                    bad[d], row = (type(exc), str(exc)), []
                    break
        images.append(row)
    width = max(map(len, images), default=0)
    coef, dest = np.zeros((width, radix), complex), np.zeros((width, radix), np.int64)
    for d, row in enumerate(images):
        if row:
            coef[: len(row), d], dest[: len(row), d] = zip(*row)
    return coef, dest, bad


@functools.lru_cache(maxsize=512)
def _images(reg: ModeRegistry, pid: str, build: Callable, args: tuple) -> tuple:
    """The slot table build(reg, pid, *args) of photon pid compiled once per
    (registry, photon, table): (slot index, coef, dest, bad) in
    `_slot_images`' layout, over every digit, read-only.

    Building the table runs its checks (registered paths, a known
    polarization); a call that raises caches nothing, so it raises again.
    """
    coef, dest, bad = _slot_images(reg, pid, build(reg, pid, *args))
    coef.setflags(write=False)
    dest.setflags(write=False)
    return reg.slot_index(pid), coef, dest, bad


def _apply_images(
    s: HybridState, i: int, coef: np.ndarray, dest: np.ndarray, bad: dict | None = None
) -> HybridState:
    """Expand each row of s through the images (coef, dest) of its digit in
    slot i, as `_slot_images` lays them out; an occupied digit in bad raises
    its error, the first such digit first.

    The digit is rewritten by integer arithmetic on the label code: the k-th
    images of all rows come from row k of coef and dest, one gather each.
    Images that give the occupied digits one image each, all distinct, merge
    no rows: the result is re-sorted, and neither merged nor cleared of dust.
    Any other images are canonicalized.
    """
    reg = s.registry
    stride, radix = reg._stride[i], reg._radix[i]
    digits = s.codes // stride % radix
    for d in _distinct(digits) if bad else ():
        if d in bad:
            kind, message = bad[d]
            raise kind(message)
    if coef.all():  # every digit has len(coef) images
        occupied, width, full = slice(None), len(coef), True
    else:
        occupied = _distinct(digits)
        counts = (coef[:, occupied] != 0).sum(0)
        width = int(counts.max(initial=0))
        full = bool((counts == width).all())
    amps, codes, emitted = [], [], []
    for k in range(width):
        c = coef[k][digits]
        amps.append(s.amps * c)
        codes.append(s.codes + (dest[k][digits] - digits) * stride)
        emitted.append(None if full else c != 0)
    if width == 1:
        amps, codes, qubus = amps[0], codes[0], s.qubus
    else:
        amps, codes = np.concatenate(amps or [s.amps[:0]]), np.concatenate(codes or [s.codes[:0]])
        qubus = np.concatenate([s.qubus] * width or [s.qubus[:0]])
    if not full:
        keep = np.concatenate(emitted).nonzero()[0]
        amps, codes, qubus = amps[keep], codes[keep], qubus.take(keep, 0)
    if width == 1:
        # one-to-one on the occupied digits; a full map is tried on every digit first
        targets = dest[0, occupied][coef[0, occupied] != 0]
        one_to_one = len(_distinct(targets)) == len(targets)
        if not one_to_one and occupied == slice(None):
            targets = dest[0, _distinct(digits)]
            one_to_one = len(_distinct(targets)) == len(targets)
        if one_to_one:
            # rows that share a code after a one-to-one map shared one before it,
            # in canonical order: a stable sort by code restores canonical order
            order = codes.argsort(kind="stable")
            return HybridState._derived(reg, amps[order], codes[order], qubus.take(order, 0))
    return HybridState._rows(reg, amps, codes, qubus).canonical()


def _remap(s: HybridState, pid: str, build: Callable, *args) -> HybridState:
    """Expand each row of s through photon pid's slot table build(reg, pid,
    *args), compiled once per layout (`_images`).  Slots missing from the
    table pass through unchanged; an image is checked against the registry
    when an occupied slot emits it."""
    return _apply_images(s, *_images(s.registry, pid, build, args))


def _path_table(reg: ModeRegistry, pid: str, path_a: str, path_b: str, m) -> dict:
    """2×2 map m on the amplitudes of (path_a, path_b), alike for H and V;
    the two paths must differ."""
    _require_paths(reg, pid, path_a, path_b)
    if path_a == path_b:
        raise RegistryError(f"path {path_a!r} named twice for photon {pid!r}")
    table = {}
    for pol in POLS:
        table[path_a, pol] = [(m[0][0], path_a, pol), (m[1][0], path_b, pol)]
        table[path_b, pol] = [(m[0][1], path_a, pol), (m[1][1], path_b, pol)]
    return table


def _pol_table(reg: ModeRegistry, pid: str, path: str | None, m) -> dict:
    """2×2 map m on the (H, V) amplitudes of one path (every path if None)."""
    if path is not None:
        _require_paths(reg, pid, path)
    table = {}
    for p in reg.paths_of(pid) if path is None else (path,):
        table[p, H] = [(m[0][0], p, H), (m[1][0], p, V)]
        table[p, V] = [(m[0][1], p, H), (m[1][1], p, V)]
    return table


def _bs_table(reg: ModeRegistry, pid: str, path_a: str, path_b: str, theta: float) -> dict:
    c, sn = math.cos(theta), math.sin(theta)
    return _path_table(reg, pid, path_a, path_b, ((c, sn), (sn, -c)))


def _switch_table(reg: ModeRegistry, pid: str, path_a: str, path_b: str) -> dict:
    return _path_table(reg, pid, path_a, path_b, ((0, 1), (1, 0)))


def _wave_plate_table(reg: ModeRegistry, pid: str, path: str | None, kind: str) -> dict:
    if kind == "x":
        return _pol_table(reg, pid, path, ((0, 1), (1, 0)))
    if kind == "z":
        return _pol_table(reg, pid, path, ((1, 0), (0, -1)))
    raise ValueError(f"unknown wave plate kind {kind!r}")


def _rotation_table(reg: ModeRegistry, pid: str, path: str | None, theta: float) -> dict:
    c, sn = math.cos(theta), math.sin(theta)
    return _pol_table(reg, pid, path, ((c, -sn), (sn, c)))


def _phase_table(
    reg: ModeRegistry, pid: str, path: str | None, pol: str | None, phi: float
) -> dict:
    if path is not None:
        _require_paths(reg, pid, path)
    if pol is not None and pol not in POLS:
        raise StateError(f"bad polarization {pol!r}")
    w = cmath.exp(1j * phi)
    paths = reg.paths_of(pid) if path is None else (path,)
    pols = POLS if pol is None else (pol,)
    return {(p, q): [(w, p, q)] for p in paths for q in pols}


def _with_paths(s: HybridState, pid: str, *paths: str) -> HybridState:
    """s with those of paths not yet registered for pid added to it."""
    reg = s.registry
    for p in paths:
        if p not in reg.paths_of(pid):
            reg = reg.with_path(pid, p)
    return _reregistered(s, reg)


def _route_table(reg: ModeRegistry, pid: str, routes: tuple) -> dict:
    """Slot (path, pol) to (out, out_pol) for each (path, pol, out, out_pol) of routes."""
    return {(path, pol): [(1, out, out_pol)] for path, pol, out, out_pol in routes}


def _pm_table(reg: ModeRegistry, pid: str, in_paths: tuple, arms: tuple) -> dict:
    """Route |±⟩ = (H ± V)/√2 of in_paths[k] to arms[2k] / arms[2k + 1], in H/V form."""
    table = {}
    for path, plus, minus in zip(in_paths, arms[::2], arms[1::2]):
        both = [(0.5, plus, H), (0.5, plus, V)]
        table[path, H] = both + [(0.5, minus, H), (-0.5, minus, V)]
        table[path, V] = both + [(-0.5, minus, H), (0.5, minus, V)]
    return table


def _unitary_table(reg: ModeRegistry, pid: str, path: str | None, raw: bytes) -> dict:
    """pol_unitary's table; the 2×2 unitary comes as its bytes, so unitaries
    that compare equal but differ in the sign of a zero keep their own."""
    return _pol_table(reg, pid, path, np.frombuffer(raw, complex).reshape(2, 2).tolist())


def photon_bs(
    s: HybridState, pid: str, path_a: str, path_b: str, theta: float = math.pi / 4
) -> HybridState:
    """Beam splitter between two paths of one photon (default 50:50)."""
    return _remap(s, pid, _bs_table, path_a, path_b, theta)


def path_switch(s: HybridState, pid: str, path_a: str, path_b: str) -> HybridState:
    """Swap two path labels of one photon."""
    return _remap(s, pid, _switch_table, path_a, path_b)


def pbs(s: HybridState, pid: str, in_path: str, out_h: str, out_v: str) -> HybridState:
    """Polarizing beam splitter: H → out_h, V → out_v."""
    _require_paths(s.registry, pid, in_path)
    s = _with_paths(s, pid, out_h, out_v)
    return _remap(s, pid, _route_table, ((in_path, H, out_h, H), (in_path, V, out_v, V)))


def pbs_pm(s: HybridState, pid: str, in_path: str, out_plus: str, out_minus: str) -> HybridState:
    """PBS in the |±⟩ basis: |+⟩ → out_plus, |−⟩ → out_minus."""
    _require_paths(s.registry, pid, in_path)
    s = _with_paths(s, pid, out_plus, out_minus)
    return _remap(s, pid, _pm_table, (in_path,), (out_plus, out_minus))


def pbs_pm_fan_out(
    s: HybridState, pid: str, in_paths: Sequence[str], arms: Sequence[str]
) -> HybridState:
    """pbs_pm on every path of in_paths in one pass: |+⟩ of in_paths[k]
    exits on arms[2k] and |−⟩ on arms[2k + 1]; arms not yet registered are
    registered in one update."""
    _require_paths(s.registry, pid, *in_paths)
    s = _with_paths(s, pid, *arms)
    return _remap(s, pid, _pm_table, tuple(in_paths), tuple(arms))


def pbs_pm_merge(
    s: HybridState, pid: str, plus_path: str, minus_path: str, out: str
) -> HybridState:
    """Second PBS± of a Mach-Zehnder: |+⟩ from the plus arm and |−⟩ from the
    minus arm exit on one path.  Amplitude that would leave through the dark
    port (|−⟩ on the plus arm or |+⟩ on the minus arm) is an error.
    """
    _require_paths(s.registry, pid, plus_path, minus_path)
    s = _with_paths(s, pid, out)
    dark = s.registry.fresh_path("_dark")
    s = _with_paths(s, pid, dark)
    mapped = _remap(s, pid, _pm_table, (plus_path, minus_path), (out, dark, dark, out))
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
    return _remap(s, pid, _wave_plate_table, path, kind)


def pol_rotate(s: HybridState, pid: str, path: str | None, theta: float) -> HybridState:
    """Polarization rotation: H → cosθ H + sinθ V, V → −sinθ H + cosθ V."""
    return _remap(s, pid, _rotation_table, path, theta)


def pol_unitary(s: HybridState, pid: str, path: str | None, u: np.ndarray) -> HybridState:
    """Arbitrary 2×2 unitary on (H, V) of one path (every path if None).

    Phase-exact: when the unitary acts on one rail of a superposition, its
    "global" phase is relative.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
        raise ValueError("pol_unitary needs a 2x2 unitary")
    return _remap(s, pid, _unitary_table, path, u.tobytes())


def phase(s: HybridState, pid: str, path: str | None, pol: str | None, phi: float) -> HybridState:
    """Phase e^{iφ} on one (path, pol) slot of a photon; None selects every
    path or both polarizations (pol=None phases a whole path)."""
    return _remap(s, pid, _phase_table, path, pol, phi)


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
    _require_paths(s.registry, pid, path)
    if pol is not None and pol not in POLS:
        raise StateError(f"bad polarization {pol!r}")
    k = s.registry.paths_of(pid).index(path)
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
    """Execute one serializable element through its function in ELEMENTS."""
    keys, call = ELEMENTS[e.kind]
    return call(s, *map(e.target, keys), e.parameter)


#: the kinds that only remap one photon's slots: kind -> its slot table over
#: a registry, from the targets and parameter that ELEMENTS reads
_SLOT_TABLES: dict[str, Callable] = {
    "PhotonBS": lambda reg, pid, a, b, x: _bs_table(reg, pid, a, b, x or math.pi / 4),
    "PathSwitch": lambda reg, pid, a, b, x: _switch_table(reg, pid, a, b),
    "WavePlateX": lambda reg, pid, path, x: _wave_plate_table(reg, pid, path, "x"),
    "WavePlateZ": lambda reg, pid, path, x: _wave_plate_table(reg, pid, path, "z"),
    "PolPhase": _phase_table,
    "PolRot": _rotation_table,
}


@functools.lru_cache(maxsize=512)
def _compiled(reg: ModeRegistry, run: tuple[ElementOp, ...]) -> tuple:
    """A run of slot-map elements as one digit map per photon it touches:
    (slot index, coef, dest) in `_slot_images`' layout, over every digit.

    Each op's images come from `_images`, over the table its element
    function builds, which checks every path and polarization it names, so
    no image is refused.  Maps on different photons commute; the maps on one photon
    compose in order, as radix × radix matrices.  A run meets the same few
    layouts over and over, so each (registry, run) is compiled once.
    """
    maps: dict[int, list] = {}
    for e in run:
        pid, *args = map(e.target, ELEMENTS[e.kind][0])
        i, coef, dest, _ = _images(reg, pid, _SLOT_TABLES[e.kind], (*args, e.parameter))
        maps.setdefault(i, []).append((coef, dest))
    compiled = []
    for i, images in maps.items():
        coef, dest = images[0] if len(images) == 1 else _composed(images, reg._radix[i])
        coef.setflags(write=False)
        dest.setflags(write=False)
        compiled.append((i, coef, dest))
    return tuple(compiled)


def _composed(images: list, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """The images (coef, dest) of one photon's maps applied in order, as
    `_slot_images` lays them out: their radix × radix matrices multiplied."""
    m = np.eye(radix, dtype=complex)
    for coef, dest in images:
        step = np.zeros((radix, radix), complex)
        np.add.at(step, (dest, np.broadcast_to(np.arange(radix), dest.shape)), coef)
        m = step @ m
    nonzero = m != 0
    dest = np.argsort(~nonzero, axis=0, kind="stable")[: nonzero.sum(0).max()]
    return np.take_along_axis(m, dest, 0), dest


def apply_elements(s: HybridState, ops: Sequence[ElementOp]) -> HybridState:
    """Execute elements in order.  Each maximal run of slot-map kinds
    (`_SLOT_TABLES`) applies as its compiled digit maps, one gather pass per
    photon; every other element goes through apply_element in its place."""
    for slot_maps, group in itertools.groupby(ops, lambda e: e.kind in _SLOT_TABLES):
        if slot_maps:
            for i, coef, dest in _compiled(s.registry, tuple(group)):
                s = _apply_images(s, i, coef, dest)
        else:
            for e in group:
                s = apply_element(s, e)
    return s
