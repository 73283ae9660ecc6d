"""Hybrid discrete/continuous states: photonic labels tensored with coherent beams.

A state is a superposition of branches.  Each branch carries a complex
amplitude, a definite (path, polarization) slot for every registered photon,
and one complex coherent amplitude per registered qubus mode.  Coherent
amplitudes are never Fock-expanded inside the state; all overlaps use the
closed form ⟨α|β⟩ = exp(−|α|²/2 − |β|²/2 + conj(α)·β), which stays exact at
|α|² ~ 10³–10⁴ where truncation is impossible.

Polarization is stored in the H/V basis; |±⟩ = (|H⟩ ± |V⟩)/√2 is a derived
view.  Path and mode names are symbolic strings resolved through a
ModeRegistry, so pipeline stages can mint new paths (1', 2', ...) on the fly.

States are immutable values: every operation returns a new state, and states
are safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

H = "H"
V = "V"
POLS = (H, V)

#: default tolerance for merging/dropping branches in canonicalize()
CANON_TOL = 1e-12


class RegistryError(ValueError):
    """Raised for unknown or colliding photons, paths and qubus modes."""


class StateError(ValueError):
    """Raised for ill-formed states (normalization, id collisions, ...)."""


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeRegistry:
    """Declares photons with their admissible paths, plus the qubus modes.

    Path sets are disjoint across photons; ids are unique.  All update
    methods return a new registry.
    """

    photon_paths: tuple[tuple[str, tuple[str, ...]], ...] = ()
    qubus_modes: tuple[str, ...] = ()

    def __post_init__(self):
        seen_photons = set()
        seen_paths = set()
        for pid, paths in self.photon_paths:
            if pid in seen_photons:
                raise RegistryError(f"duplicate photon id {pid!r}")
            seen_photons.add(pid)
            for p in paths:
                if p in seen_paths:
                    raise RegistryError(f"path {p!r} registered for two photons")
                seen_paths.add(p)
        if len(set(self.qubus_modes)) != len(self.qubus_modes):
            raise RegistryError("duplicate qubus mode id")

    # -- queries ------------------------------------------------------------

    @property
    def photons(self) -> tuple[str, ...]:
        return tuple(pid for pid, _ in self.photon_paths)

    def paths_of(self, pid: str) -> tuple[str, ...]:
        for q, paths in self.photon_paths:
            if q == pid:
                return paths
        raise RegistryError(f"unknown photon {pid!r}")

    def has_photon(self, pid: str) -> bool:
        return any(q == pid for q, _ in self.photon_paths)

    def qubus_index(self, mode: str) -> int:
        try:
            return self.qubus_modes.index(mode)
        except ValueError:
            raise RegistryError(f"unknown qubus mode {mode!r}") from None

    # -- updates ------------------------------------------------------------

    def with_photon(self, pid: str, paths: Sequence[str]) -> "ModeRegistry":
        return ModeRegistry(self.photon_paths + ((pid, tuple(paths)),), self.qubus_modes)

    def without_photon(self, pid: str) -> "ModeRegistry":
        self.paths_of(pid)
        return ModeRegistry(
            tuple((q, p) for q, p in self.photon_paths if q != pid), self.qubus_modes
        )

    def with_path(self, pid: str, path: str) -> "ModeRegistry":
        """Register an extra admissible path for an existing photon."""
        out = []
        found = False
        for q, paths in self.photon_paths:
            if q == pid:
                found = True
                if path in paths:
                    raise RegistryError(f"path {path!r} already registered for {pid!r}")
                paths = paths + (path,)
            out.append((q, paths))
        if not found:
            raise RegistryError(f"unknown photon {pid!r}")
        return ModeRegistry(tuple(out), self.qubus_modes)

    def without_path(self, pid: str, path: str) -> "ModeRegistry":
        out = []
        for q, paths in self.photon_paths:
            if q == pid:
                if path not in paths:
                    raise RegistryError(f"path {path!r} not registered for {pid!r}")
                paths = tuple(p for p in paths if p != path)
            out.append((q, paths))
        return ModeRegistry(tuple(out), self.qubus_modes)

    def with_qubus(self, mode: str) -> "ModeRegistry":
        if mode in self.qubus_modes:
            raise RegistryError(f"duplicate qubus mode {mode!r}")
        return ModeRegistry(self.photon_paths, self.qubus_modes + (mode,))

    def without_qubus(self, mode: str) -> "ModeRegistry":
        self.qubus_index(mode)
        return ModeRegistry(
            self.photon_paths, tuple(m for m in self.qubus_modes if m != mode)
        )

    def fresh_path(self, hint: str) -> str:
        """A path name based on `hint` that collides with nothing registered."""
        taken = {p for _, paths in self.photon_paths for p in paths}
        name = hint
        k = 1
        while name in taken:
            k += 1
            name = f"{hint}{k}"
        return name

    def fresh_qubus(self, hint: str = "q") -> str:
        name = hint
        k = 1
        while name in self.qubus_modes:
            k += 1
            name = f"{hint}{k}"
        return name

    def fresh_photon(self, hint: str = "anc") -> str:
        name = hint
        k = 1
        while self.has_photon(name):
            k += 1
            name = f"{hint}{k}"
        return name

    def merged(self, other: "ModeRegistry") -> "ModeRegistry":
        reg = self
        for pid, paths in other.photon_paths:
            reg = reg.with_photon(pid, paths)
        for mode in other.qubus_modes:
            reg = reg.with_qubus(mode)
        return reg


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------

#: one photon occupation inside a branch: (photon id, path, polarization)
Slot = tuple[str, str, str]


@dataclass(frozen=True)
class Branch:
    """One term of the superposition: amplitude × photon labels × qubus values."""

    amplitude: complex
    photons: tuple[Slot, ...]
    qubus: tuple[complex, ...]

    def slot(self, pid: str) -> tuple[str, str]:
        for q, path, pol in self.photons:
            if q == pid:
                return path, pol
        raise StateError(f"photon {pid!r} missing from branch")


def _sorted_slots(slots: Iterable[Slot]) -> tuple[Slot, ...]:
    return tuple(sorted(slots, key=lambda s: s[0]))


def coherent_overlap(a: Sequence[complex], b: Sequence[complex]) -> complex:
    """⟨a|b⟩ for products of coherent states, mode by mode.

    Exact: exp(Σ_i −|a_i|²/2 − |b_i|²/2 + conj(a_i)·b_i).  The real part of
    the exponent is −Σ|a_i − b_i|²/2 ≤ 0, so this never overflows.
    """
    z = 0.0 + 0.0j
    for ai, bi in zip(a, b):
        z += -0.5 * (ai.real**2 + ai.imag**2) - 0.5 * (bi.real**2 + bi.imag**2)
        z += ai.conjugate() * bi
    return cmath.exp(z)


class HybridState:
    """Normalized superposition of branches over a shared ModeRegistry."""

    __slots__ = ("registry", "branches")

    def __init__(self, registry: ModeRegistry, branches: Iterable[Branch]):
        self.registry = registry
        self.branches = tuple(branches)
        nq = len(registry.qubus_modes)
        paths = dict(registry.photon_paths)
        pids = sorted(paths)
        # equal label tuples get equal verdicts, so each distinct one is checked once
        checked: set[tuple[Slot, ...]] = set()
        for br in self.branches:
            if len(br.qubus) != nq:
                raise StateError("branch qubus length != number of registered modes")
            if br.photons in checked:
                continue
            if sorted(s[0] for s in br.photons) != pids:
                raise StateError("branch photon ids do not match registry")
            for pid, path, pol in br.photons:
                if pol not in POLS:
                    raise StateError(f"bad polarization {pol!r}")
                if path not in paths[pid]:
                    raise RegistryError(f"path {path!r} not registered for {pid!r}")
            checked.add(br.photons)

    # -- algebra -------------------------------------------------------------

    def canonical(self, tol: float = CANON_TOL) -> "HybridState":
        return canonicalize(self, tol)

    def norm(self) -> float:
        return norm(self)

    def normalized(self) -> "HybridState":
        return normalize(self)

    def scaled(self, factor: complex) -> "HybridState":
        return HybridState(
            self.registry,
            [Branch(br.amplitude * factor, br.photons, br.qubus) for br in self.branches],
        )

    def __matmul__(self, other: "HybridState") -> "HybridState":
        return tensor(self, other)

    def photon_paths_in_use(self, pid: str) -> tuple[str, ...]:
        """Paths the photon actually occupies somewhere in the superposition."""
        seen: dict[str, None] = {}
        for br in self.branches:
            seen.setdefault(br.slot(pid)[0], None)
        return tuple(seen)

    def __repr__(self):
        return f"HybridState({len(self.branches)} branches, photons={self.registry.photons})"


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------


def _gram_sum(bras: Sequence[Branch], kets: Sequence[Branch]) -> complex:
    """Σ conj(amp_a) amp_b ⟨labels_a|labels_b⟩⟨qubus_a|qubus_b⟩, grouped by labels."""
    by_label: dict[tuple[Slot, ...], list[Branch]] = {}
    for br in bras:
        by_label.setdefault(br.photons, []).append(br)
    total = 0.0 + 0.0j
    for kb in kets:
        for bb in by_label.get(kb.photons, ()):
            total += bb.amplitude.conjugate() * kb.amplitude * coherent_overlap(
                bb.qubus, kb.qubus
            )
    return total


def inner_product(a: HybridState, b: HybridState) -> complex:
    """⟨a|b⟩, sesquilinear; coherent branches are non-orthogonal.

    The registries must carry the same photons and the same qubus mode order;
    admissible-path sets may differ (gates register transient rails).
    """
    if set(a.registry.photons) != set(b.registry.photons) or (
        a.registry.qubus_modes != b.registry.qubus_modes
    ):
        raise RegistryError("inner_product requires matching photons and qubus modes")
    return _gram_sum(a.branches, b.branches)


def norm(s: HybridState) -> float:
    n2 = _gram_sum(s.branches, s.branches).real
    return math.sqrt(max(n2, 0.0))


def normalize(s: HybridState) -> HybridState:
    n = norm(s)
    if n < 1e-300:
        raise StateError("cannot normalize a (numerically) zero state")
    return s.scaled(1.0 / n)


def fidelity(a: HybridState, b: HybridState) -> float:
    """|⟨a|b⟩|² for normalized states; invariant under global phases."""
    for name, st in (("a", a), ("b", b)):
        if abs(norm(st) - 1.0) > 1e-8:
            raise StateError(f"fidelity: state {name} is not normalized")
    return min(abs(inner_product(a, b)) ** 2, 1.0)


def canonicalize(s: HybridState, tol: float = CANON_TOL) -> HybridState:
    """Merge branches with equal labels and qubus values within tol; drop dust.

    XPM phase factors of identical branches are computed identically, so the
    tolerance only has to absorb rounding from beam-splitter arithmetic.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    groups: dict[tuple[Slot, ...], list[list]] = {}
    for br in s.branches:
        bucket = groups.setdefault(br.photons, [])
        for entry in bucket:
            qs = entry[1]
            if all(abs(x - y) <= tol for x, y in zip(qs, br.qubus)):
                entry[0] += br.amplitude
                break
        else:
            bucket.append([br.amplitude, br.qubus])
    out = []
    for photons, bucket in groups.items():
        for amp, qs in bucket:
            if abs(amp) >= tol:
                out.append(Branch(amp, photons, qs))
    return HybridState(s.registry, out)


def tensor(a: HybridState, b: HybridState) -> HybridState:
    """Product state; photon ids and qubus modes must not collide."""
    reg = a.registry.merged(b.registry)
    branches = [
        Branch(x.amplitude * y.amplitude, _sorted_slots(x.photons + y.photons), x.qubus + y.qubus)
        for x in a.branches
        for y in b.branches
    ]
    return HybridState(reg, branches)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def basis_photon(pid: str, path: str, pol: str) -> HybridState:
    reg = ModeRegistry().with_photon(pid, (path,))
    return HybridState(reg, [Branch(1.0 + 0.0j, ((pid, path, pol),), ())])


def pol_qubit(pid: str, path: str, h: complex, v: complex) -> HybridState:
    """Single polarization qubit h|H⟩ + v|V⟩ on one path, normalized."""
    reg = ModeRegistry().with_photon(pid, (path,))
    branches = []
    if h != 0:
        branches.append(Branch(complex(h), ((pid, path, H),), ()))
    if v != 0:
        branches.append(Branch(complex(v), ((pid, path, V),), ()))
    return normalize(HybridState(reg, branches))


def plus_photon(pid: str, path: str) -> HybridState:
    return pol_qubit(pid, path, 1.0, 1.0)


def polarization_state(
    coeffs: Sequence[complex], photons: Sequence[tuple[str, str]]
) -> HybridState:
    """n-photon polarization state from 2ⁿ coefficients.

    Ordering is lexicographic with H < V and the first listed photon most
    significant.
    """
    n = len(photons)
    if len(coeffs) != 2**n:
        raise StateError(f"need {2**n} coefficients for {n} photons")
    reg = ModeRegistry()
    for pid, path in photons:
        reg = reg.with_photon(pid, (path,))
    branches = []
    for idx, c in enumerate(coeffs):
        if c == 0:
            continue
        slots = []
        for i, (pid, path) in enumerate(photons):
            bit = (idx >> (n - 1 - i)) & 1
            slots.append((pid, path, V if bit else H))
        branches.append(Branch(complex(c), _sorted_slots(slots), ()))
    return normalize(HybridState(reg, branches))


def bell_state(kind: str, a: tuple[str, str], b: tuple[str, str]) -> HybridState:
    """One of |Φ±⟩, |Ψ±⟩ on two photons given as (id, path)."""
    r = 1 / math.sqrt(2)
    table = {
        "phi+": (r, 0, 0, r),
        "phi-": (r, 0, 0, -r),
        "psi+": (0, r, r, 0),
        "psi-": (0, r, -r, 0),
    }
    if kind not in table:
        raise ValueError(f"unknown Bell state {kind!r}")
    return polarization_state(table[kind], [a, b])


def attach_qubus(s: HybridState, mode: str, alpha: complex) -> HybridState:
    """Adjoin a fresh qubus mode in the coherent state |alpha⟩ to every branch."""
    reg = s.registry.with_qubus(mode)
    return HybridState(
        reg,
        [Branch(br.amplitude, br.photons, br.qubus + (complex(alpha),)) for br in s.branches],
    )


def haar_coeffs(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_polarization_state(n: int, seed: int) -> HybridState:
    """Haar-random state of photons "1".."n" on paths t1..tn (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    photons = [(str(i + 1), f"t{i + 1}") for i in range(n)]
    return polarization_state(haar_coeffs(2**n, rng), photons)


# ---------------------------------------------------------------------------
# label surgery and extraction
# ---------------------------------------------------------------------------


def remove_photon(s: HybridState, pid: str) -> HybridState:
    """Drop a photon that is in a product state with the rest; else error.

    Slots with norm below 1e-9 are ignored; the others must agree to 1e-9.
    """
    tol = 1e-9
    groups: dict[tuple[str, str], list[Branch]] = {}
    for br in s.branches:
        slot = br.slot(pid)
        rest = tuple(t for t in br.photons if t[0] != pid)
        groups.setdefault(slot, []).append(Branch(br.amplitude, rest, br.qubus))
    reg = s.registry.without_photon(pid)
    parts = []
    for slot, rest_branches in groups.items():
        part = HybridState(reg, rest_branches)
        parts.append((slot, part, norm(part)))
    ref = max(parts, key=lambda t: t[2])[1].normalized()
    total = 0.0
    for _, part, w in parts:
        if w < tol:
            continue
        if abs(abs(inner_product(ref, part.normalized())) - 1.0) > tol:
            raise StateError(f"photon {pid!r} is entangled with the rest; cannot remove")
        total += w**2
    return ref.scaled(math.sqrt(total)).canonical()


def amplitude_of(s: HybridState, slots: Mapping[str, tuple[str, str]]) -> complex:
    """Amplitude of the branch with the given {photon: (path, pol)} labels.

    Only valid for states without qubus modes.
    """
    if s.registry.qubus_modes:
        raise StateError("amplitude_of requires a photon-only state")
    want = _sorted_slots(tuple((pid, p, pol) for pid, (p, pol) in slots.items()))
    for br in s.branches:
        if br.photons == want:
            return br.amplitude
    return 0.0 + 0.0j


def polarization_vector(s: HybridState, order: Sequence[str]) -> np.ndarray:
    """2ⁿ coefficient vector in the lexicographic H/V basis (first id = MSB).

    Every listed photon must be single-path; no other photons or qubus modes
    may remain in the state.
    """
    if set(order) != set(s.registry.photons):
        raise StateError("order must list exactly the registered photons")
    n = len(order)
    paths = {}
    for pid in order:
        used = s.photon_paths_in_use(pid)
        if len(used) != 1:
            raise StateError(f"photon {pid!r} occupies several paths")
        paths[pid] = used[0]
    vec = np.zeros(2**n, dtype=complex)
    for idx in range(2**n):
        slots = {
            pid: (paths[pid], V if (idx >> (n - 1 - i)) & 1 else H)
            for i, pid in enumerate(order)
        }
        vec[idx] = amplitude_of(s, slots)
    return vec


def path_pol_vector(s: HybridState, pid: str, rails: Sequence[str]) -> np.ndarray:
    """Amplitudes of one photon over (rail, pol) pairs, rail-major, H before V.

    The photon must be the only one left in the state (strip separable
    companions with remove_photon first) and no qubus modes may remain.
    """
    if s.registry.qubus_modes:
        raise StateError("path_pol_vector requires a photon-only state")
    if tuple(s.registry.photons) != (pid,):
        raise StateError("path_pol_vector needs the qudit photon alone; remove companions first")
    vec = np.zeros(2 * len(rails), dtype=complex)
    for br in s.branches:
        path, pol = br.slot(pid)
        i = rails.index(path)
        vec[2 * i + (1 if pol == V else 0)] += br.amplitude
    return vec


# ---------------------------------------------------------------------------
# JSON snapshots (golden-file schema)
# ---------------------------------------------------------------------------


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def state_to_dict(s: HybridState) -> dict:
    return {
        "photons": {pid: list(paths) for pid, paths in s.registry.photon_paths},
        "qubus_modes": list(s.registry.qubus_modes),
        "branches": [
            {
                "amplitude": _c2pair(br.amplitude),
                "photons": [{"id": q, "path": p, "pol": pol} for q, p, pol in br.photons],
                "qubus": [_c2pair(z) for z in br.qubus],
            }
            for br in s.branches
        ],
    }


def state_from_dict(d: dict) -> HybridState:
    reg = ModeRegistry()
    for pid, paths in d["photons"].items():
        reg = reg.with_photon(pid, tuple(paths))
    for mode in d["qubus_modes"]:
        reg = reg.with_qubus(mode)
    branches = []
    for bd in d["branches"]:
        amp = complex(bd["amplitude"][0], bd["amplitude"][1])
        slots = _sorted_slots(tuple((p["id"], p["path"], p["pol"]) for p in bd["photons"]))
        qubus = tuple(complex(re, im) for re, im in bd["qubus"])
        branches.append(Branch(amp, slots, qubus))
    return HybridState(reg, branches)
