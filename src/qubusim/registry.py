"""The mode registry: photons, their admissible paths, qubus modes, and the
integer label codes that states store.

A registry declares each photon with its admissible paths (path sets are
disjoint across photons, ids unique) and the qubus modes in order.  It also
fixes the label code of every photonic basis state: photons sorted by id are
the digits of a mixed-radix number, the first most significant, and a
photon's digit is 2·(index of its path in its registration order) + (1 for
V), in radix 2·(number of its registered paths).  Two registries with the
same photons and path lists code labels alike.  Labels are checked where
strings become codes (`_digit`, `_code`); codes decode to strings in
`_labels`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

H = "H"
V = "V"
POLS = (H, V)

#: one photon occupation inside a branch: (photon id, path, polarization)
Slot = tuple[str, str, str]


class RegistryError(ValueError):
    """Raised for unknown or colliding photons, paths and qubus modes."""


class StateError(ValueError):
    """Raised for ill-formed states (normalization, id collisions, ...); the
    label checks here raise it for a bad polarization or slot order."""


@functools.lru_cache(maxsize=1024)
def _codec(photon_paths: tuple[tuple[str, tuple[str, ...]], ...]) -> tuple:
    """(slot index by photon id, layout, radices, strides) of a registry's
    photons, once they pass the checks: unique ids, disjoint path sets and
    label codes that fit in 64 bits.  Registries that differ only in qubus
    modes share it."""
    seen_paths = set()
    for k, (pid, paths) in enumerate(photon_paths):
        if any(q == pid for q, _ in photon_paths[:k]):
            raise RegistryError(f"duplicate photon id {pid!r}")
        for p in paths:
            if p in seen_paths:
                raise RegistryError(f"path {p!r} registered for two photons")
            seen_paths.add(p)
    layout = tuple(sorted(photon_paths))
    radix = tuple(2 * len(p) for _, p in layout)
    stride, size = [], 1
    for r in reversed(radix):
        stride.append(size)
        size *= r
    if size >= 2**63:
        raise RegistryError(f"{len(layout)} photons over {len(seen_paths)} paths "
                            "need label codes wider than 64 bits")
    slot_of = {pid: i for i, (pid, _) in enumerate(layout)}
    return slot_of, layout, radix, tuple(reversed(stride))


def _fresh(hint: str, taken) -> str:
    """hint, else hint2, hint3, ...: the first that is not in taken."""
    name, k = hint, 1
    while name in taken:
        k += 1
        name = f"{hint}{k}"
    return name


@dataclass(frozen=True)
class ModeRegistry:
    """Declares photons with their admissible paths, plus the qubus modes.

    Path sets are disjoint across photons; ids are unique.  Registries are
    immutable: an update method returns the registry of the updated layout,
    the same instance each time it meets that layout again.  A branch lists
    its slots sorted by photon id, so a photon's slot sits at the same index,
    slot_index(pid), in every branch of a state, and its digit at the same
    place in every label code.
    """

    photon_paths: tuple[tuple[str, tuple[str, ...]], ...] = ()
    qubus_modes: tuple[str, ...] = ()
    _slot_of: dict[str, int] = field(init=False, repr=False, compare=False)
    #: (photon id, paths) in slot order: two registries with equal layouts code labels alike
    _layout: tuple = field(init=False, repr=False, compare=False)
    _radix: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _stride: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.qubus_modes)) != len(self.qubus_modes):
            raise RegistryError("duplicate qubus mode id")
        for name, value in zip(("_slot_of", "_layout", "_radix", "_stride"),
                               _codec(self.photon_paths)):
            object.__setattr__(self, name, value)

    # -- queries ------------------------------------------------------------

    @property
    def photons(self) -> tuple[str, ...]:
        return tuple(pid for pid, _ in self.photon_paths)

    def paths_of(self, pid: str) -> tuple[str, ...]:
        return self._layout[self.slot_index(pid)][1]

    def slot_index(self, pid: str) -> int:
        """Index of the photon's slot in every branch (slots sort by photon id)."""
        try:
            return self._slot_of[pid]
        except KeyError:
            raise RegistryError(f"unknown photon {pid!r}") from None

    def qubus_index(self, mode: str) -> int:
        try:
            return self.qubus_modes.index(mode)
        except ValueError:
            raise RegistryError(f"unknown qubus mode {mode!r}") from None

    # -- label codes --------------------------------------------------------

    def _digit(self, pid: str, path: str, pol: str) -> int:
        """The checked digit of one slot of photon pid."""
        if pol not in POLS:
            raise StateError(f"bad polarization {pol!r}")
        paths = self._layout[self._slot_of[pid]][1]
        if path not in paths:
            raise RegistryError(f"path {path!r} not registered for {pid!r}")
        return 2 * paths.index(path) + (pol == V)

    def _code(self, photons: tuple[Slot, ...]) -> int:
        """The label code of a branch's slots: each registered photon once,
        sorted by id, on one of its paths, in H or V; the first fault is raised."""
        ids = [s[0] for s in photons]
        pids = [pid for pid, _ in self._layout]
        if ids != pids:
            if sorted(ids) == pids:
                raise StateError(f"branch slots are not sorted by photon id: {ids}")
            raise StateError("branch photon ids do not match registry")
        return sum(self._digit(*slot) * k for slot, k in zip(photons, self._stride))

    def _labels(self, code: int) -> tuple[Slot, ...]:
        return tuple(
            (pid, paths[code // k % r >> 1], POLS[code // k % 2])
            for (pid, paths), k, r in zip(self._layout, self._stride, self._radix)
        )

    # -- updates ------------------------------------------------------------

    def with_photon(self, pid: str, paths: Sequence[str]) -> "ModeRegistry":
        return _registry(self.photon_paths + ((pid, tuple(paths)),), self.qubus_modes)

    def without_photon(self, pid: str) -> "ModeRegistry":
        self.slot_index(pid)
        return _registry(tuple(e for e in self.photon_paths if e[0] != pid), self.qubus_modes)

    def with_path(self, pid: str, path: str) -> "ModeRegistry":
        """Register an extra admissible path for an existing photon."""
        if path in self.paths_of(pid):
            raise RegistryError(f"path {path!r} already registered for {pid!r}")
        return self._repathed(pid, self.paths_of(pid) + (path,))

    def without_path(self, pid: str, path: str) -> "ModeRegistry":
        if path not in self.paths_of(pid):
            raise RegistryError(f"path {path!r} not registered for {pid!r}")
        return self._repathed(pid, tuple(p for p in self.paths_of(pid) if p != path))

    def _repathed(self, pid: str, paths: tuple[str, ...]) -> "ModeRegistry":
        return _registry(
            tuple((q, paths if q == pid else p) for q, p in self.photon_paths), self.qubus_modes
        )

    def with_qubus(self, mode: str) -> "ModeRegistry":
        if mode in self.qubus_modes:
            raise RegistryError(f"duplicate qubus mode {mode!r}")
        return _registry(self.photon_paths, self.qubus_modes + (mode,))

    def without_qubus(self, mode: str) -> "ModeRegistry":
        self.qubus_index(mode)
        return _registry(self.photon_paths, tuple(m for m in self.qubus_modes if m != mode))

    def fresh_path(self, hint: str) -> str:
        """A path name based on `hint` that collides with nothing registered."""
        return _fresh(hint, {p for _, paths in self.photon_paths for p in paths})

    def with_fresh_paths(self, pid: str, hints: Sequence[str]) -> tuple["ModeRegistry", tuple]:
        """This registry with a fresh path (`fresh_path`) per hint registered
        for pid in one update, and those paths in order."""
        taken = {p for _, paths in self.photon_paths for p in paths}
        fresh = []
        for hint in hints:
            fresh.append(_fresh(hint, taken))
            taken.add(fresh[-1])
        return self._repathed(pid, self.paths_of(pid) + tuple(fresh)), tuple(fresh)

    def fresh_qubus(self, hint: str = "q") -> str:
        return _fresh(hint, self.qubus_modes)

    def fresh_photon(self, hint: str = "anc") -> str:
        return _fresh(hint, self._slot_of)

    def merged(self, other: "ModeRegistry") -> "ModeRegistry":
        reg = self
        for pid, paths in other.photon_paths:
            reg = reg.with_photon(pid, paths)
        for mode in other.qubus_modes:
            reg = reg.with_qubus(mode)
        return reg


@functools.lru_cache(maxsize=1024)
def _registry(
    photon_paths: tuple[tuple[str, tuple[str, ...]], ...], qubus_modes: tuple[str, ...]
) -> ModeRegistry:
    """The registry of one (photon_paths, qubus_modes), built once: a run's
    updates meet the same few layouts over and over."""
    return ModeRegistry(photon_paths, qubus_modes)


def _require_distinct(what: str, names: Sequence[str], error: type[Exception]) -> None:
    """No name may be listed twice: a photon in two roles, a rail or an outcome twice."""
    if len(set(names)) != len(names):
        raise error(f"{what} must be distinct, got {list(names)!r}")


def _require_paths(reg: ModeRegistry, pid: str, *paths: str) -> None:
    """Every path named must be registered for the photon."""
    registered = reg.paths_of(pid)
    for p in paths:
        if p not in registered:
            raise RegistryError(f"path {p!r} not registered for photon {pid!r}")
