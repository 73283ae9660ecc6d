"""Hybrid discrete/continuous states: photonic labels tensored with coherent beams.

A state is a superposition of branches.  Each branch carries a complex
amplitude, a definite (path, polarization) slot for every registered photon,
and one complex coherent amplitude per registered qubus mode.  Coherent
amplitudes are never Fock-expanded inside the state; all overlaps use the
closed form ⟨α|β⟩ = exp(−|α|²/2 − |β|²/2 + conj(α)·β), which stays exact at
|α|² ~ 10³–10⁴ where truncation is impossible.

A state stores its branches as three arrays, one row per branch:
  * amps, shape (B,), complex: the amplitudes;
  * codes, shape (B,), int64: the photon labels as one mixed-radix number,
    coded by the ModeRegistry (see qubusim.registry);
  * qubus, shape (B, M), complex: the beam values in registry mode order.
Rows are kept in canonical order: by code, then by each beam's real and
imaginary part in mode order.  `Branch` records are built only when
`branches` is read; its len() builds none.

Rows pair in overlaps when their labels are equal, and one kernel,
`_pair_overlaps`, pairs them (`_pairs`) and takes their coherent overlaps in
one coherent_overlap call: `norm`, `inner_product`, the Fock pmf's Gram
matrix and the gates module's compiled stages all read it.  A readout or a
disposal cuts its parts with `_part`, which carries a part's norm √Σ|a|²
where its codes strictly increase; other parts take `norm`.  When no two bra
rows share a code (every photon-only canonical state, for one), a norm pairs
each row with itself and an overlap finds each ket row's one partner in a
single binary search; otherwise each ket row pairs with a run of bra rows.
`scaled` carries a known norm over as |factor|·‖s‖, so a normalized state
never recomputes it.  Codes move between layouts by `_recode`.

Index work that does not read the amplitudes is memoized by exact row
structure, since a gate meets the same labels and beam values on every
input and only the amplitudes change.  Three memos (numerics.array_memo)
each keep up to INDEX_CACHE results: `_runs` (canonical order and run
starts), `_recode`'s kernel `_recoded`, and `_paired`, the pairing kernel
memoized, which the Fock pmf and the gates' route check read.  Each keys
on the exact bytes, shape and dtype of its arrays (a beam value one bit or
one zero sign apart misses) and on what else its result reads: tol, the
two layouts.  A miss computes what an unmemoized call computes, so results
are bit-identical, and every cached array is read-only.  `_overlap`
(`norm`, `inner_product`, `fidelity`) and detection's `_project_onto`
compute on every call: a state keeps its norm already, and the benchmark's
trace counts coherent-overlap work through these calls.

Polarization is stored in the H/V basis; |±⟩ = (|H⟩ ± |V⟩)/√2 is a derived
view.  Path and mode names are symbolic strings resolved through a
ModeRegistry, so pipeline stages can mint new paths (1', 2', ...) on the fly.

States are immutable values: every operation returns a new state, and states
are safe to share across threads.  A derived state may share arrays with the
state it came from, so the arrays are never written in place.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence as SequenceABC
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .numerics import array_memo, frozen
from .registry import (POLS, H, ModeRegistry, RegistryError, Slot, StateError, V, _codec,
                       _require_distinct)

#: default tolerance for merging/dropping branches in canonicalize()
CANON_TOL = 1e-12

#: row structures whose index work each memo keeps (_runs, _recode, _paired)
INDEX_CACHE = 256


# ---------------------------------------------------------------------------
# branches and label codes
# ---------------------------------------------------------------------------


class Branch(NamedTuple):
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


def _distinct(ints: np.ndarray) -> list[int]:
    """The distinct values of an array of small non-negative ints, ascending
    (np.unique's first call imports numpy.ma, a set-up cost bincount avoids)."""
    return np.bincount(ints).nonzero()[0].tolist()


def _slot_digits(s: HybridState, pid: str) -> np.ndarray:
    """Each row's digit for photon pid: 2·(its path's registry index) + (1 for V)."""
    i = s.registry.slot_index(pid)
    return s.codes // s.registry._stride[i] % s.registry._radix[i]


def _recode(codes: np.ndarray, src: ModeRegistry, dst: ModeRegistry) -> np.ndarray:
    """Label codes of src's layout rewritten in dst's.

    Photons that dst does not register are dropped, photons only dst
    registers read as digit 0, and a row whose slot dst does not register
    gets the code -1.  It is kept per (codes, the two layouts), read-only.
    """
    if src._layout == dst._layout:
        return codes
    return _recoded(codes, src._layout, dst._layout)


@array_memo(INDEX_CACHE)
def _recoded(codes: np.ndarray, src: tuple, dst: tuple) -> np.ndarray:
    """_recode's result for codes from layout src to layout dst.

    Each photon both layouts register has a digit table: entry d is its src
    digit d in dst's layout, or -1 where dst lacks the path.  Every kept
    digit of every row is decoded, mapped in one gather over the tables end
    to end, and summed with dst's strides in one dot.
    """
    src_radix, src_stride = _codec(src)[2:]
    dst_slot, _, _, dst_stride = _codec(dst)
    kept = [i for i, (pid, _) in enumerate(src) if pid in dst_slot]
    offset, table = [], []
    for i in kept:
        pid, paths = src[i]
        to = dst[dst_slot[pid]][1]
        offset.append(len(table))
        table += [2 * to.index(p) + b if p in to else -1 for p in paths for b in (0, 1)]
    stride = np.array([src_stride[i] for i in kept], np.int64)
    radix = np.array([src_radix[i] for i in kept], np.int64)
    digits = np.array(table, np.int64)[
        codes[:, None] // stride % radix + np.array(offset, np.int64)]
    out = digits @ np.array([dst_stride[dst_slot[src[i][0]]] for i in kept], np.int64)
    if -1 in table:
        out[(digits < 0).any(axis=1)] = -1
    return out


def _increasing(codes: np.ndarray) -> bool:
    """Whether the codes strictly increase: rows in canonical order with
    these codes each hold a label no other row holds."""
    return bool((codes[1:] > codes[:-1]).all())


def _canonical_order(codes: np.ndarray, qubus: np.ndarray) -> np.ndarray:
    """The row permutation into canonical order: by code, then beam by beam
    by real and imaginary part."""
    if not qubus.shape[1]:
        return codes.argsort(kind="stable")
    keys = [codes]
    for col in qubus.T:
        keys += (col.real, col.imag)
    return np.lexsort(keys[::-1])


@array_memo(INDEX_CACHE)
def _runs(codes: np.ndarray, qubus: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(canonical order, run starts): in canonical order, a row starts a new
    run unless it has the code of the row before it and every beam value
    within tol of that row's (|x − y| ≤ tol).  Kept per (row structure,
    tol), read-only; `_runs.__wrapped__` computes it unkept."""
    order = _canonical_order(codes, qubus)
    codes = codes[order]
    new = np.empty(len(codes), bool)
    new[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=new[1:])
    for col in qubus.T:
        col = col[order]
        new[1:] |= abs(col[1:] - col[:-1]) > tol
    return order, new


def _reregistered(s: HybridState, registry: ModeRegistry) -> HybridState:
    """s over registry, whose path lists may differ from s.registry's: the
    label codes are rewritten, and a row on a slot that registry lacks raises
    what the constructor raises for it."""
    if len(s.amps) and len(registry.qubus_modes) != len(s.registry.qubus_modes):
        raise StateError("branch qubus length != number of registered modes")
    if len(s.amps) and registry._slot_of.keys() != s.registry._slot_of.keys():
        raise StateError("branch photon ids do not match registry")
    codes = _recode(s.codes, s.registry, registry)
    lost = (codes < 0).nonzero()[0]
    if len(lost):
        registry._code(s.registry._labels(int(s.codes[lost[0]])))
    return HybridState._sorted(registry, s.amps, codes, s.qubus)


def _drop_column(qubus: np.ndarray, idx: int) -> np.ndarray:
    return np.concatenate((qubus[:, :idx], qubus[:, idx + 1 :]), axis=1)


class _Branches(SequenceABC):
    """A state's rows as Branch records, built when read; len() builds none."""

    __slots__ = ("_state",)

    def __init__(self, state: HybridState):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.amps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        s = self._state
        return Branch(complex(s.amps[i]), s.registry._labels(int(s.codes[i])),
                      tuple(s.qubus[i].tolist()))

    def __iter__(self):
        s = self._state
        labels = s.registry._labels
        for a, c, q in zip(s.amps.tolist(), s.codes.tolist(), s.qubus.tolist()):
            yield Branch(a, labels(c), tuple(q))


class HybridState:
    """Normalized superposition of branches over a shared ModeRegistry.

    The constructor checks every branch against the registry and sorts the
    rows into canonical order; it merges nothing.  Given another state's
    `branches`, it takes that state's rows over the new registry, checked
    as label codes, without building Branch records.  Kernels build their
    results from arrays: `_derived` for rows valid for the registry and in
    canonical order, which checks nothing, and `_rows` for valid rows in any
    order, which only canonicalize may read.
    """

    __slots__ = ("registry", "amps", "codes", "qubus", "_norm")

    def __init__(self, registry: ModeRegistry, branches: Iterable[Branch]):
        if isinstance(branches, _Branches):  # another state's rows: checked as codes
            st = _reregistered(branches._state, registry)
            self.registry, self._norm = registry, None
            self.amps, self.codes, self.qubus = st.amps, st.codes, st.qubus
            return
        branches = tuple(branches)
        nq = len(registry.qubus_modes)
        bad = next((i for i, br in enumerate(branches) if len(br.qubus) != nq), None)
        # labels before the first bad qubus length go first: the earlier fault is raised
        codes: dict[tuple[Slot, ...], int] = {}
        for br in branches[:bad]:
            if br.photons not in codes:
                codes[br.photons] = registry._code(br.photons)
        if bad is not None:
            raise StateError("branch qubus length != number of registered modes")
        amps = np.array([br.amplitude for br in branches], complex)
        labels = np.array([codes[br.photons] for br in branches], np.int64)
        qubus = np.array([br.qubus for br in branches], complex).reshape(len(branches), nq)
        order = _canonical_order(labels, qubus)
        self.registry, self._norm = registry, None
        self.amps, self.codes, self.qubus = amps[order], labels[order], qubus[order]

    @classmethod
    def _rows(cls, registry: ModeRegistry, amps, codes, qubus) -> "HybridState":
        """A state over rows valid for registry, in any order: only for canonicalize."""
        self = cls.__new__(cls)
        self.registry, self._norm = registry, None
        self.amps, self.codes, self.qubus = amps, codes, qubus
        return self

    @classmethod
    def _derived(cls, registry: ModeRegistry, amps, codes, qubus) -> "HybridState":
        """A state whose rows are valid for registry and in canonical order."""
        return cls._rows(registry, amps, codes, qubus)

    @classmethod
    def _sorted(cls, registry: ModeRegistry, amps, codes, qubus) -> "HybridState":
        """A state over valid rows, sorted into canonical order; nothing merges."""
        if not _increasing(codes):  # else every code is its own row, in order
            order = _canonical_order(codes, qubus)
            amps, codes, qubus = amps[order], codes[order], qubus.take(order, 0)
        return cls._derived(registry, amps, codes, qubus)

    @property
    def branches(self) -> Sequence[Branch]:
        return _Branches(self)

    # -- algebra -------------------------------------------------------------

    def canonical(self, tol: float = CANON_TOL) -> "HybridState":
        return canonicalize(self, tol)

    def normalized(self) -> "HybridState":
        return normalize(self)

    def scaled(self, factor: complex) -> "HybridState":
        """factor·self; a norm known for self carries over as |factor|·‖self‖."""
        out = HybridState._derived(self.registry, self.amps * factor, self.codes, self.qubus)
        if self._norm is not None:
            out._norm = abs(factor) * self._norm
        return out

    def photon_paths_in_use(self, pid: str) -> tuple[str, ...]:
        """Paths the photon actually occupies somewhere, in registry order."""
        paths = self.registry.paths_of(pid)
        return tuple(paths[i] for i in _distinct(_slot_digits(self, pid) >> 1))

    def __repr__(self):
        return f"HybridState({len(self.amps)} branches, photons={self.registry.photons})"


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------


def coherent_overlap(a, b) -> np.ndarray:
    """⟨a|b⟩ for products of coherent states, row by row.

    a and b hold one product per row, the last axis running over modes, e.g.
    shape (N, M) each.  Exact: exp(Σ_i −|a_i|²/2 − |b_i|²/2 + conj(a_i)·b_i),
    evaluated as exp(Σ_i −|a_i − b_i|²/2 + i·Im(conj(a_i)·b_i)).  The real
    part is never positive, so this never overflows, and it carries no
    cancellation between terms of size |α|²: equal values give exactly 1.
    """
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    if not a.shape[-1]:  # no modes: the empty product, ⟨|⟩ = 1
        return np.ones(a.shape[:-1], complex)
    d = a - b
    re = -0.5 * (d.real * d.real + d.imag * d.imag)
    return np.exp((re + 1j * (a.real * b.imag - a.imag * b.real)).sum(axis=-1))


def _pairs(a_codes: np.ndarray, b_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every row pair (i, j) with a_codes[i] == b_codes[j], in ket order; a_codes sorted.

    When no two bra rows share a code (every photon-only canonical state, for
    one), each ket row has at most one partner, found by one binary search,
    and codes paired with themselves pair row by row.  Otherwise two binary
    searches bound each ket row's run of partners.
    """
    if len(a_codes) and _increasing(a_codes):
        if b_codes is a_codes:
            i = np.arange(len(a_codes))
            return i, i
        i = a_codes.searchsorted(b_codes)
        j = (a_codes.take(i, mode="clip") == b_codes).nonzero()[0]
        return i[j], j
    lo = a_codes.searchsorted(b_codes)
    hi = a_codes.searchsorted(b_codes, "right")
    n = hi - lo
    return np.arange(n.sum()) - (n.cumsum() - hi).repeat(n), np.arange(len(n)).repeat(n)


def _pair_overlaps(codes: np.ndarray, qubus: np.ndarray, other_codes: np.ndarray,
                   other_qubus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, ⟨q_i|q'_j⟩) over every row pair with codes[i] == other_codes[j]
    (`_pairs`, codes sorted), the beam overlaps taken in one coherent_overlap
    call, with or without beams: the one place rows are paired."""
    i, j = _pairs(codes, other_codes)
    return i, j, coherent_overlap(qubus.take(i, 0), other_qubus.take(j, 0))


def _overlap(a: HybridState, b: HybridState) -> complex:
    """⟨a|b⟩ = Σ conj(a_i) b_j ⟨q_i|q_j⟩ over row pairs with equal labels, b's
    codes recoded into a's layout."""
    codes = a.codes if b is a else _recode(b.codes, b.registry, a.registry)
    i, j, q = _pair_overlaps(a.codes, a.qubus, codes, b.qubus)
    return complex(np.vdot(a.amps[i], b.amps[j] * q))


def _binned(cells: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Σ terms into `size` complex bins by cell, real and imaginary parts apart."""
    return np.bincount(cells, terms.real, size) + 1j * np.bincount(cells, terms.imag, size)


#: _pair_overlaps, kept per (both sides' row structure), read-only: for
#: readouts that meet the same rows on every input
_paired = array_memo(INDEX_CACHE)(_pair_overlaps)


def inner_product(a: HybridState, b: HybridState) -> complex:
    """⟨a|b⟩, sesquilinear; coherent branches are non-orthogonal.

    The registries must carry the same photons and the same qubus mode order;
    admissible-path sets may differ (gates register transient rails).
    """
    if set(a.registry.photons) != set(b.registry.photons) or (
        a.registry.qubus_modes != b.registry.qubus_modes
    ):
        raise RegistryError("inner_product requires matching photons and qubus modes")
    return _overlap(a, b)


def norm(s: HybridState) -> float:
    """‖s‖, computed once per state: states are immutable, and `scaled`
    carries a known norm over.  Each row of a state whose codes strictly
    increase pairs only with itself (`_pairs`)."""
    if s._norm is None:
        s._norm = math.sqrt(max(_overlap(s, s).real, 0.0))
    return s._norm


def _part(registry: ModeRegistry, amps, codes, qubus) -> HybridState:
    """A readout's part: rows valid for registry, in canonical order.  When
    the codes strictly increase each row pairs only with itself (`_pairs`),
    so the part carries its norm √Σ|a|² and `norm` takes no overlap."""
    out = HybridState._derived(registry, amps, codes, qubus)
    if _increasing(codes):
        out._norm = math.sqrt(np.vdot(amps, amps).real)
    return out


#: norms whose square Σ|a|² is a normal float, so that it is summed without
#: overflow and without losing digits to subnormals
_NORM_RANGE = (2.0**-500, 2.0**500)


def normalize(s: HybridState) -> HybridState:
    """s/‖s‖.  A norm outside _NORM_RANGE (Σ|a|² overflowed, underflowed or
    lost digits) is taken again after s is divided by the power of two
    nearest its largest amplitude part, which is exact; the division is two
    factors, as one may not be a float.  A norm in range takes the one
    division s/‖s‖, as it always did.  A zero state raises."""
    n = norm(s)
    if not _NORM_RANGE[0] <= n <= _NORM_RANGE[1]:
        a = s.amps
        peak = float(np.maximum(abs(a.real), abs(a.imag)).max(initial=0.0))
        if not math.isfinite(peak):
            raise StateError("cannot normalize a state with a non-finite amplitude")
        if peak > 0.0:
            k = -math.frexp(peak)[1]
            s = HybridState._derived(s.registry, a * 2.0 ** (k // 2) * 2.0 ** (k - k // 2),
                                     s.codes, s.qubus)
            n = norm(s)
    if not n >= 1e-300:
        raise StateError("cannot normalize a (numerically) zero state")
    return s.scaled(1.0 / n)


def fidelity(a: HybridState, b: HybridState) -> float:
    """|⟨a|b⟩|² for normalized states; invariant under global phases."""
    for name, st in (("a", a), ("b", b)):
        if abs(norm(st) - 1.0) > 1e-8:
            raise StateError(f"fidelity: state {name} is not normalized")
    return min(abs(inner_product(a, b)) ** 2, 1.0)


def canonicalize(s: HybridState, tol: float = CANON_TOL) -> HybridState:
    """Merge rows with equal labels and qubus values within tol; drop dust.

    The rule: sort the rows into canonical order; a row merges into the row
    before it when both have the same code and every beam value of the two
    differs by at most tol (|x − y| ≤ tol).  A chain of rows, each within tol
    of the one before, merges into one row even where its ends lie further
    apart.  The merged row keeps the beam values of the chain's first row and
    the sum of its amplitudes; then every row with |amplitude| < tol is
    dropped.  A row that merges with none is kept bit for bit.  Closeness is
    tested between neighbours only, so two rows within tol whose canonical
    order puts a different beam value between them stay apart.  XPM phase
    factors of identical branches are computed identically, so the tolerance
    only has to absorb rounding from beam-splitter arithmetic.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    order, new = _runs(s.codes, s.qubus, tol)
    starts = new.nonzero()[0]
    amps = s.amps[order]
    if len(starts) < len(amps):
        amps = np.add.reduceat(amps, starts)
    keep = (abs(amps) >= tol).nonzero()[0]
    first = order[starts[keep]]
    return HybridState._derived(s.registry, amps[keep], s.codes[first], s.qubus.take(first, 0))


def tensor(a: HybridState, b: HybridState) -> HybridState:
    """Product state; photon ids and qubus modes must not collide."""
    reg = a.registry.merged(b.registry)
    codes = _recode(a.codes, a.registry, reg)[:, None] + _recode(b.codes, b.registry, reg)
    qubus = np.concatenate(
        [np.repeat(a.qubus, len(b.amps), axis=0), np.tile(b.qubus, (len(a.amps), 1))], axis=1
    )
    return HybridState._sorted(reg, np.outer(a.amps, b.amps).ravel(), codes.ravel(), qubus)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def basis_photon(pid: str, path: str, pol: str) -> HybridState:
    reg = ModeRegistry().with_photon(pid, (path,))
    return HybridState(reg, [Branch(1.0 + 0.0j, ((pid, path, pol),), ())])


def pol_qubit(pid: str, path: str, h: complex, v: complex) -> HybridState:
    """Single polarization qubit h|H⟩ + v|V⟩ on one path, normalized."""
    reg = ModeRegistry().with_photon(pid, (path,))
    branches = [Branch(complex(c), ((pid, path, pol),), ()) for c, pol in ((h, H), (v, V)) if c != 0]
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
    branches = [
        Branch(complex(c), _sorted_slots(
            (pid, path, POLS[idx >> (n - 1 - i) & 1]) for i, (pid, path) in enumerate(photons)
        ), ())
        for idx, c in enumerate(coeffs)
        if c != 0
    ]
    return normalize(HybridState(reg, branches))


def bell_state(kind: str, a: tuple[str, str], b: tuple[str, str]) -> HybridState:
    """One of |Φ±⟩, |Ψ±⟩ on two photons given as (id, path)."""
    r = 1 / math.sqrt(2)
    table = {"phi+": (r, 0, 0, r), "phi-": (r, 0, 0, -r), "psi+": (0, r, r, 0), "psi-": (0, r, -r, 0)}
    if kind not in table:
        raise ValueError(f"unknown Bell state {kind!r}")
    return polarization_state(table[kind], [a, b])


@functools.lru_cache(maxsize=64)
def _ancilla(kind: str, *names: str) -> HybridState:
    """|+⟩ (kind "plus", names: id, path) or a Bell state (kind as for
    bell_state, names: id, path, id, path), as plus_photon or bell_state
    builds it, kept with read-only arrays: pipelines draw the same few
    ancilla names call after call."""
    s = plus_photon(*names) if kind == "plus" else bell_state(kind, names[:2], names[2:])
    frozen((s.amps, s.codes, s.qubus))
    return s


def attach_qubus(s: HybridState, mode: str, alpha: complex) -> HybridState:
    """Adjoin a fresh qubus mode in the coherent state |alpha⟩ to every branch."""
    reg = s.registry.with_qubus(mode)
    column = np.full((len(s.amps), 1), complex(alpha))
    return HybridState._derived(reg, s.amps, s.codes, np.concatenate([s.qubus, column], axis=1))


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
    digits = _slot_digits(s, pid)
    reg = s.registry.without_photon(pid)
    rest = _recode(s.codes, s.registry, reg)
    parts = []
    for d in _distinct(digits):
        m = (digits == d).nonzero()[0]
        parts.append(_part(reg, s.amps[m], rest[m], s.qubus.take(m, 0)))
    norms = [norm(part) for part in parts]
    r = max(range(len(parts)), key=norms.__getitem__)
    total = 0.0
    for k, w in enumerate(norms):
        if w < tol:
            continue
        if k != r and abs(abs(_overlap(parts[r], parts[k])) / (norms[r] * w) - 1.0) > tol:
            raise StateError(f"photon {pid!r} is entangled with the rest; cannot remove")
        total += w**2
    return parts[r].scaled(1.0 / norms[r]).scaled(math.sqrt(total)).canonical()


def _stand_in(s: HybridState) -> HybridState:
    """s's first row at amplitude 1.  It registers s's photons, paths and
    qubus modes, so a state built beside it draws the fresh names it would
    draw beside s; _put_in puts s in its place."""
    return HybridState._derived(s.registry, np.ones(1, complex), s.codes[:1], s.qubus[:1])


def _put_in(s: HybridState, built: HybridState) -> HybridState:
    """tensor(s, built without s's stand-in), in one relabelling.

    built was made from _stand_in(s) by operations that left its photons and
    qubus modes alone, so they hold one label and one beam value in every
    row; dropping them keeps the rows in canonical order.
    """
    reg = built.registry
    for pid in s.registry.photons:
        reg = reg.without_photon(pid)
    for mode in s.registry.qubus_modes:
        reg = reg.without_qubus(mode)
    codes = _recode(built.codes, built.registry, reg)
    qubus = built.qubus[:, [built.registry.qubus_index(m) for m in reg.qubus_modes]]
    return tensor(s, HybridState._derived(reg, built.amps, codes, qubus))


def amplitude_of(s: HybridState, slots: Mapping[str, tuple[str, str]]) -> complex:
    """Amplitude of the branch with the given {photon: (path, pol)} labels.

    Only valid for states without qubus modes, and the labels must name
    exactly the registered photons; a path or polarization that the state
    cannot hold reads 0.
    """
    if s.registry.qubus_modes:
        raise StateError("amplitude_of requires a photon-only state")
    if set(slots) != set(s.registry.photons):
        raise StateError("amplitude_of needs a label for exactly the registered photons")
    try:
        code = s.registry._code(_sorted_slots((pid, p, pol) for pid, (p, pol) in slots.items()))
    except (StateError, RegistryError):  # labels the state cannot hold
        return 0.0 + 0.0j
    i = int(s.codes.searchsorted(code))
    return complex(s.amps[i]) if i < len(s.codes) and s.codes[i] == code else 0.0 + 0.0j


def polarization_vector(s: HybridState, order: Sequence[str]) -> np.ndarray:
    """2ⁿ coefficient vector in the lexicographic H/V basis (first id = MSB).

    Every listed photon must be single-path and listed once; no other
    photons or qubus modes may remain in the state.
    """
    _require_distinct("photon ids", order, StateError)
    if set(order) != set(s.registry.photons):
        raise StateError("order must list exactly the registered photons")
    n = len(order)
    paths = {}
    for pid in order:
        used = s.photon_paths_in_use(pid)
        if len(used) != 1:
            raise StateError(f"photon {pid!r} occupies several paths")
        paths[pid] = used[0]
    return np.array([
        amplitude_of(s, {pid: (paths[pid], POLS[idx >> (n - 1 - i) & 1]) for i, pid in enumerate(order)})
        for idx in range(2**n)
    ], dtype=complex)


def path_pol_vector(s: HybridState, pid: str, rails: Sequence[str]) -> np.ndarray:
    """Amplitudes of one photon over (rail, pol) pairs, rail-major, H before V.

    The photon must be the only one left in the state (strip separable
    companions with remove_photon first) and no qubus modes may remain;
    rails must list each path it occupies, once.
    """
    if s.registry.qubus_modes:
        raise StateError("path_pol_vector requires a photon-only state")
    if tuple(s.registry.photons) != (pid,):
        raise StateError("path_pol_vector needs the qudit photon alone; remove companions first")
    _require_distinct("rails", rails, StateError)
    paths, digits = s.registry.paths_of(pid), _slot_digits(s, pid)
    used = _distinct(digits >> 1)
    unlisted = [paths[k] for k in used if paths[k] not in rails]
    if unlisted:
        raise StateError(f"photon {pid!r} occupies rail {unlisted[0]!r}, which rails does not list")
    rail_of = np.zeros(len(paths), int)
    rail_of[used] = [rails.index(paths[k]) for k in used]
    vec = np.zeros(2 * len(rails), dtype=complex)
    np.add.at(vec, 2 * rail_of[digits >> 1] + digits % 2, s.amps)
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
    return HybridState(reg, [
        Branch(complex(*bd["amplitude"]),
               _sorted_slots((p["id"], p["path"], p["pol"]) for p in bd["photons"]),
               tuple(complex(re, im) for re, im in bd["qubus"]))
        for bd in d["branches"]
    ])
