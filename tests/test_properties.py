"""Property tests: random element sequences keep the norm, valid labels and the
canonical row store."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from qubusim import HybridState, attach_qubus, norm, random_polarization_state
from qubusim import elements as el
from qubusim import state_from_dict, state_to_dict
from qubusim.state import CANON_TOL, POLS, _canonical_order

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)

angles = st.floats(-math.pi, math.pi, allow_nan=False)


def _start(n: int, seed: int) -> HybridState:
    """Haar state of photons "1".."n" with a spare path u<i> registered for each,
    and two qubus beams of small amplitude."""
    s = random_polarization_state(n, seed)
    reg = s.registry
    for pid in reg.photons:
        reg = reg.with_path(pid, f"u{pid}")
    s = HybridState(reg, s.branches)
    return attach_qubus(attach_qubus(s, "qa", 1.3 + 0.2j), "qb", -0.7j)


@st.composite
def programs(draw):
    """(n, seed, steps); a step is (element name, photon index, draws for its arguments)."""
    n = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    step = st.tuples(
        st.sampled_from(
            ["photon_bs", "path_switch", "pbs", "pbs_pm", "wave_plate", "pol_rotate",
             "pol_unitary", "phase", "xpm", "qubus_phase", "qubus_bs"]
        ),
        st.integers(0, n - 1),
        st.integers(0, 2**16),
        angles,
    )
    return n, seed, draw(st.lists(step, max_size=8))


def _apply(s: HybridState, name: str, photon: int, k: int, x: float) -> HybridState:
    """One element on registered paths, its choices made from k and x; the
    first path it names is one the photon occupies."""
    pid = s.registry.photons[photon]
    paths = s.registry.paths_of(pid)
    used = s.photon_paths_in_use(pid)
    a = used[k % len(used)]
    b = paths[(k // len(used)) % len(paths)]
    pol = POLS[k % 2]
    if name in ("photon_bs", "path_switch"):
        if a == b:
            b = paths[(paths.index(a) + 1) % len(paths)]
        return el.photon_bs(s, pid, a, b, x) if name == "photon_bs" else el.path_switch(s, pid, a, b)
    if name in ("pbs", "pbs_pm"):
        # both outputs fresh, so no routed amplitude lands on an occupied slot
        out1 = s.registry.fresh_path(a + "o")
        out2 = s.registry.with_path(pid, out1).fresh_path(a + "o")
        return getattr(el, name)(s, pid, a, out1, out2)
    path = None if k % 3 == 0 else a
    if name == "wave_plate":
        return el.wave_plate(s, pid, path, "xz"[k % 2])
    if name == "pol_rotate":
        return el.pol_rotate(s, pid, path, x)
    if name == "pol_unitary":
        c, sn = math.cos(x), math.sin(x)
        u = [[c, -sn * complex(math.cos(k), math.sin(k))], [sn, c * complex(math.cos(k), math.sin(k))]]
        return el.pol_unitary(s, pid, path, u)
    if name == "phase":
        return el.phase(s, pid, path, None if k % 5 == 0 else pol, x)
    if name == "xpm":
        return el.xpm(s, ("qa", "qb")[k % 2], pid, a, None if k % 5 == 0 else pol, x)
    if name == "qubus_phase":
        return el.qubus_phase(s, ("qa", "qb")[k % 2], x)
    return el.qubus_bs(s, *(("qa", "qb") if k % 2 else ("qb", "qa")))


def _assert_canonical_store(s: HybridState) -> None:
    """Rows in canonical order, no two neighbours that canonicalize would merge
    (so (code, beam) keys are unique), no dust, and a lossless JSON round trip."""
    assert np.array_equal(_canonical_order(s.codes, s.qubus), np.arange(len(s.amps)))
    same_code = s.codes[1:] == s.codes[:-1]
    close = (abs(s.qubus[1:] - s.qubus[:-1]) <= CANON_TOL).all(axis=1)
    assert not (same_code & close).any()
    assert (abs(s.amps) >= CANON_TOL).all()
    back = state_from_dict(state_to_dict(s))
    assert back.registry == s.registry
    for got, want in ((back.amps, s.amps), (back.codes, s.codes), (back.qubus, s.qubus)):
        assert np.array_equal(got, want)


@PROPERTIES
@given(programs())
def test_element_sequences_preserve_the_norm_and_the_labels(program):
    n, seed, steps = program
    s = _start(n, seed)
    for step in steps:
        s = _apply(s, *step)
        HybridState(s.registry, s.branches)  # every label passes the constructor's check
        _assert_canonical_store(s)
        assert norm(s) == pytest.approx(1.0, abs=1e-12), step


#: the element kinds a compiled run is made of, with the targets each names
SLOT_MAP_KINDS = ("PhotonBS", "PathSwitch", "PolPhase", "PolRot", "WavePlateX", "WavePlateZ")


@st.composite
def slot_map_runs(draw):
    """(seed, path counts, ops): photons "1" and "2" on 2–4 registered paths
    each, and a run of the slot-map kinds on them.  Angles lie on a grid of
    π/10⁶, so that no coefficient sits near the dust tolerance, where dropping
    dust after every element and dropping it once at the end keep different rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    counts = draw(st.tuples(st.integers(2, 4), st.integers(2, 4)))
    angle = st.integers(-10**6, 10**6).map(lambda k: k * math.pi / 10**6)
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(SLOT_MAP_KINDS))
        p = draw(st.integers(0, 1))
        pid = str(p + 1)
        paths = _paths(pid, counts[p])
        a, b = draw(st.lists(st.sampled_from(paths), min_size=2, max_size=2, unique=True))
        path = draw(st.sampled_from([None, a]))
        if kind in ("PhotonBS", "PathSwitch"):
            ops.append(el.op(kind, draw(angle), photon=pid, path_a=a, path_b=b))
        elif kind == "PolPhase":
            pol = draw(st.sampled_from([None, *POLS]))
            ops.append(el.op(kind, draw(angle), photon=pid, path=path, pol=pol))
        else:
            ops.append(el.op(kind, draw(angle), photon=pid, path=path))
    return seed, counts, ops


def _paths(pid: str, n: int) -> list[str]:
    """The n paths photon pid is registered on: t<pid>, then r<pid>1, r<pid>2, ..."""
    return [f"t{pid}", *(f"r{pid}{j}" for j in range(1, n))]


def _spread(seed: int, counts: tuple[int, int]) -> HybridState:
    """A Haar state of photons "1" and "2" spread by beam splitters over all
    their registered paths, with beam values that differ between rows."""
    s = random_polarization_state(2, seed)
    reg = s.registry
    for pid, n in zip(("1", "2"), counts):
        for path in _paths(pid, n)[1:]:
            reg = reg.with_path(pid, path)
    s = attach_qubus(HybridState(reg, s.branches), "q", 1.3 + 0.2j)
    for pid, n in zip(("1", "2"), counts):
        for j, path in enumerate(_paths(pid, n)[1:], start=1):
            s = el.photon_bs(s, pid, f"t{pid}", path, 0.4 + 0.3 * j)
    return el.xpm(s, "q", "1", "t1", "H", 0.7)


@PROPERTIES
@given(slot_map_runs())
def test_a_compiled_run_matches_the_elements_one_by_one(run):
    seed, counts, ops = run
    s = _spread(seed, counts)
    got = el.apply_elements(s, ops)
    want = s
    for e in ops:  # the element functions, one _remap each
        want = el.apply_element(want, e)
    assert got.registry == want.registry
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.qubus, want.qubus)
    assert np.max(abs(got.amps - want.amps), initial=0.0) < 1e-12
