"""Primitive elements: conventions, unitarity, and the displayed coherent
amplitudes of the coupled-then-interfered qubus patterns."""

import cmath
import math
import re

import numpy as np
import pytest

from qubusim import (
    Branch,
    HybridState,
    ModeRegistry,
    RegistryError,
    StateError,
    amplitude_of,
    attach_qubus,
    fidelity,
    norm,
    pol_qubit,
    polarization_state,
)
from qubusim import elements as el
from qubusim.elements import pbs_fan_in, pbs_fan_out
from qubusim.gates import (
    c_path2_couplings,
    couple_qubus_pair,
    entangler4_couplings,
    parity_couplings,
)
from qubusim.synthesis import random_haar_unitary

from conftest import alpha_for, haar_vec, remap_slot


def with_extra_path(s, pid, path):
    return HybridState(s.registry.with_path(pid, path), s.branches)


def test_photon_bs_splits_h():
    s = with_extra_path(pol_qubit("1", "a", 1, 0), "1", "b")
    out = el.photon_bs(s, "1", "a", "b")
    r = 1 / math.sqrt(2)
    assert amplitude_of(out, {"1": ("a", "H")}) == pytest.approx(r)
    assert amplitude_of(out, {"1": ("b", "H")}) == pytest.approx(r)


def test_photon_bs_involution():
    s = with_extra_path(pol_qubit("1", "a", 0.6, 0.8), "1", "b")
    once = el.photon_bs(s, "1", "a", "b")
    twice = el.photon_bs(once, "1", "a", "b")
    assert fidelity(twice, s) == pytest.approx(1.0)


def test_photon_bs_acts_identically_in_pm_basis():
    # |+->_2 -> (|+->_2 + |+->_3)/sqrt2 and |+->_3 -> (|+->_2 - |+->_3)/sqrt2
    for sign in (+1, -1):
        s = with_extra_path(pol_qubit("1", "a", 1, sign), "1", "b")
        out = el.photon_bs(s, "1", "a", "b")
        r = 0.5  # (1/sqrt2 pol) * (1/sqrt2 split)
        assert amplitude_of(out, {"1": ("a", "H")}) == pytest.approx(r)
        assert amplitude_of(out, {"1": ("a", "V")}) == pytest.approx(sign * r)
        assert amplitude_of(out, {"1": ("b", "H")}) == pytest.approx(r)
        assert amplitude_of(out, {"1": ("b", "V")}) == pytest.approx(sign * r)
        s_b = el.path_switch(s, "1", "a", "b")
        out_b = el.photon_bs(s_b, "1", "a", "b")
        assert amplitude_of(out_b, {"1": ("b", "H")}) == pytest.approx(-r)


def test_photon_bs_unregistered_path():
    s = pol_qubit("1", "a", 1, 0)
    with pytest.raises(RegistryError):
        el.photon_bs(s, "1", "a", "nope")


def test_elements_naming_an_unregistered_path_raise():
    s = with_extra_path(pol_qubit("1", "a", 0.6, 0.8), "1", "b")
    calls = [
        lambda: el.wave_plate(s, "1", "nope", "x"),
        lambda: el.pol_rotate(s, "1", "nope", 0.3),
        lambda: el.pol_unitary(s, "1", "nope", np.eye(2)),
        lambda: el.phase(s, "1", "nope", "V", 0.3),
        lambda: el.phase(s, "1", "nope", None, 0.3),
        lambda: el.pbs(s, "1", "nope", "h", "v"),
        lambda: el.pbs_pm_fan_out(s, "1", ["nope"], ["p", "m"]),
        lambda: pbs_fan_out(s, "1", ["nope"]),
        lambda: pbs_fan_in(s, "1", ["nope"], ["b"]),
        lambda: pbs_fan_in(s, "1", ["a"], ["nope"]),
        lambda: el.pbs_pm_merge(s, "1", "nope", "b", "out"),
        lambda: el.pbs_pm_merge(s, "1", "a", "nope", "out"),
    ]
    for call in calls:
        with pytest.raises(RegistryError, match="path 'nope' not registered for photon '1'"):
            call()


def test_a_two_path_element_naming_one_path_twice_raises():
    # the slot table of one path named twice kept only its second entry: a
    # 50:50 splitter left no branch, and other angles one of the wrong amplitude
    s = with_extra_path(pol_qubit("1", "a", 0.6, 0.8), "1", "b")
    calls = [
        lambda: el.photon_bs(s, "1", "a", "a"),
        lambda: el.photon_bs(s, "1", "a", "a", 0.3),
        lambda: el.path_switch(s, "1", "a", "a"),
        lambda: el.path_switch(s, "1", "b", "b"),
    ]
    for call in calls:
        with pytest.raises(RegistryError, match="path '[ab]' named twice for photon '1'"):
            call()


def test_xpm_refuses_an_unregistered_path_and_a_bad_polarization():
    # an unregistered path once coupled nothing, and a bad polarization
    # raised a bare tuple.index error
    s = attach_qubus(with_extra_path(pol_qubit("1", "a", 0.6, 0.8), "1", "b"), "q", 2.0)
    with pytest.raises(RegistryError, match="path 'nope' not registered for photon '1'"):
        el.xpm(s, "q", "1", "nope", None, 0.1)
    with pytest.raises(RegistryError, match="path 'nope' not registered for photon '1'"):
        el.xpm(s, "q", "1", "nope", "H", 0.1)
    with pytest.raises(StateError, match="bad polarization 'D'"):
        el.xpm(s, "q", "1", "a", "D", 0.1)


def _merge_input(paths, slots):
    """Photon 1 over the given paths, an equal superposition of the (path, pol) slots."""
    reg = ModeRegistry().with_photon("1", paths)
    r = 1 / math.sqrt(len(slots))
    return HybridState(reg, [Branch(r, (("1", p, pol),), ()) for p, pol in slots])


# pbs_fan_in's PBS merge of rail h and fresh rail v: the fresh rail is
# flipped first, so its H (as fanned out) is the V the merge takes
@pytest.mark.parametrize(
    "paths, slots, message",
    [
        (("h", "v"), [("h", "H"), ("h", "V")], "V component present on H input 'h'"),
        (("h", "v"), [("v", "H"), ("v", "V")], "H component present on V input 'v'"),
        # both ports wrong: the lower digit is reported, as the path order sets it
        (("h", "v"), [("h", "V"), ("v", "V")], "V component present on H input 'h'"),
        (("v", "h"), [("h", "V"), ("v", "V")], "H component present on V input 'v'"),
    ],
    ids=["h-port", "v-port", "both-h-first", "both-v-first"],
)
def test_pbs_merge_refuses_a_component_on_the_wrong_port(paths, slots, message):
    s = _merge_input(paths, slots)
    with pytest.raises(StateError, match=re.escape(message) + " of PBS merge"):
        pbs_fan_in(s, "1", ["h"], ["v"])


def test_pbs_fan_in_refuses_the_first_rail_s_fault_first():
    # rail a is checked before rail b, whatever the path order
    s = _merge_input(("b", "bv", "a", "av"), [("b", "V"), ("av", "V")])
    with pytest.raises(StateError, match="H component present on V input 'av' of PBS merge"):
        pbs_fan_in(s, "1", ["a", "b"], ["av", "bv"])


def test_pbs_merge_takes_each_port_s_own_polarization():
    out = pbs_fan_in(_merge_input(("h", "v"), [("h", "H"), ("v", "H")]), "1", ["h"], ["v"])
    assert out.registry.paths_of("1") == ("h",)  # the fresh rail is dropped
    assert abs(amplitude_of(out, {"1": ("h", "H")}) - 1 / math.sqrt(2)) < 1e-15
    assert abs(amplitude_of(out, {"1": ("h", "V")}) - 1 / math.sqrt(2)) < 1e-15


def test_remap_slot_checks_only_the_images_it_emits(monkeypatch):
    # drop the suite's extra label check on derived states: the kernel's own check must raise
    monkeypatch.undo()
    s = with_extra_path(pol_qubit("1", "a", 1, 0), "1", "b")
    # a zero coefficient emits nothing
    out = remap_slot(s, "1", {("a", "H"): [(1, "b", "H"), (0, "nope", "H")]})
    assert amplitude_of(out, {"1": ("b", "H")}) == pytest.approx(1.0)
    # a refused image raises when the table is compiled, though no row occupies its slot
    with pytest.raises(RegistryError, match="path 'nope' not registered for '1'"):
        remap_slot(s, "1", {("a", "H"): [(1, "b", "H")], ("b", "V"): [(1, "nope", "H")]})
    # an emitted image raises what the HybridState constructor raises for its slot
    with pytest.raises(RegistryError, match="path 'nope' not registered for '1'"):
        remap_slot(s, "1", {("a", "H"): [(0.6, "a", "H"), (0.8, "nope", "H")]})
    with pytest.raises(StateError, match="bad polarization 'D'"):
        remap_slot(s, "1", {("a", "H"): [(1, "a", "D")]})


def test_pbs_routes_by_polarization():
    s = pol_qubit("1", "a", 0.6, 0.8)
    out = el.pbs(s, "1", "a", "h", "v")
    assert amplitude_of(out, {"1": ("h", "H")}) == pytest.approx(0.6)
    assert amplitude_of(out, {"1": ("v", "V")}) == pytest.approx(0.8)


def test_pbs_pm_routes_plus_entirely():
    s = pol_qubit("1", "a", 1, 1)
    out = el.pbs_pm_fan_out(s, "1", ["a"], ["p", "m"])
    r = 1 / math.sqrt(2)
    assert amplitude_of(out, {"1": ("p", "H")}) == pytest.approx(r)
    assert amplitude_of(out, {"1": ("p", "V")}) == pytest.approx(r)
    assert amplitude_of(out, {"1": ("m", "H")}) == pytest.approx(0.0)


def test_pbs_pm_merge_round_trip():
    s = pol_qubit("1", "a", 0.6, 0.8j)
    out = el.pbs_pm_fan_out(s, "1", ["a"], ["p", "m"])
    back = el.pbs_pm_merge(out, "1", "p", "m", "a")
    assert fidelity(back, s) == pytest.approx(1.0)


def test_wave_plates():
    s = pol_qubit("1", "a", 0.6, 0.8)
    x = el.wave_plate(s, "1", "a", "x")
    assert amplitude_of(x, {"1": ("a", "H")}) == pytest.approx(0.8)
    assert amplitude_of(x, {"1": ("a", "V")}) == pytest.approx(0.6)
    z2 = el.wave_plate(el.wave_plate(s, "1", "a", "z"), "1", "a", "z")
    assert fidelity(z2, s) == pytest.approx(1.0)


def test_odd_outcome_fixed_by_pi_phase_and_switch():
    # odd-n parity output: |H>1(a H2 + b V3) - |V>1(c H3 + d V2); a pi phase on
    # |V>1 and the 2<->3 switch restore the even/odd-sorted form
    a, b, c, d = haar_vec(4, 21)
    from qubusim.state import Branch, ModeRegistry, _sorted_slots

    reg = (
        ModeRegistry()
        .with_photon("1", ("p1",))
        .with_photon("2", ("p2", "p3"))
    )
    mk = lambda amp, pol1, pol2, path2: Branch(
        amp, _sorted_slots((("1", "p1", pol1), ("2", path2, pol2))), ()
    )
    odd_form = HybridState(
        reg,
        [mk(a, "H", "H", "p2"), mk(b, "H", "V", "p3"),
         mk(-c, "V", "H", "p3"), mk(-d, "V", "V", "p2")],
    )
    sorted_form = HybridState(
        reg,
        [mk(a, "H", "H", "p3"), mk(b, "H", "V", "p2"),
         mk(c, "V", "H", "p2"), mk(d, "V", "V", "p3")],
    )
    out = el.phase(odd_form, "1", "p1", "V", math.pi)
    out = el.path_switch(out, "2", "p2", "p3")
    assert fidelity(out, sorted_form) == pytest.approx(1.0)


def test_xpm_table1_double_coupling():
    # branch |H>_1 |H>_2 with the parity beam-1 couplings: qubus gains e^{2i theta}
    theta = 0.3
    s = polarization_state([1, 0, 0, 0], [("1", "p1"), ("2", "p2")])
    s = attach_qubus(s, "q1", 2.0)
    out = el.xpm(s, "q1", "1", "p1", "H", theta)
    out = el.xpm(out, "q1", "2", "p2", "H", theta)
    assert out.branches[0].qubus[0] == pytest.approx(2.0 * cmath.exp(2j * theta))


def test_xpm_unoccupied_and_zero_theta():
    s = attach_qubus(pol_qubit("1", "p", 1, 0), "q", 1.0)
    same = el.xpm(s, "q", "1", "p", "V", 0.7)  # V unoccupied
    assert same.branches[0].qubus[0] == pytest.approx(1.0)
    ident = el.xpm(s, "q", "1", "p", "H", 0.0)
    assert ident.branches[0].qubus[0] == pytest.approx(1.0)


def test_xpm_disjoint_selectors_commute():
    s = polarization_state(haar_vec(4, 2), [("1", "p1"), ("2", "p2")])
    s = attach_qubus(s, "q", 1.7)
    ab = el.xpm(el.xpm(s, "q", "1", "p1", "H", 0.2), "q", "2", "p2", "V", 0.4)
    ba = el.xpm(el.xpm(s, "q", "2", "p2", "V", 0.4), "q", "1", "p1", "H", 0.2)
    assert [b.photons for b in ab.branches] == [b.photons for b in ba.branches]
    for x, y in zip(ab.branches, ba.branches):
        assert x.amplitude == y.amplitude  # phases ride the qubus value only
        assert abs(x.qubus[0] - y.qubus[0]) < 5e-16 * abs(x.qubus[0])


def test_qubus_bs_displayed_map():
    theta, alpha = 0.3, 2.0
    s = pol_qubit("1", "p", 1, 0)
    s = attach_qubus(attach_qubus(s, "qa", alpha * cmath.exp(1j * theta)), "qb", alpha * cmath.exp(-1j * theta))
    out = el.qubus_bs(s, "qa", "qb")
    beta = 1j * math.sqrt(2) * alpha * math.sin(theta)
    assert out.branches[0].qubus[0] == pytest.approx(beta)
    assert out.branches[0].qubus[1] == pytest.approx(math.sqrt(2) * alpha * math.cos(theta))

    s2 = attach_qubus(attach_qubus(pol_qubit("1", "p", 1, 0), "qa", alpha), "qb", alpha)
    out2 = el.qubus_bs(s2, "qa", "qb")
    assert out2.branches[0].qubus[0] == pytest.approx(0.0)
    assert out2.branches[0].qubus[1] == pytest.approx(math.sqrt(2) * alpha)


def test_qubus_phase_inverse():
    s = attach_qubus(pol_qubit("1", "p", 1, 0), "q", 1.3 + 0.4j)
    out = el.qubus_phase(el.qubus_phase(s, "q", 0.7), "q", -0.7)
    assert out.branches[0].qubus[0] == pytest.approx(1.3 + 0.4j)


def test_norm_preserved_and_photon_number_conserved():
    rng = np.random.default_rng(4)
    s = polarization_state(haar_vec(4, 3), [("1", "p1"), ("2", "p2")])
    s = HybridState(s.registry.with_path("2", "p3"), s.branches)
    s = attach_qubus(attach_qubus(s, "qa", 3.0), "qb", 3.0)
    ops = [
        lambda t: el.photon_bs(t, "2", "p2", "p3"),
        lambda t: el.xpm(t, "qa", "1", "p1", "H", 0.31),
        lambda t: el.xpm(t, "qb", "2", "p3", None, 0.11),
        lambda t: el.qubus_phase(t, "qa", -0.31),
        lambda t: el.qubus_bs(t, "qa", "qb"),
        lambda t: el.wave_plate(t, "1", "p1", "x"),
        lambda t: el.wave_plate(t, "2", "p2", "z"),
        lambda t: el.path_switch(t, "2", "p2", "p3"),
        lambda t: el.pol_rotate(t, "1", "p1", 0.4),
    ]
    for _ in range(30):
        s = ops[rng.integers(len(ops))](s)
        assert norm(s) == pytest.approx(1.0, abs=1e-10)
        for br in s.branches:
            assert len({t[0] for t in br.photons}) == 2


def test_pol_unitary_matches_dense_including_phase():
    for seed in range(5):
        u = random_haar_unitary(2, seed)
        v = haar_vec(2, seed + 50)
        s = pol_qubit("1", "p", v[0], v[1])
        out = el.pol_unitary(s, "1", "p", u)
        got = np.array(
            [amplitude_of(out, {"1": ("p", "H")}), amplitude_of(out, {"1": ("p", "V")})]
        )
        assert np.max(np.abs(got - u @ v)) < 1e-10


def test_pol_phase_on_every_path_phases_only_the_named_polarization():
    s = pol_qubit("1", "t1", 0.6, 0.8)
    out = el.apply_element(s, el.op("PolPhase", math.pi / 3, photon="1", path=None, pol="H"))
    assert amplitude_of(out, {"1": ("t1", "H")}) == pytest.approx(0.6 * cmath.exp(1j * math.pi / 3))
    assert amplitude_of(out, {"1": ("t1", "V")}) == pytest.approx(0.8)


#: kind -> (parameter, ElementOp targets, the same element called directly)
DIRECT_CALLS = {
    "PhotonBS": (0.3, dict(photon="1", path_a="p1", path_b="p3"),
                 lambda s: el.photon_bs(s, "1", "p1", "p3", 0.3)),
    "PBS": (0.0, dict(photon="1", in_path="p3", out_h="h", out_v="v"),
            lambda s: el.pbs(s, "1", "p3", "h", "v")),
    "PBSpm": (0.0, dict(photon="2", in_path="p2", out_plus="pp", out_minus="pm"),
              lambda s: el.pbs_pm_fan_out(s, "2", ["p2"], ["pp", "pm"])),
    "WavePlateX": (0.0, dict(photon="1", path="p1"), lambda s: el.wave_plate(s, "1", "p1", "x")),
    "WavePlateZ": (0.0, dict(photon="2", path=None), lambda s: el.wave_plate(s, "2", None, "z")),
    "PolPhase": (0.7, dict(photon="1", path="p3", pol="V"),
                 lambda s: el.phase(s, "1", "p3", "V", 0.7)),
    "PolRot": (0.4, dict(photon="2", path="p2"), lambda s: el.pol_rotate(s, "2", "p2", 0.4)),
    "PathSwitch": (0.0, dict(photon="1", path_a="p3", path_b="p1"),
                   lambda s: el.path_switch(s, "1", "p3", "p1")),
    "XPM": (0.2, dict(mode="q", photon="1", path="p1", pol="H"),
            lambda s: el.xpm(s, "q", "1", "p1", "H", 0.2)),
    "QubusPhase": (0.5, dict(mode="q"), lambda s: el.qubus_phase(s, "q", 0.5)),
    "QubusBS": (0.0, dict(mode_a="r", mode_b="q"), lambda s: el.qubus_bs(s, "r", "q")),
}


@pytest.mark.parametrize("kind", el.ELEMENT_KINDS)
def test_apply_element_matches_direct_call(kind):
    s = polarization_state(haar_vec(4, 31), [("1", "p1"), ("2", "p2")])
    s = el.photon_bs(with_extra_path(s, "1", "p3"), "1", "p1", "p3", 0.2)
    s = attach_qubus(s, "q", 1.5 + 0.5j)
    if kind == "QubusBS":  # the one element on two beams
        s = attach_qubus(s, "r", 0.7)
    parameter, targets, direct = DIRECT_CALLS[kind]
    got = el.apply_element(s, el.op(kind, parameter, **targets))
    want = direct(s)
    assert got.registry == want.registry
    assert list(got.branches) == list(want.branches)


# -- compiled runs of slot-map elements -------------------------------------


def _assert_matches_one_by_one(s, ops):
    """apply_elements(s, ops) keeps the rows of the elements applied one by
    one, with amplitudes within 1e-12; returns it."""
    got, want = el.apply_elements(s, ops), s
    for e in ops:
        want = el.apply_element(want, e)
    assert got.registry == want.registry
    assert np.array_equal(got.codes, want.codes) and np.array_equal(got.qubus, want.qubus)
    assert np.max(abs(got.amps - want.amps), initial=0.0) < 1e-12
    return got


def test_a_compiled_run_is_compiled_for_each_path_layout():
    run = [el.op("PhotonBS", 0.3, photon="1", path_a="a", path_b="b"),
           el.op("PolPhase", 0.7, photon="1", path="a", pol="V"),
           el.op("WavePlateX", photon="1", path="b")]
    base = polarization_state(haar_vec(4, 7), [("1", "a"), ("2", "t2")])
    layouts = (("a", "b"), ("b", "a"), ("a", "b", "c"), ("c", "a", "b"))
    slots = [{"1": (p, q), "2": ("t2", q2)} for p in "ab" for q in "HV" for q2 in "HV"]
    want = None
    for paths in layouts:  # each after the others, so a run cached for another layout shows
        s = HybridState(base.registry._repathed("1", paths), base.branches)
        out = _assert_matches_one_by_one(s, run)
        got = [amplitude_of(out, slot) for slot in slots]
        want = want or got
        assert got == pytest.approx(want, abs=1e-12), paths


def test_slot_maps_keep_their_order_around_another_element():
    s = pol_qubit("1", "a", 0.6, 0.8)
    ops = [el.op("WavePlateX", photon="1", path="a"),
           el.op("PBS", photon="1", in_path="a", out_h="h", out_v="v"),
           el.op("PolPhase", math.pi, photon="1", path="h", pol=None),
           el.op("PathSwitch", photon="1", path_a="h", path_b="v")]
    out = _assert_matches_one_by_one(s, ops)
    # X: 0.8 H + 0.6 V on a; PBS: H to h, V to v; π on h; then h and v swap
    assert amplitude_of(out, {"1": ("v", "H")}) == pytest.approx(-0.8)
    assert amplitude_of(out, {"1": ("h", "V")}) == pytest.approx(0.6)


def test_a_compiled_run_raises_what_its_elements_raise():
    s = with_extra_path(pol_qubit("1", "a", 0.6, 0.8), "1", "b")
    x = el.op("WavePlateX", photon="1", path="a")
    for bad, call in (
        (el.op("PhotonBS", photon="1", path_a="a", path_b="nope"),
         lambda: el.photon_bs(s, "1", "a", "nope")),
        (el.op("PathSwitch", photon="1", path_a="nope", path_b="b"),
         lambda: el.path_switch(s, "1", "nope", "b")),
        (el.op("WavePlateZ", photon="1", path="nope"), lambda: el.wave_plate(s, "1", "nope", "z")),
        (el.op("PolRot", 0.2, photon="1", path="nope"), lambda: el.pol_rotate(s, "1", "nope", 0.2)),
        (el.op("PolPhase", 0.2, photon="1", path="a", pol="D"),
         lambda: el.phase(s, "1", "a", "D", 0.2)),
        (el.op("WavePlateX", photon="9", path=None), lambda: el.wave_plate(s, "9", None, "x")),
    ):
        with pytest.raises((RegistryError, StateError)) as want:
            call()
        for _ in range(2):  # a failed compile is not cached
            with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
                el.apply_elements(s, [x, bad, x])


# -- element calls: each slot table compiled once per layout -------------------


def _spread_pair(seed):
    """A Haar state of photon "1" spread over paths t1, r1, s1 and photon "2"
    over t2, r2, with a beam whose value differs between rows."""
    s = polarization_state(haar_vec(4, seed), [("1", "t1"), ("2", "t2")])
    s = with_extra_path(with_extra_path(with_extra_path(s, "1", "r1"), "1", "s1"), "2", "r2")
    s = el.photon_bs(el.photon_bs(s, "1", "t1", "r1", 0.4), "1", "t1", "s1", 0.9)
    s = el.photon_bs(attach_qubus(s, "q", 1.3 + 0.2j), "2", "t2", "r2", 0.6)
    return el.xpm(s, "q", "1", "t1", "H", 0.7)


def _unitary(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _uncached(s, pid, table):
    """The slot table applied without the compile cache, as built for this call only."""
    coef, dest = el._packed(el._slot_matrix(s.registry, pid, table))
    return el._apply_images(s, s.registry.slot_index(pid), coef, dest)


def _assert_same(got, want):
    assert got.registry == want.registry
    for a, b in ((got.amps, want.amps), (got.codes, want.codes), (got.qubus, want.qubus)):
        assert np.array_equal(a, b)


#: one op of each slot-map kind, on photon p's paths
SLOT_MAP_OPS = {
    "PhotonBS": lambda p: el.op("PhotonBS", 0.3, photon=p, path_a=f"t{p}", path_b=f"r{p}"),
    "PathSwitch": lambda p: el.op("PathSwitch", photon=p, path_a=f"r{p}", path_b=f"t{p}"),
    "WavePlateX": lambda p: el.op("WavePlateX", photon=p, path=None),
    "WavePlateZ": lambda p: el.op("WavePlateZ", photon=p, path=f"t{p}"),
    "PolPhase": lambda p: el.op("PolPhase", 0.7, photon=p, path=None, pol="V"),
    "PolRot": lambda p: el.op("PolRot", -0.4, photon=p, path=f"r{p}"),
}


@pytest.mark.parametrize("kind", SLOT_MAP_OPS)
def test_an_element_call_compiles_its_table_once_per_layout(kind):
    for seed, pid in ((3, "1"), (4, "2"), (5, "1")):
        s, e = _spread_pair(seed), SLOT_MAP_OPS[kind](pid)
        el._compiled.cache_clear()
        calls = [el.apply_element(s, e) for _ in range(3)]
        info = el._compiled.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        want = el.apply_elements(s, [e])  # the compiled run of the one op, bit for bit
        for got in calls:
            _assert_same(got, want)


def _pbs_family():
    """name -> (input from a spread state, the call, the uncached route): each
    call applies one slot table."""
    fan_in = {("r1v", "H"): [(1, "r1", "V")]}

    def fanned_in(t):
        merged = _uncached(t, "1", fan_in)
        return el._reregistered(merged, merged.registry.without_path("1", "r1v"))

    fanned = lambda s: pbs_fan_out(s, "1", ["r1"])[0]
    pm_out = ("r2", "dark", "dark", "r2")

    def pm_merged(t):
        dark = _uncached(el._with_paths(t, "2", "dark"), "2",
                         el._pm_table(t.registry, "2", ("p2", "m2"), pm_out))
        return el._reregistered(dark, dark.registry.without_path("2", "dark"))

    split = lambda s: el.pbs(s, "1", "r1", "r1", "h1")
    split_in = {("r1", "H"): [(1, "r1", "H")], ("r1", "V"): [(1, "h1", "V")]}
    pm = lambda s: el.pbs_pm_fan_out(s, "2", ["r2"], ["p2", "m2"])
    pm_in = lambda s: el._pm_table(s.registry, "2", ("r2",), ("p2", "m2"))
    fan_out = ("t1", "s1"), ("tp", "tm", "sp", "sm")
    rotation = [el.op("PolRot", 0.3, photon="2", path=None)]
    same = lambda s: s
    return {
        "pbs": (same, split, lambda s: _uncached(el._with_paths(s, "1", "h1"), "1", split_in)),
        "pbs_fan_out": (
            same, lambda s: pbs_fan_out(s, "1", ["t1", "s1"])[0],
            lambda s: _uncached(el._with_paths(s, "1", "t1v", "s1v"), "1",
                                {("t1", "V"): [(1, "t1v", "H")], ("s1", "V"): [(1, "s1v", "H")]})),
        "pbs_fan_in": (fanned, lambda t: pbs_fan_in(t, "1", ["r1"], ["r1v"]), fanned_in),
        "pbs_pm": (same, pm, lambda s: _uncached(el._with_paths(s, "2", "p2", "m2"), "2", pm_in(s))),
        "pbs_pm_merge": (pm, lambda t: el.pbs_pm_merge(t, "2", "p2", "m2", "r2"), pm_merged),
        "pbs_pm_fan_out": (
            same, lambda s: el.pbs_pm_fan_out(s, "1", *fan_out),
            lambda s: el.pbs_pm_fan_out(el.pbs_pm_fan_out(s, "1", ["t1"], ["tp", "tm"]),
                                        "1", ["s1"], ["sp", "sm"])),
        "pol_unitary": (same, lambda s: el.pol_unitary(s, "2", None, _unitary(0.3)),
                        lambda s: el.apply_elements(s, rotation)),
    }


@pytest.mark.parametrize("name", ["pbs", "pbs_fan_out", "pbs_fan_in", "pbs_pm", "pbs_pm_merge",
                                  "pbs_pm_fan_out", "pol_unitary"])
def test_the_pbs_family_compiles_its_table_once_per_layout(name):
    prepare, call, route = _pbs_family()[name]
    for seed in (3, 4):
        t = prepare(_spread_pair(seed))
        el._compiled.cache_clear()
        calls = [call(t) for _ in range(3)]
        info = el._compiled.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        want = route(t)  # the table built for this call only, or a route known to equal it
        for got in calls:
            _assert_same(got, want)


def test_an_element_call_acts_on_its_own_photon():
    # the same arguments on photons with three and two paths: images kept per photon
    s, u = _spread_pair(6), _unitary(0.2)
    calls = (
        (el.wave_plate, (None, "x"), el._wave_plate_table, (None, "x")),
        (el.phase, (None, "V", 0.7), el._phase_table, (None, "V", 0.7)),
        (el.pol_rotate, (None, 0.2), el._rotation_table, (None, 0.2)),
        (el.pol_unitary, (None, u), el._unitary_table, (None, u.astype(complex).tobytes())),
    )
    for call, args, build, table_args in calls:
        for pid in ("1", "2", "1"):
            want = _uncached(s, pid, build(s.registry, pid, *table_args))
            _assert_same(call(s, pid, *args), want)


# -- displayed coherent patterns -------------------------------------------


def expected_parity_display(a, b, c, d, alpha, theta):
    """Branch table after couplings, -theta, and the qubus BS (paper-exact up
    to the documented BS sign convention: our H-group lands on +beta)."""
    beta = 1j * math.sqrt(2) * alpha * math.sin(theta)
    sa = math.sqrt(2) * alpha
    sc = math.sqrt(2) * alpha * math.cos(theta)
    r = 1 / math.sqrt(2)
    return {
        ("H", "H", "p3"): (a * r, 0.0, sa),
        ("H", "V", "p2"): (b * r, 0.0, sa),
        ("V", "H", "p2"): (c * r, 0.0, sa),
        ("V", "V", "p3"): (d * r, 0.0, sa),
        ("H", "H", "p2"): (a * r, beta, sc),
        ("H", "V", "p3"): (b * r, beta, sc),
        ("V", "H", "p3"): (c * r, -beta, sc),
        ("V", "V", "p2"): (d * r, -beta, sc),
    }


def test_parity_coupling_block_displayed_amplitudes():
    theta = 0.05
    alpha = alpha_for(20.0, theta)
    a, b, c, d = haar_vec(4, 8)
    s = polarization_state([a, b, c, d], [("1", "p1"), ("2", "p2")])
    s = HybridState(s.registry.with_path("2", "p3"), s.branches)
    s = el.photon_bs(s, "2", "p2", "p3")
    coupled, beams = couple_qubus_pair(
        s, parity_couplings("1", "p1", "2", "p2", "p3"), alpha, theta
    )
    expect = expected_parity_display(a, b, c, d, alpha, theta)
    assert len(coupled.branches) == 8
    for br in coupled.branches:
        pol1 = br.slot("1")[1]
        path2, pol2 = br.slot("2")
        amp, q0, q1 = expect[(pol1, pol2, path2)]
        assert abs(br.amplitude - amp) < 1e-12
        assert abs(br.qubus[0] - q0) < 1e-12 * max(alpha, 1)
        assert abs(br.qubus[1] - q1) < 1e-12 * max(alpha, 1)


def test_c_path_coupling_block_displayed_amplitudes():
    theta = 0.05
    alpha = alpha_for(20.0, theta)
    a, b, c, d = haar_vec(4, 12)
    s = polarization_state([a, b, c, d], [("C", "pc"), ("T", "p1")])
    s = HybridState(s.registry.with_path("T", "p2"), s.branches)
    s = el.photon_bs(s, "T", "p1", "p2")
    coupled, _ = couple_qubus_pair(
        s, c_path2_couplings("C", "pc", "T", ["p1"], ["p2"]), alpha, theta
    )
    beta = 1j * math.sqrt(2) * alpha * math.sin(theta)
    sa, sc = math.sqrt(2) * alpha, math.sqrt(2) * alpha * math.cos(theta)
    # routed groups: matched -> (0, sqrt2 a); H_C-on-2 gets -beta; V_C-on-1 +beta
    for br in coupled.branches:
        polc = br.slot("C")[1]
        path_t = br.slot("T")[0]
        if (polc, path_t) in {("H", "p1"), ("V", "p2")}:
            assert abs(br.qubus[0] - 0.0) < 1e-12 * alpha
            assert abs(br.qubus[1] - sa) < 1e-12 * alpha
        elif (polc, path_t) == ("H", "p2"):
            assert abs(br.qubus[0] - (-beta)) < 1e-12 * alpha
            assert abs(br.qubus[1] - sc) < 1e-12 * alpha
        else:
            assert abs(br.qubus[0] - beta) < 1e-12 * alpha


def test_entangler_coupling_block_reproduces_table4_display():
    theta = 0.05
    alpha = alpha_for(20.0, theta)
    a, b, c, d = haar_vec(4, 14)
    # path-split input: a HH_12 + b HV_12 + c VH_13 + d VV_13, ancilla |+>_4
    from qubusim.state import Branch, ModeRegistry, _sorted_slots

    reg = (
        ModeRegistry()
        .with_photon("1", ("p1",))
        .with_photon("2", ("p2", "p3"))
        .with_photon("4", ("p4",))
    )
    r = 1 / math.sqrt(2)
    mk = lambda amp, pol1, pol2, path2, pol4: Branch(
        amp, _sorted_slots((("1", "p1", pol1), ("2", path2, pol2), ("4", "p4", pol4))), ()
    )
    branches = []
    for pol4 in ("H", "V"):
        branches += [
            mk(a * r, "H", "H", "p2", pol4), mk(b * r, "H", "V", "p2", pol4),
            mk(c * r, "V", "H", "p3", pol4), mk(d * r, "V", "V", "p3", pol4),
        ]
    s = HybridState(reg, branches)
    coupled, _ = couple_qubus_pair(
        s, entangler4_couplings("4", "p4", "2", ("p2", "p3")), alpha, theta
    )
    # paper's Entangler display is pre-BS; undo the BS by checking the joint
    # values instead: matched-pol branches (alpha, alpha) -> (0, sqrt2 alpha)
    sa = math.sqrt(2) * alpha
    beta = 1j * math.sqrt(2) * alpha * math.sin(theta)
    for br in coupled.branches:
        pol2 = br.slot("2")[1]
        pol4 = br.slot("4")[1]
        if pol2 == pol4:
            assert abs(br.qubus[0]) < 1e-12 * alpha
        elif (pol2, pol4) == ("H", "V"):
            assert abs(br.qubus[0] - (-beta)) < 1e-12 * alpha
        else:
            assert abs(br.qubus[0] - beta) < 1e-12 * alpha
