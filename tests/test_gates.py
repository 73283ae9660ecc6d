"""Composite gates: coupling-table audits, determinism, and the worked
transformations of each gate family."""

import cmath
import json
import math
import re

import numpy as np
import pytest

from qubusim import (
    HybridState,
    amplitude_of,
    bell_state,
    fidelity,
    normalize,
    path_pol_vector,
    plus_photon,
    pol_qubit,
    polarization_state,
    polarization_vector,
    remove_photon,
    state_to_dict,
    tensor,
)
from qubusim import cli
from qubusim import elements as el
from qubusim import gates as g
from qubusim import pipelines as pl
from qubusim import synthesis as syn
from qubusim.analysis import alpha_for_beta2
from qubusim.cli import DEMO_GATES, main
from qubusim.detection import fock_outcomes
from qubusim.state import Branch, ModeRegistry, StateError, _sorted_slots

from conftest import (block_outcomes, haar_vec, remap_slot, score_outcomes, split_by_value,
                      two_photon, THETA)


def branch_state(reg, entries):
    """entries: (amp, {pid: (path, pol)})"""
    out = []
    for amp, slots in entries:
        out.append(
            Branch(amp, _sorted_slots(tuple((q, p, pol) for q, (p, pol) in slots.items())), ())
        )
    return HybridState(reg, out)


# -- coupling-table audits ------------------------------------------------------


def test_table1_parity_couplings():
    got = set(g.parity_couplings("1", "p1", "2", "p2", "p3"))
    want = {
        g.Coupling(0, "1", "p1", "H"), g.Coupling(0, "2", "p2", "H"), g.Coupling(0, "2", "p3", "V"),
        g.Coupling(1, "1", "p1", "V"), g.Coupling(1, "2", "p2", "V"), g.Coupling(1, "2", "p3", "H"),
    }
    assert got == want
    assert g.coupling_mode_count(g.parity_couplings("1", "p1", "2", "p2", "p3")) == 6


def test_table2_c_path_couplings():
    # C-path is C-path-2 on a one-rail target
    got = set(g.c_path2_couplings("C", "pc", "T", ["r1"], ["r2"]))
    want = {
        g.Coupling(0, "C", "pc", "V"), g.Coupling(0, "T", "r1", None),
        g.Coupling(1, "C", "pc", "H"), g.Coupling(1, "T", "r2", None),
    }
    assert got == want


def test_table3_c_path2_couplings():
    got = set(g.c_path2_couplings("D", "pd", "T", ["r5", "r7"], ["r6", "r8"]))
    want = {
        g.Coupling(0, "D", "pd", "V"), g.Coupling(0, "T", "r5", None), g.Coupling(0, "T", "r7", None),
        g.Coupling(1, "D", "pd", "H"), g.Coupling(1, "T", "r6", None), g.Coupling(1, "T", "r8", None),
    }
    assert got == want


def test_table4_entangler_couplings():
    got = set(g.entangler4_couplings("4", "p4", "2", ("p2", "p3")))
    want = {
        g.Coupling(0, "4", "p4", "H"), g.Coupling(0, "2", "p2", "V"), g.Coupling(0, "2", "p3", "V"),
        g.Coupling(1, "4", "p4", "V"), g.Coupling(1, "2", "p2", "H"), g.Coupling(1, "2", "p3", "H"),
    }
    assert got == want


def test_table5_c_path3_couplings():
    got = set(
        g.c_path3_couplings("C2", "p2", "p2v", "p3", "T", "p4", "p5", layout="split")
    )
    want = {
        g.Coupling(0, "C2", "p3", "V"), g.Coupling(0, "T", "p4", None),
        g.Coupling(1, "C2", "p2", "H"), g.Coupling(1, "C2", "p2v", "H"),
        g.Coupling(1, "C2", "p3", "H"), g.Coupling(1, "T", "p5", None),
    }
    assert got == want
    assert g.coupling_mode_count(tuple(got)) == 8
    compact = g.c_path3_couplings(
        "C2", "p2", None, "p3", "T", "p4", "p5", layout="compact", witness=("C1", "p1", "H")
    )
    assert g.coupling_mode_count(compact) == 7  # saves exactly one mode


def test_c_path2_single_rail_reduces_to_c_path(alpha20):
    # on a one-rail target the gates act alike; only the fresh rail's name differs
    s = polarization_state(haar_vec(4, 21), [("C", "tc"), ("T", "r1")])
    out1, rep1 = g.c_path(s, "C", "T", alpha20, THETA)
    out2, rep2 = g.c_path2(s, "C", "T", ["r1"], alpha20, THETA)
    assert rep1.extras["rails"] == ("r1", "r1s") and rep2.extras["rails"] == ("r1", "r1n")
    assert json.dumps(rep1.feedforward).replace("r1s", "r1n") == json.dumps(rep2.feedforward)
    assert rep1.outcomes.kind == rep2.outcomes.kind
    assert rep1.outcomes.to_dicts() == rep2.outcomes.to_dicts()
    renamed = json.loads(json.dumps(state_to_dict(out1)).replace("r1s", "r1n"))
    assert renamed == state_to_dict(out2)


def test_canonicalize_parity_output_regression(alpha20):
    # splitting every branch in half and re-merging is invisible at 1e-12
    a, b, c, d = haar_vec(4, 120)
    s = polarization_state([a, b, c, d], [("1", "t1"), ("2", "t2")])
    s = HybridState(s.registry.with_path("2", "t3"), s.branches)
    s = el.photon_bs(s, "2", "t2", "t3")
    coupled, _ = g.couple_qubus_pair(
        s, g.parity_couplings("1", "t1", "2", "t2", "t3"), alpha20, THETA
    )
    split = HybridState(
        coupled.registry,
        [br for b in coupled.branches for br in (
            Branch(b.amplitude / 2, b.photons, b.qubus),
            Branch(b.amplitude / 2, b.photons, b.qubus),
        )],
    )
    merged = split.canonical()
    assert len(merged.branches) == len(coupled.branches)
    assert abs(fidelity(merged, coupled) - 1.0) < 1e-12


def test_entangler_variant_reductions():
    # variant 4 with two rails has the variant-1 pattern
    assert set(g.entangler4_couplings("a", "pa", "q", ("r1", "r2"))) == set(
        g.entangler4_couplings("a", "pa", "q", ["r1", "r2"])
    )
    # entangler-2 is entangler-3 with singleton rail groups
    assert set(g.entangler3_couplings("c", "pc", "q", ["rA"], ["rB"])) == {
        g.Coupling(0, "c", "pc", "H"), g.Coupling(0, "q", "rB", None),
        g.Coupling(1, "c", "pc", "V"), g.Coupling(1, "q", "rA", None),
    }


# -- parity gate ---------------------------------------------------------------


def parity_sorted_state(reg, a, b, c, d, p1, even2, odd2):
    return branch_state(
        reg,
        [
            (a, {"1": (p1, "H"), "2": (even2, "H")}),
            (b, {"1": (p1, "H"), "2": (odd2, "V")}),
            (c, {"1": (p1, "V"), "2": (odd2, "H")}),
            (d, {"1": (p1, "V"), "2": (even2, "V")}),
        ],
    ).normalized()


def test_parity_basis_cases(alpha20):
    # |HH> stays even (path 1 and the fresh rail); |HV> lands odd (paths 1,2)
    for coeffs, even in (([1, 0, 0, 0], True), ([0, 1, 0, 0], False)):
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
        out, rep = g.parity_gate(s, "1", "2", alpha20, THETA)
        path = rep.extras["even_paths"][1] if even else "t2"
        pol = "H" if even else "V"
        assert abs(amplitude_of(out, {"1": ("t1", "H"), "2": (path, pol)})) == pytest.approx(
            1.0, abs=1e-4
        )
        assert rep.success_probability == pytest.approx(1.0, abs=1e-9)


def test_parity_deterministic_over_all_outcomes(alpha20):
    a, b, c, d = haar_vec(4, 33)
    s = polarization_state([a, b, c, d], [("1", "t1"), ("2", "t2")])
    out, rep = g.parity_gate(s, "1", "2", alpha20, THETA)
    fresh = rep.extras["even_paths"][1]
    target = parity_sorted_state(out.registry, a, b, c, d, "t1", fresh, "t2")
    assert fidelity(out, target) >= 1 - 1e-8
    assert rep.min_fidelity >= 1 - 1e-8
    table = rep.outcomes
    assert all(f >= 1 - 1e-8 for p, f in zip(table.probabilities, table.fidelities) if p > 1e-12)
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)


def test_parity_rejects_multipath_photon(alpha20):
    s = two_photon(1)
    s = HybridState(s.registry.with_path("2", "x"), s.branches)
    s = el.photon_bs(s, "2", "t2", "x")
    with pytest.raises(g.GateError, match="single-path"):
        g.parity_gate(s, "1", "2", alpha20, THETA)


# -- C-path family --------------------------------------------------------------


def test_c_path_basis_routing(alpha20):
    # |V>_C |H>_T -> target on rail 2; |H>_C keeps rail 1
    s = polarization_state([0, 0, 1, 0], [("C", "tc"), ("T", "tt")])
    out, rep = g.c_path(s, "C", "T", alpha20, THETA)
    rail2 = rep.extras["rails"][1]
    assert abs(amplitude_of(out, {"C": ("tc", "V"), "T": (rail2, "H")})) == pytest.approx(1.0, abs=1e-4)
    s = polarization_state(haar_vec(4, 3) * np.array([1, 1, 0, 0]), [("C", "tc"), ("T", "tt")])
    out, rep = g.c_path(s, "C", "T", alpha20, THETA)
    rail2 = rep.extras["rails"][1]
    stray = sum(abs(br.amplitude) ** 2 for br in out.branches if br.slot("T")[0] == rail2)
    assert stray < 1e-8  # only the e^{-|beta|^2} dust rides the wrong rail


def test_c_path_full_map(alpha20):
    a, b, c, d = haar_vec(4, 5)
    s = polarization_state([a, b, c, d], [("C", "tc"), ("T", "r1")])
    out, rep = g.c_path(s, "C", "T", alpha20, THETA)
    r2 = rep.extras["rails"][1]
    target = branch_state(
        out.registry,
        [
            (a, {"C": ("tc", "H"), "T": ("r1", "H")}),
            (b, {"C": ("tc", "H"), "T": ("r1", "V")}),
            (c, {"C": ("tc", "V"), "T": (r2, "H")}),
            (d, {"C": ("tc", "V"), "T": (r2, "V")}),
        ],
    ).normalized()
    assert fidelity(out, target) >= 1 - 1e-8
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)


def test_c_path_builds_switch_state_on_bell_pair(alpha20):
    # |+>_C controlling half a Bell pair builds |Sigma>
    s = tensor(plus_photon("C", "tc"), bell_state("phi+", ("1", "r3"), ("2", "t2")))
    out, rep = g.c_path(s, "C", "1", alpha20, THETA)
    r4 = rep.extras["rails"][1]
    target = branch_state(
        out.registry,
        [
            (0.5, {"C": ("tc", "H"), "1": ("r3", "H"), "2": ("t2", "H")}),
            (0.5, {"C": ("tc", "H"), "1": ("r3", "V"), "2": ("t2", "V")}),
            (0.5, {"C": ("tc", "V"), "1": (r4, "H"), "2": ("t2", "H")}),
            (0.5, {"C": ("tc", "V"), "1": (r4, "V"), "2": ("t2", "V")}),
        ],
    )
    assert fidelity(out, target) >= 1 - 1e-8


def test_c_path2_doubles_rails_triple_photon_stage(alpha40):
    # triple-photon stage: rails double, first photon's bit most significant
    vs = [haar_vec(2, 60 + i) for i in range(3)]
    s = tensor(
        tensor(pol_qubit("1", "t1", *vs[0]), pol_qubit("2", "t2", *vs[1])),
        pol_qubit("3", "t3", *vs[2]),
    )
    out, rep = g.c_path(s, "2", "3", alpha40, THETA)
    rails = list(rep.extras["rails"])
    out, rep = g.disentangler(out, "2", "3", v_rails=rails[1:])
    out, rep = g.c_path2(out, "1", "3", rails, alpha40, THETA)
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)
    all_rails = list(rep.extras["rails"])
    assert len(all_rails) == 4
    # H_1 keeps original rails, V_1 moves to the fresh pair
    probe = remove_photon(out, "2")
    kron = np.kron(np.kron(vs[0], vs[1]), vs[2])
    for j, rail in enumerate(all_rails):
        for p, pol in enumerate(("H", "V")):
            c1 = "H" if j < 2 else "V"
            expect = kron[(j % 2) * 2 + p + (4 if j >= 2 else 0)]
            got = amplitude_of(probe, {"1": ("t1", c1), "3": (rail, pol)})
            assert abs(abs(got) - abs(expect)) < 1e-4


def test_c_path3_layouts_agree(alpha20):
    a = haar_vec(8, 77)
    s = polarization_state(a, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    split_out, rep = g.c_path3(mid, "2", rep1.extras["rails"], "3", alpha20, THETA)
    r5 = rep.extras["rails"][1]
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)
    # target reaches rail 2 only on the |VV> component
    v_comp = [
        br for br in split_out.branches if br.slot("3")[0] == r5 and abs(br.amplitude) > 1e-4
    ]
    assert all(br.slot("1")[1] == "V" and br.slot("2")[1] == "V" for br in v_comp)
    compact_s = polarization_state(a, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    mid, rep1 = g.c_path(compact_s, "1", "2", alpha20, THETA)
    out_c, rep_c = g.c_path3(
        mid, "2", rep1.extras["rails"], "3", alpha20, THETA,
        layout="compact", witness=("1", "t1", "H"),
    )
    assert fidelity(out_c, split_out) >= 1 - 1e-8


def test_c_path3_displayed_coherent_pattern(alpha20):
    # the widetext display: branch-by-branch (alpha, alpha e^{+-i theta}) values
    a = haar_vec(8, 78)
    s = polarization_state(a, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    r3 = rep1.extras["rails"][1]
    mid = el.pbs(mid, "2", "t2", "t2", "t2v")
    mid = el.wave_plate(mid, "2", "t2v", "x")
    mid = HybridState(mid.registry.with_path("3", "r5"), mid.branches)
    mid = el.photon_bs(mid, "3", "t3", "r5")
    couplings = g.c_path3_couplings("2", "t2", "t2v", r3, "3", "t3", "r5", "split")
    coupled, beams = g.couple_qubus_pair(mid, couplings, alpha20, THETA)
    beta = 1j * math.sqrt(2) * alpha20 * math.sin(THETA)
    for br in coupled.branches:
        if abs(br.amplitude) < 1e-3:
            continue  # upstream e^{-|beta|^2} dust follows its own pattern
        vv = br.slot("1")[1] == "V" and br.slot("2") == (r3, "V")
        on5 = br.slot("3")[0] == "r5"
        q0 = br.qubus[0]
        if vv and not on5:
            assert abs(q0 - beta) < 1e-12 * alpha20
        elif vv and on5:
            assert abs(q0) < 1e-12 * alpha20
        elif on5:
            assert abs(q0 - (-beta)) < 1e-12 * alpha20
        else:
            assert abs(q0) < 1e-12 * alpha20


def _per_rail_fan_out(s, photon, rails):
    """pbs_fan_out as two slot tables per rail: a PBS onto the fresh rail,
    then σx on it."""
    _per_rail_fan_out.calls += 1
    fresh = []
    for r in rails:
        f = s.registry.fresh_path(r + "v")
        s = el.wave_plate(el.pbs(s, photon, r, r, f), photon, f, "x")
        fresh.append(f)
    return s, fresh


def _per_rail_fan_in(s, photon, rails, fresh):
    """pbs_fan_in as two slot tables per rail: σx on the fresh rail, then the
    PBS merge of (r, H) and (f, V) onto r, and the fresh rail dropped."""
    _per_rail_fan_in.calls += 1
    for r, f in zip(rails, fresh):
        s = remap_slot(el.wave_plate(s, photon, f, "x"), photon, {(f, "V"): [(1, r, "V")]})
        s = el._reregistered(s, s.registry.without_path(photon, f))
    return s


def _c_path3_split(alpha):
    s = polarization_state(haar_vec(8, 77), [("1", "t1"), ("2", "t2"), ("3", "t3")])
    mid, rep = g.c_path(s, "1", "2", alpha, THETA)
    return g.c_path3(mid, "2", rep.extras["rails"], "3", alpha, THETA)


def _multi_qubit(n):
    def run(alpha):
        s = polarization_state(haar_vec(2**n, 40 + n), [(str(i), f"t{i}") for i in range(1, n + 1)])
        u = syn.random_haar_unitary(2**n, n)
        return pl.multi_qubit_gate(s, [str(i) for i in range(1, n + 1)], u, alpha, THETA)
    return run


@pytest.mark.parametrize("run", [_c_path3_split, _multi_qubit(2), _multi_qubit(3), _multi_qubit(4)],
                         ids=["c_path3-split", "multi-qubit-2", "multi-qubit-3", "multi-qubit-4"])
def test_pbs_fans_match_the_per_rail_route_bit_for_bit(run, alpha20, monkeypatch):
    g._stage_algebra.cache_clear()
    want_out, want_rep = run(alpha20)
    g._stage_algebra.cache_clear()  # each run compiles its own stages
    _per_rail_fan_out.calls = _per_rail_fan_in.calls = 0
    monkeypatch.setattr(el, "pbs_fan_out", _per_rail_fan_out)
    monkeypatch.setattr(el, "pbs_fan_in", _per_rail_fan_in)
    out, rep = run(alpha20)
    g._stage_algebra.cache_clear()
    assert _per_rail_fan_out.calls and _per_rail_fan_in.calls
    assert out.registry == want_out.registry
    for a, b in ((out.amps, want_out.amps), (out.codes, want_out.codes),
                 (out.qubus, want_out.qubus)):
        assert np.array_equal(a, b)
    assert json.dumps(rep.to_dict()) == json.dumps(want_rep.to_dict())


@pytest.mark.parametrize("flip, message", [
    (0, "V component present on H input 'a' of PBS merge"),
    (1, "H component present on V input 'av' of PBS merge"),
], ids=["rail", "fresh-rail"])
def test_c_path3_refuses_a_component_on_a_merge_s_wrong_port(flip, message, alpha20, monkeypatch):
    # a fan-out that leaves its rail (its fresh rail) flipped puts V (H) on
    # the merge's wrong port: the block runs, and the fan-in after it refuses
    fan_out = el.pbs_fan_out

    def flipped(s, photon, rails):
        s, fresh = fan_out(s, photon, rails)
        return el.wave_plate(s, photon, [*rails, *fresh][flip], "x"), fresh

    s = polarization_state(haar_vec(4, 7), [("1", "a"), ("2", "t2")])
    s = el.photon_bs(HybridState(s.registry.with_path("1", "b"), s.branches), "1", "a", "b")
    monkeypatch.setattr(el, "pbs_fan_out", flipped)
    with pytest.raises(StateError, match=re.escape(message)):
        g.c_path3(s, "1", ("a", "b"), "2", alpha20, THETA)


# -- Disentangler ---------------------------------------------------------------


def test_disentangler_two_photon_transform(alpha20):
    a, b, c, d = haar_vec(4, 41)
    s = polarization_state([a, b, c, d], [("1", "t1"), ("2", "t2")])
    out, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    r2 = rep1.extras["rails"][1]
    out, rep = g.disentangler(out, "1", "2", v_rails=[r2])
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)
    target = tensor(
        plus_photon("1", "t1"),
        branch_state(
            ModeRegistry().with_photon("2", ("t2", r2)),
            [
                (a, {"2": ("t2", "H")}), (b, {"2": ("t2", "V")}),
                (c, {"2": (r2, "H")}), (d, {"2": (r2, "V")}),
            ],
        ).normalized(),
    )
    assert fidelity(out, target) >= 1 - 1e-8
    # both arms give the same state after feed-forward
    assert rep.min_fidelity >= 1 - 1e-8


def test_disentangler_product_input_identity(alpha20):
    s = tensor(plus_photon("1", "t1"), pol_qubit("2", "t2", 0.8, 0.6))
    out, rep = g.disentangler(s, "1", "2", v_rails=[])
    assert fidelity(out, s) == pytest.approx(1.0, abs=1e-9)


# -- Entangler variants ----------------------------------------------------------


def test_entangler1_three_photon_state(alpha20):
    # path-split two-photon input + |+> ancilla -> a HHH + b HVV + c VHH + d VVV
    a, b, c, d = haar_vec(4, 43)
    reg = (
        ModeRegistry()
        .with_photon("1", ("p1",))
        .with_photon("2", ("p2", "p3"))
    )
    s = branch_state(
        reg,
        [
            (a, {"1": ("p1", "H"), "2": ("p2", "H")}),
            (b, {"1": ("p1", "H"), "2": ("p2", "V")}),
            (c, {"1": ("p1", "V"), "2": ("p3", "H")}),
            (d, {"1": ("p1", "V"), "2": ("p3", "V")}),
        ],
    ).normalized()
    s = tensor(s, plus_photon("4", "p4"))
    out, rep = g.entangler4(s, "4", "2", ("p2", "p3"), alpha20, THETA)
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)
    target = branch_state(
        out.registry,
        [
            (a, {"1": ("p1", "H"), "2": ("p2", "H"), "4": ("p4", "H")}),
            (b, {"1": ("p1", "H"), "2": ("p2", "V"), "4": ("p4", "V")}),
            (c, {"1": ("p1", "V"), "2": ("p3", "H"), "4": ("p4", "H")}),
            (d, {"1": ("p1", "V"), "2": ("p3", "V"), "4": ("p4", "V")}),
        ],
    ).normalized()
    assert fidelity(out, target) >= 1 - 1e-8


def test_entangler2_reentangles_companion(alpha20):
    # |+>_1 (a H + b V)_{r1} + (c H + d V)_{r2} -> pol-of-1 correlated with rail
    a, b, c, d = haar_vec(4, 44)
    reg = ModeRegistry().with_photon("1", ("t1",)).with_photon("2", ("r1", "r2"))
    qud = branch_state(
        reg.without_photon("1"),
        [(a, {"2": ("r1", "H")}), (b, {"2": ("r1", "V")}),
         (c, {"2": ("r2", "H")}), (d, {"2": ("r2", "V")})],
    ).normalized()
    s = tensor(plus_photon("1", "t1"), qud)
    out, rep = g.entangler3(s, "1", "2", ["r1"], ["r2"], alpha20, THETA)
    target = branch_state(
        out.registry,
        [
            (a, {"1": ("t1", "H"), "2": ("r1", "H")}),
            (b, {"1": ("t1", "H"), "2": ("r1", "V")}),
            (c, {"1": ("t1", "V"), "2": ("r2", "H")}),
            (d, {"1": ("t1", "V"), "2": ("r2", "V")}),
        ],
    ).normalized()
    assert fidelity(out, target) >= 1 - 1e-8
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)


# -- Merging family ---------------------------------------------------------------


def test_merging_inverts_c_path(alpha20):
    for seed in range(4):
        z = haar_vec(4, 100 + seed)
        s = polarization_state(z, [("1", "t1"), ("2", "t2")])
        mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
        mid, anc, apath = g.inject_plus(mid, "A", "pa")
        out, rep2 = g.merging_n(
            mid, "2", rep1.extras["rails"], "A", [("1", None)], alpha20, THETA,
            keep_recycled=False,
        )
        target = polarization_state(z, [("1", "t1"), ("A", "pa")])
        assert fidelity(out, target) >= 1 - 1e-8
        probs = sorted(rep2.outcomes.probabilities)
        assert all(p == pytest.approx(0.25, abs=1e-4) for p in probs)


def test_merging_basis_case(alpha20):
    # b = 1: |HV>_12 -> |HV>_14
    reg = ModeRegistry().with_photon("1", ("p1",)).with_photon("2", ("p2", "p3"))
    s = branch_state(reg, [(1.0, {"1": ("p1", "H"), "2": ("p2", "V")})])
    s = tensor(s, plus_photon("4", "p4"))
    out, rep = g.merging_n(
        s, "2", ("p2", "p3"), "4", [("1", None)], alpha20, THETA,
        keep_recycled=False,
    )
    assert abs(amplitude_of(out, {"1": ("p1", "H"), "4": ("p4", "V")})) == pytest.approx(1.0, abs=1e-4)


def test_merging_keeps_recycled_photon(alpha20):
    z = haar_vec(4, 7)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    mid, anc, _ = g.inject_plus(mid, "A", "pa")
    out, rep = g.merging_n(
        mid, "2", rep1.extras["rails"], "A", [("1", None)], alpha20, THETA
    )
    assert "2" in out.registry.photons
    assert rep.extras["recycled_sign"] in "+-"
    stripped = remove_photon(out, "2")
    assert fidelity(stripped, polarization_state(z, [("1", "t1"), ("A", "pa")])) >= 1 - 1e-8


def test_merging_without_the_recycled_photon_removes_it_once_per_outcome(alpha20, monkeypatch):
    """The compiled readout drops the detected photon from every outcome at
    once (_Release), so remove_photon runs once, on the representative's
    route, and the representative's state is that route's."""
    s = polarization_state(haar_vec(4, 7), [("1", "t1"), ("2", "t2")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    mid, _, _ = g.inject_plus(mid, "A", "pa")
    args = (mid, "2", rep1.extras["rails"], "A", [("1", None)], alpha20, THETA)
    kept, _ = g.merging_n(*args)
    calls = []

    def counted(st, pid):
        calls.append(pid)
        return remove_photon(st, pid)

    monkeypatch.setattr(g, "remove_photon", counted)
    out, rep = g.merging_n(*args, keep_recycled=False)
    assert calls == ["2"] and len(rep.outcomes) == 4
    # bit for bit the recycled photon's state with the photon removed
    want = remove_photon(kept, "2")
    assert out.registry is want.registry
    for got, ref in ((out.amps, want.amps), (out.codes, want.codes), (out.qubus, want.qubus)):
        assert np.array_equal(got, ref)


def test_merging_requires_plus_ancilla(alpha20):
    reg = ModeRegistry().with_photon("1", ("p1",)).with_photon("2", ("p2", "p3"))
    s = branch_state(reg, [(1.0, {"1": ("p1", "H"), "2": ("p2", "H")})])
    s = tensor(s, pol_qubit("4", "p4", 1, 0))  # |H>, not |+>
    with pytest.raises(g.GateError, match=r"\|\+\>|not in"):
        g.merging_n(s, "2", ("p2", "p3"), "4", [("1", None)], alpha20, THETA)


def _haar_pair_with_ancilla(alpha, h, v):
    """A C-path output of a Haar pair and an ancilla h|H⟩ + v|V⟩ on path pa."""
    s = polarization_state(haar_vec(4, 9), [("1", "t1"), ("2", "t2")])
    mid, rep = g.c_path(s, "1", "2", alpha, THETA)
    return tensor(mid, pol_qubit("A", "pa", h, v)), rep.extras["rails"]


@pytest.mark.parametrize("gate", ["entangler4", "merging_n"])
def test_a_minus_ancilla_is_refused(gate, alpha20):
    # |−⟩ has |⟨σx⟩| = 1 too, but ⟨σx⟩ = −1
    mid, rails = _haar_pair_with_ancilla(alpha20, 1, -1)
    with pytest.raises(g.GateError, match=r"ancilla 'A' is not in \|\+⟩"):
        if gate == "entangler4":
            g.entangler4(mid, "A", "2", rails, alpha20, THETA)
        else:
            g.merging_n(mid, "2", rails, "A", [("1", None)], alpha20, THETA, keep_recycled=False)


def test_a_plus_ancilla_with_a_global_phase_is_accepted(alpha20):
    phase = cmath.exp(0.7j)
    mid, rails = _haar_pair_with_ancilla(alpha20, phase, phase)
    _, rep = g.entangler4(mid, "A", "2", rails, alpha20, THETA)
    assert rep.success_probability >= 1 - 1e-8
    out, rep = g.merging_n(mid, "2", rails, "A", [("1", None)], alpha20, THETA,
                           keep_recycled=False)
    assert rep.success_probability >= 1 - 1e-8
    want = polarization_state(haar_vec(4, 9), [("1", "t1"), ("A", "pa")])
    assert fidelity(out, want) >= 1 - 1e-8


def test_merging_n_reduces_to_merging(alpha20):
    # on two rails the QFT is the 50:50 BS of the standard Merging gate
    z = haar_vec(4, 9)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    mid, _, _ = g.inject_plus(mid, "A", "pa")
    out, rep = g.merging_n(
        mid, "2", rep1.extras["rails"], "A", [("1", None)], alpha20, THETA,
        interference="qft", keep_recycled=False,
    )
    assert rep.gate == "merging" and rep.extras["interference"] == "bs"
    assert "lomi" not in rep.gates
    assert fidelity(out, polarization_state(z, [("1", "t1"), ("A", "pa")])) >= 1 - 1e-8


def test_a_second_merging_call_reuses_its_readout_layout(alpha20):
    def merged(seed, companions):
        z = haar_vec(4, seed)
        s = polarization_state(z, [("1", "t1"), ("2", "t2")])
        mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
        mid, _, _ = g.inject_plus(mid, "A", "pa")
        out, rep = g.merging_n(mid, "2", rep1.extras["rails"], "A", companions, alpha20, THETA,
                               keep_recycled=False)
        assert fidelity(out, polarization_state(z, [("1", "t1"), ("A", "pa")])) >= 1 - 1e-8
        return [[op["kind"] for op in ops] for _, ops in rep.feedforward]

    g._readout.cache_clear()
    sigma_z = merged(11, [("1", None)])
    assert sigma_z == [[], ["WavePlateZ"], ["WavePlateZ"], ["WavePlateZ", "WavePlateZ"]]
    assert merged(12, [("1", None)]) == sigma_z
    assert (g._readout.cache_info().misses, g._readout.cache_info().hits) == (1, 1)
    # a companion named by its path takes the π on that path's V: a layout of its own
    by_path = merged(11, [("1", "t1")])
    assert by_path == [[], ["WavePlateZ"], ["PolPhase"], ["PolPhase", "WavePlateZ"]]
    assert (g._readout.cache_info().misses, g._readout.cache_info().hits) == (2, 1)


def test_merging_n_rejects_bad_rail_count(alpha20):
    z = haar_vec(4, 10)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    mid, _, _ = g.inject_plus(mid, "A", "pa")
    with pytest.raises(g.GateError, match="power of two"):
        g.merging_n(mid, "2", ("x", "y", "z"), "A", [("1", None)], alpha20, THETA)


def test_merging_n_hadamard4_sigma_z_only_feedforward(alpha40):
    vs = [haar_vec(2, 200 + i) for i in range(3)]
    s = tensor(tensor(pol_qubit("1", "t1", *vs[0]), pol_qubit("2", "t2", *vs[1])), pol_qubit("3", "t3", *vs[2]))
    from qubusim.pipelines import to_qudit_circuit

    out, rep = to_qudit_circuit(s, ["1", "2", "3"], alpha40, THETA)
    rails = list(rep.extras["rails"])
    out, _ = g.entangler3(out, "1", "3", rails[:2], rails[2:], alpha40, THETA)
    out, _ = g.entangler3(out, "2", "3", rails[::2], rails[1::2], alpha40, THETA)
    out, _, _ = g.inject_plus(out, "A", "pa")
    merged, repm = g.merging_n(
        out, "3", rails, "A", [("1", None), ("2", None)], alpha40, THETA,
        interference="hadamard4", keep_recycled=False,
    )
    assert repm.success_probability == pytest.approx(1.0, abs=1e-9)
    for label, ops in repm.feedforward:
        for op in ops:
            assert op["kind"] == "WavePlateZ"
    target = polarization_state(
        np.kron(np.kron(vs[0], vs[1]), vs[2]), [("1", "t1"), ("2", "t2"), ("A", "pa")]
    )
    assert fidelity(merged, target) >= 1 - 1e-8


def test_merging_n_interference_is_qft_or_hadamard4(alpha20):
    s = polarization_state(haar_vec(4, 9), [("1", "t1"), ("2", "t2")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    mid, _, _ = g.inject_plus(mid, "A", "pa")
    for interference in (syn.qft_matrix(2), "bs", "custom"):
        with pytest.raises(g.GateError, match="interference must be 'qft' or 'hadamard4'"):
            g.merging_n(
                mid, "2", rep1.extras["rails"], "A", [("1", None)], alpha20, THETA,
                interference=interference,
            )


def test_gate_determinism_invariant_beta20(alpha20):
    # every qubus gate's enumerated outcomes agree at |beta|^2 = 20
    z = haar_vec(4, 55)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    out, rep = g.parity_gate(s, "1", "2", alpha20, THETA)
    assert rep.min_fidelity >= 1 - 1e-8
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    out, rep = g.c_path(s, "1", "2", alpha20, THETA)
    assert rep.min_fidelity >= 1 - 1e-8


def test_fidelity_monotone_in_beta2():
    from qubusim.analysis import run_sweep, SweepSpec

    rows = run_sweep(SweepSpec("gate_fidelity", {"beta2": [0.5, 2.0, 8.0, 20.0]}))
    vals = [r["value"] for r in rows]
    assert vals == sorted(vals)
    assert vals[0] < 1 - 1e-3  # small beta leaks measurably
    assert vals[-1] >= 1 - 1e-8


def _report_tree(rep):
    yield rep
    for child in rep.children:
        yield from _report_tree(child)


def _assert_outcome_rows(rep, doc=None):
    """Every report of the tree (doc: its JSON, else to_dict's) writes its
    table's kind once, as outcome_kind, and each outcome as a row of its
    value, probability and fidelity, read off the table's columns."""
    if doc is None:
        doc = rep.to_dict()
    table = rep.outcomes
    assert isinstance(table, g.OutcomeTable)
    assert doc["outcome_kind"] == table.kind
    assert all(set(row) == {"value", "probability", "fidelity"} for row in doc["outcomes"])
    rows = [(row["value"], row["probability"], row["fidelity"]) for row in doc["outcomes"]]
    assert rows == list(zip(table.values, table.probabilities, table.fidelities))
    for child, node in zip(rep.children, doc["children"], strict=True):
        _assert_outcome_rows(child, node)


def test_outcome_table_columns_read_as_entries():
    # a bright beam: hundreds of outcomes, so a sum in another order would round differently
    s = polarization_state(haar_vec(4, 5), [("1", "t1"), ("2", "t2")])
    _, rep = g.parity_gate(s, "1", "2", alpha_for_beta2(2000.0, THETA), THETA)
    table = rep.outcomes
    _assert_outcome_rows(rep)
    rows = list(zip(table.values, table.probabilities, table.fidelities))
    assert len(table) == len(rows) > 500 and all(type(v) is int for v, _, _ in rows)
    success = 0.0
    for _, p, f in rows:  # the success mass is summed in outcome order
        if f >= 1.0 - g.AGREEMENT_TOL:
            success += p
    assert rep.success_probability == success
    assert rep.min_fidelity == min(1.0, *table.fidelities)
    doc = rep.to_dict()
    assert doc["outcome_kind"] == "fock"
    assert doc["outcomes"][0] == {"value": 0, "probability": rows[0][1], "fidelity": rows[0][2]}
    empty = g.GateReport("empty").to_dict()
    assert empty["outcome_kind"] == "" and empty["outcomes"] == []


def test_outcome_tables_of_presence_readouts_and_report_trees(alpha20):
    z = haar_vec(4, 7)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    mid, rep1 = g.c_path(s, "1", "2", alpha20, THETA)
    mid, _, _ = g.inject_plus(mid, "A", "pa")
    _, rep = g.merging_n(
        mid, "2", rep1.extras["rails"], "A", [("1", None)], alpha20, THETA
    )
    assert rep.outcomes is rep.children[-1].outcomes  # the readout stage's table
    assert rep.outcomes.kind == "presence" and len(rep.outcomes) == 4
    assert all(isinstance(v, str) for v in rep.outcomes.values)
    _assert_outcome_rows(rep)

    s = polarization_state(haar_vec(8, 9), [("1", "t1"), ("2", "t2"), ("3", "t3")])
    _, rep = pl.toffoli(s, ["1", "2"], "3", alpha20, THETA)
    kinds = {r.outcomes.kind for r in _report_tree(rep) if len(r.outcomes)}
    assert kinds == {"fock", "presence"}
    _assert_outcome_rows(rep)


@pytest.mark.parametrize("name", DEMO_GATES)
def test_report_json_writes_each_outcome_kind_once(name, monkeypatch, tmp_path):
    # the printed report tree against the reports it was written from
    runs = []
    run_steps = cli._run_steps

    def capture(*args):
        runs.append(run_steps(*args))
        return runs[-1]

    monkeypatch.setattr(cli, "_run_steps", capture)
    out = tmp_path / "r.json"
    assert main(["gate", *_BLOCK_RUNS[name], "--out", str(out)]) == 0
    ((_, reports),) = runs
    _assert_outcome_rows(reports[-1], json.loads(out.read_text())["report"])


def test_gate_fidelity_reads_the_outcome_columns():
    from qubusim.analysis import run_sweep, SweepSpec
    from qubusim.state import random_polarization_state

    (row,) = run_sweep(SweepSpec("gate_fidelity", {"beta2": [8.0]}))
    _, rep = g.parity_gate(
        random_polarization_state(2, 0), "1", "2", alpha_for_beta2(8.0, THETA), THETA
    )
    p, f = rep.outcomes.probabilities, rep.outcomes.fidelities
    assert row["value"] == math.fsum(a * b for a, b in zip(p, f)) / math.fsum(p) < 1 - 1e-6


def test_feedforward_plan_picks_row_by_parity():
    s = pol_qubit("1", "p", 0.6, 0.8)
    x = el.op("WavePlateX", photon="1", path=None)
    z = el.op("WavePlateZ", photon="1", path=None)
    plan = g._parity_plan([x], [x, z])
    for n, ops in ((0, []), (2, [x]), (6, [x]), (1, [x, z]), (5, [x, z])):
        got = plan.correct(s, n)
        assert state_to_dict(got) == state_to_dict(el.apply_elements(s, ops))
    assert plan.describe() == [
        ("n=0", []), ("n even", [x.to_dict()]), ("n odd", [x.to_dict(), z.to_dict()])
    ]


def _three_rail_state():
    """Photon 2 over rails r1, r2 and r3 (and a path x in no row), photon 1 on
    t1 and a beam: rows on every rail and polarization."""
    reg = ModeRegistry().with_photon("1", ("t1",)).with_photon("2", ("r1", "r2", "r3", "x"))
    rng = np.random.default_rng(4)
    rows = [
        Branch(complex(*rng.standard_normal(2)), (("1", "t1", p1), ("2", rail, p2)), (v,))
        for p1 in "HV" for rail in ("r1", "r2", "r3") for p2 in "HV" for v in (0.5 + 0j, -1j)
    ]
    return normalize(HybridState(reg.with_qubus("q"), rows))


@pytest.mark.parametrize("layout", ["one-rail", "three-rail", "two-of-three-rails"])
def test_open_rails_matches_the_per_element_split(layout):
    # the compiled run of the rail splits gives the rows of one photon_bs per rail, bit for bit
    if layout == "one-rail":
        s, rails = two_photon(7), ["t2"]
    else:
        s = _three_rail_state()
        rails = ["r1", "r2", "r3"] if layout == "three-rail" else ["r3", "r1"]
    got, fresh = g._open_rails(s, "2", rails, "s")
    reg = s.registry
    for f in fresh:
        reg = reg.with_path("2", f)
    want = HybridState(reg, s.branches)
    for r, f in zip(rails, fresh):
        want = el.photon_bs(want, "2", r, f)
    assert got.registry == want.registry
    assert np.array_equal(got.codes, want.codes) and np.array_equal(got.qubus, want.qubus)
    assert np.array_equal(got.amps, want.amps)


def test_cached_plans_do_not_leak_into_the_next_report(alpha20):
    # a caller that edits one report's feed-forward table leaves the next call's alone
    calls = [
        lambda: g.parity_gate(two_photon(3), "1", "2", alpha20),
        lambda: g.c_path(two_photon(3), "1", "2", alpha20),
    ]
    for call in calls:
        want = call()[1].to_dict()["feedforward"]
        _, rep = call()
        table = rep.to_dict()["feedforward"]
        table[2]["ops"][0]["targets"]["photon"] = "edited"
        table[2]["ops"].append({"kind": "edited"})
        table.clear()
        rep.feedforward[1][1][0]["kind"] = "edited"
        rep.feedforward[2][1].clear()
        rep.feedforward.clear()
        assert call()[1].to_dict()["feedforward"] == want


def _expected_bell_rows(sx, sz):
    return [("phi+", []), ("phi-", sz), ("psi+", sx), ("psi-", sx + sz)]


@pytest.mark.parametrize(
    "argv",
    [["teleport", "--photons", "3"], ["teleport", "--photons", "4"], ["toffoli"]],
    ids=["teleport-3", "teleport-4", "toffoli"],
)
def test_every_measurement_stage_lists_its_feedforward_table(argv, tmp_path):
    out = tmp_path / "r.json"
    assert main(["gate", *argv, "--beta2", "20", "--input", "haar:5", "--out", str(out)]) == 0
    top = json.loads(out.read_text())["report"]

    def tree(node):
        yield node
        for child in node["children"]:
            yield from tree(child)

    bells = []
    stages = [r for r in tree(top) if r["outcomes"]]
    assert stages
    for r in stages:
        labels = [row["outcome"] for row in r["feedforward"]]
        kind = r["outcome_kind"]
        values = [o["value"] for o in r["outcomes"]]
        if kind == "fock":
            assert labels == ["n=0", "n even", "n odd"], r["gate"]
        elif kind == "bell":
            assert labels == ["phi+", "phi-", "psi+", "psi-"], r["gate"]
            assert set(values) <= set(labels)
            bells.append(r)
        elif r["gate"] == "disentangler":
            assert labels == ["+", "-"]
        else:  # a Merging readout: one row per arm, k+ and k- for rail k
            rails = len(labels) // 2
            assert labels == [f"arm {k}{sign}" for k in range(rails) for sign in "+-"]
            assert {f"arm {v}" for v in values} <= set(labels)
    if argv[0] != "teleport":
        assert not bells
        return
    # input i with ancilla i corrects rail-index bit i of the Bell photon, the
    # last input its polarization
    n = int(argv[2])
    carrier, rails = top["extras"]["carrier"], top["extras"]["rails"]
    assert len(bells) == n
    for i, r in enumerate(bells):
        if i < n - 1:
            clear, set_ = pl.split_rails(rails, i)
            sx = [el.op("PathSwitch", photon=carrier, path_a=a, path_b=b) for a, b in zip(clear, set_)]
            sz = [el.op("PolPhase", math.pi, photon=carrier, path=x, pol=None) for x in set_]
        else:
            sx = [el.op("WavePlateX", photon=carrier, path=None)]
            sz = [el.op("WavePlateZ", photon=carrier, path=None)]
        want = [
            {"outcome": label, "ops": [o.to_dict() for o in ops]}
            for label, ops in _expected_bell_rows(sx, sz)
        ]
        assert r["feedforward"] == want, r["gate"]


def test_presence_stage_lists_arms_with_no_outcome(alpha20):
    # a control already in |+> is only ever found on the plus arm
    s = tensor(plus_photon("1", "t1"), pol_qubit("2", "t2", 0.6, 0.8))
    out, rep = g.disentangler(s, "1", "2", v_rails=["t2"])
    assert list(rep.outcomes.values) == ["t1p"]
    assert [label for label, _ in rep.feedforward] == ["+", "-"]
    assert len(rep.feedforward[1][1]) == 2  # sigma_z on the control, pi on t2
    assert fidelity(out, s) >= 1 - 1e-12


def test_success_mass_reads_1_within_rounding_and_raises_above():
    one = pol_qubit("1", "a", 1.0, 0.0)
    scored = score_outcomes("fock", [(0, 0.5, one), (1, 0.5, one), (2, 4e-16, one)])
    assert scored.success_probability == 1.0
    with pytest.raises(g.GateError, match="fock outcomes that agree hold probability"):
        score_outcomes("fock", [(0, 0.5, one), (1, 0.5, one), (2, 1e-9, one)])


# -- the batched qubus block against the per-outcome loop ---------------------------


def _outcome_loop(*args, **kwargs):
    """The reference block: collapse, correct, dispose and score each outcome alone."""
    return score_outcomes("fock", block_outcomes(*args, **kwargs))


def _assert_block_matches_loop(got, ref):
    """Every outcome's value, probability and fidelity to 1e-12, and the
    representative's state."""
    a, b = got.outcomes, ref.outcomes
    assert a.kind == b.kind and list(a.values) == list(b.values)
    assert np.abs(np.subtract(a.probabilities, b.probabilities)).max(initial=0.0) <= 1e-12
    assert np.abs(np.subtract(a.fidelities, b.fidelities)).max(initial=0.0) <= 1e-12
    assert abs(got.success_probability - ref.success_probability) <= 1e-12
    assert abs(got.min_fidelity - ref.min_fidelity) <= 1e-12
    assert got.value == ref.value
    assert state_to_dict(got.state) == state_to_dict(ref.state)


_BLOCK_RUNS = {name: [name, "--beta2", "20", "--input", "haar:3"] for name in DEMO_GATES}
_BLOCK_RUNS["cn-uk"] += ["--targets", "2"]
_BLOCK_RUNS["parity-2000"] = ["parity", "--beta2", "2000"]
_BLOCK_RUNS["toffoli-compact"] = ["toffoli", "--layout", "compact"]


@pytest.mark.parametrize("argv", list(_BLOCK_RUNS.values()), ids=list(_BLOCK_RUNS))
def test_batched_block_matches_outcome_route(argv, monkeypatch, tmp_path):
    # the second run, on another Haar input, finds the blocks of the first
    # compiled, and still matches the loop; a later block can meet a new
    # structure, as its rails follow an earlier stage's representative
    # (the cache is shared with the Bell and presence stages, so each block
    # call's own lookups are counted around it)
    calls = []
    block = g.run_qubus_block

    def capture(*args, **kwargs):
        before = g._stage_algebra.cache_info()
        got = block(*args, **kwargs)
        after = g._stage_algebra.cache_info()
        calls.append((args, kwargs, got, after.hits - before.hits, after.misses - before.misses))
        return got

    monkeypatch.setattr(g, "run_qubus_block", capture)
    for warm, run in enumerate((argv, argv + ["--input", "haar:11"])):
        calls.clear()
        assert main(["gate", *run, "--out", str(tmp_path / "r.json")]) == 0
        assert calls
        assert all(hits + misses == 1 for *_, hits, misses in calls)
        hits, misses = sum(c[3] for c in calls), sum(c[4] for c in calls)
        if warm:
            assert hits and misses < len(calls) / 2
        for args, kwargs, got, *_ in calls:
            _assert_block_matches_loop(got, _outcome_loop(*args, **kwargs))


def test_block_with_tied_disposal_values_takes_the_outcome_route(monkeypatch):
    # both branches of every outcome have the same |amplitude| and different
    # sum-port values, so no outcome has a unique disposal value
    s = plus_photon("1", "t1")
    couplings = [g.Coupling(0, "1", "t1", "H")] * 2 + [g.Coupling(0, "1", "t1", "V")] * 3
    couplings.append(g.Coupling(1, "1", "t1", "V"))
    plan = g._parity_plan([], [])
    routed = []
    route = g._outcome_route

    def counting(rec, *args):
        routed.append(rec.value)
        return route(rec, *args)

    monkeypatch.setattr(g, "_outcome_route", counting)
    alpha = alpha_for_beta2(20.0, THETA)
    got = g.run_qubus_block(s, couplings, alpha, THETA, plan)
    assert len(got.outcomes) == 61
    assert sorted(routed) == list(got.outcomes.values)
    _assert_block_matches_loop(got, _outcome_loop(s, couplings, alpha, THETA, plan))


@pytest.mark.parametrize("mean", [20, 21, 33])
def test_block_tied_for_most_probable_matches_outcome_route(mean):
    # one coupling puts a Poisson(mean) pmf on the difference port; at an
    # integer mean P(mean - 1) = P(mean), and the first of the tied outcomes represents
    s = pol_qubit("1", "t1", 1, 0)
    couplings = [g.Coupling(0, "1", "t1", "H")]
    plan = g._parity_plan([], [])
    alpha = math.sqrt(mean / (2 * math.sin(THETA / 2) ** 2))
    got = g.run_qubus_block(s, couplings, alpha, THETA, plan)
    assert got.value in (mean - 1, mean)
    _assert_block_matches_loop(got, _outcome_loop(s, couplings, alpha, THETA, plan))


# -- the compiled block algebra ----------------------------------------------


def _parity_block(coeffs, alpha=None, theta=THETA, plan=None):
    """The parity gate's block on photons 1 and 2: (state, couplings, α, θ, plan)."""
    s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
    s, (rail_b,) = g._open_rails(s, "2", ["t2"], "s")
    couplings = g.parity_couplings("1", "t1", "2", "t2", rail_b)
    if plan is None:
        plan = g._switch_plan("2", ("t2",), (rail_b,), odd_phase=("1", "t1"))
    return s, couplings, alpha or alpha_for_beta2(20.0, theta), theta, plan


def _run_compiled(*args, **kwargs):
    """run_qubus_block, checked against the loop; returns the cache misses it took."""
    before = g._stage_algebra.cache_info().misses
    got = g.run_qubus_block(*args, **kwargs)
    _assert_block_matches_loop(got, _outcome_loop(*args, **kwargs))
    return g._stage_algebra.cache_info().misses - before


def test_a_block_of_another_structure_misses_the_compiled_cache():
    g._stage_algebra.cache_clear()
    haar = haar_vec(4, 5)
    assert _run_compiled(*_parity_block(haar)) == 1
    assert _run_compiled(*_parity_block(haar_vec(4, 6))) == 0  # same structure
    assert _run_compiled(*_parity_block([0, 1, 0, 0])) == 1  # a basis input: one row
    assert _run_compiled(*_parity_block(haar, alpha=alpha_for_beta2(30.0, THETA))) == 1
    assert _run_compiled(*_parity_block(haar, theta=0.07)) == 1
    # the same couplings under the parity table of the Entangler
    sx, sz = el.op("WavePlateX", photon="1", path=None), el.op("WavePlateZ", photon="1", path=None)
    assert _run_compiled(*_parity_block(haar, plan=g._parity_plan([sx], [sx, sz]))) == 1
    # C-path-3 in both layouts: a fanned-out control rail, and one coupling fewer
    s = polarization_state(haar_vec(4, 7), [("1", "a"), ("2", "t2")])
    s = tensor(s, pol_qubit("3", "t3", 0.6, 0.8))
    s = el.photon_bs(HybridState(s.registry.with_path("1", "b"), s.branches), "1", "a", "b")
    calls, block = [], g.run_qubus_block

    def capture(*args, **kwargs):
        before = g._stage_algebra.cache_info().misses
        got = block(*args, **kwargs)
        calls.append(g._stage_algebra.cache_info().misses - before)
        _assert_block_matches_loop(got, _outcome_loop(*args, **kwargs))
        return got

    for layout in ("split", "compact"):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(g, "run_qubus_block", capture)
            g.c_path3(s, "1", ("a", "b"), "3", alpha_for_beta2(20.0, THETA), THETA,
                      layout=layout, witness=("2", "t2", "V"))
        assert calls == [1], layout


def test_a_cold_compile_keeps_none_of_its_merges_in_the_runs_memo(alpha20, monkeypatch):
    # a compile's merges (_compile_rows, _Release) run on tagged rows that no
    # later call meets, so they take the kernel, not the _runs memo
    memo, kept = g._runs, []

    def recorded(*args):
        kept.append(args)
        return memo(*args)

    recorded.__wrapped__ = memo.__wrapped__
    monkeypatch.setattr(g, "_runs", recorded)
    g._stage_algebra.cache_clear()
    g.run_qubus_block(*_parity_block(haar_vec(4, 5)))
    mid, rails = _haar_pair_with_ancilla(alpha20, 1, 1)
    g.merging_n(mid, "2", rails, "A", [("1", None)], alpha20, THETA)
    # the parity block, then the C-path's, the Entangler's and the Merging readout
    assert g._stage_algebra.cache_info().misses == 4
    assert kept == []


def test_the_compiled_cache_is_bounded():
    info = g._stage_algebra.cache_info()
    assert info.maxsize == g.BLOCK_CACHE
    s, couplings = pol_qubit("1", "t1", 0.6, 0.8), [g.Coupling(0, "1", "t1", "H")]
    plan = g._parity_plan([], [])
    for beta2 in 20.0 + np.arange(info.maxsize + 1):
        g.run_qubus_block(s, couplings, alpha_for_beta2(beta2, THETA), THETA, plan)
    assert g._stage_algebra.cache_info().currsize == info.maxsize


def test_a_corrupted_compiled_block_fails_the_route_check():
    # parts 0 and 1 of every group swapped on a cache hit: the batched
    # representative no longer matches its per-outcome route
    args = _parity_block(haar_vec(4, 5))
    g.run_qubus_block(*args)
    coupled, (b0, b1) = g.couple_qubus_pair(*args[:4])
    found = fock_outcomes(coupled, b0)
    st = found.state
    alg = g._stage_algebra(st.registry, st.codes, st.qubus, g._FockParts(found.mode_index, b1),
                           args[4].rows)
    try:
        alg.cell.setflags(write=True)
        alg.cell[:] += np.array([1, -1, 0])[alg.cell % len(found.weights)]
        with pytest.raises(g.GateError, match="disagrees with its per-outcome route"):
            g.run_qubus_block(*args)
    finally:
        g._stage_algebra.cache_clear()


def _uncompiled_parts(found, plan, beam):
    """Each outcome's group as the block builds it without compiling: the
    coupled state corrected by the outcome's row, projected onto the
    sum-port value of its largest row (canonicalize drops the dust) and
    split by measured value into its K parts."""
    from qubusim.detection import _project_onto, fock_distribution

    mode = found.state.registry.qubus_modes[found.mode_index]
    values, out = fock_distribution(found.state, mode).values, []
    for i, n in enumerate(found.values):
        one = plan.correct(found[i].collapsed, n)
        v = one.qubus[np.argmax(abs(one.amps)), one.registry.qubus_index(beam)]
        every = plan.correct(found.state, n)
        kept = _project_onto(every, every.registry.qubus_index(beam), v)
        out.append(split_by_value(kept, kept.registry.qubus_index(mode), values)[1])
    return out


def _dusty_block():
    """One photon on paths a (1e-2), b (bulk) and c (1e-3), all H.  Path b
    lights the difference port, so n = 0 is mostly a; path c shifts the sum
    port by 2|d| (|d|² = 12 on the difference port), so projected onto a's
    value its row is 1e-3·e^{-24} ≈ 4e-14: dust that canonicalize drops,
    though the n = 0 output would lift it to ~4e-12."""
    reg = ModeRegistry().with_photon("1", ("a", "b", "c"))
    amps = {"a": 1e-2, "b": math.sqrt(1 - 1e-4 - 1e-6), "c": 1e-3}
    s = branch_state(reg, [(x, {"1": (path, "H")}) for path, x in amps.items()])
    couplings = [g.Coupling(0, "1", "b", "H"), g.Coupling(0, "1", "c", "H"),
                 g.Coupling(1, "1", "c", "H")]
    alpha = math.sqrt(12 / (2 * math.sin(THETA / 2) ** 2))
    return s, couplings, alpha, THETA, g._parity_plan([], [])


def _mixing_block():
    """The parity block with polarization rotations on both photons as its
    n ≠ 0 correction: rows of the +β and −β parts meet on one label code, so
    the Gram matrices have cells across parts (whose values vanish, as the
    rotations are unitary)."""
    rot = [el.op("PolRot", 0.3, photon="1", path="t1"), el.op("PolRot", 0.4, photon="2", path="t2")]
    return _parity_block(haar_vec(4, 5), plan=g._parity_plan(rot, rot))


@pytest.mark.parametrize("block", [_dusty_block, lambda: _parity_block(haar_vec(4, 5)),
                                   _mixing_block], ids=["dust", "parity", "mixing"])
def test_compiled_outputs_keep_the_rows_of_the_uncompiled_block(block):
    s, couplings, alpha, theta, plan = block()
    coupled, (b0, b1) = g.couple_qubus_pair(s, couplings, alpha, theta)
    found = fock_outcomes(coupled, b0)
    outputs = g._block_outputs(found, plan, b1)
    assert not outputs.routed
    k, cells = len(found.weights), outputs.algebra.gram[3]
    assert (cells // k % k != cells % k).any() == (block is _mixing_block)  # cells across parts
    _assert_block_matches_loop(g.run_qubus_block(s, couplings, alpha, theta, plan),
                               _outcome_loop(s, couplings, alpha, theta, plan))
    # each outcome's group: its part rows, bit for bit in codes and beam values
    alg, z = outputs.algebra, outputs.part_amps
    for i, parts in enumerate(_uncompiled_parts(found, plan, b1)):
        group = (alg.cell // k == outputs.group_of[i]) & (z != 0)
        assert len(parts) == k
        for part, want in enumerate(parts):
            rows = np.flatnonzero(group & (alg.cell % k == part))
            assert alg.registry == want.registry
            assert np.array_equal(alg.codes[rows], want.codes), (found.values[i], part)
            assert np.array_equal(alg.qubus[rows], want.qubus)
            assert np.abs(z[rows] - want.amps).max(initial=0.0) <= 1e-12


# -- the readout stages: Bell and presence through the stage algebra ----------------


def _readout_loop(kind, s, readout, plan):
    """The reference readout stage: every outcome collapsed by its detection
    call, (merged and) corrected, and scored alone."""
    from qubusim.detection import bell_outcomes, presence_outcomes

    if kind == "bell":
        records, prepare = bell_outcomes(s, readout.pid_a, readout.pid_b), lambda st: st
    else:
        split = el.apply_elements(s, readout.split_ops)
        records = presence_outcomes(split, readout.photon, list(readout.paths))
        prepare = readout.end.apply
    return score_outcomes(kind, [(r.value, r.probability, plan.correct(prepare(r.collapsed), r.value))
                                 for r in records])


def _merging_loop(s, readout, plan, names):
    """The reference Merging readout: the split, every arm's presence outcome
    corrected with the photon kept, then scored alone with it removed.
    Returns the scored stage and each outcome's corrected state, by name."""
    from qubusim.detection import presence_outcomes

    split = el.apply_elements(s, readout.split_ops)
    kept = {names[readout.paths.index(r.value)]: (r.probability, plan.correct(r.collapsed, r.value))
            for r in presence_outcomes(split, readout.photon, list(readout.paths))}
    released = [(v, p, remove_photon(st, readout.photon)) for v, (p, st) in kept.items()]
    return score_outcomes("presence", released), {v: st for v, (_, st) in kept.items()}


def _captured_stages(monkeypatch):
    """Record every readout stage run through the stage algebra: (its
    reference loop, its result).  A Merging readout's loop is _merging_loop."""
    stages, stage = [], g._readout_stage

    def capture(kind, s, readout, values, plan, route):
        got = stage(kind, s, readout, values, plan, route)
        if isinstance(getattr(readout, "end", None), g._Release):
            stages.append((lambda: _merging_loop(s, readout, plan, values), got))
        else:
            stages.append((lambda: _readout_loop(kind, s, readout, plan), got))
        return got

    monkeypatch.setattr(g, "_readout_stage", capture)
    return stages


def _readout_inputs(n, basis):
    ids = [str(i + 1) for i in range(n)]
    coeffs = np.eye(2**n)[(7 * n) % 2**n] if basis else haar_vec(2**n, 40 + n)
    return polarization_state(coeffs, [(pid, f"t{pid}") for pid in ids]), ids


@pytest.mark.parametrize("basis", [False, True], ids=["haar", "basis"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_bell_outcome_matches_its_per_outcome_route(n, basis, monkeypatch):
    stages = _captured_stages(monkeypatch)
    s, ids = _readout_inputs(n, basis)
    out, rep = pl.to_qudit_teleport(s, ids, alpha_for_beta2(20.0, THETA), THETA)
    assert len(stages) == n
    for loop, got in stages:
        _assert_block_matches_loop(got, loop())
    vec = path_pol_vector(out, rep.extras["carrier"], list(rep.extras["rails"]))
    assert abs(abs(np.vdot(vec, polarization_vector(s, ids))) - 1) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_disentangler_outcome_matches_its_per_outcome_route(n, monkeypatch):
    stages = _captured_stages(monkeypatch)
    s, ids = _readout_inputs(n, False)
    pl.to_qudit_circuit(s, ids, alpha_for_beta2(20.0, THETA), THETA)
    assert len(stages) == n - 1
    for loop, got in stages:
        _assert_block_matches_loop(got, loop())


def test_a_repeated_readout_stage_compiles_once():
    alpha = alpha_for_beta2(20.0, THETA)
    for transform in (pl.to_qudit_teleport, pl.to_qudit_circuit):
        g._stage_algebra.cache_clear()
        s, ids = _readout_inputs(3, False)
        transform(s, ids, alpha, THETA)
        first = g._stage_algebra.cache_info()
        transform(polarization_state(haar_vec(8, 77), [(p, f"t{p}") for p in ids]), ids,
                  alpha, THETA)
        again = g._stage_algebra.cache_info()
        assert first.misses == first.currsize and again.misses == first.misses
        assert again.hits == first.hits + first.misses


def test_a_readout_stage_of_another_plan_compiles_afresh():
    # the same input under two Bell tables on photon 3: each compiles its own algebra
    s, _ = _readout_inputs(2, False)
    s = tensor(s, bell_state("phi+", ("3", "t3"), ("4", "t4")))
    sz = [el.op("WavePlateZ", photon="3", path=None)]
    plans = [pl._bell_plan("3"), g.FeedForwardPlan(list(zip(g.BELLS, ([], sz, [], sz))),
                                                   g.BELLS.index)]
    g._stage_algebra.cache_clear()
    for plan in plans * 2:
        readout = g._BellParts("2", "4")
        _assert_block_matches_loop(g.run_bell_stage(s, "2", "4", plan),
                                   _readout_loop("bell", s, readout, plan))
    assert g._stage_algebra.cache_info().misses == 2


def _merging_layout(n_rails, interference="qft"):
    reg = ModeRegistry().with_photon("p", tuple(f"r{k}" for k in range(n_rails)))
    companions = tuple((f"c{m}", None) for m in range(n_rails.bit_length() - 1))
    readout, plan, _ = g._readout(reg, "p", reg.paths_of("p"), "A", companions, interference)
    return readout.paths, plan


def _disentangler_layout():
    reg = ModeRegistry().with_photon("1", ("t1",)).with_photon("2", ("t2", "t2s"))
    readout, plan = g._mach_zehnder(reg, "1", "t1", "2", ("t2s",))
    return readout.paths, plan


@pytest.mark.parametrize("layout", [
    lambda: (g.BELLS, pl._bell_plan("3")),
    lambda: (g.BELLS, pl._bell_plan("3", ("a", "b"), ("c", "d"))),
    _disentangler_layout,
    lambda: _merging_layout(2),
    lambda: _merging_layout(4),
    lambda: _merging_layout(4, "hadamard4"),
    lambda: _merging_layout(8),
], ids=["bell", "bell-rails", "disentangler", "merging-2", "merging-4", "merging-hadamard4",
        "merging-8"])
def test_every_beamless_plan_lists_its_rows_in_outcome_order(layout):
    # a beamless readout's outcome k is its part k, and the stage corrects it by plan row k
    values, plan = layout()
    assert len(plan.rows) == len(values)
    assert [plan.row_of(v) for v in values] == list(range(len(values)))


def test_a_corrupted_readout_stage_fails_the_route_check():
    # each part moved to the next outcome's cell on a cache hit: the batched
    # representative no longer matches its per-outcome route
    s, ids = _readout_inputs(3, False)
    s = tensor(s, bell_state("phi+", ("a", "ta"), ("b", "tb")))
    plan = pl._bell_plan("b")
    g.run_bell_stage(s, "3", "a", plan)
    readout = g._BellParts("3", "a")
    alg = g._stage_algebra(s.registry, s.codes, s.qubus, readout, plan.rows)
    try:
        alg.cell.setflags(write=True)
        alg.cell[:] = alg.cell // 4 * 4 + (alg.cell + 1) % 4
        with pytest.raises(g.GateError, match="disagrees with its per-outcome route"):
            g.run_bell_stage(s, "3", "a", plan)
    finally:
        g._stage_algebra.cache_clear()


def test_a_corrupted_presence_stage_fails_the_route_check(alpha20):
    s = polarization_state(haar_vec(4, 5), [("1", "t1"), ("2", "t2")])
    mid, rep = g.c_path(s, "1", "2", alpha20, THETA)
    v_rails = rep.extras["rails"][1:]
    g.disentangler(mid, "1", "2", v_rails)
    readout, plan = g._mach_zehnder(mid.registry, "1", "t1", "2", tuple(v_rails))
    alg = g._stage_algebra(mid.registry, mid.codes, mid.qubus, readout, plan.rows)
    try:
        alg.parts[2].setflags(write=True)
        alg.parts[2][::2] *= -1
        with pytest.raises(g.GateError, match="disagrees with its per-outcome route"):
            g.disentangler(mid, "1", "2", v_rails)
    finally:
        g._stage_algebra.cache_clear()


# -- the Merging readout through the stage algebra -------------------------------


def _merging_input(n, basis, seed=None):
    """A Merging gate's input on 2^{n-1} rails, as from_qudit meets it: the
    transform of n photons, each companion re-entangled with its rail bit,
    and a fresh |+⟩ ancilla A.  Returns (state, photon, rails, companions)."""
    s, ids = _readout_inputs(n, basis)
    if seed is not None:
        s = polarization_state(haar_vec(2**n, seed), [(pid, f"t{pid}") for pid in ids])
    alpha = alpha_for_beta2(20.0, THETA)
    out, rep = pl.to_qudit_circuit(s, ids, alpha, THETA)
    rails = list(rep.extras["rails"])
    for m, comp in enumerate(ids[:-1]):
        out, _ = g.entangler3(out, comp, ids[-1], *pl.split_rails(rails, m), alpha, THETA)
    out, _, _ = g.inject_plus(out, "A", "pa")
    return out, ids[-1], rails, [(c, None) for c in ids[:-1]]


@pytest.mark.parametrize("keep", [True, False], ids=["kept", "released"])
@pytest.mark.parametrize("basis", [False, True], ids=["haar", "basis"])
@pytest.mark.parametrize("n, interference", [(2, "qft"), (3, "qft"), (3, "hadamard4"), (4, "qft")])
def test_every_merging_outcome_matches_the_reference_loop(n, interference, basis, keep,
                                                         monkeypatch):
    s, photon, rails, companions = _merging_input(n, basis)
    stages = _captured_stages(monkeypatch)
    out, rep = g.merging_n(s, photon, rails, "A", companions, alpha_for_beta2(20.0, THETA), THETA,
                           interference, keep)
    ((loop, got),) = stages
    ref, kept = loop()
    _assert_block_matches_loop(got, ref)
    if not keep:
        assert state_to_dict(out) == state_to_dict(ref.state)
        return
    # the recycled photon stays on the representative's arm, in |±⟩
    k, sign = int(ref.value[:-1]), ref.value[-1]
    arm = rep.extras["arms"][2 * k + (sign == "-")]
    assert (rep.extras["recycled_arm"], rep.extras["recycled_sign"]) == (arm, sign)
    assert out.photon_paths_in_use(photon) == (arm,)
    assert state_to_dict(out) == state_to_dict(kept[ref.value])


def test_a_repeated_merging_call_compiles_once():
    alpha = alpha_for_beta2(20.0, THETA)
    s, photon, rails, companions = _merging_input(3, False)
    other = _merging_input(3, False, seed=77)[0]
    g._stage_algebra.cache_clear()
    g.merging_n(s, photon, rails, "A", companions, alpha, THETA)
    first = g._stage_algebra.cache_info()
    g.merging_n(other, photon, rails, "A", companions, alpha, THETA)
    again = g._stage_algebra.cache_info()
    assert first.misses == first.currsize == 2  # the Entangler's block and the readout
    assert again.misses == first.misses and again.hits == first.hits + 2


def test_a_merging_stage_of_another_plan_compiles_afresh(alpha20, monkeypatch):
    # one readout under the tables of two companion slots: each compiles its own algebra
    mid, rails = _haar_pair_with_ancilla(alpha20, 1, 1)
    ent, _ = g.entangler4(mid, "A", "2", rails, alpha20, THETA)
    layouts = [g._readout(ent.registry, "2", tuple(rails), "A", (c,), "qft")
               for c in (("1", None), ("1", "t1"))]
    (readout, plan, _), (other, other_plan, _) = layouts
    assert readout == other and plan.rows != other_plan.rows
    stages = _captured_stages(monkeypatch)
    g._stage_algebra.cache_clear()
    for companion in [("1", None), ("1", "t1")] * 2:
        g.merging_n(mid, "2", rails, "A", [companion], alpha20, THETA)
    assert g._stage_algebra.cache_info().misses == 3  # the Entangler's block, two readouts
    for loop, got in stages:
        _assert_block_matches_loop(got, loop()[0])


def test_a_corrupted_merging_stage_fails_the_route_check(alpha20):
    mid, rails = _haar_pair_with_ancilla(alpha20, 1, 1)
    args = (mid, "2", rails, "A", [("1", None)], alpha20, THETA)
    g.merging_n(*args)
    ent, _ = g.entangler4(mid, "A", "2", rails, alpha20, THETA)
    readout, plan, _ = g._readout(ent.registry, "2", tuple(rails), "A", (("1", None),), "qft")
    alg = g._stage_algebra(ent.registry, ent.codes, ent.qubus, readout, plan.rows)
    try:
        alg.parts[2].setflags(write=True)
        alg.parts[2][::2] *= -1
        with pytest.raises(g.GateError, match="disagrees with its per-outcome route"):
            g.merging_n(*args)
    finally:
        g._stage_algebra.cache_clear()


def _armed(rows):
    """Photon 1 on a plus arm ap and a minus arm am beside photon 2 on b and
    a beam q: rows of (amplitude, arm, pol, photon 2's pol, beam value)."""
    reg = ModeRegistry().with_photon("1", ("ap", "am")).with_photon("2", ("b",)).with_qubus("q")
    return HybridState(reg, [Branch(x, _sorted_slots((("1", arm, pol), ("2", "b", pol2))), (q,))
                             for x, arm, pol, pol2, q in rows])


def test_release_drops_the_photon_as_its_h_rows_times_root_2():
    s = _armed([(0.3, "ap", "H", "H", 1.0), (0.3, "ap", "V", "H", 1.0),
                (0.4j, "am", "H", "V", 2.0), (-0.4j, "am", "V", "V", 2.0),
                (0.5, "am", "H", "H", 1.0), (-0.5 * (1 + 1e-12), "am", "V", "H", 1.0)])
    got = g._Release("1", ("am",)).apply(s)
    assert got.registry.photons == ("2",) and got.registry.qubus_modes == ("q",)
    want = {(b.photons, b.qubus): b.amplitude for b in got.branches}
    assert want.keys() == {((("2", "b", "H"),), (1.0,)), ((("2", "b", "V"),), (2.0,))}
    assert abs(want[(("2", "b", "H"),), (1.0,)] - math.sqrt(2) * 0.8) <= 1e-15
    assert abs(want[(("2", "b", "V"),), (2.0,)] - math.sqrt(2) * 0.4j) <= 1e-15


@pytest.mark.parametrize("rows", [
    [(0.6, "ap", "H", "H", 1.0)],  # no V row
    [(0.6, "am", "V", "H", 1.0)],  # no H row
    [(0.6, "am", "H", "H", 1.0), (0.6, "am", "V", "H", 1.0)],  # a plus pair on the minus arm
    [(0.6, "ap", "H", "H", 1.0), (-0.6, "ap", "V", "H", 1.0)],  # a minus pair on the plus arm
    [(0.6, "ap", "H", "H", 1.0), (0.6, "ap", "V", "V", 1.0)],  # the partner's other labels differ
    [(0.6, "ap", "H", "H", 1.0), (0.6, "ap", "V", "H", 2.0)],  # its beam value differs
    [(0.6, "ap", "H", "H", 1.0), (0.6 * (1 + 1e-8), "ap", "V", "H", 1.0)],  # off by 1e-8
], ids=["no-v", "no-h", "plus-on-minus", "minus-on-plus", "labels", "beam", "off"])
def test_release_refuses_an_h_row_without_its_matched_v_row(rows):
    with pytest.raises(StateError, match="'1' is entangled with the rest"):
        g._Release("1", ("am",)).apply(_armed(rows))


# -- one photon in two roles ------------------------------------------------------


@pytest.mark.parametrize("call, what", [
    (lambda s, a: g.parity_gate(s, "1", "1", a, THETA), "parity photons"),
    (lambda s, a: g.c_path(s, "2", "2", a, THETA), "control and target"),
    (lambda s, a: g.c_path2(s, "1", "1", ["t1"], a, THETA), "control and target"),
    (lambda s, a: g.c_path3(s, "2", ("t2", "x"), "2", a, THETA), "control and target"),
], ids=["parity", "c_path", "c_path2", "c_path3"])
def test_a_two_photon_gate_refuses_one_photon_in_both_roles(call, what, alpha20):
    s = polarization_state(haar_vec(4, 3), [("1", "t1"), ("2", "t2")])
    with pytest.raises(g.GateError, match=rf"^{what} must be distinct, got \['(.)', '\1'\]$"):
        call(s, alpha20)


@pytest.mark.parametrize("photon, ancilla, companion, rails, what", [
    ("2", "A", "2", None, r"photon, ancilla and companions must be distinct, got \['2', 'A', '2'\]"),
    ("2", "A", "A", None, r"photon, ancilla and companions must be distinct, got \['2', 'A', 'A'\]"),
    ("2", "2", "1", None, r"photon, ancilla and companions must be distinct, got \['2', '2', '1'\]"),
    ("2", "A", "1", ("t2", "t2"), r"rails must be distinct, got \['t2', 't2'\]"),
], ids=["companion-is-photon", "companion-is-ancilla", "ancilla-is-photon", "repeated-rails"])
def test_merging_refuses_one_photon_in_two_roles_and_repeated_rails(
    photon, ancilla, companion, rails, what, alpha20
):
    mid, routed = _haar_pair_with_ancilla(alpha20, 1, 1)
    with pytest.raises(g.GateError, match=f"^{what}$"):
        g.merging_n(mid, photon, rails or routed, ancilla, [(companion, None)], alpha20, THETA)


def _factorized_by_loop(u, qbits):
    """The per-bit correction phases entry by entry, and whether every
    column's phases sum to its own: the reference of _factorize_corrections."""
    n = len(u)
    phases = [[cmath.phase((u[k, 1 << (qbits - 1 - m)] / u[k, 0]).conjugate()) for k in range(n)]
              for m in range(qbits)]
    for j in range(n):
        for k in range(n):
            acc = sum(phases[m][k] for m in range(qbits) if (j >> (qbits - 1 - m)) & 1)
            want = cmath.phase((u[k, j] / u[k, 0]).conjugate())
            if abs(cmath.exp(1j * acc) - cmath.exp(1j * want)) > 1e-10:
                return phases, False
    return phases, True


@pytest.mark.parametrize("u, qbits", [(syn.qft_matrix(2), 1), (syn.qft_matrix(4), 2),
                                      (syn.qft_matrix(8), 3), (syn.HADAMARD4, 2)],
                         ids=["qft2", "qft4", "qft8", "hadamard4"])
def test_correction_phases_match_the_loop_over_every_entry(u, qbits):
    phases, ok = _factorized_by_loop(u, qbits)
    assert ok and g._factorize_corrections(u, qbits) == phases


def test_an_interference_matrix_that_does_not_factorize_is_refused():
    u = syn.HADAMARD4.copy()
    u[0, 3] *= -1  # column 3 of row 0 is no longer the product of columns 1 and 2
    assert not _factorized_by_loop(u, 2)[1]
    with pytest.raises(g.GateError, match="do not factorize over rails"):
        g._factorize_corrections(u, 2)
    with pytest.raises(g.GateError, match="uniform magnitudes"):
        g._factorize_corrections(np.eye(4, dtype=complex), 2)
