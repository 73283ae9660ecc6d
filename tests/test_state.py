"""Hybrid-state algebra: overlaps, fidelity, canonicalization, serialization."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qubusim import (
    Branch,
    HybridState,
    ModeRegistry,
    RegistryError,
    StateError,
    amplitude_of,
    attach_qubus,
    bell_state,
    canonicalize,
    fidelity,
    inner_product,
    norm,
    normalize,
    plus_photon,
    pol_qubit,
    polarization_state,
    remove_photon,
    state_from_dict,
    state_to_dict,
    tensor,
)
from qubusim import detection
from qubusim import elements as el
from qubusim import gates
from qubusim import state as state_mod
from qubusim.numerics import fock_amplitude
from qubusim.state import CANON_TOL, _gram, _recode, coherent_overlap

from conftest import haar_vec, score_outcomes, two_photon


def test_inner_product_normalized_self():
    s = attach_qubus(pol_qubit("1", "p", 1, 0), "q", 2.0)
    assert inner_product(s, s) == pytest.approx(1.0)


def test_inner_product_coherent_sign_flip():
    # |alpha|^2 = 20 against its negative: |<a|-a>| = e^{-2|a|^2} = e^{-40}
    a = math.sqrt(20)
    base = pol_qubit("1", "p", 1, 0)
    x = attach_qubus(base, "q", a)
    y = attach_qubus(base, "q", -a)
    assert abs(inner_product(x, y)) == pytest.approx(math.exp(-40), rel=1e-10)


def test_inner_product_orthogonal_polarization():
    x = attach_qubus(pol_qubit("1", "p", 1, 0), "q", 1.5)
    y = attach_qubus(pol_qubit("1", "p", 0, 1), "q", 1.5)
    assert inner_product(x, y) == 0


def test_inner_product_registry_mismatch():
    x = pol_qubit("1", "p", 1, 0)
    y = pol_qubit("2", "other", 1, 0)
    with pytest.raises(RegistryError):
        inner_product(x, y)
    with pytest.raises(RegistryError):
        inner_product(attach_qubus(x, "qa", 1.0), attach_qubus(x, "qb", 1.0))


def test_inner_product_conjugate_symmetry():
    a = polarization_state(haar_vec(4, 0), [("1", "p"), ("2", "r")])
    b = polarization_state(haar_vec(4, 1), [("1", "p"), ("2", "r")])
    lhs = inner_product(a, b)
    rhs = inner_product(b, a).conjugate()
    assert abs(lhs - rhs) < 1e-14


def test_fidelity_identical_and_global_phase():
    s = two_photon(7)
    assert fidelity(s, s) == pytest.approx(1.0)
    assert fidelity(s, s.scaled(np.exp(0.7j))) == pytest.approx(1.0)


def test_fidelity_plus_vs_h():
    assert fidelity(plus_photon("1", "p"), pol_qubit("1", "p", 1, 0)) == pytest.approx(0.5)


def test_fidelity_rejects_unnormalized():
    s = two_photon(3)
    with pytest.raises(StateError):
        fidelity(s.scaled(0.5), s)


def test_fidelity_names_first_unnormalized_state():
    s = two_photon(3)
    with pytest.raises(StateError, match="state a"):
        fidelity(s.scaled(0.5), s.scaled(2.0))
    with pytest.raises(StateError, match="state b"):
        fidelity(s, s.scaled(2.0))


def test_canonicalize_merges_equal_branches():
    reg = ModeRegistry().with_photon("1", ("p",)).with_qubus("q")
    br = Branch(0.5, (("1", "p", "H"),), (1.0 + 0j,))
    s = HybridState(reg, [br, br])
    out = canonicalize(s)
    assert len(out.branches) == 1
    assert out.branches[0].amplitude == pytest.approx(1.0)


def test_canonicalize_drops_dust():
    reg = ModeRegistry().with_photon("1", ("p",))
    s = HybridState(
        reg, [Branch(1.0, (("1", "p", "H"),), ()), Branch(1e-15, (("1", "p", "V"),), ())]
    )
    assert len(canonicalize(s).branches) == 1


def test_canonicalize_keeps_unmerged_rows_bit_for_bit():
    reg = ModeRegistry().with_photon("1", ("p", "r")).with_qubus("q")
    s = HybridState(reg, [
        Branch(complex(0.3 + 0.1 * k, 0.1 - 0.07 * k), (("1", p, pol),), (complex(k, 0.3 * k),))
        for p in ("p", "r") for pol in "HV" for k in range(3)
    ])
    out = canonicalize(s)
    for got, want in ((out.amps, s.amps), (out.codes, s.codes), (out.qubus, s.qubus)):
        assert got.tobytes() == want.tobytes()
    # beside a merge, the other rows still come through untouched
    twice = HybridState(reg, list(s.branches) + [s.branches[5]])
    out = canonicalize(twice)
    assert len(out.branches) == len(s.branches)
    for i, (got, want) in enumerate(zip(out.branches, s.branches)):
        if i != 5:
            assert got == want
    assert out.branches[5].amplitude == 2 * s.branches[5].amplitude


def test_canonicalize_merges_within_tol_and_drops_dust_beside_kept_branches():
    reg = ModeRegistry().with_photon("1", ("p",)).with_qubus("q")
    h, v = (("1", "p", "H"),), (("1", "p", "V"),)
    lone = Branch(0.6 + 0j, h, (2.0 + 0j,))
    near = [Branch(0.4 + 0j, h, (1.0 + 0j,)), Branch(0.2 + 0j, h, (1.0 + 0.5e-12j,))]
    cancel = [Branch(0.5 + 0j, v, (3.0 + 0j,)), Branch(-0.5 + 0j, v, (3.0 + 0j,))]
    dust = Branch(1e-15 + 0j, v, (4.0 + 0j,))
    out = canonicalize(HybridState(reg, [lone, *near, *cancel, dust]))
    assert len(out.branches) == 2
    merged, kept = out.branches  # canonical order: beam 1.0 before beam 2.0
    assert kept == lone
    assert merged.qubus == near[0].qubus
    assert merged.amplitude == pytest.approx(0.6, abs=1e-15)
    # a wider gap than the tolerance keeps the branches apart
    apart = HybridState(reg, [near[0], Branch(0.2 + 0j, h, (1.0 + 1e-9j,))])
    assert list(canonicalize(apart).branches) == list(apart.branches)


def test_canonicalize_tolerance_rule_chains_neighbours_in_canonical_order():
    reg = ModeRegistry().with_photon("1", ("p",)).with_qubus("q")
    h = (("1", "p", "H"),)
    t = CANON_TOL
    # three beam values, each within tol of the next in canonical order, the
    # ends 1.6 tol apart: one chain, one row with the first value and the
    # amplitudes summed
    chain = [Branch(0.1 * (k + 1) + 0j, h, (complex(1.0, 0.8 * t * k),)) for k in (2, 0, 1)]
    (row,) = canonicalize(HybridState(reg, chain)).branches
    assert row.qubus == (1.0 + 0j,)
    assert row.amplitude == pytest.approx(0.6, abs=1e-15)
    # closeness is tested between neighbours only: a row between two close
    # values in canonical order (real parts first) keeps them apart
    split = [Branch(0.1 + 0j, h, (complex(1.0, 0.0),)),
             Branch(0.1 + 0j, h, (complex(1.0 + 0.2 * t, 5.0),)),
             Branch(0.1 + 0j, h, (complex(1.0 + 0.4 * t, 0.0),))]
    assert len(canonicalize(HybridState(reg, split)).branches) == 3
    # dust is judged after the merge: two halves of a dust-sized amplitude stay dust
    halves = [Branch(0.4 * t + 0j, h, (2.0 + 0j,)), Branch(0.4 * t + 0j, h, (complex(2.0, 0.5 * t),))]
    assert len(canonicalize(HybridState(reg, halves)).branches) == 0
    whole = [Branch(0.6 * t + 0j, h, (2.0 + 0j,)), Branch(0.6 * t + 0j, h, (complex(2.0, 0.5 * t),))]
    assert len(canonicalize(HybridState(reg, whole)).branches) == 1


def _canonicalize_loop(s, tol):
    """The written rule one row at a time, the reference for canonicalize."""
    key = lambda b: (s.registry._code(b.photons), [x for q in b.qubus for x in (q.real, q.imag)])
    chains = []  # [amplitude, first row, previous row]
    for b in sorted(s.branches, key=key):
        last = chains[-1][2] if chains else None
        if last is not None and last.photons == b.photons and all(
            abs(x - y) <= tol for x, y in zip(last.qubus, b.qubus)
        ):
            chains[-1][0] += b.amplitude
            chains[-1][2] = b
        else:
            chains.append([b.amplitude, b, b])
    return [(amp, first.photons, first.qubus) for amp, first, _ in chains if abs(amp) >= tol]


def test_canonicalize_matches_the_rule_one_row_at_a_time():
    rng = np.random.default_rng(8)
    labels = _two_photon_labels()[:4]
    reg = ModeRegistry().with_photon("1", ("a", "b")).with_photon("2", ("c", "d")).with_qubus("q")
    t = CANON_TOL
    for trial in range(30):
        branches = []
        for _ in range(40):
            beam = complex(rng.integers(3), rng.integers(2)) + complex(*rng.choice([0, 0.4 * t, 2 * t], 2))
            amp = complex(*rng.standard_normal(2)) * rng.choice([1.0, 1e-13])
            branches.append(Branch(amp, labels[rng.integers(len(labels))], (beam,)))
        s = HybridState(reg, branches)
        want = _canonicalize_loop(s, t)
        got = list(canonicalize(s).branches)
        assert [(b.photons, b.qubus) for b in got] == [(p, q) for _, p, q in want]
        for b, (amp, _, _) in zip(got, want):
            assert abs(b.amplitude - amp) <= 1e-15 * 40


def _random_branches(rng, labels, count, modes):
    """count branches drawn from labels with repeats, random amplitudes and beams."""
    out = []
    for _ in range(count):
        amp = complex(*rng.standard_normal(2))
        beam = tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(modes))
        out.append(Branch(amp, labels[rng.integers(len(labels))], beam))
    return out


def _two_photon_labels():
    return [
        (("1", p1, pol1), ("2", p2, pol2))
        for p1 in ("a", "b") for pol1 in "HV" for p2 in ("c", "d") for pol2 in "HV"
    ]


def test_beam_free_gram_sums_match_a_dense_vector():
    rng = np.random.default_rng(4)
    labels = _two_photon_labels()
    reg = ModeRegistry().with_photon("1", ("a", "b")).with_photon("2", ("c", "d"))

    def dense(s):
        vec = np.zeros(len(labels), dtype=complex)
        for br in s.branches:
            vec[labels.index(br.photons)] += br.amplitude
        return vec

    for trial in range(20):
        x = HybridState(reg, _random_branches(rng, labels, 40, 0))
        y = HybridState(reg, _random_branches(rng, labels[: 6 + trial % 10], 25, 0))
        assert len({br.photons for br in x.branches}) < len(x.branches)  # labels repeat
        vx, vy = dense(x), dense(y)
        assert abs(norm(x) - np.linalg.norm(vx)) < 1e-12 * np.linalg.norm(vx)
        assert abs(inner_product(x, y) - np.vdot(vx, vy)) < 1e-12 * (
            np.linalg.norm(vx) * np.linalg.norm(vy))


def test_gram_sums_with_beams_match_the_per_pair_closed_form():
    rng = np.random.default_rng(5)
    labels = _two_photon_labels()[:5]
    reg = ModeRegistry().with_photon("1", ("a", "b")).with_photon("2", ("c", "d"))
    reg = reg.with_qubus("qa").with_qubus("qb")

    def closed_form(bras, kets):
        total = 0j
        for a in bras:
            for b in kets:
                if a.photons == b.photons:
                    qa, qb = np.array(a.qubus), np.array(b.qubus)
                    exponent = np.sum(-0.5 * abs(qa) ** 2 - 0.5 * abs(qb) ** 2 + qa.conj() * qb)
                    total += np.conj(a.amplitude) * b.amplitude * np.exp(exponent)
        return total

    for _ in range(10):
        x = HybridState(reg, _random_branches(rng, labels, 12, 2))
        y = HybridState(reg, _random_branches(rng, labels, 9, 2))
        xx = closed_form(x.branches, x.branches).real
        assert abs(norm(x) - math.sqrt(xx)) < 1e-12 * math.sqrt(xx)
        xy = closed_form(x.branches, y.branches)
        assert abs(inner_product(x, y) - xy) < 1e-12 * (norm(x) * norm(y))


def test_norm_of_random_state():
    s = polarization_state(haar_vec(8, 5), [("1", "a"), ("2", "b"), ("3", "c")])
    assert norm(s) == pytest.approx(1.0, abs=1e-12)


def test_tensor_product_and_norm_multiplicative():
    a = pol_qubit("1", "p", 1, 0)
    b = pol_qubit("2", "r", 0, 1)
    ab = tensor(a, b)
    assert amplitude_of(ab, {"1": ("p", "H"), "2": ("r", "V")}) == pytest.approx(1.0)
    assert norm(ab) == pytest.approx(1.0, abs=1e-12)


def test_tensor_rejects_id_collision():
    a = pol_qubit("1", "p", 1, 0)
    b = pol_qubit("1", "r", 1, 0)
    with pytest.raises(RegistryError):
        tensor(a, b)


def test_registry_rejects_shared_path():
    reg = ModeRegistry().with_photon("1", ("p",))
    with pytest.raises(RegistryError):
        reg.with_photon("2", ("p",))


def test_fock_truncation_oracle_agreement():
    # dense Fock expansion at cutoff 40 vs the closed-form branch overlap
    rng = np.random.default_rng(9)
    cutoff = 40
    for trial in range(10):
        a1, a2 = [complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(2)]
        b1, b2 = [complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(2)]
        base = pol_qubit("1", "p", 1, 0)
        x = attach_qubus(attach_qubus(base, "qa", a1), "qb", a2)
        y = attach_qubus(attach_qubus(base, "qa", b1), "qb", b2)
        dense = lambda a: np.array([fock_amplitude(n, a) for n in range(cutoff + 1)])
        expect = np.vdot(np.kron(dense(a1), dense(a2)), np.kron(dense(b1), dense(b2)))
        got = inner_product(x, y)
        assert abs(got - expect) < 1e-8


@pytest.mark.parametrize(
    "last, error, message",
    [
        ((("1", "p", "H"),), StateError, "branch photon ids do not match registry"),
        ((("1", "p", "H"), ("2", "r", "D")), StateError, "bad polarization 'D'"),
        ((("1", "p", "H"), ("2", "zz", "V")), RegistryError, "path 'zz' not registered for '2'"),
    ],
    ids=["missing-photon", "bad-polarization", "unregistered-path"],
)
def test_state_rejects_only_the_last_bad_branch(last, error, message):
    reg = ModeRegistry().with_photon("1", ("p",)).with_photon("2", ("r", "r2")).with_qubus("q")
    good = [
        Branch(0.1 + 0j, (("1", "p", pol1), ("2", path, pol2)), (complex(k),))
        for k in range(8)
        for pol1 in "HV"
        for path in ("r", "r2")
        for pol2 in "HV"
    ]
    HybridState(reg, good)
    with pytest.raises(error) as caught:
        HybridState(reg, good + [Branch(0.1 + 0j, last, (0j,))])
    assert type(caught.value) is error and str(caught.value) == message


def test_state_reports_the_earlier_of_a_label_and_a_qubus_fault():
    reg = ModeRegistry().with_photon("1", ("p",)).with_qubus("q")
    ok = Branch(1.0 + 0j, (("1", "p", "H"),), (0j,))
    short = Branch(1.0 + 0j, (("1", "p", "V"),), ())
    bad_pol = Branch(1.0 + 0j, (("1", "p", "D"),), (0j,))
    with pytest.raises(StateError, match="branch qubus length != number of registered modes"):
        HybridState(reg, [ok, short, bad_pol])
    with pytest.raises(StateError, match="bad polarization 'D'"):
        HybridState(reg, [ok, bad_pol, short])
    with pytest.raises(StateError, match="branch qubus length != number of registered modes"):
        HybridState._derived(reg, np.ones(2, complex), np.array([0, 1]), np.zeros((2, 0), complex))


def test_state_rejects_slots_not_sorted_by_photon_id():
    # the same basis state written in two slot orders would count as two orthogonal ones
    reg = ModeRegistry().with_photon("1", ("a",)).with_photon("2", ("b",))
    sorted_br = Branch(0.5 + 0j, (("1", "a", "H"), ("2", "b", "H")), ())
    swapped = Branch(0.5 + 0j, (("2", "b", "H"), ("1", "a", "H")), ())
    with pytest.raises(StateError, match="branch slots are not sorted by photon id"):
        HybridState(reg, [sorted_br, swapped])
    assert norm(HybridState(reg, [sorted_br, sorted_br])) == pytest.approx(1.0, abs=1e-15)


def test_slot_index_is_the_sorted_position_whatever_the_registration_order():
    a, b = pol_qubit("2", "r", 1, 1), pol_qubit("10", "p", 1, 0)
    ab = tensor(a, b)
    assert ab.registry.photons == ("2", "10")
    assert [ab.registry.slot_index(pid) for pid in ("10", "2")] == [0, 1]
    assert all([t[0] for t in br.photons] == ["10", "2"] for br in ab.branches)
    with pytest.raises(RegistryError, match="unknown photon 'x'"):
        ab.registry.slot_index("x")
    # a snapshot listing slots out of order is sorted on the way in
    doc = state_to_dict(ab)
    for br in doc["branches"]:
        br["photons"].reverse()
    assert abs(inner_product(state_from_dict(doc), ab) - 1.0) < 1e-12


def test_derived_states_are_label_checked_inside_the_suite():
    # the suite's autouse fixture adds the constructor's check that _derived skips
    reg = ModeRegistry().with_photon("1", ("p",))  # codes 0 (H) and 1 (V)
    derive = lambda codes: HybridState._derived(
        reg, np.ones(len(codes), complex), np.array(codes), np.zeros((len(codes), 0), complex)
    )
    assert derive([1]).branches[0].photons == (("1", "p", "V"),)
    with pytest.raises(StateError, match="label code out of range"):
        derive([2])  # past the label space
    with pytest.raises(StateError, match="rows are not in canonical order"):
        derive([1, 0])


def test_branches_are_built_only_when_read(monkeypatch):
    from qubusim import state as st

    s = attach_qubus(two_photon(3), "q", 1.5)
    monkeypatch.setattr(st, "Branch", None)  # building one would now fail
    assert len(s.branches) == 4
    assert repr(s) == "HybridState(4 branches, photons=('1', '2'))"


def test_registry_updates_return_one_instance_per_layout():
    reg = ModeRegistry().with_photon("1", ("p",))
    updates = [
        lambda r: r.with_qubus("q"),
        lambda r: r.with_qubus("q").without_qubus("q"),
        lambda r: r.with_path("1", "p2"),
        lambda r: r.with_path("1", "p2").without_path("1", "p2"),
        lambda r: r.with_photon("2", ("r",)),
        lambda r: r.with_photon("2", ("r",)).without_photon("2"),
    ]
    for update in updates:
        assert update(reg) is update(reg)
    fresh = ModeRegistry((("1", ("p", "p2")),), ("q",))
    cached = reg.with_path("1", "p2").with_qubus("q")
    assert cached == fresh and cached._layout == fresh._layout and cached._stride == fresh._stride
    with pytest.raises(RegistryError, match="duplicate qubus mode"):
        reg.with_qubus("q").with_qubus("q")


def test_registry_rejects_label_codes_beyond_64_bits():
    reg = ModeRegistry()
    for k in range(15):
        reg = reg.with_photon(f"p{k:02d}", tuple(f"r{k}_{j}" for j in range(8)))
    assert reg._radix == (16,) * 15
    with pytest.raises(RegistryError, match="wider than 64 bits"):
        reg.with_photon("p15", tuple(f"r15_{j}" for j in range(8)))


def test_constructor_takes_another_states_rows_over_a_new_registry():
    s = polarization_state(haar_vec(4, 2), [("1", "a"), ("2", "b")])
    wide = HybridState(s.registry.with_path("1", "a2").with_path("2", "b0"), s.branches)
    assert list(wide.branches) == list(s.branches)
    assert list(HybridState(s.registry, wide.branches).branches) == list(s.branches)
    moved = el.path_switch(wide, "1", "a", "a2")
    with pytest.raises(RegistryError, match="path 'a2' not registered for '1'"):
        HybridState(s.registry, moved.branches)
    with pytest.raises(StateError, match="branch qubus length != number of registered modes"):
        HybridState(s.registry.with_qubus("q"), s.branches)
    with pytest.raises(StateError, match="branch photon ids do not match registry"):
        HybridState(s.registry.without_photon("2"), s.branches)


def test_norm_zero_state_errors():
    reg = ModeRegistry().with_photon("1", ("p",))
    s = HybridState(reg, [Branch(0.0, (("1", "p", "H"),), ())])
    with pytest.raises(StateError, match="zero state"):
        normalize(s)
    for bad in (math.inf, complex(0.0, math.nan)):
        s = HybridState(reg, [Branch(bad, (("1", "p", "H"),), ())])
        with np.errstate(invalid="ignore"), pytest.raises(StateError, match="non-finite amplitude"):
            normalize(s)


@pytest.mark.parametrize("log2_scale", [-1000, -600, -530, 600, 1000])
def test_normalize_rescales_a_norm_whose_square_is_no_normal_float(log2_scale):
    # Σ|a|² of the scaled rows overflows, underflows or goes subnormal; a
    # power-of-two scale is exact, so the rows normalize bit for bit alike
    reg = ModeRegistry().with_photon("1", ("a",)).with_qubus("q")
    rows = [(0.6, "H", 1.0), (0.3j, "H", 2.0), (-0.48 + 0.1j, "V", 1.0)]

    def state(k):
        return HybridState(reg, [Branch(a * k, (("1", "a", pol),), (q,)) for a, pol, q in rows])

    want, got = normalize(state(1.0)), normalize(state(2.0**log2_scale))
    assert np.array_equal(got.amps, want.amps)
    assert norm(HybridState._derived(reg, got.amps, got.codes, got.qubus)) == pytest.approx(1.0)


def test_bell_state_norm_and_components():
    s = bell_state("psi-", ("a", "pa"), ("b", "pb"))
    assert norm(s) == pytest.approx(1.0)
    assert amplitude_of(s, {"a": ("pa", "H"), "b": ("pb", "V")}) == pytest.approx(1 / math.sqrt(2))
    assert amplitude_of(s, {"a": ("pa", "V"), "b": ("pb", "H")}) == pytest.approx(-1 / math.sqrt(2))


def test_remove_photon_product_state():
    s = tensor(plus_photon("1", "p"), two_photon(11, ids=("2", "3"), paths=("r2", "r3")))
    out = remove_photon(s, "1")
    assert set(out.registry.photons) == {"2", "3"}
    assert fidelity(out, two_photon(11, ids=("2", "3"), paths=("r2", "r3"))) == pytest.approx(1.0)


def test_remove_photon_rejects_entangled():
    s = bell_state("phi+", ("a", "pa"), ("b", "pb"))
    with pytest.raises(StateError):
        remove_photon(s, "a")


def test_remove_photon_split_over_two_paths_beside_a_beam():
    # photon 1 is H on path a and V on path b; photon 2 and its beam are entangled
    split = HybridState(ModeRegistry().with_photon("1", ("a", "b")), [
        Branch(0.6, (("1", "a", "H"),), ()), Branch(0.8j, (("1", "b", "V"),), ())])
    reg = ModeRegistry().with_photon("2", ("c",)).with_qubus("q")
    rest = HybridState(reg, [Branch(0.6, (("2", "c", "H"),), (1.0 + 0.5j,)),
                             Branch(-0.8j, (("2", "c", "V"),), (-1.0 - 0.5j,))])
    s = tensor(split, rest)
    out = remove_photon(s, "1")
    assert out.registry.photons == ("2",) and out.registry.qubus_modes == ("q",)
    assert fidelity(out, normalize(rest)) >= 1 - 1e-12
    assert norm(out) == pytest.approx(norm(s), abs=1e-12)
    assert norm(remove_photon(s.scaled(0.5), "1")) == pytest.approx(0.5 * norm(s), abs=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 0.0])
def test_remove_photon_tied_to_the_rest_only_by_a_beam(alpha):
    # H rows at +alpha, V rows at -alpha: at |alpha|^2 = 1 the two parts
    # overlap by e^{-2}, so the photon is entangled; at alpha = 0 it is not
    reg = ModeRegistry().with_photon("1", ("a",)).with_qubus("q")
    r = 1 / math.sqrt(2)
    tied = HybridState(reg, [Branch(r, (("1", "a", "H"),), (alpha,)),
                             Branch(r, (("1", "a", "V"),), (-alpha,))])
    s = tensor(tied, pol_qubit("2", "c", 0.6, 0.8))
    if alpha:
        with pytest.raises(StateError, match="entangled"):
            remove_photon(s, "1")
    else:
        want = attach_qubus(pol_qubit("2", "c", 0.6, 0.8), "q", 0.0)
        assert fidelity(remove_photon(s, "1"), want) >= 1 - 1e-12


def test_json_snapshot_round_trip():
    s = attach_qubus(two_photon(17), "q", 1.0 + 2.0j)
    doc = state_to_dict(s)
    assert set(doc) == {"photons", "qubus_modes", "branches"}
    for br in doc["branches"]:
        assert set(br) == {"amplitude", "photons", "qubus"}
    restored = state_from_dict(json.loads(json.dumps(doc)))
    assert abs(inner_product(restored, s) - 1.0) < 1e-12


# -- pairing by one search, carried norms, compiled recoding -------------------

PAIRING = settings(max_examples=120, deadline=None, derandomize=True, database=None)
PATHS = {"1": ("a", "b", "c"), "2": ("d", "e"), "3": ("f", "g", "h")}


@hst.composite
def registries(draw, pids=("1", "2"), modes=0):
    """A registry of the photons pids, registered in a drawn order, each on a
    drawn, ordered, non-empty subset of its paths, and `modes` beams."""
    reg = ModeRegistry()
    for pid in draw(hst.permutations(pids)):
        paths = draw(hst.permutations(PATHS[pid]))
        reg = reg.with_photon(pid, tuple(paths[: draw(hst.integers(1, len(paths)))]))
    for m in range(modes):
        reg = reg.with_qubus(f"q{m}")
    return reg


@hst.composite
def pairing_states(draw, reg):
    """A state over reg: 0-10 rows with random amplitudes and beams, its
    labels either all distinct or drawn with repeats."""
    pids = sorted(reg.photons)
    slots = [[(pid, path, pol) for path in reg.paths_of(pid) for pol in "HV"] for pid in pids]
    labels = list(itertools.product(*slots))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    rows = draw(hst.integers(0, min(10, len(labels))))
    if draw(hst.booleans()):
        picks = rng.permutation(len(labels))[:rows]
    else:
        picks = rng.integers(len(labels), size=rows)
    nq = len(reg.qubus_modes)
    return HybridState(reg, [
        Branch(complex(*rng.standard_normal(2)), labels[k],
               tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(nq)))
        for k in picks
    ])


@hst.composite
def state_pairs(draw):
    """Two states a, a2 over one registry and b over a registry with the same
    photons and beams whose path lists may differ, and a factor."""
    modes = draw(hst.integers(0, 2))
    reg = draw(registries(modes=modes))
    a, a2 = draw(pairing_states(reg)), draw(pairing_states(reg))
    b = draw(pairing_states(draw(registries(modes=modes))))
    return a, a2, b, complex(*draw(hst.tuples(*[hst.floats(-3.0, 3.0)] * 2)))


def _gram_sum_by_runs(bras, kets):
    """G[k, l] with every ket row paired to the run of equal codes in the
    bra, found by two binary searches whatever the codes: the reference for
    the one-search and self pairings of _gram and inner_product."""
    reg = bras[0].registry
    g = np.zeros((len(bras), len(kets)), complex)
    for k, a in enumerate(bras):
        for l, b in enumerate(kets):
            codes = _recode(b.codes, b.registry, reg)
            lo, hi = a.codes.searchsorted(codes), a.codes.searchsorted(codes, "right")
            for j, (first, last) in enumerate(zip(lo, hi)):
                for i in range(first, last):
                    q = coherent_overlap(a.qubus[i], b.qubus[j])
                    g[k, l] += a.amps[i].conjugate() * b.amps[j] * q
    return g


@PAIRING
@given(state_pairs())
def test_gram_sums_match_pairing_by_runs(pair):
    a, a2, b, c = pair
    scale = max(norm(a), norm(a2), 1.0) * max(norm(b), 1.0)
    for states in ([a], [a, a2]):
        assert np.abs(_gram(states) - _gram_sum_by_runs(states, states)).max() <= 1e-12 * scale
    assert abs(inner_product(a, b) - _gram_sum_by_runs([a], [b])[0, 0]) <= 1e-12 * scale
    assert abs(inner_product(b, a) - _gram_sum_by_runs([b], [a])[0, 0]) <= 1e-12 * scale
    for s in (a, b):
        ref = math.sqrt(max(_gram_sum_by_runs([s], [s])[0, 0].real, 0.0))
        fresh = HybridState._derived(s.registry, s.amps, s.codes, s.qubus)
        assert abs(norm(fresh) - ref) <= 1e-12 * max(ref, 1.0)
        scaled = s.scaled(c)  # carries norm(s) over
        assert abs(norm(scaled) - abs(c) * ref) <= 1e-12 * max(abs(c) * ref, 1.0)
        rescaled = HybridState._derived(s.registry, scaled.amps, s.codes, s.qubus)
        assert abs(norm(scaled) - norm(rescaled)) <= 1e-12 * max(norm(rescaled), 1.0)


def _recode_by_photon(codes, src, dst):
    """Codes of src's layout in dst's, one photon at a time: the reference
    for the compiled _recode."""
    out = np.zeros_like(codes)
    lost = np.zeros(len(codes), bool)
    for (pid, paths), k, r in zip(src._layout, src._stride, src._radix):
        if pid not in dst._slot_of:
            continue
        to = dst._layout[dst._slot_of[pid]][1]
        table = np.array([2 * to.index(p) + b if p in to else -1 for p in paths for b in (0, 1)])
        digit = table[codes // k % r]
        lost |= digit < 0
        out += digit * dst._stride[dst._slot_of[pid]]
    out[lost] = -1
    return out


@PAIRING
@given(hst.data())
def test_compiled_recode_matches_the_per_photon_loop(data):
    # photons dropped (src only), added (dst only) or kept, over reordered paths
    ids = hst.lists(hst.sampled_from(sorted(PATHS)), unique=True)
    src = data.draw(registries(pids=data.draw(ids.filter(len))))
    dst = data.draw(registries(pids=data.draw(ids)))
    codes = np.arange(math.prod(src._radix), dtype=np.int64)
    got = _recode(codes, src, dst)
    assert got.dtype == np.int64
    assert np.array_equal(got, _recode_by_photon(codes, src, dst))


def test_recode_marks_a_slot_the_target_lacks():
    src = ModeRegistry().with_photon("1", ("a", "b")).with_photon("2", ("d",))
    dst = ModeRegistry().with_photon("2", ("e", "d")).with_photon("1", ("b",))
    codes = np.arange(8, dtype=np.int64)  # photon 1 on a (codes 0-3) or b (4-7)
    assert _recode(codes, src, dst).tolist() == [-1] * 4 + [2, 3, 6, 7]
    assert _recode(codes, src, dst).tolist() == _recode_by_photon(codes, src, dst).tolist()


def test_normalized_states_keep_their_norm_and_a_stage_takes_one_gram_sum(monkeypatch):
    calls = []  # a Gram matrix is counted by its state count, a single overlap as "overlap"
    gram, overlap = state_mod._gram, state_mod._overlap

    def counted_gram(states):
        calls.append(len(states))
        return gram(states)

    def counted_overlap(a, b):
        calls.append("overlap")
        return overlap(a, b)

    monkeypatch.setattr(state_mod, "_gram", counted_gram)
    monkeypatch.setattr(state_mod, "_overlap", counted_overlap)
    reg = ModeRegistry().with_photon("1", ("a",)).with_qubus("q")
    distinct = HybridState(reg, [Branch(0.6, (("1", "a", "H"),), (1.0,)),
                                 Branch(0.3j, (("1", "a", "V"),), (2.0,))])
    repeated = HybridState(reg, [Branch(0.6, (("1", "a", "H"),), (1.0,)),
                                 Branch(0.3j, (("1", "a", "H"),), (2.0,))])
    unit = []
    for s in (distinct, repeated):
        unit.append(normalize(s))
        assert calls == ["overlap"]  # norm(s)
        assert norm(unit[-1]) == pytest.approx(1.0, abs=1e-15)
        assert norm(unit[-1].scaled(-1j)) == pytest.approx(1.0, abs=1e-15)
        assert calls == ["overlap"]  # carried
        calls.clear()
    fresh = [HybridState._derived(reg, st.amps, st.codes, st.qubus)
             for st in (unit[0], unit[1], unit[1].scaled(-1))]
    calls.clear()
    scored = score_outcomes("fock", [(n, 1 / 3, st) for n, st in enumerate(fresh)])
    assert calls == [3]
    want = [fidelity(st, fresh[0]) for st in fresh]
    assert list(scored.outcomes.fidelities) == pytest.approx(want, abs=1e-12)


def test_readouts_take_norms_and_only_scoring_and_the_pmf_take_a_gram_matrix(monkeypatch):
    calls = []
    gram = state_mod._gram

    def counted_gram(states):
        calls.append(len(states))
        return gram(states)

    for module in (state_mod, detection):
        monkeypatch.setattr(module, "_gram", counted_gram)
    assert not hasattr(gates, "_gram")
    split = el.photon_bs(HybridState(ModeRegistry().with_photon("1", ("a", "b")),
                                     pol_qubit("1", "a", 0.6, 0.8).branches), "1", "a", "b")
    beam = attach_qubus(pol_qubit("2", "c", 0.6, 0.8), "q", 1.5)
    s = tensor(tensor(split, beam), polarization_state([1, 0, 0, 0], [("3", "d"), ("4", "e")]))
    assert len(detection.presence_outcomes(s, "1", ["a", "b"])) == 2
    assert len(detection.bell_outcomes(s, "3", "4")) == 2
    assert set(remove_photon(s, "1").registry.photons) == {"2", "3", "4"}
    assert calls == []
    detection.fock_distribution(s, "q")
    assert calls == [1]
    calls.clear()
    # library scoring reads its fidelities off the compiled stage: presence
    # readouts (the Disentangler's, Merging's), a Bell readout and a qubus
    # block take no Gram matrix, the block's Fock pmf over its three
    # difference-port values aside
    pair = polarization_state([0.6, 0, 0.8j, 0], [("1", "a"), ("2", "b")])
    assert len(gates.disentangler(pair, "1", "2", ["b"])[1].outcomes) == 2
    plan = gates.FeedForwardPlan([(b, []) for b in gates.BELLS], gates.BELLS.index)
    assert len(gates.run_bell_stage(s, "3", "4", plan).outcomes) == 2
    assert calls == []
    _, rep = gates.parity_gate(pair, "1", "2")
    assert len(rep.outcomes) > 1 and calls == [3]
    mid, rep = gates.c_path(pair, "1", "2")
    mid = gates.inject_plus(mid, "A", "pa")[0]
    calls.clear()
    assert len(gates.merging_n(mid, "2", rep.extras["rails"], "A", [("1", None)])[1].outcomes) == 4
    assert len(calls) == 1  # its Entangler's Fock pmf
    calls.clear()
    # the tests' reference loop takes one
    outcomes = [(path, 0.5, st.normalized()) for path, st in zip("ab", (s, s.scaled(1j)))]
    score_outcomes("presence", outcomes)
    assert calls == [2]


# -- carried norms of readout parts, cached ancillas ---------------------------


@PAIRING
@given(hst.data())
def test_a_part_carries_the_norm_its_overlap_gives(data):
    reg = data.draw(registries(modes=data.draw(hst.integers(0, 2))))
    s = data.draw(pairing_states(reg))
    rows = np.flatnonzero(data.draw(hst.lists(hst.booleans(), min_size=len(s.amps),
                                              max_size=len(s.amps))))
    part = state_mod._part(reg, s.amps[rows], s.codes[rows], s.qubus.take(rows, 0))
    assert (part._norm is not None) == state_mod._increasing(part.codes)
    want = math.sqrt(max(state_mod._overlap(part, part).real, 0.0))
    assert abs(norm(part) - want) <= 1e-15


def _split_beside_beams():
    """Photon 1 split over paths a, b beside a beam that takes two values,
    photon 2 beside it, photons 3 and 4 in a Haar state."""
    split = el.photon_bs(HybridState(ModeRegistry().with_photon("1", ("a", "b")),
                                     pol_qubit("1", "a", 0.6, 0.8j).branches), "1", "a", "b")
    beam = HybridState(ModeRegistry().with_photon("2", ("c",)).with_qubus("q"), [
        Branch(0.6, (("2", "c", "H"),), (1.5,)), Branch(0.8j, (("2", "c", "V"),), (-0.5j,))])
    return tensor(tensor(split, beam), two_photon(41, ids=("3", "4"), paths=("d", "e")))


def _rest_on_two_beams():
    """Photon 1 in a product with the rest, whose one label sits on two beam
    values, so each of photon 1's parts repeats a code."""
    reg = ModeRegistry().with_photon("1", ("a",)).with_photon("2", ("c",)).with_qubus("q")
    return normalize(HybridState(reg, [
        Branch(0.6, (("1", "a", "H"), ("2", "c", "H")), (1.0,)),
        Branch(0.3, (("1", "a", "H"), ("2", "c", "H")), (2.0,)),
        Branch(0.48, (("1", "a", "V"), ("2", "c", "H")), (1.0,)),
        Branch(0.24, (("1", "a", "V"), ("2", "c", "H")), (2.0,)),
    ]))


def _uncarried(registry, amps, codes, qubus):
    return HybridState._derived(registry, amps, codes, qubus)


def _same_state(got, want):
    assert got.registry == want.registry
    assert np.array_equal(got.codes, want.codes) and np.array_equal(got.qubus, want.qubus)
    assert np.abs(got.amps - want.amps).max(initial=0.0) <= 1e-15
    assert norm(got) == pytest.approx(norm(want), abs=1e-15)


@pytest.mark.parametrize("build", [_split_beside_beams, _rest_on_two_beams])
def test_presence_and_remove_photon_match_the_uncarried_route(build, monkeypatch):
    s = build()
    paths = s.registry.paths_of("1")
    got = detection.presence_outcomes(s, "1", paths)
    for module in (state_mod, detection):
        monkeypatch.setattr(module, "_part", _uncarried)
    want = detection.presence_outcomes(s, "1", paths)
    assert [r.value for r in got] == [r.value for r in want]
    for g, w in zip(got, want):
        assert g.probability == pytest.approx(w.probability, abs=1e-15)
        _same_state(g.collapsed, w.collapsed)
    want = remove_photon(s, "1")
    monkeypatch.undo()
    _same_state(remove_photon(s, "1"), want)


def test_readout_parts_carry_their_overlap_norm():
    s = _split_beside_beams()
    parts = [r.collapsed for r in detection.presence_outcomes(s, "1", ["a", "b"])]
    parts += [r.collapsed for r in detection.bell_outcomes(s, "3", "4")]
    for part in parts:
        assert part._norm is not None
        assert abs(part._norm - math.sqrt(state_mod._overlap(part, part).real)) <= 1e-15


ANCILLAS = [
    (("plus", "anc", "anc'"), lambda: plus_photon("anc", "anc'")),
    (("phi+", "bellA", "bA", "bellB", "bB"), lambda: bell_state("phi+", ("bellA", "bA"), ("bellB", "bB"))),
]


@pytest.mark.parametrize("key, fresh", ANCILLAS, ids=["plus", "phi+"])
def test_a_cached_ancilla_is_the_fresh_state_with_read_only_arrays(key, fresh):
    cached, want = state_mod._ancilla(*key), fresh()
    assert cached is state_mod._ancilla(*key)
    assert cached.registry == want.registry and cached._norm == want._norm
    for got, built in zip((cached.amps, cached.codes, cached.qubus), (want.amps, want.codes, want.qubus)):
        assert got.dtype == built.dtype and got.shape == built.shape
        assert got.tobytes() == built.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0


def test_inject_plus_and_the_teleport_resource_reuse_their_ancillas(monkeypatch):
    from qubusim import pipelines

    s = two_photon(43)
    ancilla = gates.inject_plus(s)[0], pipelines.to_qudit_teleport(s, ["1", "2"])[0]

    def unbuilt(*args):
        raise AssertionError("an ancilla was built again")

    monkeypatch.setattr(state_mod, "plus_photon", unbuilt)
    monkeypatch.setattr(state_mod, "bell_state", unbuilt)
    again = gates.inject_plus(s)[0], pipelines.to_qudit_teleport(s, ["1", "2"])[0]
    for got, want in zip(again, ancilla):
        _same_state(got, want)


def test_basis_photon_is_built_by_the_constructor(monkeypatch):
    calls = []
    init = HybridState.__init__

    def counted(self, registry, branches):
        calls.append(registry)
        init(self, registry, branches)

    monkeypatch.setattr(HybridState, "__init__", counted)
    s = state_mod.basis_photon("1", "t1", "V")
    assert len(calls) == 1 and s.codes.tolist() == [1] and norm(s) == 1.0
