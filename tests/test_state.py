"""Hybrid-state algebra: overlaps, fidelity, canonicalization, serialization."""

import json
import math

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
from qubusim.numerics import fock_amplitude

from conftest import haar_vec, two_photon


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


def test_norm_zero_state_errors():
    reg = ModeRegistry().with_photon("1", ("p",))
    s = HybridState(reg, [Branch(0.0, (("1", "p", "H"),), ())])
    with pytest.raises(StateError):
        normalize(s)


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


def test_json_snapshot_round_trip():
    s = attach_qubus(two_photon(17), "q", 1.0 + 2.0j)
    doc = state_to_dict(s)
    assert set(doc) == {"photons", "qubus_modes", "branches"}
    for br in doc["branches"]:
        assert set(br) == {"amplitude", "photons", "qubus"}
    restored = state_from_dict(json.loads(json.dumps(doc)))
    assert abs(inner_product(restored, s) - 1.0) < 1e-12
