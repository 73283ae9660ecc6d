"""End-to-end transforms and logic gates against dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qubusim import (
    HybridState,
    inner_product,
    path_pol_vector,
    pol_qubit,
    polarization_state,
    polarization_vector,
    random_polarization_state,
    remove_photon,
    state_to_dict,
    tensor,
)
from qubusim import elements as el
from qubusim import gates
from qubusim import pipelines as pl
from qubusim import synthesis as syn

from conftest import alpha_for, haar_vec, THETA

ALPHA_HI = alpha_for(60.0)  # amplitude-exact regime (leak ~ e^{-30})
ALPHA_40 = alpha_for(40.0)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def product_state(n, seed, ids=None, paths=None):
    vs = [haar_vec(2, seed * 10 + i) for i in range(n)]
    ids = ids or [str(i + 1) for i in range(n)]
    paths = paths or [f"t{i + 1}" for i in range(n)]
    state = pol_qubit(ids[0], paths[0], *vs[0])
    for i in range(1, n):
        state = tensor(state, pol_qubit(ids[i], paths[i], *vs[i]))
    kron = vs[0]
    for v in vs[1:]:
        kron = np.kron(kron, v)
    return state, kron, ids


def qudit_vector(out, report, companions):
    probe = out
    for c in companions:
        probe = remove_photon(probe, c)
    return path_pol_vector(probe, report.extras["carrier"], list(report.extras["rails"]))


# -- to_qudit_circuit -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_to_qudit_circuit_matches_kronecker(n):
    s, kron, ids = product_state(n, seed=n)
    out, rep = pl.to_qudit_circuit(s, ids, ALPHA_HI, THETA)
    vec = qudit_vector(out, rep, ids[:-1])
    assert np.max(np.abs(vec - kron)) < 1e-10
    counts = rep.gates
    assert counts["c_path"] + counts.get("c_path2", 0) == n - 1
    assert counts["disentangler"] == n - 1
    assert rep.success_probability == pytest.approx(1.0, abs=1e-9)


def test_to_qudit_two_photon_form():
    a, b, c, d = haar_vec(4, 2)
    s = polarization_state([a, b, c, d], [("1", "t1"), ("2", "t2")])
    out, rep = pl.to_qudit_circuit(s, ["1", "2"], ALPHA_HI, THETA)
    rails = list(rep.extras["rails"])
    vec = qudit_vector(out, rep, ["1"])
    assert np.max(np.abs(vec - np.array([a, b, c, d]))) < 1e-10
    # companion exits exactly |+>
    flipped = el.wave_plate(out, "1", None, "x")
    from qubusim.state import inner_product

    assert abs(inner_product(flipped, out) - 1.0) < 1e-9


def test_to_qudit_superposition_linearity():
    # entangled (non-product) inputs map linearly too
    z = haar_vec(8, 71)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    out, rep = pl.to_qudit_circuit(s, ["1", "2", "3"], ALPHA_HI, THETA)
    vec = qudit_vector(out, rep, ["1", "2"])
    assert np.max(np.abs(vec - z)) < 1e-9


def test_to_qudit_rejects_single_photon():
    s = pol_qubit("1", "t1", 1, 0)
    with pytest.raises(pl.PipelineError):
        pl.to_qudit_circuit(s, ["1"], ALPHA_HI, THETA)


# -- teleportation ---------------------------------------------------------------


def test_teleport_basis_case():
    s = tensor(pol_qubit("1", "t1", 1, 0), pol_qubit("2", "t2", 1, 0))
    out, rep = pl.to_qudit_teleport(s, ["1", "2"], ALPHA_40, THETA)
    rails = list(rep.extras["rails"])
    vec = path_pol_vector(out, rep.extras["carrier"], rails)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-6)  # |H> on the first rail


@pytest.mark.parametrize("n", [2, 3])
def test_teleport_matches_kronecker(n):
    s, kron, ids = product_state(n, seed=5 + n)
    out, rep = pl.to_qudit_teleport(s, ids, ALPHA_HI, THETA)
    vec = path_pol_vector(out, rep.extras["carrier"], list(rep.extras["rails"]))
    assert abs(abs(np.vdot(kron, vec)) - 1.0) < 1e-9
    assert np.max(np.abs(vec - kron)) < 1e-8
    assert rep.resources.ancilla_photons == n + 1


def test_teleport_all_16_outcomes_agree():
    s, kron, ids = product_state(2, seed=9)
    out, rep = pl.to_qudit_teleport(s, ids, ALPHA_40, THETA)
    for child in rep.children:
        if child.gate.startswith("bell"):
            assert child.min_fidelity >= 1 - 1e-8
            assert len(child.outcomes) == 4
            assert sum(child.outcomes.probabilities) == pytest.approx(1.0, abs=1e-9)
    assert rep.success_probability == pytest.approx(1.0, abs=1e-8)


def test_teleport_circuit_cross_method():
    s, kron, ids = product_state(3, seed=13)
    out_t, rep_t = pl.to_qudit_teleport(s, ids, ALPHA_HI, THETA)
    vec_t = path_pol_vector(out_t, rep_t.extras["carrier"], list(rep_t.extras["rails"]))
    s2, _, _ = product_state(3, seed=13)
    out_c, rep_c = pl.to_qudit_circuit(s2, ids, ALPHA_HI, THETA)
    vec_c = qudit_vector(out_c, rep_c, ids[:-1])
    assert abs(abs(np.vdot(vec_c, vec_t)) - 1.0) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_teleport_entangled_inputs(n):
    s = random_polarization_state(n, seed=20 + n)
    ids = [str(i + 1) for i in range(n)]
    coeffs = polarization_vector(s, ids)
    out, rep = pl.to_qudit_teleport(s, ids, ALPHA_HI, THETA)
    vec = path_pol_vector(out, rep.extras["carrier"], list(rep.extras["rails"]))
    assert np.max(np.abs(vec - coeffs)) < 1e-9
    assert rep.success_probability >= 1 - 1e-8


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=hst.integers(2, 4), seed=hst.integers(0, 2**32 - 1), basis=hst.booleans())
def test_every_teleport_bell_stage_has_outcome_probabilities_summing_to_1(n, seed, basis):
    ids = [str(i + 1) for i in range(n)]
    coeffs = np.eye(2**n)[seed % 2**n] if basis else haar_vec(2**n, seed)
    s = polarization_state(coeffs, [(pid, f"t{pid}") for pid in ids])
    _, rep = pl.to_qudit_teleport(s, ids, alpha_for(20.0), THETA)
    stages = [child.outcomes for child in rep.children if child.gate.startswith("bell(")]
    assert len(stages) == n
    for outcomes in stages:
        assert outcomes.kind == "bell"
        assert abs(sum(outcomes.probabilities) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "paths, rails",
    [
        (("bAs", "t2"), ("bA", "bAs2")),
        (("bAs", "bAs2"), ("bA", "bAs3")),
        (("bA", "bB"), ("bA2", "bA2s")),
    ],
)
def test_teleport_names_avoid_the_input_paths(paths, rails):
    # the resource is built before the inputs join it, yet its fresh names
    # must still step around the inputs' paths
    s = tensor(pol_qubit("1", paths[0], 0.6, 0.8), pol_qubit("2", paths[1], 1, 1j))
    out, rep = pl.to_qudit_teleport(s, ["1", "2"], ALPHA_40, THETA)
    assert rep.extras["rails"] == rails
    assert rep.extras["carrier"] == "bellA"
    assert out.registry.photon_paths == (("bellA", rails),)


@pytest.mark.parametrize("n, sizes", [(3, [16, 32]), (4, [32, 64, 128])])
def test_teleport_blocks_couple_the_resource_alone(n, sizes, monkeypatch):
    coupled = []
    couple = gates.couple_qubus_pair

    def counted(s, *args):
        out = couple(s, *args)
        coupled.append(len(out[0].branches))
        return out

    monkeypatch.setattr(gates, "couple_qubus_pair", counted)
    ids = [str(i + 1) for i in range(n)]
    basis = polarization_state(np.eye(2**n)[0], [(pid, f"t{pid}") for pid in ids])
    for s in (random_polarization_state(n, seed=n), basis):
        coupled.clear()
        pl.to_qudit_teleport(s, ids, alpha_for(20.0), THETA)
        assert coupled == sizes


# -- from_qudit -------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_round_trip_identity(n):
    s, kron, ids = product_state(n, seed=20 + n)
    out, rep = pl.to_qudit_circuit(s, ids, ALPHA_40, THETA)
    back, rep_b = pl.from_qudit(
        out, ids[-1], ids[:-1], list(rep.extras["rails"]), ALPHA_40, THETA
    )
    carrier = rep_b.extras["carrier"]
    vec = polarization_vector(back, ids[:-1] + [carrier])
    assert abs(np.vdot(kron, vec)) ** 2 >= 1 - 1e-8


def test_from_qudit_n2_final_display():
    # a' HH + b' HV + c' VH + d' VV on (photon 1, merged ancilla)
    z = haar_vec(4, 31)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    out, rep = pl.to_qudit_circuit(s, ["1", "2"], ALPHA_40, THETA)
    back, rep_b = pl.from_qudit(out, "2", ["1"], list(rep.extras["rails"]), ALPHA_40, THETA)
    vec = polarization_vector(back, ["1", rep_b.extras["carrier"]])
    assert abs(np.vdot(z, vec)) ** 2 >= 1 - 1e-8


def test_from_qudit_rail_mismatch():
    s, _, ids = product_state(2, seed=8)
    out, rep = pl.to_qudit_circuit(s, ids, ALPHA_40, THETA)
    with pytest.raises(pl.PipelineError, match="rails"):
        pl.from_qudit(out, ids[-1], ids[:-1], ["only_one"], ALPHA_40, THETA)


def test_round_trip_entangled_input():
    z = haar_vec(8, 35)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    out, rep = pl.to_qudit_circuit(s, ["1", "2", "3"], ALPHA_40, THETA)
    back, rep_b = pl.from_qudit(out, "3", ["1", "2"], list(rep.extras["rails"]), ALPHA_40, THETA)
    vec = polarization_vector(back, ["1", "2", rep_b.extras["carrier"]])
    assert abs(np.vdot(z, vec)) ** 2 >= 1 - 1e-8


# -- two-qubit gate ----------------------------------------------------------------


def test_two_qubit_cnot_truth_table():
    for idx, want in ((0, 0), (1, 1), (2, 3), (3, 2)):
        coeffs = [0] * 4
        coeffs[idx] = 1
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
        out, rep = pl.multi_qubit_gate(s, ["1", "2"], CNOT, ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        assert abs(vec[want]) == pytest.approx(1.0, abs=1e-6)


def test_two_qubit_identity():
    z = haar_vec(4, 51)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    out, rep = pl.multi_qubit_gate(s, ["1", "2"], np.eye(4), ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    assert abs(np.vdot(z, vec)) ** 2 >= 1 - 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_two_qubit_haar(seed):
    u = syn.random_haar_unitary(4, seed)
    z = haar_vec(4, 100 + seed)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    out, rep = pl.multi_qubit_gate(s, ["1", "2"], u, ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    assert abs(np.vdot(u @ z, vec)) ** 2 >= 1 - 1e-8


def test_two_qubit_rejects_non_unitary():
    s = polarization_state([1, 0, 0, 0], [("1", "t1"), ("2", "t2")])
    with pytest.raises(syn.SynthesisError):
        pl.multi_qubit_gate(s, ["1", "2"], np.ones((4, 4)), ALPHA_40, THETA)


# -- multi-qubit gate ---------------------------------------------------------------


def test_multi_qubit_identity_n3():
    z = haar_vec(8, 61)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    out, rep = pl.multi_qubit_gate(s, ["1", "2", "3"], np.eye(8), ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    assert abs(np.vdot(z, vec)) ** 2 >= 1 - 1e-8


@pytest.mark.parametrize("seed", [0, 1])
def test_multi_qubit_haar_n3(seed):
    u = syn.random_haar_unitary(8, seed)
    z = haar_vec(8, 200 + seed)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    out, rep = pl.multi_qubit_gate(s, ["1", "2", "3"], u, ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    assert abs(np.vdot(u @ z, vec)) ** 2 >= 1 - 1e-8


def test_multi_qubit_resources_n3():
    z = haar_vec(8, 62)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    out, rep = pl.multi_qubit_gate(s, ["1", "2", "3"], np.eye(8), ALPHA_40, THETA)
    cnt = rep.gates
    assert cnt["c_path"] + cnt.get("c_path2", 0) == 2  # n-1 path-splitting gates
    assert cnt.get("entangler3", 0) == 2 and cnt.get("entangler4", 0) == 1  # n entanglers
    assert cnt.get("lomi", 0) == 2  # gate unitary + interference
    assert rep.resources.ancilla_photons == 1


def test_multi_qubit_on_two_photons_is_the_two_qubit_gate():
    u = syn.random_haar_unitary(4, 7)
    z = haar_vec(4, 107)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    out, rep = pl.multi_qubit_gate(s, ["1", "2"], u, ALPHA_40, THETA)
    assert rep.gate == "two_qubit_gate"
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    assert abs(np.vdot(u @ z, vec)) ** 2 >= 1 - 1e-8
    # the two-rail QFT is the 50:50 BS; the Hadamard variant needs four rails
    with pytest.raises(pl.GateError, match="four rails"):
        pl.multi_qubit_gate(s, ["1", "2"], u, ALPHA_40, THETA, interference="hadamard4")


def test_photon_lists_are_checked_at_every_entry():
    s, _, ids = product_state(3, seed=4)
    split = el.photon_bs(HybridState(s.registry.with_path("3", "x"), s.branches), "3", "t3", "x")
    for call, match in (
        (lambda: pl.to_qudit_teleport(s, ["1", "2", "2"], ALPHA_40, THETA), "distinct"),
        (lambda: pl.to_qudit_circuit(s, ["1", "9"], ALPHA_40, THETA), "'9' is not in the state"),
        (lambda: pl.to_qudit_circuit(split, ids, ALPHA_40, THETA), "'3' must start single-path"),
        (lambda: pl.from_qudit(s, "3", ["1", "1"], ["a", "b", "c", "d"], ALPHA_40, THETA),
         "distinct"),
        (lambda: pl.cn_u1(s, [], "3", np.eye(2), ALPHA_40, THETA), "controls must name"),
        (lambda: pl.cn_uk(s, ["1"], ["2", "1"], np.eye(4), ALPHA_40, THETA), "distinct"),
    ):
        with pytest.raises(pl.PipelineError, match=match):
            call()


def test_multi_qubit_desk_cap():
    s, _, ids = product_state(4, seed=3)
    big = tensor(s, pol_qubit("5", "t5", 1, 0))
    with pytest.raises(pl.PipelineError, match="cap"):
        pl.multi_qubit_gate(big, ids + ["5"], np.eye(32), ALPHA_40, THETA)


# -- Toffoli family -----------------------------------------------------------------


def toffoli_oracle(n):
    dim = 2 ** (n + 1)
    u = np.eye(dim)
    u[[dim - 2, dim - 1]] = u[[dim - 1, dim - 2]]
    return u


def test_toffoli_n2_full_truth_table():
    for idx in range(8):
        coeffs = [0] * 8
        coeffs[idx] = 1
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2"), ("3", "t3")])
        out, rep = pl.toffoli(s, ["1", "2"], "3", ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        want = {6: 7, 7: 6}.get(idx, idx)
        assert abs(vec[want]) == pytest.approx(1.0, abs=1e-6)


def test_toffoli_layouts_agree_and_coupling_counts_differ_by_one():
    z = haar_vec(8, 81)
    outs = {}
    counts = {}
    for layout in ("split", "compact"):
        s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
        out, rep = pl.toffoli(s, ["1", "2"], "3", ALPHA_40, THETA, layout=layout)
        outs[layout] = polarization_vector(out, list(rep.extras["photon_order"]))
        counts[layout] = rep.resources.xpm_couplings
    assert abs(abs(np.vdot(outs["split"], outs["compact"])) - 1.0) < 1e-8
    assert counts["split"] - counts["compact"] == 1


def test_toffoli_n3_truth_table_and_haar():
    # spot basis states plus a Haar superposition against the dense oracle
    for idx in (0, 5, 14, 15):
        coeffs = [0] * 16
        coeffs[idx] = 1
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2"), ("3", "t3"), ("4", "t4")])
        out, rep = pl.toffoli(s, ["1", "2", "3"], "4", ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        want = {14: 15, 15: 14}.get(idx, idx)
        assert abs(vec[want]) == pytest.approx(1.0, abs=1e-6)
    z = haar_vec(16, 83)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3"), ("4", "t4")])
    out, rep = pl.toffoli(s, ["1", "2", "3"], "4", ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    assert abs(np.vdot(toffoli_oracle(3) @ z, vec)) ** 2 >= 1 - 1e-8


def test_toffoli_resources_n_pairs_one_ancilla():
    for n, dim in ((2, 8), (3, 16)):
        ids = [str(i + 1) for i in range(n + 1)]
        z = haar_vec(dim, 85 + n)
        s = polarization_state(z, [(pid, f"t{pid}") for pid in ids])
        out, rep = pl.toffoli(s, ids[:-1], ids[-1], ALPHA_40, THETA)
        assert rep.gates["c_path"] + rep.gates.get("c_path3", 0) == n  # n splitters
        assert rep.gates["merging"] == n  # n mergings, linear in n
        assert rep.resources.ancilla_photons == 1  # recycling


def test_cn_u1_random_unitary():
    u1 = syn.random_haar_unitary(2, 77)
    z = haar_vec(8, 87)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    out, rep = pl.cn_u1(s, ["1", "2"], "3", u1, ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    oracle = np.eye(8, dtype=complex)
    oracle[6:8, 6:8] = u1
    assert abs(np.vdot(oracle @ z, vec)) ** 2 >= 1 - 1e-8


def test_cn_u1_single_control_is_controlled_u():
    u1 = syn.random_haar_unitary(2, 78)
    z = haar_vec(4, 88)
    s = polarization_state(z, [("1", "t1"), ("2", "t2")])
    out, rep = pl.cn_u1(s, ["1"], "2", u1, ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    oracle = np.eye(4, dtype=complex)
    oracle[2:4, 2:4] = u1
    assert abs(np.vdot(oracle @ z, vec)) ** 2 >= 1 - 1e-8


@pytest.mark.parametrize("n_controls,k", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
def test_cn_uk_against_dense_oracle(n_controls, k):
    uk = syn.random_haar_unitary(2**k, 91)
    dim = 2 ** (n_controls + k)
    z = haar_vec(dim, 92 + n_controls)
    ids = [f"c{i}" for i in range(n_controls)] + [f"t{i}" for i in range(k)]
    s = polarization_state(z, [(pid, f"p{i}") for i, pid in enumerate(ids)])
    out, rep = pl.cn_uk(s, ids[:n_controls], ids[n_controls:], uk, ALPHA_40, THETA)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    oracle = np.eye(dim, dtype=complex)
    oracle[dim - 2**k :, dim - 2**k :] = uk
    assert abs(np.vdot(oracle @ z, vec)) ** 2 >= 1 - 1e-8
    assert rep.gate == ("cn_u1" if k == 1 else "cn_uk")


@pytest.mark.parametrize("n_controls,k", [(1, 2), (2, 2), (1, 3)])
def test_cn_uk_on_two_or_more_targets_is_the_multi_qubit_gate(n_controls, k):
    """k >= 2: qudit transform, mesh and fold-back of diag(1, ..., 1, U_k)."""
    uk = syn.random_haar_unitary(2**k, 95)
    dim = 2 ** (n_controls + k)
    ids = [f"c{i}" for i in range(n_controls)] + [f"t{i}" for i in range(k)]
    s = polarization_state(haar_vec(dim, 96 + k), [(pid, f"p{i}") for i, pid in enumerate(ids)])
    out, rep = pl.cn_uk(s, ids[:n_controls], ids[n_controls:], uk, ALPHA_40, THETA)
    block = np.eye(dim, dtype=complex)
    block[dim - 2**k :, dim - 2**k :] = uk
    want, mqg = pl.multi_qubit_gate(s, ids, block, ALPHA_40, THETA)

    children = [c.gate for c in rep.children]
    assert children == ["to_qudit_circuit"] + ["entangler3"] * (len(ids) - 1) + ["merging_n"]
    assert rep.gates["lomi"] == 1 + rep.children[-1].gates["lomi"]  # the mesh, then Merging-n's
    assert rep.resources == mqg.resources
    assert "idealized_uk" not in rep.extras and "carriers" not in rep.extras
    doc, mqg_doc = rep.to_dict(), mqg.to_dict()
    assert (doc.pop("gate"), mqg_doc.pop("gate")) == ("cn_uk", "multi_qubit_gate")
    assert doc.pop("gates") == {**mqg_doc.pop("gates"), "cn_uk": 1}
    assert doc == mqg_doc
    assert state_to_dict(out) == state_to_dict(want)


def _recycled_by_overlap(out, rep):
    """The recycled photon's arm, found among the Merging arms, and its sign,
    from the overlap of the state with its sigma_x flip (|+> gives +1, |-> -1)."""
    photon = rep.extras["recycled"]
    (arm,) = [a for a in rep.extras["arms"] if a in out.photon_paths_in_use(photon)]
    overlap = inner_product(el.wave_plate(out, photon, None, "x"), out)
    assert abs(abs(overlap) - 1.0) < 1e-9
    return arm, "+" if overlap.real > 0 else "-"


_MULTI_CONTROL_RUNS = (
    lambda s, ids: pl.toffoli(s, ids[:2], ids[2], ALPHA_40, THETA),
    lambda s, ids: pl.toffoli(s, ids[:3], ids[3], ALPHA_40, THETA, layout="compact"),
    lambda s, ids: pl.cn_u1(s, ids[:1], ids[1], syn.random_haar_unitary(2, 5), ALPHA_40, THETA),
    lambda s, ids: pl.cn_u1(s, ids[:2], ids[2], syn.random_haar_unitary(2, 6), ALPHA_40, THETA),
)


def test_recycled_arm_and_sign_match_the_sigma_x_overlap(monkeypatch):
    merges = []
    merging_n = pl.merging_n

    def capture(*args, **kwargs):
        merges.append(merging_n(*args, **kwargs))
        return merges[-1]

    monkeypatch.setattr(pl, "merging_n", capture)
    ids = ["1", "2", "3", "4"]
    signs = []
    for i, run in enumerate(_MULTI_CONTROL_RUNS):
        for seed in range(4):
            s = polarization_state(haar_vec(16, 300 + 10 * i + seed), [(p, f"t{p}") for p in ids])
            merges.clear()
            run(s, ids)
            assert merges
            for out, rep in merges:
                want = _recycled_by_overlap(out, rep)
                assert (rep.extras["recycled_arm"], rep.extras["recycled_sign"]) == want
                signs.append(want[1])
    assert set(signs) == {"+", "-"}


def test_resource_scaling_to_qudit_linear():
    counts = {}
    for n in (2, 3, 4):
        s, _, ids = product_state(n, seed=40 + n)
        _, rep = pl.to_qudit_circuit(s, ids, ALPHA_40, THETA)
        counts[n] = (
            rep.gates["c_path"] + rep.gates.get("c_path2", 0),
            rep.gates["disentangler"],
            rep.resources.detections,
        )
    for n in (2, 3, 4):
        assert counts[n][0] == n - 1
        assert counts[n][1] == n - 1
        assert counts[n][2] == 2 * (n - 1)  # one QND + one presence per stage


def test_resource_scaling_multi_qubit_exponential_rails():
    for n in (2, 3):
        s, _, ids = product_state(n, seed=45 + n)
        out, rep = pl.to_qudit_circuit(s, ids, ALPHA_40, THETA)
        assert len(rep.extras["rails"]) == 2 ** (n - 1)
