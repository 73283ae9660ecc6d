"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria that pin |β|² use it (the determinism checks run at |β|² = 20);
amplitude-level equalities at 1e-10 run at |β|² = 60 where the e^{−|β|²/2}
disposal leak sits below the tolerance.  Run with -s to see the summary
lines; the suite as a whole stays under the five-minute budget.
"""

import math
import time

import numpy as np
import pytest

from qubusim import (
    HybridState,
    fidelity,
    inner_product,
    path_pol_vector,
    pol_qubit,
    polarization_state,
    polarization_vector,
    remove_photon,
    tensor,
)
from qubusim import analysis as an
from qubusim import elements as el
from qubusim import gates as g
from qubusim import pipelines as pl
from qubusim import synthesis as syn
from qubusim.detection import fock_distribution, probe_peak_mean
from qubusim.numerics import fock_amplitude, poisson_pmf
from qubusim.state import Branch, _sorted_slots

from conftest import alpha_for, apply_path_unitary, block_outcomes, haar_vec, THETA

ALPHA_20 = alpha_for(20.0)
ALPHA_40 = alpha_for(40.0)
ALPHA_60 = alpha_for(60.0)


def announce(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def parity_sorted_target(reg, coeffs, p1_path, even_path, odd_path):
    a, b, c, d = coeffs
    mk = lambda amp, pol1, pol2, path2: Branch(
        amp, _sorted_slots((("1", p1_path, pol1), ("2", path2, pol2))), ()
    )
    return HybridState(
        reg,
        [mk(a, "H", "H", even_path), mk(b, "H", "V", odd_path),
         mk(c, "V", "H", odd_path), mk(d, "V", "V", even_path)],
    ).normalized()


def test_criterion_1_parity_determinism(monkeypatch):
    blocks = []
    block = g.run_qubus_block

    def capture(*args, **kwargs):
        blocks.append((block(*args, **kwargs), args, kwargs))
        return blocks[-1][0]

    monkeypatch.setattr(g, "run_qubus_block", capture)
    t0 = time.monotonic()
    worst = 1.0
    for seed in range(200):
        coeffs = haar_vec(4, seed)
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
        out, rep = g.parity_gate(s, "1", "2", ALPHA_20, THETA)
        fresh = rep.extras["even_paths"][1]
        target = parity_sorted_target(out.registry, coeffs, "t1", fresh, "t2")
        assert len(blocks) == seed + 1
        got, args, kwargs = blocks[-1]
        assert fidelity(out, target) >= 1 - 1e-8
        # every outcome as the reference loop corrects it on its own, and its
        # compiled fidelity with the representative
        loop = block_outcomes(*args, **kwargs)
        assert [value for value, _, _ in loop] == list(got.outcomes.values)
        for (value, prob, state), compiled in zip(loop, got.outcomes.fidelities):
            if prob <= 1e-12:
                continue
            f = fidelity(state, target)
            worst = min(worst, f)
            assert f >= 1 - 1e-8, f"outcome n={value} fidelity {f}"
            assert compiled >= 1 - 1e-8, f"outcome n={value} compiled fidelity {compiled}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    announce(1, f"200 inputs, every outcome >= 1-1e-8 (worst {worst:.12f}, {elapsed:.1f}s)")


def test_criterion_2_merging_inverts_c_path():
    worst = 1.0
    for seed in range(200):
        coeffs = haar_vec(4, 1000 + seed)
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
        mid, rep1 = g.c_path(s, "1", "2", ALPHA_20, THETA)
        mid, _, _ = g.inject_plus(mid, "A", "pa")
        out, _ = g.merging_n(
            mid, "2", rep1.extras["rails"], "A", [("1", None)], ALPHA_20, THETA,
            keep_recycled=False,
        )
        target = polarization_state(coeffs, [("1", "t1"), ("A", "pa")])
        f = fidelity(out, target)
        worst = min(worst, f)
        assert f >= 1 - 1e-8
    announce(2, f"merging∘c_path identity on 200 inputs (worst {worst:.12f})")


def test_criterion_3_transform_correctness():
    for n in (2, 3, 4):
        vs = [haar_vec(2, 300 + 10 * n + i) for i in range(n)]
        ids = [str(i + 1) for i in range(n)]
        s = pol_qubit(ids[0], "t1", *vs[0])
        for i in range(1, n):
            s = tensor(s, pol_qubit(ids[i], f"t{i + 1}", *vs[i]))
        kron = vs[0]
        for v in vs[1:]:
            kron = np.kron(kron, v)

        out, rep = pl.to_qudit_circuit(s, ids, ALPHA_60, THETA)
        probe = out
        for c in ids[:-1]:
            flipped = el.wave_plate(out, c, None, "x")
            assert abs(inner_product(flipped, out) - 1.0) < 1e-10  # exactly |+>
            probe = remove_photon(probe, c)
        vec = path_pol_vector(probe, ids[-1], list(rep.extras["rails"]))
        assert np.max(np.abs(vec - kron)) < 1e-10
        assert rep.gates["c_path"] + rep.gates.get("c_path2", 0) == n - 1
        assert rep.gates["disentangler"] == n - 1

        s2 = pol_qubit(ids[0], "t1", *vs[0])
        for i in range(1, n):
            s2 = tensor(s2, pol_qubit(ids[i], f"t{i + 1}", *vs[i]))
        out_t, rep_t = pl.to_qudit_teleport(s2, ids, ALPHA_60, THETA)
        vec_t = path_pol_vector(out_t, rep_t.extras["carrier"], list(rep_t.extras["rails"]))
        assert np.max(np.abs(vec_t - kron)) < 1e-10
    announce(3, "circuit and teleport transforms exact to 1e-10 for n=2,3,4; resources n-1/n-1")


def test_criterion_4_two_qubit_gates():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    for idx, want in ((0, 0), (1, 1), (2, 3), (3, 2)):
        coeffs = [0.0] * 4
        coeffs[idx] = 1.0
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
        out, rep = pl.multi_qubit_gate(s, ["1", "2"], cnot, ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        assert abs(vec[want]) ** 2 >= 1 - 1e-8

    worst = 1.0
    for seed in range(50):
        u = syn.random_haar_unitary(4, 400 + seed)
        z = haar_vec(4, 500 + seed)
        s = polarization_state(z, [("1", "t1"), ("2", "t2")])
        out, rep = pl.multi_qubit_gate(s, ["1", "2"], u, ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        f = abs(np.vdot(u @ z, vec)) ** 2
        worst = min(worst, f)
        assert f >= 1 - 1e-8
    announce(4, f"CNOT table exact; 50 Haar U(4) (worst {worst:.12f})")


def test_criterion_5_multi_qubit_gates():
    worst = 1.0
    for seed in range(10):
        u = syn.random_haar_unitary(8, 600 + seed)
        z = haar_vec(8, 700 + seed)
        s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
        out, rep = pl.multi_qubit_gate(s, ["1", "2", "3"], u, ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        f = abs(np.vdot(u @ z, vec)) ** 2
        worst = min(worst, f)
        assert f >= 1 - 1e-8

    # the real Hadamard-type interference leaves sigma_z-only corrections
    z = haar_vec(8, 711)
    s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
    u = syn.random_haar_unitary(8, 611)
    out, rep = pl.multi_qubit_gate(
        s, ["1", "2", "3"], u, ALPHA_40, THETA, interference="hadamard4"
    )
    merge_rep = next(c for c in rep.children if c.gate == "merging_n")
    assert merge_rep.feedforward, "feed-forward table missing"
    for label, ops in merge_rep.feedforward:
        for op in ops:
            assert op["kind"] == "WavePlateZ", f"non-sigma_z correction {op}"
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    assert abs(np.vdot(u @ z, vec)) ** 2 >= 1 - 1e-8
    announce(5, f"10 Haar U(8) (worst {worst:.12f}); hadamard4 variant sigma_z-only")


def test_criterion_6_toffoli_truth_tables():
    for idx in range(8):
        coeffs = [0.0] * 8
        coeffs[idx] = 1.0
        s = polarization_state(coeffs, [("1", "t1"), ("2", "t2"), ("3", "t3")])
        out, rep = pl.toffoli(s, ["1", "2"], "3", ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        want = {6: 7, 7: 6}.get(idx, idx)
        assert abs(vec[want]) ** 2 >= 1 - 1e-8

    for idx in range(16):
        coeffs = [0.0] * 16
        coeffs[idx] = 1.0
        s = polarization_state(
            coeffs, [("1", "t1"), ("2", "t2"), ("3", "t3"), ("4", "t4")]
        )
        out, rep = pl.toffoli(s, ["1", "2", "3"], "4", ALPHA_40, THETA)
        vec = polarization_vector(out, list(rep.extras["photon_order"]))
        want = {14: 15, 15: 14}.get(idx, idx)
        assert abs(vec[want]) ** 2 >= 1 - 1e-8

    z = haar_vec(8, 801)
    outs, counts = {}, {}
    for layout in ("split", "compact"):
        s = polarization_state(z, [("1", "t1"), ("2", "t2"), ("3", "t3")])
        out, rep = pl.toffoli(s, ["1", "2"], "3", ALPHA_40, THETA, layout=layout)
        outs[layout] = polarization_vector(out, list(rep.extras["photon_order"]))
        counts[layout] = rep.resources.xpm_couplings
    assert abs(abs(np.vdot(outs["split"], outs["compact"])) - 1.0) < 1e-8
    assert counts["split"] - counts["compact"] == 1
    announce(6, f"8- and 16-state tables exact; layouts agree; couplings {counts['split']} vs {counts['compact']}")


def test_criterion_7_detector_model():
    means = [probe_peak_mean(100.0, 0.05, k) for k in (1, 2, 3, 4)]
    for k, mu in enumerate(means, start=1):
        assert abs(mu - 2 * 100**2 * math.sin(k * 0.05 / 2) ** 2) < 1e-6
    assert means == pytest.approx([12.50, 49.96, 112.3, 199.3], rel=5e-4)
    for k1 in range(1, 5):
        for k2 in range(k1 + 1, 5):
            assert an.peak_overlap(100.0, 0.05, k1, k2) < 1e-3
    mass = sum(poisson_pmf(20.0, n) for n in range(8, 36))
    assert mass >= 0.99
    announce(7, f"peak means {np.round(means, 2).tolist()}, overlaps < 1e-3, mass[8,35]={mass:.4f}")


def test_criterion_8_error_probability():
    p = an.error_probability_formula(math.sqrt(4000.0), 0.05, 100.0, 0.9, 0.05)
    assert p == pytest.approx(2.1e-9, rel=0.2)
    ratios = []
    for theta in (0.02, 0.05, 0.1):
        alpha = an.alpha_for_beta2(20.0, theta)  # 2 alpha^2 sin^2 theta = 20 >> 1
        f = an.error_probability_formula(alpha, theta, 100.0, 0.9, theta)
        d = an.error_probability_direct(alpha, theta, 100.0, 0.9, theta)
        r = abs(math.log(d) / math.log(f))
        ratios.append(r)
        assert 0.5 <= r <= 2.0
    announce(8, f"P_E={p:.3e} (+-20% of 2.1e-9); log ratios {np.round(ratios, 3).tolist()}")


def test_criterion_9_oracle_equivalence():
    # alpha = 2, theta = 0.3: branch pmf vs dense Fock truncation at 40
    alpha, theta = 2.0, 0.3
    coeffs = haar_vec(4, 901)
    s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
    s = HybridState(s.registry.with_path("2", "t3"), s.branches)
    s = el.photon_bs(s, "2", "t2", "t3")
    coupled, (b0, b1) = g.couple_qubus_pair(
        s, g.parity_couplings("1", "t1", "2", "t2", "t3"), alpha, theta
    )
    cutoff = 40
    for mode in (b0, b1):
        ns, probs = fock_distribution(coupled, mode, cutoff=cutoff, tail_tol=1e-7)
        idx = coupled.registry.qubus_index(mode)
        other = 1 - idx
        labels = {}
        for br in coupled.branches:
            v0 = np.array([fock_amplitude(n, br.qubus[idx]) for n in range(cutoff + 1)])
            v1 = np.array([fock_amplitude(n, br.qubus[other]) for n in range(cutoff + 1)])
            labels[br.photons] = labels.get(br.photons, 0) + br.amplitude * np.outer(v0, v1)
        dense = np.zeros(cutoff + 1)
        for grid in labels.values():
            dense += np.sum(np.abs(grid) ** 2, axis=1)
        tv = 0.5 * float(np.sum(np.abs(dense - probs)))
        assert tv < 1e-6
    announce(9, "branch pmfs match Fock-truncated dense simulation (TV < 1e-6)")


def test_criterion_10_reck_mesh():
    worst = 0.0
    for n in (2, 4, 8, 16):
        u = syn.random_haar_unitary(n, 950 + n)
        mesh = syn.reck_decompose(u)
        err = float(np.linalg.norm(mesh.matrix() - u))
        worst = max(worst, err)
        assert err < 1e-10
    # mesh action matches the dense matrix action on a random qudit state
    u = syn.random_haar_unitary(8, 977)
    v = haar_vec(8, 978)
    s = pol_qubit("q", "r0", 1, 0)
    reg = s.registry
    for i in range(1, 8):
        reg = reg.with_path("q", f"r{i}")
    rails = [f"r{i}" for i in range(8)]
    state = HybridState(
        reg, [Branch(v[i], (("q", rails[i], "H"),), ()) for i in range(8)]
    )
    via_mesh = syn.mesh_apply(state, "q", rails, syn.reck_decompose(u))
    via_dense = apply_path_unitary(state, "q", rails, u)
    assert fidelity(via_mesh, via_dense) >= 1 - 1e-10
    got = np.array(
        [sum(br.amplitude for br in via_mesh.branches if br.slot("q")[0] == r) for r in rails]
    )
    assert np.max(np.abs(got - u @ v)) < 1e-10
    announce(10, f"Reck reconstruction < 1e-10 for N in 2..16 (worst {worst:.2e}); mesh == dense")
