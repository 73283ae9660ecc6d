"""Measurement chain: Fock projection, QND module, POVM, presence, Bell."""

import math

import numpy as np
import pytest

from qubusim import (
    Branch,
    HybridState,
    ModeRegistry,
    attach_qubus,
    bell_state,
    norm,
    pol_qubit,
    normalize,
    polarization_state,
    tensor,
)
from qubusim import elements as el
from qubusim import gates
from qubusim import pipelines as pl
from qubusim.detection import (
    MIN_PROB,
    MeasurementError,
    _fock_collapsed,
    QndConfig,
    bell_outcomes,
    fock_distribution,
    fock_outcomes,
    fock_project,
    povm_outcomes,
    presence_outcomes,
    probe_peak_mean,
    project_qubus_coherent,
    qnd_outcomes,
)
from qubusim.gates import couple_qubus_pair, parity_couplings
from qubusim.numerics import fock_amplitude, poisson_pmf

from conftest import alpha_for, haar_vec, THETA


def coherent_state(value, mode="q"):
    return attach_qubus(pol_qubit("x", "p", 1, 0), mode, value)


def parity_premeasure(seed=2, beta2=20.0, theta=THETA):
    alpha = alpha_for(beta2, theta)
    s = polarization_state(haar_vec(4, seed), [("1", "t1"), ("2", "t2")])
    s = HybridState(s.registry.with_path("2", "t3"), s.branches)
    s = el.photon_bs(s, "2", "t2", "t3")
    return couple_qubus_pair(s, parity_couplings("1", "t1", "2", "t2", "t3"), alpha, theta)


# -- Fock ---------------------------------------------------------------------


def test_fock_distribution_poisson():
    ns, probs = fock_distribution(coherent_state(math.sqrt(20)), "q")
    assert int(np.argmax(probs)) in (19, 20)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    for n in (0, 5, 20, 40):
        assert probs[n] == pytest.approx(poisson_pmf(20.0, n), rel=1e-9)


def test_fock_distribution_vacuum():
    ns, probs = fock_distribution(coherent_state(0.0), "q")
    assert probs[0] == pytest.approx(1.0)


def test_fock_distribution_parity_output_p0():
    # P(0) = (1 + e^{-|beta|^2})/2 at |beta|^2 = 20: equals 1/2 within 1e-8
    coupled, (b0, _) = parity_premeasure()
    ns, probs = fock_distribution(coupled, b0)
    assert probs[0] == pytest.approx(0.5 * (1 + math.exp(-20.0)), rel=1e-12)
    assert probs[0] == pytest.approx(0.5, abs=1e-8)


def test_fock_distribution_cutoff_error():
    with pytest.raises(MeasurementError, match="tail"):
        fock_distribution(coherent_state(math.sqrt(20)), "q", cutoff=10)


def _teleport_block(monkeypatch, branches=256):
    """The coupled state of the first qubus block of that size in a 3-photon teleport."""

    class Found(Exception):
        pass

    def capture(s, mode):
        if len(s.branches) == branches:
            raise Found(s, mode)
        return fock_outcomes(s, mode)

    monkeypatch.setattr(gates, "fock_outcomes", capture)
    s = tensor(
        tensor(pol_qubit("1", "t1", 0.6, 0.8j), pol_qubit("2", "t2", 1, 1)),
        pol_qubit("3", "t3", 0.3, -0.7),
    )
    with pytest.raises(Found) as found:
        pl.to_qudit_teleport(s, ["1", "2", "3"], alpha_for(20.0), THETA)
    return found.value.args


def _vacuum_branch_state():
    """Label groups of several branches, one of them with α = 0 on mode q."""
    reg = ModeRegistry().with_photon("1", ("t1",)).with_qubus("q").with_qubus("r")
    h, v = (("1", "t1", "H"),), (("1", "t1", "V"),)
    return normalize(HybridState(reg, [
        Branch(0.6 + 0j, h, (0j, 1.0 + 0j)),
        Branch(0.5j, h, (2.0 + 0j, 1.5 - 0.5j)),
        Branch(0.4 + 0j, h, (-1.5j, 0.3 + 0j)),
        Branch(0.3 + 0j, v, (1 + 1j, 0j)),
        Branch(-0.2j, v, (1 - 1j, 0.5j)),
    ]))


@pytest.mark.parametrize("case", ["parity-2000", "cpath2-256", "vacuum-branch"])
def test_fock_pmf_matches_collapsed_norms(case, monkeypatch):
    # the one-pass pmf against the norm of each collapsed state, n = 0..cutoff
    if case == "parity-2000":
        s, (mode, _) = parity_premeasure(beta2=2000.0)
    elif case == "cpath2-256":
        s, mode = _teleport_block(monkeypatch)
    else:
        s, mode = _vacuum_branch_state(), "q"
    ns, probs = fock_distribution(s, mode)
    idx = s.registry.qubus_index(mode)
    ref = np.array([norm(_fock_collapsed(s, idx, int(n))) ** 2 for n in ns])
    assert np.max(np.abs(probs - ref)) <= 1e-12
    records = fock_outcomes(s, mode)
    assert [r.value for r in records] == [int(n) for n in ns[probs >= MIN_PROB]]
    for r in records:
        assert r.probability == norm(_fock_collapsed(s, idx, r.value)) ** 2


def test_fock_distribution_rejects_nan_amplitude():
    with pytest.raises(MeasurementError, match="tail"):
        fock_distribution(coherent_state(complex(math.nan, 0.0)), "q", cutoff=30)


def test_fock_project_impossible():
    s = coherent_state(0.0)
    with pytest.raises(MeasurementError, match="impossible"):
        fock_project(s, "q", 3)


def test_fock_project_removes_mode_and_normalizes():
    s = coherent_state(2.0)
    rec = fock_project(s, "q", 4)
    assert rec.probability == pytest.approx(poisson_pmf(4.0, 4), rel=1e-9)
    assert rec.collapsed.registry.qubus_modes == ()
    assert norm(rec.collapsed) == pytest.approx(1.0, abs=1e-10)


def test_fock_outcomes_complete():
    coupled, (b0, _) = parity_premeasure()
    records = fock_outcomes(coupled, b0)
    total = sum(r.probability for r in records)
    assert total == pytest.approx(1.0, abs=1e-9)
    for r in records:
        assert norm(r.collapsed) == pytest.approx(1.0, abs=1e-10)


def test_fock_pmf_matches_dense_truncated_oracle():
    # acceptance 9 core: branch pmf vs a Fock-truncated dense simulation
    coupled, (b0, b1) = parity_premeasure(seed=6, beta2=2 * 4 * math.sin(0.3) ** 2, theta=0.3)
    cutoff = 40
    ns, probs = fock_distribution(coupled, b0, cutoff=cutoff, tail_tol=1e-6)
    # dense: psi[label, n0, n1] amplitudes from truncated coherent vectors
    labels = {}
    for br in coupled.branches:
        v0 = np.array([fock_amplitude(n, br.qubus[0]) for n in range(cutoff + 1)])
        v1 = np.array([fock_amplitude(n, br.qubus[1]) for n in range(cutoff + 1)])
        grid = br.amplitude * np.outer(v0, v1)
        key = br.photons
        labels[key] = labels.get(key, 0) + grid
    dense_pmf = np.zeros(cutoff + 1)
    for grid in labels.values():
        dense_pmf += np.sum(np.abs(grid) ** 2, axis=1)
    tv = 0.5 * np.sum(np.abs(dense_pmf - probs))
    assert tv < 1e-6


# -- QND module ---------------------------------------------------------------


def test_probe_peak_means():
    expect = {1: 12.50, 2: 49.96, 3: 112.3, 4: 199.3}
    for k, approx in expect.items():
        mu = probe_peak_mean(100.0, 0.05, k)
        assert mu == pytest.approx(2 * 100**2 * math.sin(k * 0.05 / 2) ** 2, abs=1e-9)
        assert mu == pytest.approx(approx, rel=5e-4)


def test_qnd_config_validates_bins():
    with pytest.raises(MeasurementError):
        QndConfig(100.0, 0.05, 0.95, ((1, 999.0, 0.0, 10.0),))
    cfg = QndConfig.with_default_bins(100.0, 0.05, 0.95)
    assert cfg.bins[0][0] == 0
    los = [b[2] for b in cfg.bins]
    assert los == sorted(los)


def test_qnd_binned_matches_ideal_within_tv():
    coupled, (b0, _) = parity_premeasure()
    cfg = QndConfig.with_default_bins(100.0, 0.05, 0.95)
    ideal = {r.value: r.probability for r in qnd_outcomes(coupled, b0, cfg, "ideal")}
    binned = {r.value: r.probability for r in qnd_outcomes(coupled, b0, cfg, "binned")}
    assert sum(binned.values()) == pytest.approx(1.0, abs=1e-9)
    keys = set(ideal) | set(binned)
    tv = 0.5 * sum(abs(ideal.get(k, 0.0) - binned.get(k, 0.0)) for k in keys)
    assert tv < 1e-6


def test_qnd_binned_vacuum_fires_bin0():
    cfg = QndConfig.with_default_bins(50.0, 0.05, 0.4)
    s = coherent_state(0.0)
    recs = qnd_outcomes(s, "q", cfg, "binned")
    assert len(recs) == 1 and recs[0].value == 0
    assert recs[0].probability == pytest.approx(1.0)


def test_qnd_binned_ambiguous_readout():
    # two well-weighted Fock values in one bin cannot be read out
    cfg = QndConfig(100.0, 0.05, 0.95, ((0, 0.0, 0.0, 2.0 * 100**2),))
    s = coherent_state(1.5)
    with pytest.raises(MeasurementError, match="ambiguous"):
        qnd_outcomes(s, "q", cfg, "binned")


# -- POVM ---------------------------------------------------------------------


def test_povm_vacuum():
    recs = povm_outcomes(coherent_state(0.0), "q", 0.9)
    assert recs[0].value == 0 and recs[0].probability == pytest.approx(1.0)
    assert recs[1].probability == pytest.approx(0.0)


def test_povm_coherent_closed_form():
    # P(0) = e^{-eta |alpha|^2} = e^{-18}
    recs = povm_outcomes(coherent_state(math.sqrt(20)), "q", 0.9)
    assert recs[0].probability == pytest.approx(math.exp(-18.0), rel=1e-9)
    assert recs[0].probability + recs[1].probability == pytest.approx(1.0)
    # collapse-0 attenuates the beam to alpha sqrt(1-eta)
    br = recs[0].collapsed.branches[0]
    assert br.qubus[0] == pytest.approx(math.sqrt(20) * math.sqrt(0.1))


def test_povm_eta_one_vacuum_weight():
    # near eta -> 1, P(0) approaches the exact vacuum weight of the state
    s = coherent_state(4.0)
    recs = povm_outcomes(s, "q", 1.0)
    assert recs[0].probability == pytest.approx(math.exp(-16.0), rel=1e-9)
    # superposition with an exactly-vacuum component: weight recovered
    from qubusim.state import Branch, HybridState

    base = coherent_state(4.0)
    mixed = HybridState(
        base.registry,
        [
            Branch(1 / math.sqrt(2), (("x", "p", "H"),), (4.0 + 0j,)),
            Branch(1 / math.sqrt(2), (("x", "p", "V"),), (0.0 + 0j,)),
        ],
    )
    recs = povm_outcomes(mixed, "q", 1.0, strict=False)
    assert recs[0].probability == pytest.approx(0.5, abs=1e-6)
    assert recs[1].collapsed is None  # not representable, probability still exact


def test_povm_outcome1_entangled_mode_rejected():
    coupled, (b0, _) = parity_premeasure()
    with pytest.raises(MeasurementError, match="branch-uniform"):
        povm_outcomes(coupled, b0, 0.9)


# -- presence and Bell --------------------------------------------------------


def test_presence_keeps_photon():
    s = pol_qubit("1", "a", 1, 1)
    s = HybridState(s.registry.with_path("1", "b"), s.branches)
    s = el.photon_bs(s, "1", "a", "b")
    recs = presence_outcomes(s, "1", ["a", "b"])
    assert sum(r.probability for r in recs) == pytest.approx(1.0)
    for r in recs:
        assert "1" in r.collapsed.registry.photons


def test_presence_deterministic_path():
    s = pol_qubit("1", "a", 1, 0)
    recs = presence_outcomes(s, "1", ["a"])
    assert len(recs) == 1 and recs[0].probability == pytest.approx(1.0)


def test_bell_on_bell_state():
    s = bell_state("phi+", ("a", "pa"), ("b", "pb"))
    s = tensor(s, pol_qubit("w", "pw", 1, 0))  # spectator
    recs = bell_outcomes(s, "a", "b")
    probs = {r.value: r.probability for r in recs}
    assert probs["phi+"] == pytest.approx(1.0, abs=1e-12)
    rec = next(r for r in recs if r.value == "phi+")
    assert set(rec.collapsed.registry.photons) == {"w"}


def test_bell_on_product_hh():
    s = polarization_state([1, 0, 0, 0], [("a", "pa"), ("b", "pb")])
    s = tensor(s, pol_qubit("w", "pw", 1, 0))
    probs = {r.value: r.probability for r in bell_outcomes(s, "a", "b")}
    assert probs["phi+"] == pytest.approx(0.5)
    assert probs["phi-"] == pytest.approx(0.5)
    assert probs.get("psi+", 0.0) == pytest.approx(0.0, abs=1e-12)


def test_bell_rejects_multipath():
    s = pol_qubit("1", "a", 1, 1)
    s = HybridState(s.registry.with_path("1", "b"), s.branches)
    s = el.photon_bs(s, "1", "a", "b")
    s = tensor(s, pol_qubit("2", "c", 1, 0))
    with pytest.raises(MeasurementError):
        bell_outcomes(s, "1", "2")


def test_project_qubus_coherent_disposal():
    coupled, (b0, b1) = parity_premeasure()
    rec = fock_project(coupled, b0, 0)
    cleaned, p = project_qubus_coherent(rec.collapsed, b1)
    assert cleaned.registry.qubus_modes == ()
    assert p > 1.0 - 1e-6
    assert norm(cleaned) == pytest.approx(1.0, abs=1e-10)
