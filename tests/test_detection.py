"""Measurement chain: Fock projection, probe peaks, presence, Bell, disposal."""

import cmath
import math

import numpy as np
import pytest

from qubusim import (
    Branch,
    HybridState,
    ModeRegistry,
    RegistryError,
    attach_qubus,
    bell_state,
    inner_product,
    norm,
    pol_qubit,
    normalize,
    polarization_state,
    random_polarization_state,
    tensor,
)
from qubusim import elements as el
from qubusim import state as state_mod
from qubusim import detection, gates, numerics
from qubusim.cli import main
from qubusim.detection import (
    BELLS,
    MIN_PROB,
    MeasurementError,
    MAX_FOCK_CUTOFF,
    _fock_collapsed,
    bell_outcomes,
    fock_distribution,
    fock_outcomes,
    presence_outcomes,
    probe_peak_mean,
    project_qubus_coherent,
)
from qubusim.gates import couple_qubus_pair, parity_couplings
from qubusim.numerics import default_fock_cutoff, fock_amplitude, fock_table, poisson_pmf
from qubusim.state import _recode, _slot_digits

from conftest import alpha_for, haar_vec, split_by_value, THETA


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


def test_fock_amplitude_table_is_kept_per_exact_key_and_read_only():
    # parity-bright's and qudit-wide's beam values, each with an alpha = 0 row, then
    # qudit-wide's cutoff with other values; a table served from the wrong key fails
    bright, dim = math.sqrt(2000.0), math.sqrt(20.0)
    keys = [
        ((0j, complex(bright), complex(-bright)), default_fock_cutoff(2000.0)),
        ((0j, complex(dim), complex(-dim)), default_fock_cutoff(20.0)),
        ((0j, 1j * dim, -1j * dim), default_fock_cutoff(20.0)),
    ]
    for values, cutoff in keys + keys[::-1] + keys:
        table = fock_table(values, cutoff).table
        want = [[fock_amplitude(n, a) for n in range(cutoff + 1)] for a in values]
        np.testing.assert_allclose(table, want, rtol=1e-9, atol=0)
        assert table[0, 0] == 1 and not table[0, 1:].any()
        with pytest.raises(ValueError, match="read-only"):
            table[1, 1] = 0
        record = fock_table(values, cutoff)
        np.testing.assert_allclose(record.weights, (abs(table) ** 2).sum(axis=0), rtol=1e-15)
        np.testing.assert_allclose(record.moments, table.conj() @ table.T, rtol=0, atol=1e-15)
        assert not (record.weights.flags.writeable or record.moments.flags.writeable)
    # -dim + 0j == -dim - 0j, but their phases are +pi and -pi: each keeps its own table
    for im in (0.0, -0.0, 0.0):
        value = complex(-dim, im)
        got = fock_table([value], 84).table[0, 1].imag
        assert math.copysign(1, got) == math.copysign(1, fock_amplitude(1, value).imag)
    assert not fock_distribution(coherent_state(dim), "q").table.flags.writeable


@pytest.mark.parametrize(
    "argv",
    [["multi-qubit", "--photons", "3"], ["from-qudit", "--photons", "3"],
     ["cn-uk", "--photons", "4", "--targets", "2"]],
    ids=["multi-qubit", "from-qudit", "cn-uk"],
)
def test_alternating_beam_orders_build_each_fock_table_once(argv, monkeypatch, tmp_path):
    # these gates' blocks measure [0, -beta, beta] and [0, beta, -beta] in turn
    built, keys = numerics._fock_table, []

    def recorded(*key):
        keys.append(key)
        return built(*key)

    monkeypatch.setattr(numerics, "_fock_table", recorded)
    built.cache_clear()
    assert main(["gate", *argv, "--beta2", "2000", "--out", str(tmp_path / "r.json")]) == 0
    assert len(keys) > len(set(keys)) >= 2
    assert built.cache_info().misses == len(set(keys))


def test_half_log_factorials_slice_one_grown_table(monkeypatch):
    # parity-bright's cutoff, qudit-wide's, then a larger one: each entry is
    # computed once, and a smaller cutoff after a larger one computes none
    monkeypatch.setattr(numerics, "_half_log_fact", np.zeros(0))
    lgamma, calls = math.lgamma, []

    def counted(x):
        calls.append(x)
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counted)
    for cutoff, computed in ((2547, 2548), (84, 0), (3000, 453)):
        calls.clear()
        table = numerics._half_log_factorials(cutoff)
        assert len(calls) == computed
        assert table.tolist() == [0.5 * lgamma(n + 1) for n in range(cutoff + 1)]
        assert not table.flags.writeable


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


@pytest.mark.parametrize("cutoff, match", [
    (10**400, "Fock cutoff 1e\\+400 for beam mean photon number 20 exceeds the limit"),
    (2.5, "cutoff must be an int from 0 to 1000000, got 2.5$"),
    ("7", "cutoff must be an int from 0 to 1000000, got '7'$"),
    (-1, "cutoff -1 is negative$"),
    (True, "cutoff must be an int from 0 to 1000000, got True$"),
], ids=["huge", "float", "str", "negative", "bool"])
def test_fock_distribution_refuses_a_bad_explicit_cutoff_by_name(cutoff, match, monkeypatch):
    def refuse(values, cutoff):
        raise AssertionError("a table was built")

    monkeypatch.setattr(detection, "fock_table", refuse)
    with pytest.raises(MeasurementError, match=match):
        fock_distribution(coherent_state(math.sqrt(20)), "q", cutoff=cutoff)


def _teleport_block(monkeypatch):
    """The coupled state of the C-path-2 block of a 3-photon teleport, built
    with the inputs already in: its rows couple every input row."""

    class Found(Exception):
        pass

    def capture(s, mode):
        raise Found(s, mode)

    s = tensor(
        tensor(pol_qubit("1", "t1", 0.6, 0.8j), pol_qubit("2", "t2", 1, 1)),
        pol_qubit("3", "t3", 0.3, -0.7),
    )
    s, a1, _ = gates.inject_plus(s)
    s, a2, _ = gates.inject_plus(s)
    s = tensor(s, bell_state("phi+", ("bellA", "bA"), ("bellB", "bB")))
    s, rep = gates.c_path(s, a1, "bellA", alpha_for(20.0), THETA)
    monkeypatch.setattr(gates, "fock_outcomes", capture)
    with pytest.raises(Found) as found:
        gates.c_path2(s, a2, "bellA", rep.extras["rails"], alpha_for(20.0), THETA)
    coupled, mode = found.value.args
    assert len(coupled.branches) == 256
    return coupled, mode


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


def test_the_pmf_gram_is_the_overlaps_of_parts_built_apart():
    # each label holds rows at three values of the measured beam q and at
    # several values of a second beam r: the Gram matrix binned from the
    # state's rows is ⟨ψ_k|ψ_l⟩ of the parts, each built as a state of its own
    rng = np.random.default_rng(4)
    reg = ModeRegistry().with_photon("1", ("a", "b")).with_qubus("r")
    labels = [(("1", p, pol),) for p in "ab" for pol in "HV"]
    shared = complex(0.5, -0.25)  # an r value that every part holds on every label
    parts = [HybridState(reg, [Branch(complex(*rng.standard_normal(2)), label, (r,))
                               for label in labels
                               for r in (shared, complex(*rng.uniform(-1.0, 1.0, 2)))])
             for _ in range(3)]
    values = [0j, 2.0 + 0j, -2.0 + 0.5j]
    s = HybridState(reg.with_qubus("q"), [Branch(br.amplitude, br.photons, br.qubus + (v,))
                                          for part, v in zip(parts, values)
                                          for br in part.branches])
    c = 1 / norm(s)
    pmf = fock_distribution(s.scaled(c), "q")
    assert sorted(pmf.values, key=values.index) == values
    built = [parts[values.index(v)].scaled(c) for v in pmf.values]
    want = np.array([[inner_product(x, y) for y in built] for x in built])
    assert np.abs(pmf.gram - want).max() <= 1e-12 * np.abs(want).max()


def _beam_state(beta2, extra, seed):
    """Photon 1 over four labels, a measured beam q at |β|² = beta2 and
    `extra` more beams: seven rows, whose q values are 0 (the vacuum branch),
    ±β, iβ and β·e^{0.3i}, so labels meet several values."""
    rng = np.random.default_rng(seed)
    reg = ModeRegistry().with_photon("1", ("a", "b")).with_qubus("q")
    for k in range(extra):
        reg = reg.with_qubus(f"r{k}")
    labels = [(("1", path, pol),) for path in "ab" for pol in "HV"]
    b = math.sqrt(beta2)
    values = [0, b, -b, 1j * b, b * cmath.exp(0.3j), -b, b]
    rows = []
    for i, value in enumerate(values):
        others = tuple(complex(*rng.standard_normal(2)) for _ in range(extra))
        amp = complex(*rng.standard_normal(2))
        rows.append(Branch(amp, labels[i % 4], (complex(value),) + others))
    return normalize(HybridState(reg, rows))


def _cancelling_state():
    """Two rows on one label whose beam values nearly agree, with opposite
    amplitudes: the parts are ~100 times the state's norm, so tr(G) ≈ 2e4
    and P(n) exceeds the summed weights ‖fₙ‖² in the tails."""
    reg = ModeRegistry().with_photon("1", ("a",)).with_qubus("q")
    h = (("1", "a", "H"),)
    rows = [Branch(1.0, h, (20.0 + 0j,)), Branch(-1.0, h, (20.01 + 0j,))]
    return normalize(HybridState(reg, rows))


def _assert_window_matches_pmf(s, mode, total_tol=1e-13):
    pmf = fock_distribution(s, mode)
    found = fock_outcomes(s, mode)
    ns, probs = pmf
    keep = probs >= MIN_PROB
    assert found.values == ns[keep].tolist()
    assert found.ns.tolist() == found.values and found.ns.dtype.kind == "i"
    np.testing.assert_allclose(found.probabilities, probs[keep], rtol=0, atol=1e-15)
    np.testing.assert_allclose(found.weights, pmf.table[:, keep], rtol=0, atol=1e-15)
    assert abs(pmf.total - probs.sum()) <= total_tol
    return pmf


@pytest.mark.parametrize("beta2", [1e-3, 0.5, 4.0, 20.0, 200.0, 2000.0, 20000.0])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_windowed_outcomes_match_the_full_pmf(beta2, extra):
    # the outcomes taken on the window are those of the full pmf above MIN_PROB
    _assert_window_matches_pmf(_beam_state(beta2, extra, seed=int(beta2 * 10) + extra), "q")


def test_windowed_outcomes_scale_the_bound_by_the_gram_trace():
    # parts far larger than the state: the window must widen by tr(G)
    # (both totals round at about tr(G)·1e-16, so they agree to tr(G)·1e-15)
    s = _cancelling_state()
    trace = fock_distribution(s, "q").gram.trace().real
    assert trace > 1e4
    pmf = _assert_window_matches_pmf(s, "q", total_tol=trace * 1e-15)
    probs, weights = pmf.probs, pmf.fock.weights
    assert ((probs >= MIN_PROB) & (weights < MIN_PROB / 2)).any()


def test_windowed_outcomes_reject_a_nan_amplitude():
    s = _beam_state(20.0, 1, seed=3)
    bad = HybridState._derived(s.registry, np.where(np.arange(len(s.amps)) == 2, np.nan, s.amps),
                               s.codes, s.qubus)
    for measure in (fock_distribution, fock_outcomes):
        with pytest.raises(MeasurementError, match="tail"):
            measure(bad, "q")


def test_bright_outcomes_take_the_quadratic_form_on_the_window_only(monkeypatch):
    # at |β|² = 2000 the pmf has 2548 columns; the kept outcomes need the
    # quadratic form only where tr(G)·‖fₙ‖² can reach MIN_PROB, and the full
    # pmf is never built
    s, (mode, _) = parity_premeasure(beta2=2000.0)
    columns = []
    forms = detection._quadratic_forms

    def counted(g, f):
        columns.append(f.shape[1])
        return forms(g, f)

    monkeypatch.setattr(detection, "_quadratic_forms", counted)
    found = fock_outcomes(s, mode)
    idx = s.registry.qubus_index(mode)
    values, parts = split_by_value(s, idx)
    cutoff = default_fock_cutoff(max(abs(a) ** 2 for a in values))
    assert cutoff + 1 == 2548
    # the rule's slack: tr(G) rounded up to a power of two is below 2·max(tr(G), 1)
    level = 2 * max(sum(norm(part) ** 2 for part in parts), 1.0)
    weights = [sum(abs(fock_amplitude(n, a)) ** 2 for a in values) for n in range(cutoff + 1)]
    allowed = sum(w * level >= MIN_PROB / 2 for w in weights)
    assert len(found) == 627
    assert sum(columns) <= min(700, allowed), columns


def test_fock_distribution_rejects_too_bright_beam():
    # |alpha|^2 = 1e8 needs a cutoff of about 1e8 + 1.2e5, above the limit
    with pytest.raises(MeasurementError, match=f"limit {MAX_FOCK_CUTOFF}"):
        fock_distribution(coherent_state(1e4), "q")
    # a cutoff of hundreds of digits is written in short form
    with pytest.raises(MeasurementError, match=f"cutoff 1e\\+250 .* limit {MAX_FOCK_CUTOFF}$"):
        fock_distribution(coherent_state(1e125), "q")
    with pytest.raises(MeasurementError, match="not finite"):
        fock_distribution(coherent_state(1e200), "q")


def test_fock_project_removes_mode_and_normalizes():
    s = coherent_state(2.0)
    rec = next(r for r in fock_outcomes(s, "q") if r.value == 4)
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


# -- probe readout peaks ------------------------------------------------------


def test_probe_peak_means():
    expect = {1: 12.50, 2: 49.96, 3: 112.3, 4: 199.3}
    for k, approx in expect.items():
        mu = probe_peak_mean(100.0, 0.05, k)
        assert mu == pytest.approx(2 * 100**2 * math.sin(k * 0.05 / 2) ** 2, abs=1e-9)
        assert mu == pytest.approx(approx, rel=5e-4)


# -- presence and Bell --------------------------------------------------------


def test_presence_keeps_photon():
    s = pol_qubit("1", "a", 1, 1)
    s = HybridState(s.registry.with_path("1", "b"), s.branches)
    s = el.photon_bs(s, "1", "a", "b")
    recs = presence_outcomes(s, "1", ["a", "b"])
    assert sum(r.probability for r in recs) == pytest.approx(1.0)
    for r in recs:
        assert "1" in r.collapsed.registry.photons


def test_presence_refuses_an_unregistered_path_by_name():
    # it once raised a bare "tuple.index(x): x not in tuple"
    s = pol_qubit("1", "a", 1, 0)
    with pytest.raises(RegistryError, match="path 'nope' not registered for photon '1'"):
        presence_outcomes(s, "1", ["a", "nope"])


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
    for pair in (("1", "2"), ("2", "1")):
        with pytest.raises(MeasurementError) as err:
            bell_outcomes(s, *pair)
        assert str(err.value) == "Bell measurement needs single-path photons; '1' is split"


_BELL_PATTERNS = {
    "phi+": {("H", "H"): 1, ("V", "V"): 1},
    "phi-": {("H", "H"): 1, ("V", "V"): -1},
    "psi+": {("H", "V"): 1, ("V", "H"): 1},
    "psi-": {("H", "V"): 1, ("V", "H"): -1},
}


def _bell_outcomes_by_pattern(s, pid_a, pid_b):
    """The Bell readout as four masked copies, each canonicalized and normed:
    the reference for the one-pass bell_outcomes."""
    for pid in (pid_a, pid_b):
        if len(s.photon_paths_in_use(pid)) != 1:
            raise MeasurementError(f"Bell measurement needs single-path photons; {pid!r} is split")
    reg = s.registry.without_photon(pid_a).without_photon(pid_b)
    pols = 2 * (_slot_digits(s, pid_a) % 2) + _slot_digits(s, pid_b) % 2  # HH, HV, VH, VV
    rest = _recode(s.codes, s.registry, reg)
    out = []
    r = 1 / math.sqrt(2)
    for name, pattern in _BELL_PATTERNS.items():
        w = np.array([pattern.get((a, b), 0) for a in "HV" for b in "HV"], float)[pols]
        hit = w != 0
        part = HybridState._rows(reg, s.amps[hit] * w[hit] * r, rest[hit], s.qubus[hit])
        part = part.canonical(0.0)
        p = norm(part) ** 2
        if p >= MIN_PROB:
            out.append(detection.MeasurementRecord("bell", name, p, part.normalized()))
    return out


def _assert_same_bell_records(got, want):
    assert [r.value for r in got] == [r.value for r in want]
    for g, w in zip(got, want):
        assert g.probability == pytest.approx(w.probability, abs=1e-15)
        assert g.collapsed.registry == w.collapsed.registry
        assert np.array_equal(g.collapsed.codes, w.collapsed.codes)
        assert np.array_equal(g.collapsed.qubus, w.collapsed.qubus)
        assert np.abs(g.collapsed.amps - w.collapsed.amps).max() <= 1e-15


def _beam_rows_state():
    """Rows with equal remaining labels and different beam values: the Φ
    outcomes hold two rows on one code, whose beams overlap."""
    reg = ModeRegistry().with_photon("a", ("pa",)).with_photon("b", ("pb",))
    reg = reg.with_photon("w", ("pw",)).with_qubus("q")

    def slots(pa, pb, pw):
        return ("a", "pa", pa), ("b", "pb", pb), ("w", "pw", pw)

    return normalize(HybridState(reg, [
        Branch(0.5 + 0j, slots("H", "H", "H"), (1.0 + 0j,)),
        Branch(0.4 + 0j, slots("V", "V", "H"), (2.0 + 0j,)),
        Branch(-0.3 + 0j, slots("H", "V", "V"), (1.0 + 0j,)),
        Branch(0.6 + 0j, slots("V", "H", "V"), (1.0 + 0j,)),
        Branch(0.2 + 0j, slots("V", "V", "V"), (1.5 - 0.5j,)),
    ]))


BELL_CASES = {
    "haar": lambda: random_polarization_state(3, 17),
    "basis": lambda: polarization_state([0, 0, 0, 0, 0, 1, 0, 0], [("1", "t1"), ("2", "t2"), ("3", "t3")]),
    "beams": _beam_rows_state,
    "haar beside a beam": lambda: tensor(attach_qubus(pol_qubit("w", "pw", 0.6, 0.8j), "q", 3.0),
                                         random_polarization_state(2, 5)),
}


@pytest.mark.parametrize("case", BELL_CASES)
@pytest.mark.parametrize("swap", [False, True], ids=["a,b", "b,a"])
def test_one_pass_bell_readout_matches_the_masked_copies(case, swap):
    s = BELL_CASES[case]()
    pair = [p for p in s.registry.photons if p != "w"][:2]
    pair = pair[::-1] if swap else pair
    _assert_same_bell_records(bell_outcomes(s, *pair), _bell_outcomes_by_pattern(s, *pair))


def test_bell_rows_that_cancel_stay_in_their_outcome():
    # Φ⁻ on |HH⟩|H⟩ + |VV⟩|H⟩ + |HH⟩|V⟩: the w=H row cancels, the w=V row does not
    s = polarization_state([1, 1, 0, 0, 0, 0, 1, 0],
                           [("a", "pa"), ("b", "pb"), ("w", "pw")])
    got = bell_outcomes(s, "a", "b")
    _assert_same_bell_records(got, _bell_outcomes_by_pattern(s, "a", "b"))
    minus = next(r for r in got if r.value == "phi-").collapsed
    assert len(minus.amps) == 2 and minus.amps.tolist().count(0) == 1


def test_bell_parts_on_a_shared_code_take_the_norm(monkeypatch):
    s = _beam_rows_state()
    calls = []
    overlap = state_mod._overlap
    monkeypatch.setattr(state_mod, "_overlap", lambda a, b: calls.append(len(a.amps)) or overlap(a, b))
    got = bell_outcomes(s, "a", "b")
    # Φ± hold two rows on the code of w=H (beams 1 and 2): only they take an overlap
    assert calls == [3, 3]
    _assert_same_bell_records(got, _bell_outcomes_by_pattern(s, "a", "b"))


def test_bell_lists_only_possible_outcomes():
    s = polarization_state([1, 0, 0, 0], [("a", "pa"), ("b", "pb")])
    recs = bell_outcomes(s, "a", "b")
    assert [r.value for r in recs] == ["phi+", "phi-"]
    assert all(r.collapsed is not None for r in recs)


def test_project_qubus_coherent_disposal():
    coupled, (b0, b1) = parity_premeasure()
    rec = fock_outcomes(coupled, b0)[0]
    assert rec.value == 0
    cleaned, p = project_qubus_coherent(rec.collapsed, b1)
    assert cleaned.registry.qubus_modes == ()
    assert p > 1.0 - 1e-6
    assert norm(cleaned) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("case", BELL_CASES)
def test_a_bell_readout_of_some_values_keeps_their_records_bit_for_bit(case):
    s = BELL_CASES[case]()
    pair = [p for p in s.registry.photons if p != "w"][:2]
    full = {r.value: r for r in bell_outcomes(s, *pair)}
    for v in BELLS:
        got = bell_outcomes(s, *pair, (v,))
        if v not in full:
            assert got == []
            continue
        (rec,) = got
        want = full[v]
        assert (rec.kind, rec.value, rec.probability) == (want.kind, want.value, want.probability)
        assert rec.collapsed.registry == want.collapsed.registry
        for a, b in ((rec.collapsed.amps, want.collapsed.amps),
                     (rec.collapsed.codes, want.collapsed.codes),
                     (rec.collapsed.qubus, want.collapsed.qubus)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # values pick the records and their order
    picked = bell_outcomes(s, *pair, tuple(reversed(BELLS)))
    assert [r.value for r in picked] == [v for v in reversed(BELLS) if v in full]


def test_a_bell_readout_refuses_an_unknown_value():
    s = polarization_state([1, 0, 0, 0], [("a", "pa"), ("b", "pb")])
    with pytest.raises(MeasurementError, match="unknown Bell outcome 'phi'"):
        bell_outcomes(s, "a", "b", ("phi",))
