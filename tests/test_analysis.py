"""Error-probability formulas, detector-peak studies, sweeps."""

import math
import re

import pytest

from qubusim import analysis as an
from qubusim import detection
from qubusim.analysis import (
    AnalysisError,
    SweepSpec,
    alpha_for_beta2,
    beta_squared,
    error_probability_direct,
    error_probability_formula,
    fig2_data,
    peak_overlap,
    pmf_to_csv,
    run_sweep,
)
from qubusim.detection import MAX_FOCK_CUTOFF
from qubusim.numerics import poisson_pmf


def test_formula_plug_in_value():
    # alpha^2 = 4000, theta = theta_p = 0.05, gamma = 100, eta = 0.9
    p = error_probability_formula(math.sqrt(4000), 0.05, 100.0, 0.9, 0.05)
    assert p == pytest.approx(2.1e-9, rel=0.2)


def test_formula_limits():
    assert error_probability_formula(math.sqrt(4000), 0.0, 100.0, 0.9, 0.05) == pytest.approx(1.0)
    assert error_probability_formula(math.sqrt(4000), 0.05, 100.0, 0.0, 0.05) == pytest.approx(1.0)


def test_direct_fig2_parameters_small():
    p = error_probability_direct(math.sqrt(4000), 0.05, 100.0, 0.95, 0.05)
    assert p <= 1e-8


def test_direct_gamma_zero_is_one():
    assert error_probability_direct(math.sqrt(4000), 0.05, 0.0, 0.9, 0.05) == pytest.approx(1.0)


def test_direct_theta_zero_is_one():
    assert error_probability_direct(math.sqrt(4000), 0.0, 100.0, 0.9, 0.05) == pytest.approx(1.0)


def test_direct_monotone_in_alpha_gamma_eta():
    base = dict(alpha=math.sqrt(2000), theta=0.05, gamma=60.0, eta=0.6, theta_probe=0.05)

    def at(**kw):
        p = dict(base)
        p.update(kw)
        return error_probability_direct(**p)

    for key, values in (
        ("alpha", [math.sqrt(1000), math.sqrt(2000), math.sqrt(4000)]),
        ("gamma", [40.0, 60.0, 90.0]),
        ("eta", [0.3, 0.6, 0.9]),
    ):
        seq = [at(**{key: v}) for v in values]
        assert seq == sorted(seq, reverse=True)


def test_direct_in_unit_interval():
    for theta in (0.0, 0.02, 0.1):
        p = error_probability_direct(30.0, theta, 50.0, 0.5, 0.05)
        assert 0.0 <= p <= 1.0


def test_direct_cutoff_error():
    with pytest.raises(AnalysisError, match="tail"):
        error_probability_direct(math.sqrt(4000), 0.05, 100.0, 0.9, 0.05, cutoff=5)


@pytest.fixture
def no_poisson_terms(monkeypatch):
    """A Poisson term taken anywhere in analysis or detection fails the test."""

    def refuse(mu, n):
        raise AssertionError(f"Poisson term taken at mean {mu}")

    monkeypatch.setattr(an, "poisson_pmf", refuse)
    monkeypatch.setattr(detection, "poisson_pmf", refuse)


@pytest.mark.parametrize("beta2, match", [
    (1e9, f"beta2 = 1e\\+09 needs cutoff 1\\.000379e\\+09, above the limit {MAX_FOCK_CUTOFF}"),
    (math.nan, "beta2 must be a finite number >= 0, got nan"),
    (-1.0, "beta2 must be a finite number >= 0, got -1.0"),
    (math.inf, "beta2 must be a finite number >= 0, got inf"),
])
def test_fig2_data_refuses_beta2_before_any_term(beta2, match, no_poisson_terms):
    with pytest.raises(AnalysisError, match=match):
        fig2_data(100.0, 0.05, beta2)


def test_fig2_data_refuses_a_too_bright_probe_peak(no_poisson_terms):
    # gamma = 1e6: mu_1 = 2e12 sin^2(0.025), about 1.25e9
    with pytest.raises(AnalysisError, match=f"mu_1 = 1.24974e\\+09 .* limit {MAX_FOCK_CUTOFF}"):
        fig2_data(1e6, 0.05, 20.0)


def test_direct_refuses_a_bright_beam_a_nan_mean_or_a_large_cutoff(no_poisson_terms):
    bright = alpha_for_beta2(1e9, 0.05)
    for alpha, cutoff, match in (
        (bright, None, "beta2 = 1e\\+09 needs cutoff"),
        (math.nan, None, "beta2 must be a finite number >= 0, got nan"),
        (30.0, MAX_FOCK_CUTOFF + 1, f"cutoff {MAX_FOCK_CUTOFF + 1}, above the limit"),
    ):
        with pytest.raises(AnalysisError, match=match):
            error_probability_direct(alpha, 0.05, 100.0, 0.9, 0.05, cutoff=cutoff)


#: explicit cutoffs refused at the boundary, each with what its refusal says
BAD_CUTOFFS = [
    (10**400, "needs cutoff 1e\\+400, above the limit"),
    (2.5, "cutoff must be an int from 0 to 1000000, got 2.5$"),
    ("7", "cutoff must be an int from 0 to 1000000, got '7'$"),
    (-1, "cutoff -1 is negative$"),
    (True, "cutoff must be an int from 0 to 1000000, got True$"),
]


@pytest.mark.parametrize("cutoff, match", BAD_CUTOFFS,
                         ids=["huge", "float", "str", "negative", "bool"])
def test_direct_refuses_a_bad_explicit_cutoff_by_name(cutoff, match, no_poisson_terms):
    with pytest.raises(AnalysisError, match=match):
        error_probability_direct(30.0, 0.05, 100.0, 0.9, 0.05, cutoff=cutoff)


def test_sweep_pmf_refuses_a_too_bright_beam(no_poisson_terms):
    for grid in ({"beta2": [1e9]}, {"alpha": [1e6]}):
        with pytest.raises(AnalysisError, match="beta2 = .* above the limit"):
            run_sweep(SweepSpec("pmf", grid))


def test_peak_overlap_refuses_a_bad_or_too_bright_peak(no_poisson_terms):
    for gamma, match in ((1e6, "mu_1 = .* above the limit"), (math.nan, "mu_1 must be")):
        with pytest.raises(AnalysisError, match=match):
            peak_overlap(gamma, 0.05, 1, 2)


def test_formula_direct_log_ratio_in_asymptotic_regime():
    for theta in (0.02, 0.05, 0.1):
        alpha = alpha_for_beta2(20.0, theta)
        f = error_probability_formula(alpha, theta, 100.0, 0.9, theta)
        d = error_probability_direct(alpha, theta, 100.0, 0.9, theta)
        ratio = math.log(d) / math.log(f)
        assert 0.5 <= ratio <= 2.0


def test_peak_overlap_separated():
    assert peak_overlap(100.0, 0.05, 1, 2) < 1e-3
    for k1, k2 in ((1, 2), (2, 3), (3, 4), (1, 4)):
        assert peak_overlap(100.0, 0.05, k1, k2) < 1e-3


def test_peak_overlap_same_peak_rejected():
    with pytest.raises(AnalysisError):
        peak_overlap(100.0, 0.05, 2, 2)


def test_fig2_data_mass_and_pmfs():
    data = fig2_data(100.0, 0.05, 20.0)
    assert data.signal_pmf.sum() == pytest.approx(1.0, abs=1e-10)
    for _, pmf in data.peak_pmfs:
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
    mass = sum(poisson_pmf(20.0, n) for n in range(8, 36))
    assert mass >= 0.99
    assert data.peak_means == pytest.approx([12.50, 49.96, 112.3, 199.3], rel=5e-4)
    assert data.dominant_count > 0  # reported, never asserted against 27 vs 28


def test_pmf_csv_two_columns():
    text = pmf_to_csv([0, 1, 2], [0.5, 0.3, 0.2])
    lines = text.strip().splitlines()
    assert lines[0] == "n,probability"
    assert len(lines) == 4


def test_sweep_single_point_equals_direct_call():
    rows = run_sweep(
        SweepSpec("P_E_formula", {"theta": [0.05]}, fixed={"eta": 0.9})
    )
    assert len(rows) == 1
    assert rows[0]["value"] == pytest.approx(
        error_probability_formula(math.sqrt(4000), 0.05, 100.0, 0.9, 0.05)
    )


def test_sweep_formula_vs_direct_within_tenfold():
    grid = {"theta": [0.02, 0.05, 0.1]}
    formula = run_sweep(SweepSpec("P_E_formula", grid, fixed={"beta2": 20.0, "eta": 0.9}))
    direct = run_sweep(SweepSpec("P_E_direct", grid, fixed={"beta2": 20.0, "eta": 0.9}))
    for f, d in zip(formula, direct):
        assert d["value"] <= 10 * f["value"] and f["value"] <= 10 * d["value"]


def test_sweep_grid_order_is_row_order():
    rows = run_sweep(
        SweepSpec("P_E_formula", {"eta": [0.9, 0.5], "theta": [0.05, 0.1]})
    )
    assert [(r["eta"], r["theta"]) for r in rows] == [
        (0.9, 0.05), (0.9, 0.1), (0.5, 0.05), (0.5, 0.1)
    ]


def test_sweep_rejects_bad_spec():
    with pytest.raises(AnalysisError):
        SweepSpec("nope", {"theta": [0.05]})
    with pytest.raises(AnalysisError):
        SweepSpec("P_E_formula", {})
    with pytest.raises(AnalysisError):
        SweepSpec("P_E_formula", {"bogus": [1.0]})
    # beta2 sets alpha, so an alpha beside it would be ignored
    with pytest.raises(AnalysisError, match="set alpha or beta2, not both"):
        SweepSpec("P_E_formula", {"alpha": [10.0, 20.0]}, {"beta2": 20.0})
    # grid values are non-empty lists of finite numbers, fixed values finite numbers
    for grid, fixed, err in (
        ({"theta": 5}, {}, "sweep grid 'theta' must be a non-empty list of finite numbers, got 5"),
        ({"theta": []}, {}, r"sweep grid 'theta' must be .*, got \[\]"),
        ({"theta": [0.05, "x"]}, {}, r"sweep grid 'theta' must be .*, got \[0.05, 'x'\]"),
        ({"theta": [0.05, math.nan]}, {}, "sweep grid 'theta' must be"),
        ({"eta": [True]}, {}, "sweep grid 'eta' must be"),
        ({"theta": [0.05]}, {"beta2": "x"}, "sweep fixed 'beta2' must be a finite number, got 'x'"),
        ({"theta": [0.05]}, {"gamma": math.inf}, "sweep fixed 'gamma' must be a finite number"),
        ({"theta": [0.05]}, {"eta": False}, "sweep fixed 'eta' must be a finite number, got False"),
        ({"theta": [0.05]}, {"beta2": None}, "sweep fixed 'beta2' must be a finite number"),
    ):
        with pytest.raises(AnalysisError, match=err):
            SweepSpec("P_E_formula", grid, fixed)


@pytest.mark.parametrize("quantity", an.QUANTITIES)
def test_sweep_refuses_a_key_in_both_grid_and_fixed(quantity):
    # the grid's values replace the fixed one, so nothing would read it
    key = an._SWEEPS[quantity].reads[-1]
    both = f"sweep parameter '{key}' is set in both grid and fixed"
    with pytest.raises(AnalysisError, match=both):
        SweepSpec(quantity, {key: [1]}, {key: 2})


def test_sweep_error_carries_grid_coordinates():
    spec = SweepSpec("peak_overlap", {"k2": [2, 1]}, fixed={"k1": 1})
    with pytest.raises(AnalysisError, match=r"\{'k2': 1\}"):
        run_sweep(spec)


def test_sweep_pmf_rows():
    rows = run_sweep(SweepSpec("pmf", {"beta2": [4.0]}))
    total = sum(r["probability"] for r in rows)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert all(r["beta2"] == 4.0 for r in rows)


def test_beta_squared_round_trip():
    assert beta_squared(alpha_for_beta2(20.0, 0.05), 0.05) == pytest.approx(20.0)


def test_a_beta2_whose_alpha_overflows_is_refused_by_name():
    assert math.isfinite(alpha_for_beta2(1e300, 0.05))
    for beta2, theta in ((1e308, 0.05), (1e300, 1e-160)):
        named = re.escape(f"beta2 = {beta2!r} at theta = {theta!r}")
        with pytest.raises(AnalysisError, match=named + ".* alpha past the float range"):
            alpha_for_beta2(beta2, theta)
    spec = SweepSpec("gate_fidelity", {"beta2": [1e308]})
    with pytest.raises(AnalysisError, match="beta2 = 1e\\+308 at theta = 0.05"):
        run_sweep(spec)


#: the parameters each sweep quantity reads, written out here so that a key
#: added to or dropped from analysis's table fails a test
SWEEP_READS = {
    "P_E_formula": ("alpha", "theta", "beta2", "gamma", "eta", "theta_probe"),
    "P_E_direct": ("alpha", "theta", "beta2", "gamma", "eta", "theta_probe"),
    "peak_overlap": ("gamma", "theta_probe", "k1", "k2"),
    "gate_fidelity": ("alpha", "theta", "beta2", "state_seed"),
    "pmf": ("alpha", "theta", "beta2"),
}


def test_a_sweep_takes_exactly_the_keys_its_quantity_reads():
    assert set(SWEEP_READS) == set(an.QUANTITIES)
    accepted = 0
    for quantity, reads in SWEEP_READS.items():
        for key, default in an._DEFAULTS.items():
            value = 1.0 if default is None else default
            refused = (f"sweep quantity {quantity!r} does not read {key!r} "
                       f"(it takes {', '.join(reads)})")
            # as a grid key, and as a fixed key beside a grid key it may go with
            other = next(k for k in reads if k != key and {k, key} != {"alpha", "beta2"})
            for grid, fixed in (({key: [value]}, {}), ({other: [1.0]}, {key: value})):
                if key in reads:
                    SweepSpec(quantity, grid, fixed)
                else:
                    with pytest.raises(AnalysisError) as err:
                        SweepSpec(quantity, grid, fixed)
                    assert str(err.value) == refused
            accepted += key in reads
    assert (accepted, len(SWEEP_READS) * len(an._DEFAULTS)) == (23, 45)
    # a key no quantity reads keeps its own message
    with pytest.raises(AnalysisError, match="^unknown sweep parameter 'bogus'$"):
        SweepSpec("peak_overlap", {"bogus": [1.0]})


@pytest.mark.parametrize("quantity, key", [(q, k) for q in SWEEP_READS for k in an._COUNTS])
def test_a_sweep_counts_its_peaks_and_seeds_in_non_negative_integers(quantity, key):
    reads = SWEEP_READS[quantity]
    other = next(k for k in reads if k != key)
    # a peak's overlap with itself is refused, so the other peak sits at 5
    fixed = {k: 5 for k in ("k1", "k2") if k in reads and k != key}
    for value in (1.5, -1, -2.0, 0.5):
        for grid, fix in (({key: [2, value]}, fixed), ({other: [1.0]}, {**fixed, key: value})):
            with pytest.raises(AnalysisError) as err:
                SweepSpec(quantity, grid, fix)
            if key in reads:
                assert str(err.value) == f"sweep {key!r} must be a non-negative integer, got {value!r}"
            else:
                assert str(err.value).startswith(f"sweep quantity {quantity!r} does not read {key!r}")
    if key in reads:
        # an integral float is that integer: 3.0 reads what 3 reads
        (a,), (b,) = (run_sweep(SweepSpec(quantity, {key: [v]}, fixed)) for v in (3, 3.0))
        assert a["value"] == b["value"] and a[key] == b[key] == 3


#: values of each key that a sweep compares, and, per quantity, the point they
#: are taken at: θ and the state seed at fixed α, the gate fidelity at
#: |β|² = 4, where the disposal leak pulls it below 1
SWEEP_VALUES = {"alpha": [28.0, 30.0], "theta": [0.05, 0.06], "beta2": [3.0, 4.0],
                "gamma": [1.0, 2.0], "eta": [0.5, 0.9], "theta_probe": [0.05, 0.1],
                "k1": [1, 3], "k2": [2, 4], "state_seed": list(range(8))}
SWEEP_POINT = {"gate_fidelity": {"alpha": alpha_for_beta2(4.0, 0.05)}}


@pytest.mark.parametrize("quantity, key", [(q, k) for q, quantity in an._SWEEPS.items()
                                           for k in quantity.reads])
def test_every_key_a_sweep_takes_moves_its_rows(quantity, key):
    fixed = {} if key in ("alpha", "beta2") else SWEEP_POINT.get(quantity, {})
    rows = run_sweep(SweepSpec(quantity, {key: SWEEP_VALUES[key]}, fixed))
    by_value = {}
    for row in rows:
        by_value.setdefault(row[key], []).append(
            tuple(v for k, v in sorted(row.items()) if k != key))
    assert len(by_value) == len(SWEEP_VALUES[key])
    # the parity gate's mean fidelity hardly depends on its input, so the
    # seeds move it only by rounding: some two of them differ
    assert len({tuple(v) for v in by_value.values()}) > 1
