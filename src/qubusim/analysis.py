"""Quantitative studies: parity-gate error probability, QND peak separation,
photon-number distributions, and parameter sweeps.

Two routes to the error probability are kept deliberately independent: the
closed-form asymptotic estimate and the exact sum over the Fock outcomes of
the difference port weighted by the no-click probability of the probe.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .detection import MAX_FOCK_CUTOFF, _checked_cutoff, _short, poisson_overlap, probe_peak_mean
from .numerics import default_fock_cutoff, poisson_pmf
from .state import random_polarization_state
from .gates import DEFAULTS, parity_gate


class AnalysisError(ValueError):
    pass


def _poisson_cutoff(mean: float, name: str, cutoff: int | None = None) -> int:
    """The last n of a Poisson sum over mean `name`: cutoff, or by default
    default_fock_cutoff(mean).  A mean that is negative or not finite, a
    given cutoff that is not an int (or is a bool or negative), or a cutoff
    above detection.MAX_FOCK_CUTOFF, is an error before any term."""
    if not (math.isfinite(mean) and mean >= 0):
        raise AnalysisError(f"{name} must be a finite number >= 0, got {mean!r}")
    if cutoff is None:
        cutoff = default_fock_cutoff(mean)
    else:
        cutoff = _checked_cutoff(cutoff, AnalysisError)
    if cutoff > MAX_FOCK_CUTOFF:
        raise AnalysisError(f"the Poisson sum at {name} = {mean:.6g} needs cutoff "
                            f"{_short(cutoff)}, above the limit {MAX_FOCK_CUTOFF}")
    return cutoff


def beta_squared(alpha: float, theta: float) -> float:
    """|β|² = 2 α² sin²θ: mean photon number of the measured difference port."""
    return 2.0 * alpha**2 * math.sin(theta) ** 2


def alpha_for_beta2(beta2: float, theta: float) -> float:
    """The α that gives |β|² = beta2 at XPM angle θ; needs beta2 ≥ 0, sin θ ≠ 0
    and an α that a float holds."""
    if not (math.isfinite(beta2) and beta2 >= 0):
        raise AnalysisError(f"beta2 must be a finite number >= 0, got {beta2!r}")
    if not math.isfinite(theta) or math.sin(theta) ** 2 == 0:
        raise AnalysisError(f"theta must be finite with sin(theta) != 0, got {theta!r}")
    alpha = math.sqrt(beta2 / (2.0 * math.sin(theta) ** 2))
    if not math.isfinite(alpha):
        raise AnalysisError(f"beta2 = {beta2!r} at theta = {theta!r} needs an alpha "
                            "past the float range")
    return alpha


def error_probability_formula(
    alpha: float, theta: float, gamma: float, eta: float, theta_probe: float
) -> float:
    """Closed-form estimate exp{−2(1−e^{−ηγ²θ_p²/2}) α² sin²θ} for θ ≪ 1."""
    if alpha < 0 or gamma < 0 or not 0.0 <= eta <= 1.0:
        raise AnalysisError("parameters must be positive with eta in [0, 1]")
    damp = 1.0 - math.exp(-0.5 * eta * gamma**2 * theta_probe**2)
    return math.exp(-2.0 * damp * alpha**2 * math.sin(theta) ** 2)


def error_probability_direct(
    alpha: float,
    theta: float,
    gamma: float,
    eta: float,
    theta_probe: float,
    cutoff: int | None = None,
) -> float:
    """Exact ‖Σ_n ⟨n|±β⟩ Π₀^{1/2} |(γe^{inθ_p}−γ)/√2⟩‖².

    The cross terms vanish on the orthogonal |n⟩, leaving
    Σ_n Poisson(|β|²; n) · e^{−η μ_n} with μ_n = 2γ² sin²(nθ_p/2).
    """
    if alpha < 0 or gamma < 0 or not 0.0 <= eta <= 1.0:
        raise AnalysisError("parameters must be positive with eta in [0, 1]")
    b2 = beta_squared(alpha, theta)
    cutoff = _poisson_cutoff(b2, "beta2", cutoff)
    mass = math.fsum(poisson_pmf(b2, n) for n in range(cutoff + 1))
    if 1.0 - mass > 1e-14:
        raise AnalysisError(
            f"cutoff {cutoff} leaves Poisson tail {1.0 - mass:.3e} > 1e-14"
        )
    return math.fsum(
        poisson_pmf(b2, n) * math.exp(-eta * probe_peak_mean(gamma, theta_probe, n))
        for n in range(cutoff + 1)
    )


def peak_overlap(gamma: float, theta_probe: float, k1: int, k2: int) -> float:
    """Σ_n min(Poisson(μ_{k1}), Poisson(μ_{k2})) for two probe readout peaks."""
    if k1 == k2:
        raise AnalysisError("peak overlap of a peak with itself")
    mu1 = probe_peak_mean(gamma, theta_probe, k1)
    mu2 = probe_peak_mean(gamma, theta_probe, k2)
    _poisson_cutoff(mu1, f"probe peak mean mu_{k1}")
    _poisson_cutoff(mu2, f"probe peak mean mu_{k2}")
    return poisson_overlap(mu1, mu2)


@dataclass
class Fig2Data:
    """Photon-number data for the two detector-model panels.

    signal: Poisson pmf of the measured beam at |β|²; the dominant range is
    every n whose pmf clears 1e-4 × the peak value; dominance has no
    canonical definition, so the count is reported, never asserted.  peaks: the probe
    difference-port pmfs for k = 1..4.
    """

    beta2: float
    gamma: float
    theta_probe: float
    signal_n: np.ndarray
    signal_pmf: np.ndarray
    dominant_lo: int
    dominant_hi: int
    dominant_count: int
    peak_means: list[float]
    peak_pmfs: list[tuple[np.ndarray, np.ndarray]] = field(repr=False)


def fig2_data(gamma: float, theta_probe: float, beta2: float) -> Fig2Data:
    cutoff = _poisson_cutoff(beta2, "beta2")
    means = [probe_peak_mean(gamma, theta_probe, k) for k in range(1, 5)]
    cutoffs = [_poisson_cutoff(mu, f"probe peak mean mu_{k}") for k, mu in enumerate(means, 1)]
    ns = np.arange(cutoff + 1)
    pmf = np.array([poisson_pmf(beta2, int(n)) for n in ns])
    thr = 1e-4 * pmf.max()
    dominant = np.nonzero(pmf >= thr)[0]
    peaks = []
    for mu, c in zip(means, cutoffs):
        kn = np.arange(c + 1)
        peaks.append((kn, np.array([poisson_pmf(mu, int(n)) for n in kn])))
    return Fig2Data(
        beta2=beta2,
        gamma=gamma,
        theta_probe=theta_probe,
        signal_n=ns,
        signal_pmf=pmf,
        dominant_lo=int(dominant[0]),
        dominant_hi=int(dominant[-1]),
        dominant_count=int(dominant.size),
        peak_means=means,
        peak_pmfs=peaks,
    )


def pmf_to_csv(ns: Sequence[int], probs: Sequence[float]) -> str:
    """Two-column (n, probability) CSV with a header row."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "probability"])
    for n, p in zip(ns, probs):
        w.writerow([int(n), repr(float(p))])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_DEFAULTS = {**DEFAULTS, "k1": 1, "k2": 2, "beta2": None, "state_seed": 0}


#: the sweep keys that count: the probe peaks' photon numbers and the input's seed
_COUNTS = ("k1", "k2", "state_seed")


def _finite(x) -> bool:
    """x is a real number, not a bool, that a float holds finitely (an int
    past the float range is not)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class SweepSpec:
    """A quantity evaluated over the Cartesian grid (row order = grid order)."""

    quantity: str
    grid: dict
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise AnalysisError(f"unknown sweep quantity {self.quantity!r}")
        if not self.grid:
            raise AnalysisError("sweep grid must be non-empty")
        reads = _SWEEPS[self.quantity].reads
        for key in (*self.grid, *self.fixed):
            if key not in _DEFAULTS:
                raise AnalysisError(f"unknown sweep parameter {key!r}")
            if key not in reads:
                raise AnalysisError(f"sweep quantity {self.quantity!r} does not read {key!r} "
                                    f"(it takes {', '.join(reads)})")
        for key in self.grid:
            if key in self.fixed:
                raise AnalysisError(f"sweep parameter {key!r} is set in both grid and fixed; "
                                    "the grid's values would replace the fixed one")
        for key, values in self.grid.items():
            if not (isinstance(values, list) and values and all(map(_finite, values))):
                raise AnalysisError(
                    f"sweep grid {key!r} must be a non-empty list of finite numbers, got {values!r}"
                )
        for key, value in self.fixed.items():
            if not _finite(value):
                raise AnalysisError(f"sweep fixed {key!r} must be a finite number, got {value!r}")
        for key, value in [*((k, v) for k, vs in self.grid.items() for v in vs), *self.fixed.items()]:
            if key in _COUNTS and not (value >= 0 and value % 1 == 0):
                raise AnalysisError(f"sweep {key!r} must be a non-negative integer, got {value!r}")
        if {"alpha", "beta2"} <= {*self.grid, *self.fixed}:
            raise AnalysisError("set alpha or beta2, not both: beta2 sets alpha")


def _resolve(params: dict) -> dict:
    p = dict(_DEFAULTS)
    p.update(params)
    if p["beta2"] is not None:
        p["alpha"] = alpha_for_beta2(p["beta2"], p["theta"])
    return p


def _gate_fidelity(p: dict) -> float:
    """Probability-weighted parity-gate outcome fidelity on a fixed Haar input."""
    s = random_polarization_state(2, int(p["state_seed"]))
    _, report = parity_gate(s, "1", "2", p["alpha"], p["theta"])
    probs, fids = report.outcomes.probabilities, report.outcomes.fidelities
    return math.fsum(a * b for a, b in zip(probs, fids)) / math.fsum(probs)


def _error_args(p: dict) -> tuple:
    return p["alpha"], p["theta"], p["gamma"], p["eta"], p["theta_probe"]


def _pmf(p: dict) -> list[dict]:
    """The difference port's Poisson pmf, one entry per n up to the default cutoff."""
    b2 = p["beta2"]
    if b2 is None:
        b2 = beta_squared(p["alpha"], p["theta"])
    cutoff = _poisson_cutoff(b2, "beta2")
    return [{"n": n, "probability": poisson_pmf(b2, n)} for n in range(cutoff + 1)]


class _Quantity(NamedTuple):
    """A sweep quantity: the row entries of one resolved grid point, which
    holds only the parameters in reads, the ones a spec may set."""

    point: Callable[[dict], list[dict]]
    reads: tuple[str, ...]


_COUPLING = ("alpha", "theta", "beta2")
_SWEEPS = {
    "P_E_formula": _Quantity(
        lambda p: [{"value": error_probability_formula(*_error_args(p))}],
        (*_COUPLING, "gamma", "eta", "theta_probe"),
    ),
    "P_E_direct": _Quantity(
        lambda p: [{"value": error_probability_direct(*_error_args(p))}],
        (*_COUPLING, "gamma", "eta", "theta_probe"),
    ),
    "peak_overlap": _Quantity(
        lambda p: [
            {"value": peak_overlap(p["gamma"], p["theta_probe"], int(p["k1"]), int(p["k2"]))}
        ],
        ("gamma", "theta_probe", "k1", "k2"),
    ),
    "gate_fidelity": _Quantity(
        lambda p: [{"value": _gate_fidelity(p)}], (*_COUPLING, "state_seed")
    ),
    "pmf": _Quantity(_pmf, _COUPLING),
}
QUANTITIES = tuple(_SWEEPS)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the grid; one row per point (plus one row per n for pmf)."""
    keys = list(spec.grid.keys())
    quantity = _SWEEPS[spec.quantity]
    rows = []
    for values in itertools.product(*(spec.grid[k] for k in keys)):
        point = dict(zip(keys, values))
        params = _resolve({**spec.fixed, **point})
        try:
            entries = quantity.point({key: params[key] for key in quantity.reads})
        except Exception as exc:
            raise AnalysisError(f"sweep point {point} failed: {exc}") from exc
        rows += [{**point, **entry} for entry in entries]
    return rows
