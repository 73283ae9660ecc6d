"""Small numeric helpers shared by detection and analysis.

Fock overlaps are evaluated in the log domain with lgamma so photon numbers
up to a few thousand never overflow.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np


def fock_amplitude(n: int, alpha: complex) -> complex:
    """⟨n|α⟩ = e^{−|α|²/2} αⁿ/√(n!), exact for α = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a2 = alpha.real**2 + alpha.imag**2
    if a2 == 0.0:
        return 1.0 + 0.0j if n == 0 else 0.0 + 0.0j
    log_mag = -0.5 * a2 + 0.5 * n * math.log(a2) - 0.5 * math.lgamma(n + 1)
    phase = n * cmath.phase(alpha)
    return cmath.exp(complex(log_mag, phase))


def fock_amplitude_table(alphas: Sequence[complex], cutoff: int) -> np.ndarray:
    """⟨n|α_b⟩ for every α_b and n = 0..cutoff, shape (len(alphas), cutoff + 1).

    The same log-domain formula as fock_amplitude, one array pass; a row
    with α = 0 is exactly δ_n0.
    """
    alphas = np.asarray(alphas, dtype=complex)
    a2 = alphas.real**2 + alphas.imag**2
    vacuum = a2 == 0.0
    ns = np.arange(cutoff + 1)
    half_log_fact = 0.5 * np.array([math.lgamma(n + 1) for n in ns])
    log_a2 = np.log(np.where(vacuum, 1.0, a2))
    table = np.empty((len(alphas), cutoff + 1), dtype=complex)
    table.real = (-0.5 * a2)[:, None] + (0.5 * ns) * log_a2[:, None] - half_log_fact
    table.imag = ns * np.angle(alphas)[:, None]
    np.exp(table, out=table)
    table[vacuum] = 0.0
    table[vacuum, 0] = 1.0
    return table


def poisson_pmf(mu: float, n: int) -> float:
    """Poisson probability mass, log-domain; pmf(0, 0) = 1."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def default_fock_cutoff(mean: float) -> int:
    """Mean + 12√mean keeps the Poisson tail below ~1e-12."""
    return int(math.ceil(mean + 12.0 * math.sqrt(max(mean, 1.0)) + 10))
