"""Small numeric helpers shared by detection and analysis.

Fock overlaps are evaluated in the log domain with lgamma so photon numbers
up to a few thousand never overflow.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple, Sequence

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


class FockTable(NamedTuple):
    """⟨n|α_k⟩ for every beam value α_k and n = 0..cutoff, with the sums over n
    that a beam's pmf needs; every array is read-only.

    weights[n] = Σ_k |⟨n|α_k⟩|² bounds what column n can give a state's
    P(n), and moments[j, k] = Σ_n conj(⟨n|α_j⟩) ⟨n|α_k⟩ gives the pmf's
    total mass in one K×K sum.  windows is the callers' cache of column
    subsets of table, by their own key.
    """

    table: np.ndarray
    weights: np.ndarray
    moments: np.ndarray
    windows: dict


def fock_table(alphas: Sequence[complex], cutoff: int) -> FockTable:
    """The FockTable of the α_k up to cutoff; table[k, n] = ⟨n|α_k⟩.

    The same log-domain formula as fock_amplitude, one array pass; a row
    with α = 0 is exactly δ_n0.  The records of the last two (α_k, cutoff)
    asked for are kept, each for its own α_k bit for bit and in their
    order: the blocks of a run at one |β|² measure the same beam values, but
    in two orders, [0, −β, β] and [0, β, −β], that alternate from block to
    block in the multi-qubit gates.
    """
    alphas = np.asarray(alphas, dtype=complex)
    return _fock_table(alphas.tobytes(), cutoff)


@functools.lru_cache(maxsize=2)
def _fock_table(alphas_bytes: bytes, cutoff: int) -> FockTable:
    """fock_table keyed by the α_k's bytes, so that values which compare
    equal but differ in the sign of a zero keep their own tables."""
    alphas = np.frombuffer(alphas_bytes, dtype=complex)
    a2 = alphas.real**2 + alphas.imag**2
    vacuum = a2 == 0.0
    ns = np.arange(cutoff + 1)
    half_log_fact = _half_log_factorials(cutoff)
    log_a2 = np.log(np.where(vacuum, 1.0, a2))
    table = np.empty((len(alphas), cutoff + 1), dtype=complex)
    table.real = (-0.5 * a2)[:, None] + (0.5 * ns) * log_a2[:, None] - half_log_fact
    table.imag = ns * np.angle(alphas)[:, None]
    np.exp(table, out=table)
    table[vacuum] = 0.0
    table[vacuum, 0] = 1.0
    weights = (table.real**2 + table.imag**2).sum(axis=0)
    moments = table.conj() @ table.T
    for x in (table, weights, moments):
        x.flags.writeable = False
    return FockTable(table, weights, moments, {})


#: log(n!)/2 for n = 0..len − 1, read-only; grown to the largest cutoff asked for
_half_log_fact = np.zeros(0)


def _half_log_factorials(cutoff: int) -> np.ndarray:
    """log(n!)/2 for n = 0..cutoff, read-only: a slice of one table, so a
    sweep over |β|² computes each entry once, whatever the order of its
    cutoffs.  A grown table replaces the old one whole."""
    global _half_log_fact
    table = _half_log_fact
    if len(table) <= cutoff:
        new = range(len(table) + 1, cutoff + 2)
        table = np.concatenate((table, 0.5 * np.fromiter(map(math.lgamma, new), float, len(new))))
        table.flags.writeable = False
        _half_log_fact = table
    return table[: cutoff + 1]


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
