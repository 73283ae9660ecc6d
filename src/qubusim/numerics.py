"""Small numeric helpers shared by the other modules; imports none of them.

Fock overlaps are evaluated in the log domain with lgamma so photon numbers
up to a few thousand never overflow.

`array_memo` is the one memo for work keyed on array contents (the state
module's index memos, the gates' compiled stages and the Fock tables here).
It keys each array argument on its exact bytes, shape and dtype, so values
one bit or one zero sign apart miss, and every array it hands back is
read-only (`frozen`), since every caller shares it.
"""

from __future__ import annotations

import cmath
import functools
import inspect
import math
from typing import NamedTuple, Sequence

import numpy as np


def frozen(x):
    """x, with every array in it made read-only: x itself, or the arrays in
    a tuple (a NamedTuple too) or in its nested tuples."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
    elif isinstance(x, tuple):
        for item in x:
            frozen(item)
    return x


def array_memo(maxsize: int):
    """A functools.lru_cache of maxsize results for a kernel of positional
    arguments, those annotated np.ndarray keyed by content.

    Each array argument keys as its bytes, shape and dtype, every other
    argument as itself.  On a miss the kernel gets read-only arrays rebuilt
    from the key, and its result is `frozen`.  The key is built at fixed
    positions by one generated line: a loop over the arguments would cost
    half as much again as key and lookup on the index memos, which run on
    every state operation.  The memo has the lru_cache's cache_info and
    cache_clear, and `__wrapped__` (the kernel); it calls the lru_cache by
    the name `_lookup` in its `__globals__`.
    """

    def memo(kernel):
        params, slots, key, args = inspect.signature(kernel).parameters, [], [], []
        for i, (name, p) in enumerate(params.items()):
            if p.annotation in (np.ndarray, "np.ndarray"):
                slots.append(f"b{i}, s{i}, d{i}")
                key.append(f"{name}.tobytes(), {name}.shape, {name}.dtype")
                args.append(f"np.frombuffer(b{i}, d{i}).reshape(s{i})")
            else:
                slots.append(f"k{i}")
                key.append(name)
                args.append(f"k{i}")
        scope = {"np": np, "frozen": frozen, "kernel": kernel}
        exec(f"def miss({', '.join(slots)}):\n return frozen(kernel({', '.join(args)}))", scope)
        scope["_lookup"] = lookup = functools.lru_cache(maxsize)(scope["miss"])
        exec(f"def call({', '.join(params)}):\n return _lookup({', '.join(key)})", scope)
        call = functools.update_wrapper(scope["call"], kernel)
        call.cache_info, call.cache_clear = lookup.cache_info, lookup.cache_clear
        return call

    return memo


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
    return _fock_table(np.asarray(alphas, dtype=complex), cutoff)


@array_memo(2)
def _fock_table(alphas: np.ndarray, cutoff: int) -> FockTable:
    """fock_table's record; values that compare equal but differ in the
    sign of a zero keep their own tables."""
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
