import math
from typing import Sequence

import numpy as np
import pytest

from qubusim import HybridState, StateError, detection, elements, gates, polarization_state
from qubusim import state as state_mod
from qubusim.analysis import alpha_for_beta2
from qubusim.state import POLS, _canonical_order
from qubusim.synthesis import SynthesisError, check_unitary

THETA = 0.05


def haar_vec(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def two_photon(seed, ids=("1", "2"), paths=("t1", "t2")):
    return polarization_state(haar_vec(4, seed), list(zip(ids, paths)))


def alpha_for(beta2, theta=THETA):
    return alpha_for_beta2(beta2, theta)


def apply_path_unitary(
    s: HybridState, photon: str, paths: Sequence[str], u: np.ndarray
) -> HybridState:
    """Dense action of U on path amplitudes: |j⟩ → Σ_k U[k, j] |k⟩.

    Polarization-independent, like a physical multiport; used as the oracle
    mate of mesh_apply.
    """
    u = check_unitary(u)
    if u.shape[0] != len(paths):
        raise SynthesisError("unitary size does not match path count")
    table = {
        (p, pol): [(u[k, j], q, pol) for k, q in enumerate(paths)]
        for j, p in enumerate(paths)
        for pol in POLS
    }
    return remap_slot(s, photon, table)


def remap_slot(s: HybridState, pid: str, table: dict) -> HybridState:
    """Expand each row through table[(path, pol)] -> [(coef, path, pol), ...]
    by elements._remap, the table given whole (as hashable items)."""
    return elements._remap(s, pid, _given, tuple((slot, tuple(row)) for slot, row in table.items()))


def _given(reg, pid: str, items: tuple) -> dict:
    """The slot table of remap_slot, from its items."""
    return dict(items)


def score_outcomes(kind: str, corrected: list) -> "gates.Scored":
    """The reference scoring loop: a stage whose corrected states are all
    built, (value, probability, state) each, scored against its most
    probable outcome (gates._score), every fidelity and norm read from one
    Gram matrix of the states, and the representative's state from the list."""

    def fidelities(rep: int) -> np.ndarray:
        g = state_mod._gram([st for _, _, st in corrected])
        norms = np.sqrt(np.maximum(g.diagonal().real, 0.0))
        if (abs(norms - 1.0) > 1e-8).any():
            raise gates.GateError("an outcome's corrected state is not normalized")
        return np.minimum(np.abs(g[:, rep]) ** 2, 1.0)

    values = [v for v, _, _ in corrected]
    return gates._score(kind, values, [p for _, p, _ in corrected], fidelities,
                        lambda rep: corrected[rep][2])


def block_outcomes(s, couplings, alpha, theta, plan) -> list:
    """The reference qubus block: each Fock outcome collapsed, corrected and
    disposed of alone, (value, probability, state) each."""
    coupled, (b0, b1) = gates.couple_qubus_pair(s, couplings, alpha, theta)
    corrected = []
    for rec in detection.fock_outcomes(coupled, b0):
        st = plan.correct(rec.collapsed, rec.value)
        st, _ = detection.project_qubus_coherent(st, b1)
        corrected.append((rec.value, rec.probability, st))
    return corrected


@pytest.fixture
def alpha20():
    return alpha_for(20.0)


@pytest.fixture
def alpha40():
    return alpha_for(40.0)


@pytest.fixture(autouse=True)
def checked_derivations(monkeypatch):
    """Check every state a kernel derives, as the public constructor does.

    Kernels build states from arrays with HybridState._derived, which checks
    nothing; inside the suite every such state is checked in full, in the
    integer form the store keeps: one qubus value per registered mode, every
    label code inside the registry's label space (so every row decodes to
    registered slots), and the rows in canonical order.
    """
    derived = HybridState.__dict__["_derived"].__func__

    def checked(cls, registry, amps, codes, qubus):
        st = derived(cls, registry, amps, codes, qubus)
        rows = len(st.amps)
        if st.qubus.shape != (rows, len(registry.qubus_modes)):
            raise StateError("branch qubus length != number of registered modes")
        if st.codes.shape != (rows,) or rows and not (
            st.codes.min() >= 0 and st.codes.max() < math.prod(registry._radix)
        ):
            raise StateError("label code out of range")
        if not np.array_equal(_canonical_order(st.codes, st.qubus), np.arange(rows)):
            raise StateError("rows are not in canonical order")
        return st

    monkeypatch.setattr(HybridState, "_derived", classmethod(checked))
