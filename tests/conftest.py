import numpy as np
import pytest

from qubusim import HybridState, polarization_state
from qubusim.analysis import alpha_for_beta2

THETA = 0.05


def haar_vec(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def two_photon(seed, ids=("1", "2"), paths=("t1", "t2")):
    return polarization_state(haar_vec(4, seed), list(zip(ids, paths)))


def alpha_for(beta2, theta=THETA):
    return alpha_for_beta2(beta2, theta)


@pytest.fixture
def alpha20():
    return alpha_for(20.0)


@pytest.fixture
def alpha40():
    return alpha_for(40.0)


@pytest.fixture(autouse=True)
def checked_derivations(monkeypatch):
    """Check every state a kernel derives, as the public constructor does.

    Kernels build states whose branches are valid by construction with
    HybridState._derived, which checks nothing; inside the suite the
    constructor's full check (labels and qubus lengths) runs anyway, so a
    kernel that writes a bad branch fails the test reaching it.
    """
    derived = HybridState.__dict__["_derived"].__func__

    def checked(cls, registry, branches):
        st = derived(cls, registry, branches)
        HybridState(st.registry, st.branches)
        return st

    monkeypatch.setattr(HybridState, "_derived", classmethod(checked))
