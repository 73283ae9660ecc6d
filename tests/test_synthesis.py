"""Reck meshes, QFT matrices, Haar sampling, and mesh-vs-dense equivalence."""

import numpy as np
import pytest

from qubusim import HybridState, fidelity, pol_qubit
from qubusim import synthesis as syn
from qubusim.state import amplitude_of

from conftest import apply_path_unitary, haar_vec


def qudit_state(n, seed, pol="H"):
    v = haar_vec(n, seed)
    s = pol_qubit("q", "r0", 1, 0)
    reg = s.registry
    for i in range(1, n):
        reg = reg.with_path("q", f"r{i}")
    from qubusim.state import Branch

    branches = [
        Branch(v[i], (("q", f"r{i}", pol),), ()) for i in range(n) if v[i] != 0
    ]
    return HybridState(reg, branches), [f"r{i}" for i in range(n)], v


def test_identity_mesh_is_empty():
    mesh = syn.reck_decompose(np.eye(4))
    assert len(mesh.rotations) == 0
    assert np.allclose(mesh.matrix(), np.eye(4))


def test_hadamard4_interference_matrix():
    u = syn.HADAMARD4
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14
    mesh = syn.reck_decompose(u)
    assert np.max(np.abs(mesh.matrix() - u)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_reck_reconstruction_haar(n):
    u = syn.random_haar_unitary(n, seed=n)
    mesh = syn.reck_decompose(u)
    assert len(mesh.rotations) <= n * (n - 1) // 2
    assert np.linalg.norm(mesh.matrix() - u) < 1e-10


def test_reck_rejects_non_unitary():
    with pytest.raises(syn.SynthesisError, match="unitary"):
        syn.reck_decompose(np.ones((3, 3)))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_qft_unitary(n):
    q = syn.qft_matrix(n)
    assert np.max(np.abs(q.conj().T @ q - np.eye(n))) < 1e-12


def test_qft2_is_5050_splitter():
    assert np.allclose(syn.qft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_qft4_columns_orthonormal():
    q = syn.qft_matrix(4)
    assert np.max(np.abs(q.conj().T @ q - np.eye(4))) < 1e-14


def test_haar_deterministic_per_seed():
    a = syn.random_haar_unitary(6, 9)
    b = syn.random_haar_unitary(6, 9)
    c = syn.random_haar_unitary(6, 10)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_mesh_apply_matches_dense():
    for n, seed in ((4, 1), (8, 2)):
        u = syn.random_haar_unitary(n, seed)
        mesh = syn.reck_decompose(u)
        s, rails, v = qudit_state(n, seed + 20)
        via_mesh = syn.mesh_apply(s, "q", rails, mesh)
        via_dense = apply_path_unitary(s, "q", rails, u)
        assert fidelity(via_mesh, via_dense) == pytest.approx(1.0, abs=1e-12)
        got = np.array([amplitude_of(via_mesh, {"q": (r, "H")}) for r in rails])
        assert np.max(np.abs(got - u @ v)) < 1e-10


def test_mesh_apply_identity():
    s, rails, v = qudit_state(4, 3)
    out = syn.mesh_apply(s, "q", rails, syn.reck_decompose(np.eye(4)))
    assert fidelity(out, s) == pytest.approx(1.0)


def test_mesh_apply_inverse_round_trip():
    u = syn.random_haar_unitary(4, 11)
    s, rails, _ = qudit_state(4, 12)
    out = syn.mesh_apply(s, "q", rails, syn.reck_decompose(u))
    back = syn.mesh_apply(out, "q", rails, syn.reck_decompose(u.conj().T))
    assert fidelity(back, s) == pytest.approx(1.0, abs=1e-10)


def test_mesh_apply_rejects_mixed_polarization():
    s, rails, _ = qudit_state(4, 13)
    from qubusim.state import Branch

    mixed = HybridState(
        s.registry, list(s.branches[:-1]) + [Branch(s.branches[-1].amplitude, (("q", rails[3], "V"),), ())]
    )
    with pytest.raises(Exception, match="polarization"):
        syn.mesh_apply(mixed, "q", rails, syn.reck_decompose(np.eye(4)))


def test_mesh_serialization_round_trip():
    u = syn.random_haar_unitary(4, 17)
    mesh = syn.reck_decompose(u)
    d = mesh.to_dict()
    again = syn.Mesh(
        d["n_modes"], tuple(syn.MeshRotation(**r) for r in d["rotations"]), tuple(d["phases"])
    )
    assert np.allclose(again.matrix(), mesh.matrix())


def test_mesh_element_ops_execute_natively():
    u = syn.random_haar_unitary(4, 19)
    mesh = syn.reck_decompose(u)
    s, rails, v = qudit_state(4, 23)
    from qubusim.elements import apply_elements

    out = apply_elements(s, mesh.element_ops("q", rails))
    got = np.array([amplitude_of(out, {"q": (r, "H")}) for r in rails])
    assert np.max(np.abs(got - u @ v)) < 1e-10
