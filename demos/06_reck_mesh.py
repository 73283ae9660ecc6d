"""Arbitrary unitaries on path-encoded qudits via triangular meshes.

Any U(N) factors into at most N(N-1)/2 two-mode elements (a phase shifter
feeding a variable beam splitter) plus N output phases; the mesh executes
natively through the optical-elements layer, so the same code path drives the
LOMI inside the two-qubit and multi-qubit gates.
"""

import numpy as np

from qubusim import HybridState, pol_qubit
from qubusim.state import Branch
from qubusim.synthesis import (
    HADAMARD4,
    mesh_apply,
    qft_matrix,
    random_haar_unitary,
    reck_decompose,
)

print("reconstruction error and element count per dimension:")
for n in (2, 4, 8, 16):
    u = random_haar_unitary(n, seed=n)
    mesh = reck_decompose(u)
    err = np.linalg.norm(mesh.matrix() - u)
    print(f"  N={n:>2}: {len(mesh.rotations):>3} rotations "
          f"(max {n * (n - 1) // 2}), ||reconstruction - U||_F = {err:.2e}")

print("\nQFT matrices: the N=2 case is the 50:50 splitter")
print(np.round(qft_matrix(2), 6))
print("\nthe real 4x4 interference that replaces the QFT in Merging-n")
print(np.round(HADAMARD4.real, 2))

n = 8
u = random_haar_unitary(n, 99)
rng = np.random.default_rng(100)
v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
v /= np.linalg.norm(v)

rails = [f"r{i}" for i in range(n)]
reg = pol_qubit("q", rails[0], 1, 0).registry
for r in rails[1:]:
    reg = reg.with_path("q", r)
state = HybridState(reg, [Branch(v[i], (("q", rails[i], "H"),), ()) for i in range(n)])

via_mesh = mesh_apply(state, "q", rails, reck_decompose(u))
got = np.array(
    [sum(br.amplitude for br in via_mesh.branches if br.slot("q")[0] == r) for r in rails]
)
print(f"\nmesh action vs dense U @ v on a random 8-rail qudit: "
      f"max deviation {np.max(np.abs(got - u @ v)):.2e}")
