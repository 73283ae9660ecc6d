"""A general two-qubit unitary through the single-photon-qudit detour.

Transform to a 4-rail qudit, apply the Reck mesh of U(4) on the rails, then
Entangler-2 and a Merging gate fold everything back to two polarization
qubits.  One C-path, one Disentangler, one Merging: far fewer detections than
the three-CNOT decomposition would need.
"""

import numpy as np

from qubusim import polarization_state, polarization_vector
from qubusim.analysis import alpha_for_beta2
from qubusim.pipelines import multi_qubit_gate
from qubusim.synthesis import random_haar_unitary, reck_decompose

theta = 0.05
alpha = alpha_for_beta2(40.0, theta)

cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
print("CNOT truth table (V controls the flip):")
for idx, label in enumerate(("HH", "HV", "VH", "VV")):
    coeffs = [0.0] * 4
    coeffs[idx] = 1.0
    s = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
    out, rep = multi_qubit_gate(s, ["1", "2"], cnot, alpha, theta)
    vec = polarization_vector(out, list(rep.extras["photon_order"]))
    got = ("HH", "HV", "VH", "VV")[int(np.argmax(np.abs(vec)))]
    print(f"  |{label}> -> |{got}>")

u = random_haar_unitary(4, 42)
mesh = reck_decompose(u)
print(f"\nHaar-random U(4): mesh of {len(mesh.rotations)} two-mode rotations, "
      f"reconstruction error {np.max(np.abs(mesh.matrix() - u)):.2e}")

rng = np.random.default_rng(7)
z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
z /= np.linalg.norm(z)
s = polarization_state(z, [("1", "t1"), ("2", "t2")])
out, rep = multi_qubit_gate(s, ["1", "2"], u, alpha, theta)
vec = polarization_vector(out, list(rep.extras["photon_order"]))
print(f"gate fidelity vs dense U|psi>: {abs(np.vdot(u @ z, vec))**2:.12f}")
print(f"resources: {rep.resources.to_dict()}")
print(f"sub-gates: {dict(rep.gates)}")
print(f"output photon order (second qubit exits on the Merging ancilla): "
      f"{rep.extras['photon_order']}")
