"""Parity gate walkthrough.

A two-photon polarization state rides through two coherent qubus beams; after
the XPM couplings, the -theta compensation and the qubus beam splitter, a QND
photon-number readout of the difference port plus classical feed-forward sort
the even-parity component (|HH>, |VV>) onto one path pair and the odd one
(|HV>, |VH>) onto another, for every measurement outcome.
"""

import numpy as np

from qubusim import polarization_state
from qubusim.analysis import alpha_for_beta2
from qubusim.gates import parity_gate

rng = np.random.default_rng(0)
coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
coeffs /= np.linalg.norm(coeffs)
print("input coefficients (HH, HV, VH, VV):")
print(np.round(coeffs, 4))

theta = 0.05
alpha = alpha_for_beta2(20.0, theta)  # |beta|^2 = 2 alpha^2 sin^2 theta = 20
state = polarization_state(coeffs, [("1", "t1"), ("2", "t2")])
out, report = parity_gate(state, "1", "2", alpha, theta)

print(f"\nqubus amplitude alpha = {alpha:.2f}, XPM angle theta = {theta}")
print(f"even-parity paths: {report.extras['even_paths']}")
print(f"odd-parity paths:  {report.extras['odd_paths']}")
print(f"\nenumerated {len(report.outcomes)} Fock outcomes; "
      f"success probability {report.success_probability:.12f}")
print(f"worst outcome fidelity vs the common output: {report.min_fidelity:.12f}")

print("\nmost likely outcomes (n, probability, fidelity):")
table = report.outcomes  # columns: each outcome's value, probability and fidelity
rows = zip(table.values, table.probabilities, table.fidelities)
for n, p, f in sorted(rows, key=lambda row: -row[1])[:6]:
    print(f"  n={n:>2}  p={p:.4f}  f={f:.12f}")

print("\noutput state branches (amplitude, photon slots):")
for br in sorted(out.branches, key=lambda b: -abs(b.amplitude))[:4]:
    slots = ", ".join(f"{q}:{path}|{pol}>" for q, path, pol in br.photons)
    print(f"  {br.amplitude:+.4f}  {slots}")

print("\nthe feed-forward table the gate used:")
for label, ops in report.feedforward:
    names = [op["kind"] for op in ops] or ["(none)"]
    print(f"  {label:>7}: {', '.join(names)}")
