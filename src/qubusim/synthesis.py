"""Unitary-to-interferometer compilation.

A triangular (Reck-style) mesh of two-mode elements realizes any U(N) on the
path modes of a single photon.  Each mesh element is a phase shifter on the
first arm followed by a variable-reflectivity beam splitter

    B(θ)·P(φ) = [[cosθ, sinθ], [sinθ, −cosθ]] · diag(e^{iφ}, 1),

so meshes execute natively through the optical-elements module (PolPhase on
a whole path + PhotonBS with an angle parameter).  N−1 per-mode output
phases close the decomposition; the element count is ≤ N(N−1)/2 rotations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import elements
from .state import HybridState, StateError, _distinct, _slot_digits


class SynthesisError(ValueError):
    pass


@dataclass(frozen=True)
class MeshRotation:
    """One two-mode element on adjacent modes (a, b) = B(θ)·P_a(φ)."""

    mode_a: int
    mode_b: int
    theta: float
    phi: float

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, s], [s, -c]], dtype=complex) @ np.diag(
            [cmath.exp(1j * self.phi), 1.0]
        )


@dataclass(frozen=True)
class Mesh:
    """Ordered two-mode rotations plus final per-mode phases; acts as U(n_modes)."""

    n_modes: int
    rotations: tuple[MeshRotation, ...]
    phases: tuple[float, ...]

    def matrix(self) -> np.ndarray:
        u = np.eye(self.n_modes, dtype=complex)
        for rot in self.rotations:
            t = np.eye(self.n_modes, dtype=complex)
            block = rot.matrix()
            a, b = rot.mode_a, rot.mode_b
            t[a, a], t[a, b], t[b, a], t[b, b] = block[0, 0], block[0, 1], block[1, 0], block[1, 1]
            u = t @ u
        return np.diag([cmath.exp(1j * p) for p in self.phases]) @ u

    def to_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "rotations": [
                {"mode_a": r.mode_a, "mode_b": r.mode_b, "theta": r.theta, "phi": r.phi}
                for r in self.rotations
            ],
            "phases": list(self.phases),
        }

    def element_ops(self, photon: str, paths: Sequence[str]) -> list[elements.ElementOp]:
        """The mesh as a native optical-elements sequence on the given paths."""
        if len(paths) != self.n_modes:
            raise SynthesisError("path list does not match mesh size")
        ops = []
        for r in self.rotations:
            pa, pb = paths[r.mode_a], paths[r.mode_b]
            if r.phi != 0.0:
                ops.append(elements.op("PolPhase", r.phi, photon=photon, path=pa, pol=None))
            ops.append(elements.op("PhotonBS", r.theta, photon=photon, path_a=pa, path_b=pb))
        for i, p in enumerate(self.phases):
            if p != 0.0:
                ops.append(elements.op("PolPhase", p, photon=photon, path=paths[i], pol=None))
        return ops


def check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise SynthesisError("matrix is not square")
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if dev > 1e-10:
        raise SynthesisError(f"matrix is not unitary (max deviation {dev:.3e})")
    return u


def reck_decompose(u: np.ndarray) -> Mesh:
    """Triangular decomposition: U = D · E_K† ··· E_1† with adjacent-mode E_i.

    Working a copy M of U, each right-multiplication M·E zeroes one
    lower-triangle entry M[r][c] against column c+1; rows are cleared from
    the bottom up, so earlier zeros survive.  What remains is the diagonal D
    of output phases.
    """
    u = check_unitary(u)
    n = u.shape[0]
    m = u.copy()
    rotations: list[MeshRotation] = []
    for r in range(n - 1, 0, -1):
        for c in range(r):
            x, y = m[r, c], m[r, c + 1]
            if abs(x) < 1e-14:
                continue
            # null M[r][c] with M ← M·P_c(φ)·B(θ): cosθ e^{iφ} x + sinθ y = 0
            phi = cmath.phase(y) - cmath.phase(x) + math.pi
            theta = math.atan2(abs(x), abs(y))
            rot = MeshRotation(c, c + 1, theta, -phi)
            e = np.eye(n, dtype=complex)
            block = rot.matrix().conj().T  # = P(φ)·B(θ)
            e[c, c], e[c, c + 1], e[c + 1, c], e[c + 1, c + 1] = (
                block[0, 0],
                block[0, 1],
                block[1, 0],
                block[1, 1],
            )
            m = m @ e
            rotations.append(rot)
    off = float(np.max(np.abs(m - np.diag(np.diag(m)))))
    if off > 1e-9:
        raise SynthesisError(f"decomposition failed to triangularize (residue {off:.3e})")
    phases = tuple(float(cmath.phase(m[i, i])) for i in range(n))
    # U·E_1···E_K = D with E_i the daggered stored elements, so
    # U = D·rot_K···rot_1: rotations apply first-to-last, phases close.
    return Mesh(n, tuple(rotations), phases)


def mesh_apply(
    s: HybridState, photon: str, paths: Sequence[str], mesh: Mesh
) -> HybridState:
    """Run the mesh on a photon's path amplitudes (single-polarization qudit).

    The photon must occupy a subset of `paths` with one common polarization;
    mixing polarizations across the listed paths is an error.
    """
    registered = s.registry.paths_of(photon)
    digits = _slot_digits(s, photon)
    on_mesh = np.isin(digits >> 1, [registered.index(p) for p in paths if p in registered])
    if len(_distinct(digits[on_mesh] % 2)) > 1:
        raise StateError("mesh_apply: photon polarization is mixed across the mesh paths")
    return apply_mesh_ops(s, photon, paths, mesh)


def apply_mesh_ops(s: HybridState, photon: str, paths: Sequence[str], mesh: Mesh) -> HybridState:
    """Execute mesh elements natively (no polarization restriction)."""
    return elements.apply_elements(s, mesh.element_ops(photon, paths))


def qft_matrix(n: int) -> np.ndarray:
    """Entries e^{2πijk/N}/√N; the N=2 case is the 50:50 splitter [[1,1],[1,−1]]/√2."""
    if n < 1:
        raise SynthesisError("N must be >= 1")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n).T / math.sqrt(n)


#: real Hadamard-type 4×4 interference that replaces the QFT for N=4 and
#: leaves only σ_z feed-forward corrections
HADAMARD4 = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
    ],
    dtype=complex,
)


def random_haar_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed U(N) via QR of a complex Ginibre matrix, seed-stable."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
