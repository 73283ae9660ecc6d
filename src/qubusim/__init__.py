"""qubusim: exact simulator for weak-nonlinearity photonic circuits.

Single photons carrying polarization and path modes interact with strong
coherent qubus beams through cross-phase modulation; QND photon-number
modules with classical feed-forward turn the measurement outcomes into
deterministic composite gates.
"""

from .state import (
    H,
    V,
    Branch,
    HybridState,
    ModeRegistry,
    RegistryError,
    StateError,
    amplitude_of,
    attach_qubus,
    basis_photon,
    bell_state,
    canonicalize,
    coherent_overlap,
    fidelity,
    inner_product,
    norm,
    normalize,
    path_pol_vector,
    plus_photon,
    pol_qubit,
    polarization_state,
    polarization_vector,
    random_polarization_state,
    remove_photon,
    state_from_dict,
    state_to_dict,
    tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
