"""The per-call checks: dense oracles, success threshold, reference tolerance."""

import numpy as np

import workloads as wl


def _reading(vec, success=1.0, outcomes=(("parity", 0, 0.5), ("parity", 1, 0.5))):
    return wl.Reading(np.asarray(vec, dtype=complex), success, [list(o) for o in outcomes])


def test_toffoli_oracle_flips_the_target_only_when_both_controls_are_v():
    w = wl.WORKLOADS["toffoli-program"]
    for idx in range(8):
        raw = np.eye(8)[idx]
        want = {6: 7, 7: 6}.get(idx, idx)
        assert np.argmax(np.abs(w.oracle(raw))) == want


def test_teleport_oracle_is_the_kronecker_product():
    w = wl.WORKLOADS["qudit-wide"]
    raw = np.array([1, 0, 0, 1, 1, 1], dtype=complex) / np.array([1, 1, 1, 1, 2**0.5, 2**0.5])
    np.testing.assert_allclose(w.oracle(raw), np.kron(np.kron([1, 0], [0, 1]), [1, 1]) / 2**0.5)


def test_problems_flag_a_wrong_output_and_a_low_success():
    target = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
    assert wl.problems(_reading(target), target) == []
    assert wl.problems(_reading(target[[3, 1, 2, 0]]), target)
    assert wl.problems(_reading(target, success=1 - 1e-5), target)


def test_reference_comparison_is_absolute_at_1e_12():
    vec = np.array([0.6, 0.8j])
    entry = {"vector": vec, "success_probability": 1.0,
             "outcomes": [["parity", 0, 0.5], ["parity", 1, 0.5]]}
    assert wl.reference_mismatches(entry, _reading(vec + 5e-13)) == []
    assert wl.reference_mismatches(entry, _reading(vec + 2e-12))
    shifted = (("parity", 0, 0.5 + 2e-12), ("parity", 1, 0.5))
    assert wl.reference_mismatches(entry, _reading(vec, outcomes=shifted))
    assert wl.reference_mismatches(entry, _reading(vec, outcomes=(("parity", 0, 1.0),)))
