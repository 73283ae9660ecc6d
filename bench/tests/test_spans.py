"""Self-time arithmetic, wrapper installation and the metric contract."""

import json

import pytest

import run
import spans
from spans import covered, self_times


def test_self_time_nested_children():
    # circuit [0, 10] > child [2, 6] > grandchild [3, 5]
    starts, ends, parents = [0.0, 2.0, 3.0], [10.0, 6.0, 5.0], [-1, 0, 1]
    assert self_times(starts, ends, parents) == [6.0, 2.0, 2.0]
    # the self times of a tree add up to the root's duration
    assert sum(self_times(starts, ends, parents)) == 10.0


def test_self_time_back_to_back_children():
    starts, ends, parents = [0.0, 1.0, 4.0, 7.0], [10.0, 4.0, 7.0, 7.5], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents) == [3.5, 3.0, 3.0, 0.5]


def test_self_time_empty_span():
    assert self_times([5.0], [5.0], [-1]) == [0.0]
    # an empty child covers nothing of its parent
    assert self_times([0.0, 3.0], [4.0, 3.0], [-1, 0]) == [4.0, 0.0]


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 8.0)]) == 7.0
    assert covered(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert covered(0.0, 1.0, []) == 0.0


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    value, q = run.tail(samples)
    assert q == 90 and value == 90.0
    assert sum(s > value for s in samples) == 10
    value, q = run.tail(samples[:25])
    assert sum(s > value for s in samples[:25]) >= 10


def test_norm_ms_scales_each_call_by_the_calibration_around_it():
    cal = run.CAL_MS
    loop = run.Loop(ms=[100.0, 300.0], cal_ms=[cal / 2, cal / 2, 3 * cal / 2])
    assert loop.norm_ms == [200.0, 300.0]


def test_install_patches_every_binding_and_uninstall_restores():
    from qubusim import gates, state

    original = state.fidelity
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        assert gates.fidelity is state.fidelity is not original
        assert state.HybridState.__init__ is not installed.wrapped["state.HybridState.__init__"]
        # outside a circuit nothing is recorded
        assert state.norm(state.basis_photon("1", "t1", "H")) == 1.0
        assert len(tracer.code) == 0
        span = tracer.begin_circuit(0)
        state.norm(state.basis_photon("1", "t1", "H"))
        tracer.close(span)
    finally:
        installed.uninstall()
    assert gates.fidelity is state.fidelity is original
    names = [tracer.names[c] for c in tracer.code]
    assert names[0] == "circuit" and "state.norm" in names
    assert "state.HybridState.__init__" in names
    assert tracer.calls["state.coherent_overlap"] == 1
    metrics, accounting = spans.layer_metrics(tracer, 1)
    assert accounting["circuit_ms"] == pytest.approx(
        sum(accounting["layer_self_ms"].values()) + accounting["bench_self_ms"])


def test_benchmark_json_lists_every_metric_the_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    per_layer = list(spans.layer_metrics(spans.Tracer(), 1)[0]) + list(run.PER_LAYER_EXTRA)
    assert [m["name"] for m in doc["per_layer"]] == per_layer
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
