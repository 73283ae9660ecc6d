"""Outside-in tracing of qubusim: wrap its public functions, record spans.

The benchmark never edits the simulator.  `install` replaces every public
function of the traced modules, plus `HybridState.__init__` and
`FeedForwardPlan.correct`, with a wrapper, and rebinds the wrapper in every
`qubusim` namespace that holds the original (``from .state import fidelity``
copies a binding into `gates`, so patching `state` alone would miss it).

A span is (name, start, end, parent, circuit id).  Spans are recorded only
while a circuit is open, so the benchmark's own checks stay out of the trace.
A span's self time is its duration minus the part of it that its child spans
cover; the self times of a circuit's spans add up to the circuit's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

#: traced modules, in dependency order; each one is a layer
LAYERS = ("state", "elements", "numerics", "detection", "gates", "pipelines", "cli")
#: class methods traced besides the module-level functions
METHODS = (("state", "HybridState", "__init__"), ("gates", "FeedForwardPlan", "correct"))
#: hot kernels: counted, not spanned (a span would cost more than the call)
COUNTED = frozenset({"state.coherent_overlap"})
COUNTED_LAYERS = frozenset({"numerics"})
CIRCUIT = "circuit"

OVERLAP = ("state.inner_product", "state.norm", "state.fidelity")
FOCK = ("detection.fock_distribution", "detection.fock_outcomes", "detection.fock_project",
        "detection.fock_measure")
BELL = ("detection.bell_outcomes", "detection.bell_measure")
PRESENCE = ("detection.presence_outcomes", "detection.qnd_presence")
ELEMENT_DISPATCH = ("elements.apply_element", "elements.apply_elements", "elements.op")


class Tracer:
    """Spans in flat arrays, plus tallies taken from wrapped return values."""

    def __init__(self):
        self.names: list[str] = [CIRCUIT]
        self._codes = {CIRCUIT: 0}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.circuit = array("l")
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # counted (span-less) functions
        self.sums: Counter = Counter()
        self.minima: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self._circuit_id = -1

    def code_of(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, code: int) -> int:
        i = len(self.code)
        self.code.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.circuit.append(self._circuit_id)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def begin_circuit(self, circuit_id: int) -> int:
        if self.stack:
            raise RuntimeError("a circuit is already open")
        self._circuit_id = circuit_id
        return self.open(0)

    def add(self, key: str, amount: float) -> None:
        self.sums[key] += amount

    def low(self, key: str, value: float) -> None:
        self.minima[key] = min(value, self.minima.get(key, math.inf))

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(value, self.maxima.get(key, -math.inf))

    def write_jsonl(self, path, circuits: int) -> int:
        """Write the spans of circuits 0 .. circuits-1, one JSON object a line.

        Times are seconds since the first span opened.  Returns the count.
        """
        t0 = self.start[0] if self.start else 0.0
        written = 0
        with open(path, "w") as fh:
            for code, s, e, p, c in zip(self.code, self.start, self.end, self.parent, self.circuit):
                if c >= circuits:
                    break
                fh.write(json.dumps({"name": self.names[code], "start": s - t0, "end": e - t0,
                                     "parent": p, "circuit": c}) + "\n")
                written += 1
        return written


# ---------------------------------------------------------------------------
# values read from wrapped calls (args are the call's positional arguments)
# ---------------------------------------------------------------------------


def _fock_distribution(t: Tracer, args, result):
    ns, probs = result
    t.add("fock_enumerated", len(ns))
    t.high("fock_tail_mass", abs(1.0 - float(probs.sum())))


AFTER = {
    "state.HybridState.__init__": lambda t, a, r: t.add("branches_built", len(a[0].branches)),
    "state.canonicalize": lambda t, a, r: (t.add("canon_in", len(a[0].branches)),
                                           t.add("canon_out", len(r.branches))),
    "detection.fock_distribution": _fock_distribution,
    "detection.fock_outcomes": lambda t, a, r: t.add("fock_kept", len(r)),
    "detection.project_qubus_coherent": lambda t, a, r: t.low("disposal_prob", r[1]),
    "detection.bell_outcomes": lambda t, a, r: t.add("bell_outcomes", len(r)),
    "gates.couple_qubus_pair": lambda t, a, r: t.add("branches_coupled", len(r[0].branches)),
    "gates.run_qubus_block": lambda t, a, r: t.add("block_outcomes", len(r.outcomes)),
}


def _spanned(t: Tracer, name: str, fn):
    code = t.code_of(name)
    after = AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not t.stack:
            return fn(*args, **kwargs)
        i = t.open(code)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.close(i)
        if after is not None:
            after(t, args, result)
        return result

    return wrapper


def _counted(t: Tracer, name: str, fn):
    calls = t.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if t.stack:
            calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _wrap(t: Tracer, layer: str, name: str, fn):
    if layer in COUNTED_LAYERS or name in COUNTED:
        return _counted(t, name, fn)
    return _spanned(t, name, fn)


class Installation:
    """The patches one `install` made; `uninstall` restores the originals."""

    def __init__(self):
        self.wrapped: dict[str, object] = {}  # traced name -> original
        self.rebound: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()


def traced_functions() -> dict[str, object]:
    """Traced name (``layer.function`` or ``layer.Class.method``) -> function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"qubusim.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{attr}"] = obj
    for layer, cls, meth in METHODS:
        owner = getattr(importlib.import_module(f"qubusim.{layer}"), cls)
        found[f"{layer}.{cls}.{meth}"] = vars(owner)[meth]
    return found


def install(tracer: Tracer) -> Installation:
    inst = Installation()
    wrappers = {}  # original -> wrapper
    for name, fn in traced_functions().items():
        inst.wrapped[name] = fn
        wrappers[fn] = _wrap(tracer, name.split(".", 1)[0], name, fn)
    for layer, cls, meth in METHODS:
        owner = getattr(importlib.import_module(f"qubusim.{layer}"), cls)
        original = vars(owner)[meth]
        setattr(owner, meth, wrappers[original])
        inst.rebound.append((owner, meth, original))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "qubusim" and not mod_name.startswith("qubusim."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                inst.rebound.append((mod, attr, obj))
    return inst


# ---------------------------------------------------------------------------
# self time and per-layer metrics
# ---------------------------------------------------------------------------


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i]) - covered(starts[i], ends[i], children.get(i, ()))
        for i in range(len(starts))
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, circuits: int) -> tuple[dict[str, float], dict]:
    """Per-circuit layer metrics, plus the additivity check of the self times.

    Returns (metrics, accounting); accounting holds the per-layer self time,
    the benchmark's own share (circuit-span self time) and the circuit time.
    """
    selfs = self_times(t.start, t.end, t.parent)
    self_s = defaultdict(float)
    calls = Counter(t.calls)
    for code, s in zip(t.code, selfs):
        name = t.names[code]
        self_s[name] += s
        calls[name] += 1
    circuit_s = sum(e - s for c, s, e in zip(t.code, t.start, t.end) if c == 0)
    layer_s = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
               for layer in LAYERS if layer not in COUNTED_LAYERS}

    def ms(*names: str) -> float:
        return 1e3 * sum(self_s[n] for n in names) / circuits

    def per(n: float) -> float:
        return n / circuits

    def count(*names: str) -> float:
        return per(sum(calls[n] for n in names))

    elements = [n for n in calls if n.startswith("elements.") and n not in ELEMENT_DISPATCH]
    sums = t.sums
    metrics = {
        "state.init_calls": count("state.HybridState.__init__"),
        "state.init_self_ms": ms("state.HybridState.__init__"),
        "state.branches_built": per(sums["branches_built"]),
        "state.canonicalize_calls": count("state.canonicalize"),
        "state.canonicalize_self_ms": ms("state.canonicalize"),
        "state.canonicalize_keep_ratio": _ratio(sums["canon_out"], sums["canon_in"]),
        "state.overlap_calls": count(*OVERLAP),
        "state.overlap_self_ms": ms(*OVERLAP),
        "state.gram_pairs": count("state.coherent_overlap"),
        "state.self_ms": 1e3 * layer_s["state"] / circuits,
        "elements.apply_calls": count(*elements),
        "elements.self_ms": 1e3 * layer_s["elements"] / circuits,
        "elements.xpm_calls": count("elements.xpm"),
        "numerics.fock_amplitude_calls": count("numerics.fock_amplitude"),
        "detection.fock_values_enumerated": per(sums["fock_enumerated"]),
        "detection.fock_outcomes_kept": per(sums["fock_kept"]),
        "detection.fock_useful_ratio": _ratio(sums["fock_kept"], sums["fock_enumerated"]),
        "detection.fock_self_ms": ms(*FOCK),
        "detection.fock_tail_mass_max": t.maxima.get("fock_tail_mass", 0.0),
        "detection.disposal_self_ms": ms("detection.project_qubus_coherent"),
        "detection.disposal_prob_min": t.minima.get("disposal_prob", 0.0),
        "detection.bell_self_ms": ms(*BELL),
        "detection.bell_outcomes": per(sums["bell_outcomes"]),
        "detection.presence_self_ms": ms(*PRESENCE),
        "detection.self_ms": 1e3 * layer_s["detection"] / circuits,
        "gates.blocks": count("gates.run_qubus_block"),
        "gates.block_self_ms": ms("gates.run_qubus_block"),
        "gates.couple_self_ms": ms("gates.couple_qubus_pair"),
        "gates.feedforward_calls": count("gates.FeedForwardPlan.correct"),
        "gates.feedforward_self_ms": ms("gates.FeedForwardPlan.correct"),
        "gates.block_branches_coupled": per(sums["branches_coupled"]),
        "gates.block_outcomes": per(sums["block_outcomes"]),
        "gates.self_ms": 1e3 * layer_s["gates"] / circuits,
        "pipelines.self_ms": 1e3 * layer_s["pipelines"] / circuits,
        "cli.run_program_self_ms": ms("cli.run_program"),
    }
    accounting = {
        "layer_self_ms": {k: 1e3 * v / circuits for k, v in layer_s.items()},
        "bench_self_ms": ms(CIRCUIT),
        "circuit_ms": 1e3 * circuit_s / circuits,
        "spans": len(t.code),
        "calls": dict(sorted(calls.items())),
    }
    return metrics, accounting
