"""Closed-loop benchmark of qubusim: one caller, one circuit at a time.

    python3 bench/run.py --workload parity-bright --seed 1 --seconds 30 --trace 0

Workloads (bench/workloads.py): parity-bright, qudit-wide, toffoli-program.
The caller sends the next circuit only after the previous one has returned;
each output is checked against a dense oracle between calls, outside the
timed region.  Set-up (import, inputs and oracles from --seed, one warm-up
call) runs SETUP_REPEATS times; the warm-up calls replay the stored
reference inputs of bench/reference/ and must reproduce their outputs to
1e-12.

The host is a few shared vCPUs whose speed drifts by a quarter within
minutes, for wall and CPU time alike.  So a fixed calibration kernel
(`calibrate`, plain Python and small NumPy calls, no qubusim code) runs just
before and just after every circuit and every set-up, and the time metrics
are normalized: `norm_circuit_ms_*` and `setup_s` are wall times times
CAL_MS over the mean time of the two kernel runs around them, i.e. times on
a host where the kernel takes CAL_MS.  The raw wall times are printed and
stored beside them.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half of --seconds
untraced and then whole passes over the workload's traced inputs with every
public function of the simulator wrapped (bench/spans.py), and reports
per-layer metrics per circuit plus the tracing overhead.

Standard output ends with one JSON line {correct, attempted, failed, metrics};
the full result, with the machine context and every sample, is written to
bench/out/.  Exit status: 0 when every check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
#: tail percentile: the highest one that leaves at least this many calls beyond it
TAIL_BEYOND = 10
#: relative tolerance of the check that self times add up to the circuit time
ADDITIVITY_TOL = 1e-6
#: nominal duration of the calibration kernel: normalized times are ms on a host where
#: `calibrate` takes this long (about what it takes on the 2-vCPU host it was sized on)
CAL_MS = 50.0

END_TO_END = {
    "setup_s": "s",
    "norm_circuits_per_s": "1/s",
    "norm_circuit_ms_p50": "ms",
    "norm_circuit_ms_tail": "ms",
    "verified_ratio": "ratio",
    "target_fidelity_min": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metrics the runner adds to those of spans.layer_metrics
PER_LAYER_EXTRA = ("cli.output_bytes", "trace.circuit_ms", "trace.overhead_ms")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qubusim.cli; print(time.perf_counter() - t)"
)


def load_qubusim() -> None:
    """Import qubusim from this checkout's src/, never from anywhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import qubusim
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import qubusim from {SRC}: {exc}") from exc
    if not Path(qubusim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: qubusim was imported from {qubusim.__file__}, not {SRC}")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith(("_ratio", "_min", "_max")):
        return "ratio"
    return "count"


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile): nearest-rank value of the highest whole percentile
    that leaves at least TAIL_BEYOND samples above it (p0 if none does)."""
    n = len(samples)
    q = max(0, (100 * (n - TAIL_BEYOND)) // n)
    rank = max(1, math.ceil(q * n / 100))
    return sorted(samples)[rank - 1], q


def calibrate() -> float:
    """Milliseconds one fixed run of the calibration kernel takes.

    The kernel does what the simulator's hot loops do, without qubusim code:
    dicts keyed by tuples with complex values, cmath, sorting, small NumPy
    arrays.  Its time measures the host's current speed, so a program change
    moves the circuit time but not the kernel time.
    """
    import numpy as np

    t0 = perf_counter()
    acc = 0j
    for _ in range(250):
        amps: dict[tuple, complex] = {}
        for i in range(200):
            key = (i % 17, "p", i % 5)
            amps[key] = amps.get(key, 0j) + cmath.exp(0.01j * i) * math.sqrt(i + 1)
        v = np.array([z for _, z in sorted(amps.items())])
        acc += np.vdot(v, v) + sum(z.conjugate() * z for z in amps.values())
    ms = 1e3 * (perf_counter() - t0)
    if not abs(acc.real / 16600131.811224857 - 1.0) < 1e-9:  # the kernel did its whole work
        raise RuntimeError(f"calibration kernel returned {acc!r}")
    return ms


def normalize(t: float, cal_before: float, cal_after: float) -> float:
    """`t` on a host where `calibrate` takes CAL_MS, from the kernel runs around it."""
    return t * 2.0 * CAL_MS / (cal_before + cal_after)


def import_seconds() -> float:
    """Time to import the simulator, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def machine_context(seed: int) -> dict:
    import numpy

    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "cpu_pinning": "none: the process is not pinned to a CPU",
        "frequency_control": "none: CPU frequency and turbo are not controlled",
    }


@dataclass
class Loop:
    """Samples of one closed loop."""

    ms: list[float] = field(default_factory=list)
    #: calibration kernel times between the calls, one before the first and one after the last
    cal_ms: list[float] = field(default_factory=list)
    fidelities: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0

    @property
    def verified(self) -> int:
        return len(self.ms) - len(self.failures)

    @property
    def norm_ms(self) -> list[float]:
        """Call times in ms on a host where the calibration kernel takes CAL_MS."""
        return [normalize(m, a, b) for m, a, b in zip(self.ms, self.cal_ms, self.cal_ms[1:])]


def verify(w, result, target, entry: dict | None = None) -> tuple[float | None, list[str]]:
    """(oracle fidelity, problems) of one call's result; `entry` is a stored
    reference call the result must also reproduce."""
    import workloads as wl

    try:
        reading = w.read(result)
    except Exception as exc:  # an unreadable output fails the check
        return None, [f"output unreadable: {exc!r}"]
    found = wl.reference_mismatches(entry, reading) if entry is not None else []
    return wl.oracle_fidelity(reading, target), found + wl.problems(reading, target)


def set_up(w, seed: int):
    """SETUP_REPEATS set-ups; each warm-up call replays one reference input.

    Returns (pool, targets, normalized and wall set-up seconds per repeat,
    reference failures).
    """
    import workloads as wl

    refs = wl.load_reference(w)
    if len(refs) < SETUP_REPEATS:
        raise SystemExit(f"bench: {wl.reference_path(w)} holds fewer than {SETUP_REPEATS} calls")
    samples, wall, failures = [], [], []
    for j, entry in enumerate(refs[:SETUP_REPEATS]):
        cal = calibrate()
        t_import = import_seconds()
        t0 = perf_counter()
        raws = w.inputs(seed)
        pool = [w.build(raw) for raw in raws]
        targets = [w.oracle(raw) for raw in raws]
        try:
            result = w.call(w.build(entry["input"]))
        except Exception as exc:  # counted as a failed call
            result, found = None, [f"raised {exc!r}"]
        wall.append(t_import + perf_counter() - t0)
        samples.append(normalize(wall[-1], cal, calibrate()))
        if result is not None:
            _, found = verify(w, result, w.oracle(entry["input"]), entry)
        if found:
            failures.append(f"reference call {j}: " + "; ".join(found))
    return pool, targets, samples, wall, failures


def closed_loop(w, pool, targets, seconds: float, tracer=None) -> Loop:
    """Call circuits back to back until `seconds` have passed.

    Untraced, the loop cycles through the whole pool.  Traced, it runs whole
    passes over the first `w.traced` inputs, so per-circuit counts repeat
    exactly for a seed.
    """
    n = w.traced if tracer is not None else len(pool)
    loop = Loop()
    deadline = perf_counter() + seconds
    i = 0
    while True:
        k = i % n
        loop.cal_ms.append(calibrate())
        span = tracer.begin_circuit(i) if tracer is not None else -1
        t0 = perf_counter()
        try:
            result, found = w.call(pool[k]), []
        except Exception as exc:  # a failed call is counted and the loop goes on
            result, found = None, [f"raised {exc!r}"]
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(span)
        i += 1
        loop.ms.append(1e3 * (t1 - t0))
        if result is not None:
            fidelity, found = verify(w, result, targets[k])
            if fidelity is not None:
                loop.fidelities.append(fidelity)
            loop.output_bytes += w.output_bytes(result)
        if found:
            loop.failures.append(f"call {i - 1} (input {k}): " + "; ".join(found))
        if perf_counter() >= deadline and (tracer is None or i % n == 0):
            loop.cal_ms.append(calibrate())
            return loop


def end_to_end(loop: Loop, setup: list[float], setup_wall: list[float], attempted: int,
               failed: int) -> tuple[dict, dict]:
    norm = loop.norm_ms
    tail_ms, q = tail(loop.ms)
    metrics = {
        "setup_s": statistics.median(setup),
        "norm_circuits_per_s": loop.verified / (sum(norm) / 1e3),
        "norm_circuit_ms_p50": statistics.median(norm),
        "norm_circuit_ms_tail": tail(norm)[0],
        "verified_ratio": 1.0 - failed / attempted,
        "target_fidelity_min": min(loop.fidelities, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"tail_percentile": q, "samples": len(loop.ms),
             "failed_ratio": failed / attempted,
             "wall": {"circuits_per_s": loop.verified / (sum(loop.ms) / 1e3),
                      "circuit_ms_p50": statistics.median(loop.ms), "circuit_ms_tail": tail_ms,
                      "setup_s": statistics.median(setup_wall),
                      "calibration_ms_p50": statistics.median(loop.cal_ms)},
             "calibration_nominal_ms": CAL_MS}
    return metrics, notes


def per_layer(w, pool, targets, seconds: float):
    """Untraced half, then traced half; returns (metrics, notes, loops, problems)."""
    import spans

    plain = closed_loop(w, pool, targets, seconds / 2)
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        traced = closed_loop(w, pool, targets, seconds / 2, tracer)
    finally:
        installed.uninstall()
    circuits = len(traced.ms)
    metrics, accounting = spans.layer_metrics(tracer, circuits)
    metrics["cli.output_bytes"] = traced.output_bytes / circuits
    metrics["trace.circuit_ms"] = accounting["circuit_ms"]
    metrics["trace.overhead_ms"] = (statistics.median(traced.norm_ms)
                                    - statistics.median(plain.norm_ms))

    unknown = [n for n in w.required if n not in installed.wrapped]
    silent = [n for n in w.required if n in installed.wrapped and not accounting["calls"].get(n)]
    summed = sum(accounting["layer_self_ms"].values()) + accounting["bench_self_ms"]
    additive = abs(summed - accounting["circuit_ms"]) <= ADDITIVITY_TOL * accounting["circuit_ms"]
    OUT.mkdir(parents=True, exist_ok=True)
    spans_file = OUT / f"{w.name}-spans.jsonl"
    written = tracer.write_jsonl(spans_file, w.traced)
    notes = {
        "traced_circuits": circuits,
        "traced_inputs": w.traced,
        "untraced_norm_p50_ms": statistics.median(plain.norm_ms),
        "traced_norm_p50_ms": statistics.median(traced.norm_ms),
        "overhead_ms": metrics["trace.overhead_ms"],
        "coverage": {"required": list(w.required), "unknown": unknown, "zero_calls": silent},
        "additivity": {**accounting, "summed_ms": summed, "ok": additive},
        "wrapped_functions": sorted(installed.wrapped),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans_written": f"{written} of {accounting['spans']}: the first pass; later passes "
                         "repeat the same calls",
    }
    problems = []
    if unknown:
        problems.append(f"required functions that are not traced: {unknown}")
    if silent:
        problems.append(f"traced functions that recorded no calls: {silent}")
    if not additive:
        problems.append(f"self times sum to {summed:.6f} ms, circuit takes "
                        f"{accounting['circuit_ms']:.6f} ms")
    return metrics, notes, (plain, traced), problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv), p


def main(argv=None) -> int:
    args, parser = parse_args(argv)
    load_qubusim()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    w = wl.WORKLOADS[args.workload]

    pool, targets, setup, setup_wall, ref_failures = set_up(w, args.seed)
    result = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_context(args.seed),
        "loop": "closed, one caller, single process and thread",
        "setup_samples_s": setup, "setup_wall_samples_s": setup_wall,
    }
    if args.trace:
        metrics, notes, loops, problems = per_layer(w, pool, targets, args.seconds)
    else:
        loops, problems = (closed_loop(w, pool, targets, args.seconds),), []
    failures = ref_failures + [f for loop in loops for f in loop.failures]
    attempted = SETUP_REPEATS + sum(len(loop.ms) for loop in loops)
    if not args.trace:
        metrics, notes = end_to_end(loops[0], setup, setup_wall, attempted, len(failures))
    correct = not failures and not problems

    result.update(notes)
    result.update({
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "problems": problems, "circuit_ms": [loop.ms for loop in loops],
        "calibration_ms": [loop.cal_ms for loop in loops],
    })
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {w.name}  seed {args.seed}  {attempted} calls, {len(failures)} failed "
          f"(failed_ratio {len(failures) / attempted:g})")
    for line in failures[:5] + problems:
        print(f"  FAIL {line}")
    if args.trace:
        print(f"  tracing overhead {notes['overhead_ms']:.3f} ms per circuit (normalized "
              f"p50 traced {notes['traced_norm_p50_ms']:.3f} ms, untraced "
              f"{notes['untraced_norm_p50_ms']:.3f} ms, {notes['traced_circuits']} traced circuits)")
    else:
        print(f"  tail = p{notes['tail_percentile']} of {notes['samples']} calls; setup_s and "
              f"norm_* = wall time x {CAL_MS:g} ms / calibration kernel time around it")
    for k, v in metrics.items():
        print(f"  {k:34s} {v:.6g} {unit_of(k)}")
    if not args.trace:
        print(f"  {'failed_ratio':34s} {notes['failed_ratio']:.6g} ratio (= 1 - verified_ratio)")
        for k, v in notes["wall"].items():
            unit = "1/s" if k.endswith("_per_s") else "s" if k.endswith("_s") else "ms"
            print(f"  {k:34s} {v:.6g} {unit} (wall)")
    print(f"  result file {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
