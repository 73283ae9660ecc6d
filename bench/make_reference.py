"""Write the reference outputs every benchmark run is compared against.

    python3 bench/make_reference.py

For each workload this runs the first run.SETUP_REPEATS inputs of seed
REFERENCE_SEED, checks them against the dense oracle, and stores input,
output vector, success probability and outcome table in
bench/reference/<workload>.json.  Each benchmark run replays these inputs as
its warm-up calls and requires the same results to REFERENCE_TOL.  Rewrite
the files only for a change that is meant to alter results.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    run.load_qubusim()
    import workloads as wl

    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for w in wl.WORKLOADS.values():
        calls = []
        for raw in w.inputs(wl.REFERENCE_SEED, run.SETUP_REPEATS):
            reading = w.read(w.call(w.build(raw)))
            found = wl.problems(reading, w.oracle(raw))
            if found:
                raise SystemExit(f"{w.name}: reference call fails its oracle: {found}")
            calls.append(wl.reference_entry(raw, reading))
        head = json.dumps({"workload": w.name, "seed": wl.REFERENCE_SEED,
                           "tolerance": wl.REFERENCE_TOL})
        # one call per line keeps the file small and its diffs readable
        body = ",\n".join(json.dumps(c) for c in calls)
        wl.reference_path(w).write_text(f'{head[:-1]}, "calls": [\n{body}\n]}}\n')
        print(f"wrote {wl.reference_path(w)} ({len(calls)} calls)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
