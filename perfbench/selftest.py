"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout. On a cheap slice of every workload
(the first two cases of each kind of input) it checks that:

- one seed reproduces identical verdicts and computed counts from two
  separate set-ups;
- the only failures are the recorded known defect;
- a deliberately wrong known answer raises failed_share and makes the run
  incorrect;
- the speed probe samples, and its own time is left out of the clock;
- run.py computes exactly the metrics that BENCHMARK.json declares.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import os
import sys
import time

SEED = 7
PER_KIND = 2


def _slice(cases):
    seen = {}
    out = []
    for case in cases:
        kind = case[0].split("/")[0]
        seen[kind] = seen.get(kind, 0) + 1
        if seen[kind] <= PER_KIND:
            out.append(case)
    return out


def main() -> int:
    import run
    root = os.getcwd()
    run.pin_blas_threads()
    sys.path.insert(0, os.path.join(root, "src"))
    import adapt
    from speed import INTERVAL, SpeedProbe
    from workloads import BOUNDARIES, COUNTS, WORKLOADS

    probe = SpeedProbe()

    def one_pass(cases, trace=False):
        with probe:
            return run.run_passes(cases, trace, 0.0, probe)[0]

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results = []

    def report(name, ok, detail=""):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())

    slices = {}
    for name, setup in WORKLOADS.items():
        first, second = one_pass(_slice(setup(SEED))), one_pass(_slice(setup(SEED)))
        slices[name] = first
        report(f"{name}: seed {SEED} reproduces verdicts and counts",
               first.outcomes == second.outcomes and first.counts == second.counts,
               f"({first.attempted} operations)")
        report(f"{name}: only the known defect fails",
               not first.unexpected and first.failed == first.known_defects,
               f"({first.failed} failed, {first.known_defects} known)")

    # a wrong known answer: every action verdict read inverted
    right = adapt.action
    adapt.action = lambda result: not right(result)
    try:
        wrong = one_pass(_slice(WORKLOADS["exact-corpus"](SEED)))
    finally:
        adapt.action = right
    base = slices["exact-corpus"]
    report("a wrong known answer raises failed_share and is reported",
           wrong.failed / wrong.attempted > base.failed / base.attempted and bool(wrong.unexpected),
           f"({base.failed}/{base.attempted} -> {wrong.failed}/{wrong.attempted})")

    with probe:
        samples, began, clocked = len(probe.starts), time.perf_counter(), probe.clock()
        while time.perf_counter() - began < 0.5:
            pass
        wall, clocked = time.perf_counter() - began, probe.clock() - clocked
    samples = len(probe.starts) - samples
    report("the speed probe samples and the clock leaves its time out",
           samples >= 0.25 / INTERVAL and 0 < wall - clocked < 0.1 * wall,
           f"({samples} probes, {1e3 * (wall - clocked):.1f} ms of {1e3 * wall:.0f} ms)")

    cases = _slice(WORKLOADS["exact-corpus"](SEED))
    untraced, traced = [one_pass(cases)], [one_pass(cases, trace=True)]
    report("end-to-end metrics match BENCHMARK.json",
           set(run.end_to_end([0.1], untraced, probe)) == {m["name"] for m in spec["end_to_end"]})
    report("per-layer metrics match BENCHMARK.json",
           set(run.per_layer(untraced, traced, BOUNDARIES, COUNTS, probe)) == {m["name"] for m in spec["per_layer"]})
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
