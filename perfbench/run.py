"""Run one fellsem benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-corpus --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports fellsem from ./src and
reads the metric list from ./BENCHMARK.json. It sets the workload up from the
seed several times (setup_s is the median), then runs passes over the
workload's cases until the next pass would overrun --seconds. Every pass is
checked against the known answers. Times are in reference seconds: each
interval's wall time over the speed probe's factor for that interval (see
speed.py), so that the changing speed of a shared machine's cores cancels.

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, taken from traced passes that
follow untraced ones in the same run, and the spans are written to
perfbench/out/. The line before the last records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from harness import Harness, layer_times
from speed import INTERVAL, SpeedProbe

SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
TAIL_BEYOND = 10


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads, keeps the load within the
    cores and the numeric layer's timings free of thread start-up."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The highest quantile with TAIL_BEYOND of n verdicts beyond it; with
    fewer than twice that many verdicts, the slowest verdict."""
    return 1.0 - TAIL_BEYOND / n if n >= 2 * TAIL_BEYOND else 1.0


def git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(root, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest(src: str) -> str:
    """sha256 over the package sources, which names the code under test
    also where the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "fellsem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, src: str, seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }


def speed_quartiles(probe: SpeedProbe) -> list:
    """Quartiles of the speed factor over the run's 1 s stretches."""
    return [round(q, 3) for q in statistics.quantiles(
        (probe.factor(t, t + 1.0) for t in probe.starts[::int(1 / INTERVAL)]), n=4)]


def run_passes(cases, trace: bool, budget: float, probe: SpeedProbe):
    """Passes over all cases while the next one is expected to fit the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        h = Harness(trace, probe.clock)
        t0 = time.perf_counter()
        for input_id, run, args in cases:
            with h.verdict(input_id):
                run(h, *args)
        passes.append(h)
        now = time.perf_counter()
        if now - start + (now - t0) > budget:
            return passes


def reference_time(probe: SpeedProbe, start: float, end: float) -> float:
    return (end - start) / probe.factor(start, end)


def verdict_times(passes, probe: SpeedProbe) -> list:
    """Each verdict's time in reference seconds, as its median over the passes."""
    return [statistics.median(reference_time(probe, *h.window[cid]) for h in passes)
            for cid in passes[0].window]


def end_to_end(setup_times, passes, probe: SpeedProbe) -> dict:
    values = verdict_times(passes, probe)
    attempted = sum(h.attempted for h in passes)
    failed = sum(h.failed for h in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "check_s": sum(values),
        "verdict_p50_ms": 1e3 * statistics.median(values),
        "verdict_tail_ms": 1e3 * percentile(values, tail_quantile(len(values))),
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, boundaries, counts, probe: SpeedProbe) -> dict:
    tables = [layer_times(h.spans, probe.factor) for h in traced]
    first = traced[0]
    out = {}
    for name in boundaries + ["verdict"]:
        recs = [t.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}) for t in tables]
        out[f"{name}.calls"] = recs[0]["calls"]
        out[f"{name}.busy_s"] = statistics.median(r["busy_s"] for r in recs)
        if name == "verdict":
            out[f"{name}.self_s"] = statistics.median(r["self_s"] for r in recs)
        else:
            out[f"{name}.failed"] = first.layer_failed[name]
    for name in counts:
        out[name] = first.counts[name]
    candidates = first.counts["groupoid.enumerate.candidates"]
    accepted = first.counts["groupoid.enumerate.accepted"]
    out["groupoid.enumerate.accept_ratio"] = accepted / candidates if candidates else 0.0
    out["trace.check_s"] = sum(verdict_times(traced, probe))
    out["trace.overhead_s"] = out["trace.check_s"] - sum(verdict_times(untraced, probe))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fellsem", "__init__.py")):
        _fail(f"no fellsem sources under {src}; run from the root of a source checkout")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        _fail("no BENCHMARK.json in the working directory")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        _fail(f"unknown workload {args.workload}")

    pin_blas_threads()
    sys.path.insert(0, src)
    import fellsem
    if os.path.dirname(os.path.abspath(fellsem.__file__)) != os.path.join(src, "fellsem"):
        _fail(f"imported fellsem from {fellsem.__file__}, not from {src}")
    from workloads import BOUNDARIES, COUNTS, WORKLOADS

    setup = WORKLOADS[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    with SpeedProbe() as probe:
        setups = []
        began = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - began < SETUP_MIN_SECONDS:
            cases = None  # free the previous inputs, so memory holds one set of them
            t0 = probe.clock()
            cases = setup(args.seed)
            setups.append((t0, probe.clock()))
        untraced = run_passes(cases, False, budget, probe)
        traced = run_passes(cases, True, budget, probe) if args.trace else []
    passes = untraced + traced
    setup_times = [reference_time(probe, *window) for window in setups]

    if args.trace:
        metrics, declared = per_layer(untraced, traced, BOUNDARIES, COUNTS, probe), spec["per_layer"]
    else:
        metrics, declared = end_to_end(setup_times, untraced, probe), spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        _fail(f"metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
              "are computed but not declared in BENCHMARK.json, or the reverse")

    attempted = sum(h.attempted for h in passes)
    failed = sum(h.failed for h in passes)
    unexpected = [u for h in passes for u in h.unexpected]
    outcomes = [tuple(h.outcomes) for h in passes]
    reproducible = all(o == outcomes[0] for o in outcomes)
    verdicts = len(untraced[0].window)
    info = {
        "workload": args.workload,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "verdicts": verdicts,
        "tail_percentile": 100 * tail_quantile(verdicts),
        "failed_share": failed / attempted,
        "known_defect_failures": sum(h.known_defects for h in passes),
        "unexpected_failures": unexpected[:5],
        "reproducible": reproducible,
        "speed_factor": speed_quartiles(probe),
        "env": environment(root, src, args.seed),
    }
    if args.trace:
        out_dir = os.path.join(root, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({**info, "layers": layer_times(traced[0].spans, probe.factor),
                       "span_fields": ["name", "start", "end", "parent", "input_id"],
                       "spans": [h.spans for h in traced]}, fh)
        info["trace_file"] = os.path.relpath(path, root)
    print(json.dumps(info))
    print(json.dumps({
        "correct": attempted >= 1 and not unexpected and reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
