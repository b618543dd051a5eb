"""The branchlab benchmark command.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

Runs one workload (see workloads.py) in this process: the program's set-up
(instance generation) five or more times, until the set-ups add up to a
second, then whole rounds of the same operations for as long as another
round still fits in --seconds (at least one), each followed by more set-ups
for another 0.4 seconds. Every round's outputs are checked. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SETUPS = 5                 # set-ups before the first round, at least ...
SETUP_SECONDS = 1.0        # ... and more, until they take this long together
ROUND_SETUP_SECONDS = 0.4  # set-ups after each round, at least one, until they take this long


def cap_blas_threads() -> None:
    """At most one BLAS thread per CPU this process may run on; set before
    numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            os.environ[var] = str(cpus)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "solve-small", "solve-wide"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(workload, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check ``workload`` (one of workloads.WORKLOADS) and
    return the result object the command prints."""
    import spans
    import workloads

    work = BENCH / "_runs" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if trace else None
    if tracer:
        spans.install(tracer)

    # Set-up time is sampled before the first round and after every round,
    # and reported as the median: a set-up takes 2 to 60 ms, and the
    # machine's speed drifts by 2x over seconds, so samples taken in one
    # stretch at the start moved the median by 2x from run to run.
    setup_s = []

    def set_up(root, least: int, seconds_more: float):
        samples = len(setup_s)
        while len(setup_s) - samples < least or sum(setup_s[samples:]) < seconds_more:
            if tracer:
                tracer.begin("setup")
            inputs, took = workload.setup(seed, root)
            setup_s.append(took)
            if tracer:
                tracer.end()
        return inputs

    inputs = workload.reference(set_up(work, SETUPS, SETUP_SECONDS))

    verdicts, op_seconds = [], []
    untraced_s = None
    if tracer:
        # one untraced round first: traced minus untraced is the tracing overhead
        tracer.restore()
        out = workload.run(inputs)
        untraced_s = sum(out.op_seconds)
        verdicts.append(workload.check(inputs, out))
        spans.install(tracer)

    start = perf_counter()
    while True:
        t = perf_counter()
        if tracer:
            tracer.begin("round")
        out = workload.run(inputs)
        if tracer:
            tracer.end()
        verdicts.append(workload.check(inputs, out))
        op_seconds.append(out.op_seconds)
        set_up(work / "setups", 1, ROUND_SETUP_SECONDS)    # samples only: inputs unchanged
        last = perf_counter() - t
        if perf_counter() - start + last > seconds:
            break
    if tracer:
        tracer.restore()
        tracer.write(BENCH / "_traces" / f"{name}.json")
    shutil.rmtree(work, ignore_errors=True)

    problems = [p for v in verdicts for p in v.problems]
    first = verdicts[0].figures
    for k, v in enumerate(verdicts[1:], start=2):
        for key, value in first.items():
            if key in ("pseudo_clock", "gap_integral") and v.figures.get(key) != value:
                problems.append(f"round {k}: {key} {v.figures.get(key)!r} differs from "
                                f"round 1's {value!r}")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print("round seconds: " + " ".join(f"{sum(s):.3f}" for s in op_seconds), file=sys.stderr)
    # a round's time: each operation at its median over the rounds, summed
    round_s = sum(statistics.median(op) for op in zip(*op_seconds))

    if tracer:
        figures = spans.layer_metrics(tracer)
        # 0 on the solve workloads, which make no artifacts
        figures.update({k: first.get(k, 0.0) for k in workloads.ARTIFACT_FIGURES})
        figures["trace.overhead_s"] = round_s - untraced_s
    else:
        figures = {
            "setup_s": statistics.median(setup_s),
            "round_s": round_s,
            "pseudo_clock": first["pseudo_clock"],
            "gap_integral": first["gap_integral"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    metrics = {
        k: {"value": float(v) if math.isfinite(v) else None, "unit": units[k]}
        for k, v in figures.items()
    }
    correct = not problems and all(m["value"] is not None for m in metrics.values())
    return {
        "correct": correct,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "branchlab" / "__init__.py").is_file():
        print(f"error: no branchlab sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    result = measure(workloads.WORKLOADS[args.workload](), args.workload,
                     args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
