"""Repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload base64-search --seed 1 \\
        --seconds 20 --trace 0

Workloads are defined in ``workloads.py``. With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
alternates untraced and traced sessions (``trace=True, events=True``),
adds direct probes of each layer, and reports the per-layer metrics.
Inputs are generated from the seed once per (workload, seed, size) in a
separate process and cached under ``.perfbench_cache/`` at the root of
the checkout. The last line of standard output is the JSON result; the
exit code is 0 only when every output was correct and every workload
took its named path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")

#: Ambient settings that would change the program under test.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_DECODER", "REPRO_MAX_MEMORY")

#: Opens timed on their own before the sessions; every session's open
#: adds one more sample to ``setup_s``.
SETUP_OPENS = 5


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(HERE, "metrics.json")) as handle:
        return {name: spec["unit"]
                for name, spec in json.load(handle)[kind].items()}


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare-only", action="store_true",
                        help="build the cached inputs and exit")
    return parser.parse_args(argv)


def run_sessions(workload, inputs, url, expected, seed, seconds, trace):
    """Sessions until the next one would overrun ``seconds``. With
    ``trace`` they alternate untraced/traced, at least one of each."""
    from workloads import run_session

    sessions = []
    started = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(trace and len(sessions) % 2)
        rng = random.Random(f"{workload.name}/{seed}/{len(sessions)}")
        begun = time.perf_counter()
        sessions.append(run_session(
            workload, inputs, url=url, expected=expected, rng=rng,
            traced=traced,
        ))
        longest = max(longest, time.perf_counter() - begun)
        if trace and len(sessions) < 2:
            continue
        if time.perf_counter() - started + longest > seconds:
            return sessions


def end_to_end(sessions, setup_samples) -> dict:
    ops = [seconds for session in sessions for seconds in session.op_seconds]
    ops = ops or [0.0]
    walls = sum(session.wall_s for session in sessions)
    return {
        "decompress_mb_s": statistics.median(
            session.nbytes / session.wall_s / 1e6 for session in sessions
        ),
        "seek_p50_ms": percentile(ops, 0.50) * 1e3,
        "seek_p99_ms": percentile(ops, 0.99) * 1e3,
        "seeks_per_s": sum(len(s.op_seconds) for s in sessions) / walls,
        "setup_s": statistics.median(setup_samples),
        # Per session, so the figure does not grow with the number of
        # sessions a faster program fits into the run.
        "peak_rss_mb": statistics.median(
            session.self_peak_kb + session.worker_peak_kb
            for session in sessions
        ) * 1024 / 1e6,
    }


def per_layer(workload, inputs, url, sessions, problems) -> dict:
    from layers import MIN_ATTRIBUTED, direct_probes, session_metrics

    traced = [session for session in sessions if session.explain]
    plain = [session for session in sessions if not session.explain]
    samples = [session_metrics(session, inputs) for session in traced]
    metrics = {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }
    attributed = min(sample["telemetry.attributed_fraction"]
                     for sample in samples)
    metrics["telemetry.attributed_fraction"] = attributed
    if attributed < MIN_ATTRIBUTED:
        problems.append(
            f"explain() attributed {attributed:.4f} of read wall time, "
            f"{MIN_ATTRIBUTED - attributed:.4f} short of {MIN_ATTRIBUTED}"
        )
    metrics["telemetry.trace_overhead"] = (
        statistics.median(session.wall_s for session in traced)
        / statistics.median(session.wall_s for session in plain) - 1.0
    )
    if workload.path != "search":
        for name in ("blockfinder.candidates_tested",
                     "deflate.markers_replaced"):
            if metrics[name] != 0:
                problems.append(f"{name} is {metrics[name]}, not 0")
    if url is not None and not metrics["io.read_amplification"] > 0:
        problems.append("no wire traffic recorded on a remote workload")
    metrics.update(direct_probes(workload, inputs, url))
    return metrics


def describe_environment(workload) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cleared_env": list(PINNED_ENV),
        "workload": workload.describe(),
    }


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/repro; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    args = parse_args(argv)

    import inputs as bench_inputs
    from workloads import (
        WORKLOADS,
        path_violations,
        run_session,
        time_open,
    )

    workload = WORKLOADS[args.workload]
    if args.prepare_only:
        bench_inputs.prepare(workload, args.seed, CACHE)
        return 0
    if not bench_inputs.is_prepared(workload, args.seed, CACHE):
        # Generate in a child so this process's memory does not depend
        # on whether the cache was warm.
        subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload.name, "--seed", str(args.seed),
             "--prepare-only"],
            check=True, timeout=600,
        )
    inputs = bench_inputs.prepare(workload, args.seed, CACHE)
    expected = (
        bench_inputs.expected_bytes(inputs)
        if workload.random_access else None
    )
    print(f"perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("perfbench-env: " + json.dumps(describe_environment(workload)))

    server = None
    url = None
    if workload.remote_latency_s is not None:
        from repro.io.fault_server import FaultHTTPServer

        with open(inputs.archive, "rb") as handle:
            server = FaultHTTPServer(handle.read(),
                                     latency=workload.remote_latency_s)
        url = server.url
    try:
        # Warm-up: imports and lazy tables, outside every measurement.
        run_session(workload, inputs, url=url, expected=expected,
                    rng=random.Random(args.seed),
                    limit=20 if workload.random_access else 2)
        setup_samples = [time_open(workload, inputs, url)
                         for _ in range(SETUP_OPENS)]
        sessions = run_sessions(workload, inputs, url, expected, args.seed,
                                args.seconds, args.trace)
        setup_samples += [session.setup_s for session in sessions]

        problems = []
        for session in sessions:
            problems += session.errors
            problems += path_violations(workload, session.stats)
        if args.trace:
            metrics = per_layer(workload, inputs, url, sessions, problems)
            last_traced = [s for s in sessions if s.reader is not None][-1]
            trace_dir = os.path.join(CACHE, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            last_traced.reader.save_trace(os.path.join(
                trace_dir, f"{workload.name}-seed{args.seed}.trace.json"
            ))
        else:
            metrics = end_to_end(sessions, setup_samples)
    finally:
        if server is not None:
            server.close()

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics.json and the measured metrics differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    attempted = sum(session.attempted for session in sessions)
    failed = sum(session.failed for session in sessions)
    ops = sum(len(session.op_seconds) for session in sessions)
    print(f"sessions={len(sessions)} setup_samples={len(setup_samples)} "
          f"latency_samples={ops} attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:g}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
