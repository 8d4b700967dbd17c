"""Smartpick repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scale-replay --seed 1 \
        --seconds 12 --trace 0

Workloads: ``scale-replay``, ``decide-rpc`` and ``contended-replay`` (see
``NOTES.md``).  With ``--trace 0`` the last stdout line carries every
end-to-end metric; with ``--trace 1`` the run measures an untraced and a
traced phase of ``--seconds / 2`` each and carries the per-layer table.
End-to-end times are scaled to nominal host speed (``hostspeed.py``).
Earlier stdout lines record the host and engine, the unscaled timings
(``measured``, untraced runs), and an ``exact`` line whose digest covers
the simulated results and per-layer counts, which must be identical for
every run with the same seed.

Any failed correctness check prints the problems to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("scale-replay", "decide-rpc", "contended-replay")
#: Stated input sizes: arrivals per replay job, requests in the stream.
SIZES = {
    "full": {"scale-replay": 10_000, "contended-replay": 6_000,
             "decide-rpc": 540},
    "tiny": {"scale-replay": 400, "contended-replay": 300, "decide-rpc": 32},
}
#: Host-speed samples taken right before and right after each set-up.
SAMPLES_AROUND_SETUP = 3


def pin_environment() -> None:
    """One BLAS/OpenMP thread, and a kernel cache inside the checkout."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"
    os.environ["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def expected_engine() -> str:
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        return "numpy"
    if any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        return "native-c"
    return "numpy"


def make_workload(name: str, size: str):
    import workloads

    n = SIZES[size][name]
    if name == "scale-replay":
        return workloads.ScaleReplay(n)
    if name == "contended-replay":
        return workloads.ContendedReplay(n)
    if size == "tiny":
        return workloads.DecideRpc(n, exact_prefix=16, configs_per_query=4)
    return workloads.DecideRpc(n)


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict, list[str]]:
    """Run one workload; returns ``(result, exact, problems)``.

    Set-ups run one after another and each is dropped before the next
    starts, so only the last one, which the timed phases use, is alive
    when they run.  The first one also yields the workload's reference
    for the correctness check.
    """
    import hostspeed
    import layers
    import workloads
    from tracer import LayerTracer

    workload = make_workload(name, size)
    train = LayerTracer(layers.TRAIN_HOOKS)
    n_setups = workload.n_traced_setups if trace else workload.n_setups
    setup_s = []
    setup_measured_s = []
    state = reference = None
    if trace:
        train.install()
    try:
        for index in range(n_setups):
            if state is not None:
                workload.close(state)
                state = None
                gc.collect()
            before = hostspeed.samples(SAMPLES_AROUND_SETUP)
            started = time.perf_counter()
            state = workload.setup(seed)
            elapsed = time.perf_counter() - started
            after = hostspeed.samples(SAMPLES_AROUND_SETUP)
            setup_measured_s.append(elapsed)
            setup_s.append(elapsed * hostspeed.scale(before + after))
            if index == 0:
                reference = workload.reference(state)
    finally:
        train.uninstall()

    tracer = layers.make_tracer(record_spans=trace and workload.spans)
    try:
        if trace:
            base = workload.run(state, seconds / 2.0)
            with tracer:
                phase = workload.run(state, seconds / 2.0, tracer)
            phases = [base, phase]
        else:
            phase = workload.run(state, seconds)
            phases = [phase]
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        problems = workload.check(state, reference, phases)
    finally:
        workload.close(state)

    for each in phases:
        problems += each.problems
    outcome = workload.outcome(phases)
    exact: dict = {"outcome": outcome}
    if trace:
        counts = phase.counts[0]
        if any(c != counts for c in phase.counts):
            problems.append("per-layer counts differ between units")
        exact["counts"] = counts

    attempted = sum(each.units for each in phases)
    failed = sum(each.failed for each in phases)
    if trace:
        overhead_pct = 100.0 * (
            (math.fsum(phase.scaled_ms) / phase.units)
            / (math.fsum(base.scaled_ms) / base.units)
            - 1.0
        )
        table = layers.per_layer_metrics(
            tracer, phase.wall_s, counts, workload.exact_units(state),
            phase.request_ms, overhead_pct, outcome, train,
        )
        if tracer.record_spans:
            os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
            tracer.write_spans(
                os.path.join(BUILD, "spans", f"{name}-seed{seed}.jsonl")
            )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "arrivals_per_s": {
                "value": workload.rate(state, phase), "unit": "1/s"
            },
            "request_ms_p50": {
                "value": workloads.percentile(phase.scaled_ms, 50),
                "unit": "ms",
            },
            "request_ms_p90": {
                "value": workload.tail_ms(phase), "unit": "ms"
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "availability": {
                "value": (attempted - failed) / attempted,
                "unit": "ratio",
            },
            "slo_attainment": {
                "value": outcome["slo_attainment"], "unit": "ratio"
            },
            "sim_latency_p50_s": {
                "value": outcome["sim_latency_p50_s"], "unit": "s"
            },
            "sim_latency_p99_s": {
                "value": outcome["sim_latency_p99_s"], "unit": "s"
            },
            "sim_cost_per_arrival_usd": {
                "value": outcome["sim_cost_per_arrival_usd"], "unit": "usd"
            },
        }
        # The unscaled timings, for the record; the result line is last.
        print(json.dumps({"measured": {
            "setup_s": setup_measured_s,
            "request_ms_p50": workloads.percentile(phase.request_ms, 50),
            "host_scale_p50": statistics.median(
                s / m for s, m in zip(phase.scaled_ms, phase.request_ms)
            ),
        }}), flush=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, exact, problems


def exact_digest(exact: dict) -> str:
    canonical = json.dumps(exact, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="input size; 'tiny' is for self-tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2

    pin_environment()
    # Imports and the native kernel build happen before any timer.
    import numpy as np

    import hostspeed
    import workloads  # noqa: F401
    from repro.ml.forest_native import kernel_name

    hostspeed.sample()
    engine = kernel_name()
    print(json.dumps({"env": {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "engine": engine,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }}), flush=True)
    if engine != expected_engine():
        print(f"inference engine {engine!r} but {expected_engine()!r} "
              "expected (native kernel build failed?)", file=sys.stderr)
        return 1

    result, exact, problems = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    print(json.dumps({"exact": exact_digest(exact), **exact}), flush=True)
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
