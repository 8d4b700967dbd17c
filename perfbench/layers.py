"""Which public entry points make up each layer, and the per-layer table.

Layers are named after the ``repro`` modules they wrap.  Time spent in
pool or plan callbacks that the simulator fires directly (boot
completions, keep-alive expiries, task wave events) is simulator self
time; a call into a wrapped method from any layer is that method's
layer's time.
"""

from __future__ import annotations

import numpy as np

from tracer import Hook, LayerTracer


def _one(args, result) -> int:
    return 1


def _fired(args, result) -> int:
    return 1 if result else 0


def _batch(args, result) -> int:
    return len(args[1])


def _bo_evaluations(args, result) -> int:
    return result.n_evaluations


_POOL = "repro.cloud.pool:ClusterPool."
_SIM = "repro.engine.simulator:Simulator."
_PLAN = "repro.engine.plan:PlanRunner."

HOOKS = (
    Hook("repro.core.serving:ServingSimulator.replay_multi", "serving"),
    Hook(_SIM + "step", "simulator", items=_fired),
    Hook(_SIM + "run", "simulator"),
    Hook(_SIM + "run_before", "simulator"),
    Hook(_SIM + "run_until", "simulator"),
    *(
        Hook(_POOL + method, "pool")
        for method in (
            "acquire", "acquire_many", "release", "release_instance",
            "revoke_lease", "kill_instance", "cancel_pending_boot",
            "shutdown",
        )
    ),
    Hook(_POOL + "apply_plan", "epochs"),
    Hook("repro.core.epochs:FleetPlanner.on_epoch_end", "epochs"),
    Hook("repro.core.epochs:FleetPlanner.observe_arrival", "epochs"),
    Hook("repro.core.epochs:FleetPlanner.observe_duration", "epochs"),
    Hook(_PLAN + "begin", "plan"),
    Hook(_PLAN + "bind", "plan"),
    Hook(_PLAN + "submit", "plan"),
    # The wave simulation runs when the pool grants the lease; without
    # this hook it would count as pool time.
    Hook(_PLAN + "_on_granted", "plan"),
    # Relay arrivals fall back from plans to per-query schedulers.
    Hook("repro.core.serving:launch_query", "plan"),
    Hook("repro.core.serving:ServingStream.observe", "sketches"),
    Hook("repro.core.serving:ServingStream.observe_columns", "sketches"),
    Hook("repro.core.serving:ServingStream.observe_drop", "sketches"),
    Hook("repro.core.job:JobInitializer.finalize", "monitor"),
    Hook("repro.core.job:JobInitializer.decide", "predictor"),
    Hook("repro.core.job:JobInitializer.decide_many", "predictor"),
    Hook("repro.core.predictor:WorkloadPredictor.determine", "predictor",
         items=_one),
    Hook("repro.core.predictor:WorkloadPredictor.determine_batch",
         "predictor", items=_batch),
    Hook("repro.ml.bayesian_optimizer:BayesianOptimizer.maximize", "ml.bo",
         items=_bo_evaluations),
    Hook("repro.ml.random_forest:RandomForestRegressor.predict", "ml.forest"),
    Hook("repro.core.rpc:PredictionClient.determine", "rpc.client",
         root=True),
    Hook("repro.core.rpc:PredictionClient.call", "rpc.client"),
    Hook("repro.core.rpc:PredictionServer.dispatch", "rpc.dispatch"),
)

#: Set-up layers, traced while the systems bootstrap.
TRAIN_HOOKS = (
    Hook("repro.core.smartpick:Smartpick.bootstrap", "train"),
    Hook("repro.core.predictor:WorkloadPredictor.fit", "train.fit"),
)

SELF_LAYERS = tuple(dict.fromkeys(hook.layer for hook in HOOKS))
CALL_LAYERS = ("pool", "plan", "sketches", "monitor", "predictor")

#: Per-layer metrics read from the replay outcome (zero for decide-rpc).
OUTCOME_METRICS = {
    "epochs.planned": "count",
    "pool.prewarms": "count",
    "pool.warm_start_rate": "ratio",
    "pool.queued_ratio": "ratio",
    "pool.quota_deferrals": "count",
    "pool.leases_revoked": "count",
    "pool.coop_preemptions": "count",
    "faults.retries": "count",
    "serving.batched_ratio": "ratio",
    "sim.prediction_error_pct": "%",
}


def make_tracer(record_spans: bool = False) -> LayerTracer:
    return LayerTracer(
        HOOKS,
        keep_durations=("predictor", "rpc.dispatch"),
        record_spans=record_spans,
    )


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def per_layer_metrics(
    tracer: LayerTracer,
    wall_s: float,
    counts: dict,
    units: int,
    request_ms: list,
    overhead_pct: float,
    outcome: dict,
    train: LayerTracer,
) -> dict[str, tuple[float, str]]:
    """The traced run's table: ``{name: (value, unit)}``.

    ``counts`` are the exact per-unit layer counts (one replay job, or
    the decide-rpc request prefix) and ``units`` the arrivals or
    requests they cover; times cover the whole traced phase.
    """
    metrics: dict[str, tuple[float, str]] = {
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.unaccounted_pct": (
            100.0 * (wall_s - tracer.total_self_s()) / wall_s, "%"
        ),
    }
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s(layer), "s")
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls"] = (counts[layer][0], "count")
    metrics["simulator.events"] = (counts["simulator"][1], "count")
    metrics["predictor.ms_p50"] = (
        _median(tracer.durations_ms("predictor")), "ms"
    )
    metrics["predictor.decided_ratio"] = (
        counts["predictor"][1] / units, "ratio"
    )
    bo_calls, bo_evaluations = counts["ml.bo"]
    metrics["predictor.bo_evals_per_call"] = (
        bo_evaluations / bo_calls if bo_calls else 0.0, "count"
    )
    metrics["ml.bo_s"] = (tracer.incl_s("ml.bo"), "s")
    metrics["ml.forest_predict_s"] = (tracer.incl_s("ml.forest"), "s")
    dispatch_ms = tracer.durations_ms("rpc.dispatch")
    metrics["rpc.dispatch_ms_p50"] = (_median(dispatch_ms), "ms")
    overhead = (
        [rtt - d for rtt, d in zip(request_ms, dispatch_ms)]
        if len(dispatch_ms) == len(request_ms)
        else []
    )
    metrics["rpc.overhead_ms_p50"] = (_median(overhead), "ms")
    bootstraps = max(train.calls("train"), 1)
    metrics["train.bootstrap_s"] = (train.incl_s("train") / bootstraps, "s")
    metrics["train.fit_s"] = (train.incl_s("train.fit") / bootstraps, "s")
    for name, unit in OUTCOME_METRICS.items():
        metrics[name] = (outcome.get(name, 0), unit)
    return metrics
