"""The benchmark's three workloads: inputs, set-up, timed unit, checks.

Every workload turns ``--seed`` into its inputs (trace or request stream)
and nothing else: the Smartpick system under test is always bootstrapped
from :data:`SYSTEM_SEED`, so seeds vary the traffic, not the deployment.
See ``NOTES.md`` next to this file for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import math
import statistics
import time

import numpy as np

import hostspeed
from repro import Smartpick, SmartpickProperties
from repro.cloud.faults import FaultPlan
from repro.cloud.pool import (
    DeadlineAwareGrant,
    FixedKeepAlive,
    PoolConfig,
    TenantRegistry,
    TenantSpec,
)
from repro.core.epochs import EpochForecaster, FleetPlanner
from repro.core.forecast import PredictiveKeepAlive
from repro.core.rpc import PredictionClient, PredictionServer, RpcError
from repro.core.serving import ServingReport, ServingSimulator
from repro.engine import RetryPolicy
from repro.workloads import get_query
from repro.workloads.synthetic import make_scale_trace
from repro.workloads.tpcds import (
    TPCDS_ALIEN_QUERY_IDS,
    TPCDS_TRAINING_QUERY_IDS,
)

#: The replay fast path, set in one place: when the serving layer keeps
#: only one engine and one submission convention, this dict goes.
FAST_PATH = {"engine": "columnar", "submission": "vector"}

#: Seed of every bootstrapped system (the deployment under test).
SYSTEM_SEED = 1207


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def block_p90(values: list, size: int) -> float:
    """p90 within each run of ``size`` consecutive values, median over them.

    A host stall that hits one block does not set the run's tail.  The
    last block may be short, so every value counts.
    """
    return float(np.median([
        percentile(values[start:start + size], 90)
        for start in range(0, len(values), size)
    ]))


@dataclasses.dataclass
class Phase:
    """What one timed phase measured.

    ``units`` counts arrivals replayed or requests sent; ``request_ms``
    holds one client-observed wall time per request (per replay job for
    the replays) and ``scaled_ms`` the same times at nominal host speed
    (see ``hostspeed.py``).  ``wall_s`` is the measured time of the
    units alone, without the host-speed samples between them.
    ``outcomes`` holds one exact, timing-free outcome per replay job (or
    per request), and ``counts`` the per-unit layer counts when the
    phase ran traced.
    """

    units: int = 0
    failed: int = 0
    wall_s: float = 0.0
    request_ms: list = dataclasses.field(default_factory=list)
    scaled_ms: list = dataclasses.field(default_factory=list)
    outcomes: list = dataclasses.field(default_factory=list)
    counts: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------


def replay_violations(report: ServingReport, n_arrivals: int) -> list[str]:
    """The serving identities every replay report must satisfy."""
    problems = []
    bills = report.chargeback()
    total = report.total_cost_dollars
    if abs(math.fsum(bills.values()) - total) > 1e-9 * max(total, 1.0):
        problems.append("chargeback does not partition the total bill")
    stats = report.pool_stats
    if abs(
        stats.instance_seconds - (stats.leased_seconds + stats.idle_seconds)
    ) > 1e-6 + 1e-9 * stats.instance_seconds:
        problems.append("instance-seconds != leased + idle")
    if report.n_queries + report.n_failed + report.n_shed != n_arrivals:
        problems.append("served + failed + shed != arrivals")
    return problems


def replay_outcome(report: ServingReport, n_arrivals: int) -> dict:
    """Simulated results and pool/serving counts of one replay (exact)."""
    stats = report.pool_stats
    served = report.served
    if served:
        error_pct = 100.0 * math.fsum(
            abs(q.outcome.actual_seconds - q.outcome.predicted_seconds)
            / q.outcome.actual_seconds
            for q in served
        ) / len(served)
    else:
        error_pct = 0.0
    return {
        "availability": report.n_queries / n_arrivals,
        "slo_attainment": report.slo_attainment,
        "sim_latency_p50_s": report.latency_percentile(50),
        "sim_latency_p99_s": report.latency_percentile(99),
        "sim_cost_per_arrival_usd": report.total_cost_dollars / n_arrivals,
        "sim.prediction_error_pct": error_pct,
        "pool.warm_start_rate": stats.warm_start_rate,
        "pool.queued_ratio": stats.leases_queued / max(stats.leases_granted, 1),
        "pool.quota_deferrals": stats.quota_deferrals,
        "pool.leases_revoked": stats.leases_revoked,
        "pool.coop_preemptions": stats.coop_preemptions,
        "pool.prewarms": stats.prewarms,
        "faults.retries": report.n_retries_total,
        "serving.batched_ratio": report.batched_decision_rate,
        "epochs.planned": report.epochs_planned,
    }


@dataclasses.dataclass
class ReplaySetup:
    seed: int
    pairs: list
    n_arrivals: int
    system: Smartpick


#: Host-speed samples taken between two replay jobs.
SAMPLES_BETWEEN_JOBS = 3


class ReplayWorkload:
    """A trace replayed through ``ServingSimulator.replay_multi``.

    Each replay job runs on a deep copy of the bootstrapped system and a
    freshly built simulator, so every job of a run -- traced or not --
    starts from the same state and must produce the same report.
    """

    #: Set-ups per untraced and per traced run; ``setup_s`` is their
    #: median.
    n_setups = 5
    n_traced_setups = 1
    #: Whether a traced run writes the span JSONL.
    spans = False
    knob = 0.3
    mode = "hybrid"
    query_classes: tuple[str, ...] = ()

    def __init__(self, n_arrivals: int) -> None:
        self.n_arrivals = n_arrivals

    def make_trace(self, seed: int) -> list:
        raise NotImplementedError

    def make_simulator(self, system: Smartpick, seed: int) -> ServingSimulator:
        raise NotImplementedError

    def setup(self, seed: int) -> ReplaySetup:
        pairs = self.make_trace(seed)
        system = Smartpick(
            SmartpickProperties(
                provider="AWS",
                relay=True,
                error_difference_trigger=1e9,
                history_window=256,
            ),
            max_vm=8,
            max_sl=8,
            rng=SYSTEM_SEED,
        )
        system.bootstrap(
            [get_query(q, input_gb=16.0) for q in self.query_classes],
            n_configs_per_query=4,
        )
        self.make_simulator(system, seed)  # construction counts as set-up
        n_arrivals = sum(len(trace) for _, trace in pairs)
        return ReplaySetup(
            seed=seed, pairs=pairs, n_arrivals=n_arrivals, system=system
        )

    def reference(self, state: ReplaySetup) -> None:
        """Nothing to compare against: every job must match the first."""
        return None

    def run(
        self, state: ReplaySetup, seconds: float, tracer=None
    ) -> Phase:
        """Replay jobs back to back until ``seconds`` of replay time.

        Each job's time is scaled by the host-speed samples taken right
        before and right after it.
        """
        phase = Phase()
        speed = hostspeed.samples(SAMPLES_BETWEEN_JOBS)
        while not phase.outcomes or phase.wall_s < seconds:
            simulator = self.make_simulator(
                copy.deepcopy(state.system), state.seed
            )
            gc.collect()
            before = tracer.counts() if tracer is not None else None
            started = time.perf_counter()
            report = simulator.replay_multi(
                state.pairs, knob=self.knob, mode=self.mode
            )
            elapsed = time.perf_counter() - started
            if tracer is not None:
                after = tracer.counts()
                phase.counts.append({
                    layer: (calls - before[layer][0], items - before[layer][1])
                    for layer, (calls, items) in after.items()
                })
            speed_after = hostspeed.samples(SAMPLES_BETWEEN_JOBS)
            phase.scaled_ms.append(
                elapsed * 1e3 * hostspeed.scale(speed + speed_after)
            )
            speed = speed_after
            phase.wall_s += elapsed
            phase.units += state.n_arrivals
            phase.failed += report.n_failed + report.n_shed
            phase.request_ms.append(elapsed * 1e3)
            phase.outcomes.append(replay_outcome(report, state.n_arrivals))
            phase.problems += replay_violations(report, state.n_arrivals)
        return phase

    def check(self, state: ReplaySetup, reference: None,
              phases: list[Phase]) -> list[str]:
        first = phases[0].outcomes[0]
        if any(o != first for phase in phases for o in phase.outcomes):
            return ["replay jobs of one run differ"]
        return []

    def outcome(self, phases: list[Phase]) -> dict:
        return phases[0].outcomes[0]

    def exact_units(self, state: ReplaySetup) -> int:
        """Arrivals covered by a job's exact per-layer counts."""
        return state.n_arrivals

    def rate(self, state: ReplaySetup, phase: Phase) -> float:
        # Median replay job: one slow job does not move the rate.
        return state.n_arrivals / (statistics.median(phase.scaled_ms) / 1e3)

    def tail_ms(self, phase: Phase) -> float:
        # Replay jobs of a run are identical work: the tail of two jobs.
        return block_p90(phase.scaled_ms, 2)

    def close(self, state: ReplaySetup) -> None:
        pass


class ScaleReplay(ReplayWorkload):
    """8-tenant diurnal population of short queries on a wide VM pool."""

    mode = "vm-only"
    query_classes = (
        "uniform-1x1s", "uniform-2x1s", "uniform-2x2s", "uniform-4x1s",
    )

    def make_trace(self, seed: int) -> list:
        return make_scale_trace(
            self.n_arrivals,
            query_classes=self.query_classes,
            class_weights=(4.0, 3.0, 2.0, 1.0),
            input_gb_octaves=(8.0, 16.0, 32.0),
            n_bursts=0,
            rng=seed,
        )

    def make_simulator(self, system: Smartpick, seed: int) -> ServingSimulator:
        return ServingSimulator(
            system,
            slo_seconds=300.0,
            pool_config=PoolConfig(max_vms=4096, max_sls=0),
            autoscaler=FixedKeepAlive(30.0, 7.5),
            keep_queries=False,
            decision_reuse=True,
            batch_window_s=0.0,
            **FAST_PATH,
        )


#: contended-replay tenants: two interactive tenants with a latency SLO,
#: four batch tenants with leased-worker quotas.
CONTENDED_TENANTS = tuple(
    TenantSpec(f"tenant-{i:02d}", weight=2.0, slo_latency_s=90.0,
               tier="interactive")
    if i < 2
    else TenantSpec(f"tenant-{i:02d}", max_leased_vms=4, max_leased_sls=8,
                    tier="batch")
    for i in range(6)
)


class ContendedReplay(ReplayWorkload):
    """SLO and quota tenants over a small hybrid pool with faults."""

    mode = "hybrid"
    query_classes = (
        "uniform-2x1s", "uniform-4x2s", "uniform-8x1s", "uniform-4x4s",
    )
    #: Arrivals per simulated hour: the pool queues a fifth of its leases
    #: without a backlog that grows (850/h saturates it).
    arrivals_per_hour = 600.0

    def make_trace(self, seed: int) -> list:
        return make_scale_trace(
            self.n_arrivals,
            duration_s=3600.0 * self.n_arrivals / self.arrivals_per_hour,
            query_classes=self.query_classes,
            n_tenants=len(CONTENDED_TENANTS),
            tenant_concentration=20.0,
            input_gb_octaves=(8.0, 16.0, 32.0),
            n_bursts=0,
            rng=seed,
        )

    def make_simulator(self, system: Smartpick, seed: int) -> ServingSimulator:
        return ServingSimulator(
            system,
            slo_seconds=300.0,
            pool_config=PoolConfig(max_vms=12, max_sls=24),
            autoscaler=PredictiveKeepAlive(
                headroom=2.0, max_keep_alive_s=300.0
            ),
            batch_window_s=2.0,
            tenants=TenantRegistry(CONTENDED_TENANTS),
            grant_policy=DeadlineAwareGrant(
                preempt=True, preempt_slack_s=30.0
            ),
            keep_queries=True,
            retry_policy=RetryPolicy(max_retries=4, backoff_base_s=2.0),
            fault_plan=FaultPlan(
                seed=seed,
                sl_failure_rate=0.02,
                vm_preemptions_per_hour=0.5,
                boot_failure_rate=0.01,
            ),
            quota_priced_sizing=True,
            planner=FleetPlanner(
                epoch_s=900.0,
                forecaster=EpochForecaster(
                    alpha=0.5, season_length=96, seasonal_weight=0.5
                ),
                max_prewarm_vms=4,
                max_prewarm_sls=8,
            ),
            **FAST_PATH,
        )


# ---------------------------------------------------------------------------
# Prediction service over RPC
# ---------------------------------------------------------------------------

#: decide-rpc request mix: the stream is a sequence of shuffled blocks,
#: each holding every (query, input size, mode, knob) combination once,
#: so the mix of any whole block is the same for every seed.
QUERY_IDS = TPCDS_TRAINING_QUERY_IDS + TPCDS_ALIEN_QUERY_IDS
INPUT_GB = (25.0, 100.0, 400.0)
MODES = ("hybrid", "vm-only", "sl-only")
KNOBS = (0.0, 0.5, 1.0)
BLOCK = tuple(
    (query_id, input_gb, mode, knob)
    for query_id in QUERY_IDS
    for input_gb in INPUT_GB
    for mode in MODES
    for knob in KNOBS
)
#: A decision meets the SLO when its predicted completion time does.
DECIDE_SLO_S = 90.0


#: decide-rpc takes a host-speed sample after every this many requests.
REQUESTS_PER_SAMPLE = 20


@dataclasses.dataclass
class RpcSetup:
    system: Smartpick
    requests: list
    server: PredictionServer
    client: PredictionClient
    rng_state: dict


@dataclasses.dataclass(frozen=True)
class TwinReference:
    """What an in-process twin decided over the request prefix."""

    rng_state: dict
    requests: list
    decisions: list


class DecideRpc:
    """One closed-loop client asking a ``PredictionServer`` to size queries.

    The server's model is bootstrapped on the paper's TPC-DS training
    set.  Every phase restores the predictor's generator to its
    post-bootstrap state and replays the request stream from its start,
    so request ``i`` gets the same decision in every phase.  The first
    set-up of a run serves as the in-process twin: before it is dropped,
    its own ``WorkloadPredictor.determine`` decides the request prefix,
    and the server of the last set-up must answer the same.
    """

    #: Set-ups per run: the twin, then the served system.
    n_setups = 2
    n_traced_setups = 2
    spans = True

    def __init__(
        self,
        n_requests: int = 2 * len(BLOCK),
        exact_prefix: int = len(BLOCK),
        configs_per_query: int = 20,
    ) -> None:
        self.n_requests = n_requests
        self.exact_prefix = exact_prefix
        self.configs_per_query = configs_per_query

    def setup(self, seed: int) -> RpcSetup:
        system = Smartpick(
            SmartpickProperties(provider="AWS", relay=True),
            max_vm=12,
            max_sl=12,
            rng=SYSTEM_SEED,
        )
        system.bootstrap(
            [get_query(q) for q in TPCDS_TRAINING_QUERY_IDS],
            n_configs_per_query=self.configs_per_query,
        )
        rng = np.random.default_rng(seed)
        requests = []
        while len(requests) < self.n_requests:
            for index in rng.permutation(len(BLOCK)):
                query_id, input_gb, mode, knob = BLOCK[index]
                context = system.mfe.build_request(
                    get_query(query_id, input_gb=input_gb),
                    system.predictor,
                    num_waiting_apps=int(rng.integers(0, 8)),
                )
                requests.append((context.request, knob, mode))
        del requests[self.n_requests:]
        server = PredictionServer(system.predictor)
        server.start()
        host, port = server.address
        return RpcSetup(
            system=system,
            requests=requests,
            server=server,
            client=PredictionClient(host, port),
            rng_state=system.rng.bit_generator.state,
        )

    def reference(self, state: RpcSetup) -> TwinReference:
        """Decide the request prefix in process, on this set-up's system.

        Runs before any request reaches this set-up's server; the set-up
        is dropped afterwards, so its caches cannot speed up the timed
        phases.
        """
        decisions = []
        for request, knob, mode in state.requests[: self.exact_prefix]:
            decision = state.system.predictor.determine(
                request, knob=knob, mode=mode
            )
            decisions.append((
                decision.n_vm, decision.n_sl,
                decision.predicted_seconds, decision.estimated_cost,
            ))
        return TwinReference(
            rng_state=state.rng_state,
            requests=state.requests,
            decisions=decisions,
        )

    def run(self, state: RpcSetup, seconds: float, tracer=None) -> Phase:
        """Requests back to back until ``seconds`` have passed and the
        whole prefix was sent.

        A host-speed sample is taken every :data:`REQUESTS_PER_SAMPLE`
        requests; a request's time is scaled by the two samples on either
        side of its window.
        """
        state.system.rng.bit_generator.state = state.rng_state
        phase = Phase()
        requests = state.requests
        client = state.client
        marks = [(0, hostspeed.sample())]
        started = time.perf_counter()
        sampling_s = 0.0
        index = 0
        while index < self.exact_prefix or (
            time.perf_counter() - started < seconds
        ):
            request, knob, mode = requests[index % len(requests)]
            sent = time.perf_counter()
            try:
                payload = client.determine(request, knob=knob, mode=mode)
            except (RpcError, OSError):
                payload = None
                phase.failed += 1
            phase.request_ms.append((time.perf_counter() - sent) * 1e3)
            phase.outcomes.append(
                None if payload is None else (
                    payload["n_vm"], payload["n_sl"],
                    payload["predicted_seconds"], payload["estimated_cost"],
                )
            )
            index += 1
            if tracer is not None and index == self.exact_prefix:
                phase.counts.append(tracer.counts())
            if index % REQUESTS_PER_SAMPLE == 0:
                sampled = time.perf_counter()
                marks.append((index, hostspeed.sample()))
                sampling_s += time.perf_counter() - sampled
        phase.wall_s = time.perf_counter() - started - sampling_s
        phase.units = index
        if marks[-1][0] != index:
            marks.append((index, hostspeed.sample()))
        for k in range(len(marks) - 1):
            factor = hostspeed.scale([marks[k][1], marks[k + 1][1]])
            phase.scaled_ms += [
                ms * factor
                for ms in phase.request_ms[marks[k][0]:marks[k + 1][0]]
            ]
        return phase

    def check(self, state: RpcSetup, reference: TwinReference,
              phases: list[Phase]) -> list[str]:
        """Every decision lies on its mode's grid; over the prefix every
        phase sends it equals the twin's, and past it the phases agree
        with each other."""
        problems = []
        if reference.rng_state != state.rng_state:
            problems.append("twin bootstrap diverged from the server's")
        if reference.requests != state.requests:
            problems.append("twin request stream diverged from the server's")
        longest = max(len(phase.outcomes) for phase in phases)
        for index in range(longest):
            _, _, mode = state.requests[index % len(state.requests)]
            grid = state.system.predictor.candidate_grid(mode)
            answers = [
                phase.outcomes[index] for phase in phases
                if index < len(phase.outcomes)
                and phase.outcomes[index] is not None
            ]
            if index < self.exact_prefix:
                expected = reference.decisions[index]
            else:
                expected = answers[0] if answers else None
            for got in answers:
                if not np.any((grid[:, 0] == got[0]) & (grid[:, 1] == got[1])):
                    problems.append(f"request {index}: {got[:2]} off the grid")
                if got != expected:
                    problems.append(
                        f"request {index}: server {got} != twin {expected}"
                    )
            if len(problems) > 10:
                break
        return problems

    def outcome(self, phases: list[Phase]) -> dict:
        """Decision quality over the fixed request prefix (exact)."""
        decided = [o for o in phases[0].outcomes[: self.exact_prefix] if o]
        seconds = [o[2] for o in decided]
        return {
            "availability": len(decided) / self.exact_prefix,
            "slo_attainment": float(
                np.mean(np.asarray(seconds) <= DECIDE_SLO_S)
            ),
            "sim_latency_p50_s": percentile(seconds, 50),
            "sim_latency_p99_s": percentile(seconds, 99),
            "sim_cost_per_arrival_usd": math.fsum(o[3] for o in decided)
            / len(decided),
        }

    def exact_units(self, state: RpcSetup) -> int:
        """Requests covered by the exact per-layer counts."""
        return self.exact_prefix

    def rate(self, state: RpcSetup, phase: Phase) -> float:
        # One closed-loop client: requests per second of round trips.
        return phase.units / (math.fsum(phase.scaled_ms) / 1e3)

    def tail_ms(self, phase: Phase) -> float:
        # Every whole block of the stream holds the same request mix.
        return block_p90(phase.scaled_ms, len(BLOCK))

    def close(self, state: RpcSetup) -> None:
        state.client.close()
        state.server.stop()
