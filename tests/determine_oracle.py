"""Reference (per-probe) implementation of ``WorkloadPredictor.determine``.

This is the straightforward formulation the grid-resident search in
:mod:`repro.core.predictor` must reproduce bit for bit:

- the Bayesian Optimizer's Gaussian Process works in coordinate space,
  recomputing the Matern 5/2 kernel against the raw ``{nVM, nSL}``
  points on every update and every acquisition pass, and solves through
  scipy's checked ``solve_triangular`` / ``cho_solve`` / ``cholesky``;
- PI and EI evaluate the normal distribution via ``scipy.stats.norm``;
- every probe runs its own one-row forest prediction through
  ``predict_duration``, and the Estimated Time list runs a second,
  batched forest pass over the probed points.

Only the equivalence tests import it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
from scipy.stats import norm

from repro.core.predictor import ConfigDecision, PredictionRequest, WorkloadPredictor
from repro.core.tradeoff import DecisionGrid, EstimatedTimeEntry
from repro.ml.acquisition import (
    AcquisitionFunction,
    ExpectedImprovement,
    ProbabilityOfImprovement,
)
from repro.ml.bayesian_optimizer import BOResult, Probe
from repro.ml.kernels import Matern52Kernel


def reference_pi(mean, std, best_value, xi):
    mean = np.asarray(mean, dtype=np.float64)
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    z = (mean - best_value - xi) / std
    return norm.cdf(z)


def reference_ei(mean, std, best_value, xi):
    mean = np.asarray(mean, dtype=np.float64)
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    improvement = mean - best_value - xi
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def reference_acquisition(acquisition: AcquisitionFunction):
    """The ``scipy.stats`` formulation of a library acquisition."""
    if isinstance(acquisition, ProbabilityOfImprovement):
        return lambda mean, std, best: reference_pi(mean, std, best, acquisition.xi)
    if isinstance(acquisition, ExpectedImprovement):
        return lambda mean, std, best: reference_ei(mean, std, best, acquisition.xi)
    return acquisition  # UCB: no distribution function involved


class ReferenceGaussianProcess:
    """Exact GP with rank-1 Cholesky extension, in coordinate space."""

    def __init__(self, kernel, noise):
        self.kernel = kernel
        self.noise = float(noise)
        self._points = None
        self._targets = None
        self._mean = 0.0
        self._std = 1.0
        self._cholesky = None
        self._alpha = None

    def add_observation(self, point, target):
        point = np.atleast_2d(np.asarray(point, dtype=np.float64))
        if self._points is None:
            self._points, self._targets = point, np.array([float(target)])
            extended = False
        else:
            extended = self._extend(point)
            self._points = np.vstack([self._points, point])
            self._targets = np.append(self._targets, float(target))
        self._mean = float(self._targets.mean())
        std = float(self._targets.std())
        self._std = std if std > 1e-12 else 1.0
        if not extended:
            gram = self.kernel(self._points, self._points)
            gram = gram + (self.noise**2 + 1e-10) * np.eye(gram.shape[0])
            self._cholesky = scipy.linalg.cholesky(gram, lower=True)
        normalized = (self._targets - self._mean) / self._std
        self._alpha = scipy.linalg.cho_solve((self._cholesky, True), normalized)

    def _extend(self, point):
        cross = self.kernel(self._points, point).ravel()
        kappa = float(self.kernel(point, point)[0, 0]) + self.noise**2 + 1e-10
        column = scipy.linalg.solve_triangular(self._cholesky, cross, lower=True)
        schur = kappa - float(column @ column)
        if schur <= 1e-12:
            return False
        n = self._cholesky.shape[0]
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = self._cholesky
        grown[n, :n] = column
        grown[n, n] = np.sqrt(schur)
        self._cholesky = grown
        return True

    def predict(self, points):
        cross = self.kernel(points, self._points)
        mean = cross @ self._alpha * self._std + self._mean
        solved = scipy.linalg.solve_triangular(self._cholesky, cross.T, lower=True)
        variance = self.kernel.diagonal(points) - np.sum(solved**2, axis=0)
        np.maximum(variance, 1e-12, out=variance)
        return mean, np.sqrt(variance) * self._std


class ReferenceBayesianOptimizer:
    """The BO loop with a coordinate-space GP surrogate."""

    def __init__(
        self,
        objective,
        candidates,
        acquisition,
        n_initial,
        improvement_threshold,
        patience,
        rng,
        noise=1e-2,
    ):
        self.objective = objective
        self.candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        self.acquisition = acquisition
        self.n_initial = min(n_initial, self.candidates.shape[0])
        self.improvement_threshold = improvement_threshold
        self.patience = patience
        self._rng = rng
        span = self.candidates.max(axis=0) - self.candidates.min(axis=0)
        length_scale = max(float(np.linalg.norm(span)) / 4.0, 1e-3)
        self._surrogate = ReferenceGaussianProcess(
            Matern52Kernel(length_scale=length_scale), noise
        )

    def maximize(self, max_iterations):
        n_candidates = self.candidates.shape[0]
        unprobed = np.ones(n_candidates, dtype=bool)
        history = []
        best_value = -np.inf
        best_index = -1
        stall = 0
        converged = False
        probe_queue = list(
            self._rng.choice(n_candidates, size=self.n_initial, replace=False)
        )
        for _ in range(max_iterations):
            if probe_queue:
                index = int(probe_queue.pop(0))
            else:
                index = self._next_index(unprobed, best_value)
                if index < 0:
                    converged = True
                    break
            unprobed[index] = False
            point = self.candidates[index]
            value = float(self.objective(point))
            history.append(Probe(tuple(point.tolist()), value))
            self._surrogate.add_observation(point, value)
            if self._improved(value, best_value):
                best_value, best_index, stall = value, index, 0
            else:
                if value > best_value:
                    best_value, best_index = value, index
                stall += 1
            if stall >= self.patience:
                converged = True
                break
            if not np.any(unprobed) and not probe_queue:
                converged = True
                break
        return BOResult(
            best_point=tuple(self.candidates[best_index].tolist()),
            best_value=best_value,
            history=history,
            n_evaluations=len(history),
            converged=converged,
        )

    def _improved(self, value, best_value):
        if not np.isfinite(best_value):
            return True
        margin = self.improvement_threshold * max(abs(best_value), 1e-12)
        return value > best_value + margin

    def _next_index(self, unprobed, best_value):
        remaining = np.nonzero(unprobed)[0]
        if remaining.size == 0:
            return -1
        mean, std = self._surrogate.predict(self.candidates[remaining])
        scores = self.acquisition(mean, std, best_value)
        top = np.nonzero(scores == scores.max())[0]
        choice = top[self._rng.integers(top.size)] if top.size > 1 else top[0]
        return int(remaining[choice])


def reference_determine(
    predictor: WorkloadPredictor,
    request: PredictionRequest,
    knob: float = 0.0,
    mode: str = "hybrid",
    max_iterations: int = 60,
    max_vm: int | None = None,
    max_sl: int | None = None,
) -> tuple[ConfigDecision, BOResult]:
    """Per-probe ``determine``; draws from (and advances) ``predictor``'s RNG."""
    rng = predictor._rng
    started = time.perf_counter()
    candidates = predictor.candidate_grid(mode, max_vm=max_vm, max_sl=max_sl)

    def objective(point):
        n_vm, n_sl = int(point[0]), int(point[1])
        predicted = predictor.predict_duration(request.feature_vector(n_vm, n_sl))
        delta = rng.normal(0.0, 0.01 * max(predicted, 1.0))
        return -(predicted + delta)

    result = ReferenceBayesianOptimizer(
        objective=objective,
        candidates=candidates,
        acquisition=reference_acquisition(predictor.acquisition),
        n_initial=min(4, candidates.shape[0]),
        improvement_threshold=predictor.bo_improvement_threshold,
        patience=predictor.bo_patience,
        rng=rng,
    ).maximize(max_iterations)

    probe_points = np.array(
        [probe.point for probe in result.history] + [result.best_point]
    )
    estimates = predictor.predict_durations(request.feature_matrix(probe_points))
    costs = predictor.estimate_costs(estimates, probe_points)
    decision_grid = DecisionGrid(probe_points[:-1], estimates[:-1], costs[:-1])
    best_entry = EstimatedTimeEntry(
        n_vm=int(result.best_point[0]),
        n_sl=int(result.best_point[1]),
        estimated_seconds=float(estimates[-1]),
        estimated_cost=float(costs[-1]),
    )
    chosen_index = decision_grid.select_index_with_knob(
        best_entry.estimated_seconds, best_entry.estimated_cost, knob
    )
    chosen = best_entry if chosen_index is None else decision_grid.entry(chosen_index)
    decision = ConfigDecision(
        query_id=request.query_id,
        n_vm=chosen.n_vm,
        n_sl=chosen.n_sl,
        predicted_seconds=chosen.estimated_seconds,
        estimated_cost=chosen.estimated_cost,
        knob=knob,
        best_entry=best_entry,
        chosen_entry=chosen,
        grid=decision_grid,
        n_evaluations=result.n_evaluations,
        converged=result.converged,
        inference_seconds=time.perf_counter() - started,
    )
    return decision, result
