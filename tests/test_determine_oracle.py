"""``WorkloadPredictor.determine`` against its per-probe reference.

The grid-resident search (one forest pass per call, a candidate-index GP
over a precomputed Gram, ``ndtr``-based acquisitions) must reproduce the
per-probe formulation in ``determine_oracle`` bit for bit: the decision,
the Estimated Time list arrays, the full BO history, and the predictor's
generator state afterwards (the Eq. 2 noise draws and the acquisition
tie-breaks consume the same stream in the same order).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import build_small_system
from determine_oracle import reference_determine
from repro.core.predictor import PredictionRequest
from repro.ml.acquisition import make_acquisition
from repro.ml.bayesian_optimizer import BayesianOptimizer

KNOWN = ("tpcds-q82", "tpcds-q68")
ALIEN = ("tpcds-q49", "tpch-q1")


@pytest.fixture(scope="module")
def predictor():
    return build_small_system(
        seed=11, queries=KNOWN, n_configs_per_query=10, max_vm=10, max_sl=10
    ).predictor


@contextlib.contextmanager
def _captured_bo_results():
    """Record every ``BayesianOptimizer.maximize`` result while open."""
    results = []
    original = BayesianOptimizer.maximize

    def spy(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    BayesianOptimizer.maximize = spy
    try:
        yield results
    finally:
        BayesianOptimizer.maximize = original


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_same_decision(fast, slow):
    for field in ("query_id", "n_vm", "n_sl", "knob", "n_evaluations", "converged"):
        assert getattr(fast, field) == getattr(slow, field), field
    for field in ("predicted_seconds", "estimated_cost"):
        assert _bits(getattr(fast, field)) == _bits(getattr(slow, field)), field
    for field in ("best_entry", "chosen_entry"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert (a.n_vm, a.n_sl) == (b.n_vm, b.n_sl), field
        assert _bits([a.estimated_seconds, a.estimated_cost]).tolist() == (
            _bits([b.estimated_seconds, b.estimated_cost]).tolist()
        ), field
    for array in ("candidates", "seconds", "costs"):
        a, b = getattr(fast.grid, array), getattr(slow.grid, array)
        assert a.shape == b.shape, array
        assert np.array_equal(_bits(a), _bits(b)), array


def _assert_same_history(fast, slow):
    assert fast.n_evaluations == slow.n_evaluations
    assert fast.converged == slow.converged
    assert fast.best_point == slow.best_point
    assert _bits(fast.best_value) == _bits(slow.best_value)
    assert [p.point for p in fast.history] == [p.point for p in slow.history]
    assert np.array_equal(
        _bits([p.value for p in fast.history]),
        _bits([p.value for p in slow.history]),
    )


_caps = st.one_of(st.none(), st.integers(min_value=0, max_value=12))

_calls = st.fixed_dictionaries(
    {
        "query_id": st.sampled_from(KNOWN + ALIEN),
        "input_size_gb": st.sampled_from((1.0, 25.0, 100.0, 400.0)),
        "historical_duration_s": st.floats(min_value=10.0, max_value=2000.0),
        "num_waiting_apps": st.integers(min_value=0, max_value=7),
        "mode": st.sampled_from(("hybrid", "vm-only", "sl-only")),
        "knob": st.sampled_from((0.0, 0.25, 0.5, 1.0)),
        "max_vm": _caps,
        "max_sl": _caps,
        "max_iterations": st.sampled_from((1, 3, 60)),
    }
)


@given(
    acquisition=st.sampled_from(("pi", "ei", "ucb")),
    calls=st.lists(_calls, min_size=1, max_size=3),
)
def test_determine_matches_per_probe_reference(predictor, acquisition, calls):
    predictor.acquisition = make_acquisition(acquisition)
    generator = predictor._rng.bit_generator
    for index, call in enumerate(calls):
        request = PredictionRequest(
            query_id=call["query_id"],
            input_size_gb=call["input_size_gb"],
            start_time_epoch=1.7e9 + 600.0 * index,
            historical_duration_s=call["historical_duration_s"],
            num_waiting_apps=call["num_waiting_apps"],
        )
        kwargs = {
            name: call[name]
            for name in ("knob", "mode", "max_iterations", "max_vm", "max_sl")
        }
        before = generator.state
        grid = predictor.candidate_grid(
            call["mode"], max_vm=call["max_vm"], max_sl=call["max_sl"]
        )
        if grid.shape[0] == 0:
            # A cap that empties a single-axis mode's grid is rejected
            # by both formulations before any draw.
            with pytest.raises(ValueError):
                predictor.determine(request, **kwargs)
            with pytest.raises(ValueError):
                reference_determine(predictor, request, **kwargs)
            assert generator.state == before
            continue
        with _captured_bo_results() as results:
            fast = predictor.determine(request, **kwargs)
        after_fast = generator.state
        generator.state = before
        slow, slow_result = reference_determine(predictor, request, **kwargs)
        assert generator.state == after_fast
        _assert_same_decision(fast, slow)
        (fast_result,) = results
        _assert_same_history(fast_result, slow_result)


@pytest.mark.parametrize(
    "mode, max_vm, max_sl",
    [("vm-only", 1, None), ("sl-only", None, 1), ("hybrid", 1, 0)],
)
def test_single_candidate_grid(predictor, mode, max_vm, max_sl):
    """A 1-candidate grid: one probe, and the ET list still bit-exact."""
    predictor.acquisition = make_acquisition("pi")
    request = PredictionRequest("tpcds-q82", 100.0, 1.7e9, 300.0, 2)
    generator = predictor._rng.bit_generator
    before = generator.state
    with _captured_bo_results() as results:
        fast = predictor.determine(request, mode=mode, max_vm=max_vm, max_sl=max_sl)
    after_fast = generator.state
    generator.state = before
    slow, slow_result = reference_determine(
        predictor, request, mode=mode, max_vm=max_vm, max_sl=max_sl
    )
    assert generator.state == after_fast
    assert fast.n_evaluations == 1 and len(fast.grid) == 1
    _assert_same_decision(fast, slow)
    _assert_same_history(results[0], slow_result)
