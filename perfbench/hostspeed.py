"""Host-speed reference: a fixed probe timed between units of work.

The shared hosts this benchmark runs on switch between a fast and a slow
state (about 2x) for seconds at a time; CPU time slows with wall time,
so neither clock alone gives a steady figure.  A *sample* times three
fixed kernels that touch nothing of ``repro`` -- an interpreter loop
with a heap and a dict, a pointer chase over 20,000 objects, and small
dense linear algebra -- and returns their geometric mean.  Timings taken
next to a sample are scaled by ``NOMINAL_S / sample``, i.e. reported in
seconds at the speed where a sample takes :data:`NOMINAL_S` (about the
fast state of the 2-vCPU development host).  A change to the program
moves the scaled figure; a change of host state moves the sample and
the timing together and cancels out.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
import time

import numpy as np

#: Sample time at which scaled and measured timings coincide.
NOMINAL_S = 0.005

_RNG = random.Random(5)
_N = 20_000
_ORDER = list(range(_N))
_RNG.shuffle(_ORDER)


class _Node:
    __slots__ = ("nxt", "val", "key")

    def __init__(self, nxt: int, val: float) -> None:
        self.nxt = nxt
        self.val = val
        self.key = (int(val) % 97, val)


_NODES = [_Node(_ORDER[i], i * 0.5) for i in range(_N)]
_TABLE = {node.key: node for node in _NODES}
_SQUARE = np.random.default_rng(0).random((40, 40))
_SMALL = np.random.default_rng(1).random((30, 30))
_ONES = np.ones(30)
_KEYS = np.random.default_rng(2).random(3000)


def _interpreter() -> None:
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 257] = table.get(i % 257, 0) + i
        total += (i % 13) * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(40):
        np.argsort((_SQUARE @ _SQUARE)[0])
    sorted(table.items(), key=lambda item: -item[1])


def _pointer_chase() -> None:
    index = 0
    total = 0.0
    heap: list = []
    for step in range(12_000):
        node = _NODES[index]
        total += _TABLE[node.key].val
        index = node.nxt
        if step % 3 == 0:
            heapq.heappush(heap, (node.val, step))
        if len(heap) > 2000:
            heapq.heappop(heap)


def _linear_algebra() -> None:
    for k in range(25):
        matrix = _SMALL @ _SMALL.T + np.eye(30) * (1 + k)
        np.linalg.cholesky(matrix)
        np.linalg.solve(matrix, _ONES)
        np.argsort(_KEYS)


_KERNELS = (_interpreter, _pointer_chase, _linear_algebra)


def sample() -> float:
    """Geometric mean of the three kernels' wall times, in seconds."""
    log_sum = 0.0
    for kernel in _KERNELS:
        started = time.perf_counter()
        kernel()
        log_sum += math.log(time.perf_counter() - started)
    return math.exp(log_sum / len(_KERNELS))


def samples(n: int) -> list[float]:
    return [sample() for _ in range(n)]


def scale(samples_near: list[float]) -> float:
    """Factor that turns a timing into seconds at nominal host speed."""
    return NOMINAL_S / statistics.median(samples_near)
