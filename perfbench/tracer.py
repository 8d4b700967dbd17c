"""Outside-in layer tracer: wraps public entry points of ``repro`` modules.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces chosen class attributes (and module-level functions) with
timing wrappers for as long as it is installed, then puts the originals
back.  Each wrapped call is a span; a span's *self* time is its duration
minus the time covered by the spans it caused, so the self times of all
layers partition the wall time of the outermost span exactly (up to the
wrappers' own cost).

Spans nest per thread.  A span that opens on a thread with no open span
(the prediction server's handler thread) takes the tracer's current
*request span* as its parent, so a client call and the server dispatch it
caused link across threads, and the client's self time becomes the RPC
overhead (framing, JSON, socket hand-off).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import threading
import time
from typing import Callable

__all__ = ["Hook", "LayerTracer"]


@dataclasses.dataclass(frozen=True)
class Hook:
    """One wrapped entry point.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    ``items`` maps ``(args, result)`` to a work count for the layer (e.g.
    requests sized by a batched call); ``root`` marks the span a request
    id is minted for.  A missing target is an error.
    """

    target: str
    layer: str
    items: Callable[[tuple, object], int] | None = None
    root: bool = False


class _Layer:
    __slots__ = ("calls", "self_ns", "incl_ns", "items", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.items = 0
        self.durations: list[int] | None = None


class LayerTracer:
    """Per-layer call counts, inclusive and self time, and optional spans.

    ``keep_durations`` names the layers whose per-call durations are kept
    (for percentiles); ``record_spans`` keeps every span in memory so
    :meth:`write_spans` can dump them as JSON lines at the end.
    """

    def __init__(
        self,
        hooks: tuple[Hook, ...],
        keep_durations: tuple[str, ...] = (),
        record_spans: bool = False,
    ) -> None:
        self.hooks = hooks
        self.record_spans = record_spans
        self.layers = {hook.layer: _Layer() for hook in hooks}
        for name in keep_durations:
            self.layers[name].durations = []
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._request: list | None = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Accumulators
    # ------------------------------------------------------------------

    def calls(self, layer: str) -> int:
        return self.layers[layer].calls

    def self_s(self, layer: str) -> float:
        return self.layers[layer].self_ns / 1e9

    def incl_s(self, layer: str) -> float:
        return self.layers[layer].incl_ns / 1e9

    def durations_ms(self, layer: str) -> list[float]:
        return [d / 1e6 for d in self.layers[layer].durations or ()]

    def total_self_s(self) -> float:
        return sum(layer.self_ns for layer in self.layers.values()) / 1e9

    def counts(self) -> dict[str, tuple[int, int]]:
        """``{layer: (calls, items)}`` -- the exact, timing-free part."""
        return {
            name: (layer.calls, layer.items)
            for name, layer in sorted(self.layers.items())
        }

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._patched:
            raise RuntimeError("the tracer is already installed")
        for hook in self.hooks:
            module_name, _, path = hook.target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            # Class attributes are read from the class's own __dict__ so
            # static/class methods and inherited names are not rebound.
            original = (
                owner.__dict__.get(attribute)
                if isinstance(owner, type)
                else getattr(owner, attribute, None)
            )
            if original is None:
                raise AttributeError(f"cannot trace missing {hook.target}")
            setattr(owner, attribute, self._wrap(original, hook))
            self._patched.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _wrap(self, function: Callable, hook: Hook) -> Callable:
        tracer = self
        name = hook.layer
        items = hook.items
        root = hook.root
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._request
            # [layer, start_ns, child_ns, span_id, request_id]
            span = [name, 0, 0, 0, 0]
            if tracer.record_spans:
                span[3] = tracer._new_id()
                span[4] = parent[4] if parent is not None else span[3]
            is_request = root and tracer._request is None
            if is_request:
                tracer._request = span
            stack.append(span)
            span[1] = start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_request:
                    tracer._request = None
                elapsed = end - start
                layer = tracer.layers[name]
                layer.self_ns += elapsed - span[2]
                if parent is not None:
                    parent[2] += elapsed
                if parent is None or parent[0] != name:
                    # Re-entry into the same layer (release ->
                    # release_instance) is one call into the layer.
                    layer.calls += 1
                    layer.incl_ns += elapsed
                    if layer.durations is not None:
                        layer.durations.append(elapsed)
                if tracer.record_spans:
                    tracer.spans.append((
                        name, function.__qualname__, start, end, span[3],
                        parent[3] if parent is not None else 0, span[4],
                    ))
            if items is not None:
                tracer.layers[name].items += items(args, result)
            return result

        return traced

    def write_spans(self, path: str) -> int:
        """Dump the recorded spans as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for layer, qualname, start, end, span_id, parent, request in (
                self.spans
            ):
                handle.write(json.dumps({
                    "request_id": request,
                    "span_id": span_id,
                    "parent_id": parent,
                    "layer": layer,
                    "name": qualname,
                    "start_ns": start,
                    "end_ns": end,
                }) + "\n")
        return len(self.spans)
