"""Per-layer self-time accounting for the traced benchmark run.

The benchmark cannot edit the program, so it times the calls *into*
each layer: the names :mod:`repro.promotion.pipeline` binds at import
time are swapped for timing wrappers while a :class:`LayerTracer` is
installed, and put back afterwards.  The benchmark's own calls to the
frontend and to ``PromotionPipeline.run`` are timed at the call site.

Every wrapped call opens a frame on one stack.  When it returns, its
elapsed time is charged to its parent frame as child time and its
*self* time (elapsed minus children) to its layer.  Nested wrapped
calls are therefore never counted twice, and the layers' busy times
plus ``pipeline.other`` (the run's own self time) add up to the wall
time of the traced ``PromotionPipeline.run`` calls.  The benchmark
rescales each job's share by the host speed measured around it
(:meth:`LayerTracer.rescale_since`), which keeps that sum intact.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List

import repro.promotion.pipeline as pipeline_module

#: Name bound in ``repro.promotion.pipeline`` -> the layer it belongs to.
WRAPPED: Dict[str, str] = {
    "construct_ssa": "ssa.construct",
    "normalize_for_promotion": "analysis.normalize",
    "build_memory_ssa": "memory.memssa",
    "promote_function": "promotion.promote",
    "remove_dummy_loads": "passes.cleanup",
    "propagate_copies": "passes.cleanup",
    "dead_code_elimination": "passes.cleanup",
    "dead_memory_elimination": "passes.cleanup",
    "verify_function": "ir.verify",
    "verify_module": "ir.verify",
    "snapshot_function": "robustness.snapshot",
    "capture_state": "robustness.snapshot",
    "promote_functions_parallel": "parallel.dispatch",
}

#: Wrapped for a call count only; their time stays with the caller.
COUNTED: Dict[str, str] = {"isolate_culprits": "robustness.bisect"}

#: Layers whose busy time sums with ``pipeline.other`` to the run's wall.
PIPELINE_LAYERS = sorted(
    set(WRAPPED.values()) | {"profile.phase2", "profile.phase5"}
)


class LayerTracer:
    """Self time and call counts per layer, from one frame stack."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Wall seconds of outermost frames, per layer; under
        #: ``pipeline.other`` that is every traced ``PromotionPipeline.run``.
        self.root_wall: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._interp_runs = 0

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one frame charged to ``layer``."""
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.busy[layer] += elapsed - frame[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += elapsed
            else:
                self.root_wall[layer] += elapsed

    def run_pipeline(self, pipeline, module):
        """``pipeline.run(module)`` as the root frame; its self time is
        ``pipeline.other``."""
        if self._stack:
            raise RuntimeError("traced pipeline runs do not nest")
        self._interp_runs = 0
        return self.call("pipeline.other", pipeline.run, module)

    def checkpoint(self) -> tuple:
        return dict(self.busy), dict(self.root_wall)

    def rescale_since(self, mark: tuple, factor: float) -> None:
        """Divide the time charged since ``mark`` by the speed factor
        measured around it (see :mod:`perfbench.speed`)."""
        for totals, before in zip((self.busy, self.root_wall), mark):
            for layer in list(totals):
                base = before.get(layer, 0.0)
                totals[layer] = base + (totals[layer] - base) / factor

    def _interpreter_class(self, base):
        tracer = self

        class TimedInterpreter(base):
            """The first run inside a pipeline run is phase 2 (profile);
            every later one is phase 5 (re-execute, bisection)."""

            def run(self, entry="main", args=()):
                phase = "profile.phase2" if tracer._interp_runs == 0 else (
                    "profile.phase5"
                )
                tracer._interp_runs += 1
                result = tracer.call(phase, super().run, entry, args)
                tracer.counts["profile.steps"] += result.steps
                return result

        return TimedInterpreter

    def _timed(self, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Swap the wrappers into ``repro.promotion.pipeline``; the
        original bindings are restored on exit, even on error."""
        namespace = vars(pipeline_module)
        originals = {
            name: namespace[name]
            for name in list(WRAPPED) + list(COUNTED) + ["Interpreter"]
        }
        try:
            for name, layer in WRAPPED.items():
                namespace[name] = self._timed(layer, originals[name])
            for name, counter in COUNTED.items():
                namespace[name] = self._counted(counter, originals[name])
            namespace["Interpreter"] = self._interpreter_class(
                originals["Interpreter"]
            )
            yield self
        finally:
            namespace.update(originals)

    def unaccounted_ms(self) -> float:
        """Pipeline wall time not covered by layer self times (0 up to
        float rounding when the accounting is sound)."""
        charged = sum(self.busy[layer] for layer in PIPELINE_LAYERS)
        charged += self.busy["pipeline.other"]
        return (self.root_wall["pipeline.other"] - charged) * 1e3
