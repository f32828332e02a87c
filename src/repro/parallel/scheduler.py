"""The shared-nothing function-level worker dispatch.

Sastry & Ju's algorithm is embarrassingly parallel at function
granularity: each function's interval tree, memory-SSA webs, and
promotion decisions depend only on that function's IR, the module-level
profile, and an alias model built from the *pre-promotion* module.  A
default pipeline nevertheless runs phases 3+4 in-process, because they
are a small share of a run and shipping the work costs more than the
work itself.  Worker processes are used only when the caller asks for
containment (``PromotionPipeline(resilience=...)``):

* :func:`promote_functions_parallel` is the one function-level dispatch.
  It runs the :class:`~repro.robustness.executor.ResilientExecutor`
  (deadlines, retry, crash recovery, quarantine) over the **persistent
  warm pool** (:mod:`repro.parallel.pool`), one task per function
  attempt.  Workers pull the module via the incremental epoch protocol
  (full anchor once, deltas for changed functions after) and share
  nothing at promotion time;
* the worker runs phases 3+4 with the pipeline's own per-function stage
  sequence (:func:`repro.promotion.pipeline.promote_stages`) on its copy,
  ships the transformed IR back as a :class:`FunctionPayload`, and then
  **restores its copy** so the next task finds the module at the
  published epoch;
* the parent merges results **in module order** regardless of completion
  order, so statistics, diagnostics, and the final IR are deterministic
  and byte-identical to an in-process run.

Failures inside a worker reproduce the in-process transaction semantics:
the worker restores its local snapshot, reports the failing stage and
error, and the parent records a rollback without installing anything.

:func:`map_tasks` is the generic fan-out the timing harness uses at
*workload* granularity: one future per task on the same warm pool.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Dict, List, Optional, Sequence

from repro.parallel.cache import AnalysisCache, CacheStats, activate
from repro.parallel.transport import FunctionPayload


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means one worker per
    CPU; anything else must be a positive worker count."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


class FunctionResult:
    """What one worker task produced for one function (picklable)."""

    __slots__ = (
        "name",
        "status",
        "stage",
        "error_type",
        "reason",
        "duration_ms",
        "stats",
        "payload",
        "cache_stats",
        "spans",
        "metrics",
        "decisions",
    )

    PROMOTED = "promoted"
    ROLLED_BACK = "rolled_back"

    def __init__(
        self,
        name: str,
        status: str,
        stage: Optional[str] = None,
        error_type: Optional[str] = None,
        reason: Optional[str] = None,
        duration_ms: float = 0.0,
        stats: Optional[Dict[str, int]] = None,
        payload: Optional[FunctionPayload] = None,
        cache_stats: Optional[CacheStats] = None,
        spans: Optional[List[Dict[str, object]]] = None,
        metrics: Optional[Dict[str, Dict[str, object]]] = None,
        decisions: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.status = status
        self.stage = stage
        self.error_type = error_type
        self.reason = reason
        self.duration_ms = duration_ms
        self.stats = stats
        self.payload = payload
        self.cache_stats = cache_stats
        #: Exported worker span records (``Tracer.export``) when the run
        #: was observed; the parent merges them into its own trace with
        #: this worker's pid as the lane.  ``None`` when tracing was off.
        self.spans = spans
        #: The worker-local metrics snapshot (``MetricsRegistry.as_dict``)
        #: to absorb in module order; ``None`` when tracing was off.
        self.metrics = metrics
        #: This function's exported decision document
        #: (``FunctionDecisions.export``) when journaling was on;
        #: ``None`` otherwise, or when the attempt failed before the
        #: journal committed.
        self.decisions = decisions


class TransportStats:
    """What one worker dispatch shipped and received.

    Reported on :class:`~repro.promotion.pipeline.PipelineResult` (never
    inside the diagnostics — transport volume is machine-local noise and
    must stay out of the byte-identical output fingerprint, exactly like
    cache hit counts).
    """

    def __init__(self) -> None:
        #: Worker tasks submitted this run: one per function attempt, so
        #: retries count again.
        self.batches = 0
        #: Functions dispatched to workers this run.
        self.functions_shipped = 0
        #: Worker-side full module installs (anchor downloads) and
        #: per-function delta installs triggered by this run's tasks.
        self.installs_full = 0
        self.installs_delta = 0
        #: Parent -> workers: epoch publication bytes (anchor payloads,
        #: delta chains, meta blobs) this run actually added.
        self.bytes_out = 0
        #: Workers -> parent: transformed-IR payload bytes received.
        self.bytes_in = 0
        #: Pool identity the run started on (warm-pool generation lets
        #: tests assert "same pool as last run").
        self.pool_generation: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "batches": self.batches,
            "functions_shipped": self.functions_shipped,
            "installs_full": self.installs_full,
            "installs_delta": self.installs_delta,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "pool_generation": self.pool_generation,
        }


# -- worker side ----------------------------------------------------------

#: Per-worker-process state, (re)built by :func:`repro.parallel.pool.
#: _sync_worker` whenever a task names an epoch the worker is not at.
_WORKER_STATE: Optional[dict] = None

#: Optional worker-side hook called as ``observer(name, stage)`` at every
#: stage transition inside :func:`_promote_one`.  The resilient executor
#: installs one so a function killed by the deadline watchdog can be
#: attributed to the stage it hung in.
_STAGE_OBSERVER: Optional[Callable[[str, str], None]] = None


def _enter_stage(name: str, stage: str) -> None:
    if _STAGE_OBSERVER is not None:
        _STAGE_OBSERVER(name, stage)


def _promote_one(name: str) -> FunctionResult:
    """Run phases 3+4 for one function on the worker's module copy.

    The worker's copy is left **pristine**: after capturing the result
    payload (or on failure) the pre-promotion snapshot is restored, so
    the module always matches the epoch the pool published and the next
    task's incremental sync stays valid.  Every call uses a fresh
    analysis cache, so nothing outlives the attempt.
    """
    # Imported here: the pipeline imports this module, so a top-level
    # import would be circular.
    from repro.observability import (
        NULL_OBSERVABILITY,
        DecisionJournal,
        Observability,
        activate_decisions,
        activate_metrics,
    )
    from repro.profile.profiles import ProfileData
    from repro.promotion.pipeline import promote_stages
    from repro.robustness.snapshot import snapshot_function

    state = _WORKER_STATE
    assert state is not None, "worker used before epoch synchronization"
    function = state["module"].functions[name]
    # ProfileData is keyed by block *identity*, and this function's block
    # objects are replaced by every snapshot restore and delta install —
    # so bind a fresh function-local profile from the name-keyed map on
    # every promotion instead of keeping a module-wide one in the state.
    counts = state["profile_map"].get(name) or {}
    profile = ProfileData()
    for block in function.blocks:
        freq = counts.get(block.name)
        if freq is not None:
            profile.set_freq(block, freq)
    cache = AnalysisCache() if state["use_cache"] else None
    extras = state.get("extras") or {}
    obs = (
        Observability.recording(trace_id=extras.get("trace"))
        if state["observe"]
        else NULL_OBSERVABILITY
    )
    journal = DecisionJournal() if extras.get("decisions") else None

    snap = snapshot_function(function)
    with activate(cache), activate_metrics(
        obs.metrics if obs.enabled else None
    ), activate_decisions(journal):
        # The parent already normalized the CFG in phase 1; the
        # (deterministic) interval tree is recomputed on this copy.
        stats, error, stage, duration_ms = promote_stages(
            function,
            state["model"],
            profile,
            None,
            state["options"],
            state["verify"],
            obs.tracer,
            snap,
            on_stage=_enter_stage,
        )
    cache_stats = cache.stats if cache is not None else None
    if error is not None:
        text = str(error) or type(error).__name__
        result = FunctionResult(
            name,
            FunctionResult.ROLLED_BACK,
            stage=stage,
            error_type=type(error).__name__,
            reason=text.splitlines()[0],
            duration_ms=duration_ms,
            cache_stats=cache_stats,
        )
    else:
        payload = FunctionPayload.capture(function)
        # Restore-after-capture: the parent installs the payload; this
        # copy stays at the published epoch for the next task.
        snap.restore()
        result = FunctionResult(
            name,
            FunctionResult.PROMOTED,
            duration_ms=duration_ms,
            stats=stats.as_dict(),
            payload=payload,
            cache_stats=cache_stats,
        )
    if obs.enabled:
        result.spans = obs.tracer.export()
        result.metrics = obs.metrics.as_dict()
    if journal is not None:
        docs = journal.export()
        result.decisions = docs[0] if docs else None
    return result


# -- parent side ----------------------------------------------------------


def promote_functions_parallel(
    module,
    names: Sequence[str],
    profile,
    options,
    alias_model_factory: Callable,
    verify: bool,
    jobs: int,
    use_cache: bool,
    resilience,
    observe: bool = False,
    extras: Optional[Dict[str, object]] = None,
):
    """Phases 3+4 for ``names`` on the ``jobs``-worker warm pool.

    Runs the resilient executor under ``resilience`` (a
    :class:`~repro.robustness.executor.ResilienceOptions`) and returns
    ``(outcomes, report, transport)``: one
    :class:`~repro.robustness.executor.ResilientOutcome` per name **in
    ``names`` order**, the executor's
    :class:`~repro.robustness.executor.ExecutorReport`, and a
    :class:`TransportStats`.  ``observe`` makes each worker record spans
    and metrics; ``extras`` (decision journaling, a trace id) ride the
    epoch's meta blob.  Raises
    :class:`~repro.robustness.executor.ResilientExecutorError` when the
    pool never made progress; the caller falls back to in-process.
    """
    from repro.robustness.executor import ResilientExecutor

    executor = ResilientExecutor(
        module,
        names,
        profile,
        options,
        alias_model_factory,
        verify,
        jobs,
        use_cache,
        resilience,
        observe=observe,
        extras=extras,
    )
    outcomes, report = executor.run()
    return outcomes, report, executor.transport


def map_tasks(
    worker: Callable,
    task_args: Sequence[tuple],
    jobs: int,
    pool=None,
    stats: Optional[dict] = None,
) -> List[object]:
    """Generic shared-nothing fan-out: run ``worker(*args)`` for each args
    tuple on the warm pool, one future per task, returning results in
    submission order.

    Used by the timing harness to parallelize at *workload* granularity
    (each task compiles and promotes one workload in a pool worker).
    ``worker`` must be a module-level callable and all arguments and
    results must be picklable.  Passing a ``stats`` dict fills it with
    ``batches`` (tasks submitted) and ``bytes_out``/``bytes_in``
    accounting.
    """
    task_args = list(task_args)
    if stats is not None:
        stats.update({"batches": 0, "bytes_out": 0, "bytes_in": 0})
    if jobs <= 1 or len(task_args) <= 1:
        return [worker(*args) for args in task_args]
    from repro.parallel.pool import warm_pool

    if pool is None:
        pool = warm_pool(jobs)
    with pool.lock:
        pool.runs += 1
        if stats is not None:
            stats["batches"] = len(task_args)
            stats["bytes_out"] = sum(
                len(pickle.dumps((worker, args), protocol=pickle.HIGHEST_PROTOCOL))
                for args in task_args
            )
        try:
            futures = [pool.submit(worker, *args) for args in task_args]
            results = [future.result() for future in futures]
        except Exception:
            pool.rebuild(kill=True)
            raise
        if stats is not None:
            stats["bytes_in"] = sum(
                len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
                for value in results
            )
    return results
