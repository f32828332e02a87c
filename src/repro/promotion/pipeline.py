"""The end-to-end register promotion pipeline.

Order of operations per function:

1. remove unreachable blocks, run classic SSA construction (mem2reg) for
   unexposed locals, and normalize the CFG for promotion (split critical
   edges, dedicated preheaders and exit tails);
2. profile: execute the program once with the interpreter (or fall back
   to the static estimator), collecting block frequencies and the
   "before" dynamic costs;
3. build memory SSA and run interval-scoped web promotion;
4. clean up: delete dummy loads, propagate copies, sweep dead code and
   dead memory phis; verify SSA and memory SSA;
5. re-execute to collect the "after" dynamic costs and check that the
   observable behaviour (printed output, return value, final global
   values) is unchanged.

Every per-function transformation (phases 1, 3, and 4) is a
*transaction*: the function's IR is snapshotted first, and any exception
or verification failure restores the snapshot, records a structured
:class:`~repro.robustness.diagnostics.FunctionOutcome`, and lets the rest
of the module proceed.  When phase 5 detects a behaviour divergence, the
pipeline delta-debugs over the transformed functions (re-running from
snapshots) to isolate a minimal culprit set and rolls only those back, so
the module the caller gets is always behaviour-preserving.  The result's
``diagnostics`` names every rolled-back function with its reason.

The result object carries everything Tables 1 and 2 need.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.intervals import IntervalTree, normalize_for_promotion
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.verify import verify_function, verify_module
from repro.memory.aliasing import AliasModel
from repro.memory.memssa import build_memory_ssa
from repro.observability import (
    NULL_OBSERVABILITY,
    DecisionJournal,
    Observability,
    OpCounts,
    activate_decisions,
    activate_metrics,
)
from repro.observability.export import SCHEMA_VERSION
from repro.parallel.cache import AnalysisCache, CacheStats, activate
from repro.parallel.scheduler import (
    TransportStats,
    promote_functions_parallel,
    resolve_jobs,
)
from repro.parallel.transport import TransportError
from repro.passes.copyprop import propagate_copies
from repro.passes.dce import (
    dead_code_elimination,
    dead_memory_elimination,
    remove_dummy_loads,
)
from repro.profile.estimator import estimate_profile
from repro.profile.interp import (
    ExecutionResult,
    Interpreter,
    InterpreterError,
    InterpreterLimitError,
)
from repro.profile.profiles import ProfileData
from repro.promotion.driver import (
    FunctionPromotionStats,
    PromotionOptions,
    promote_function,
)
from repro.robustness.bisect import isolate_culprits
from repro.robustness.diagnostics import BisectionReport, PipelineDiagnostics
from repro.robustness.executor import (
    ResilienceOptions,
    ResilientExecutorError,
    ResilientOutcome,
)
from repro.robustness.snapshot import (
    FunctionSnapshot,
    FunctionState,
    capture_state,
    snapshot_function,
)
from repro.ssa.construct import construct_ssa


class StaticCounts(OpCounts):
    """Static (textual) operation counts — Table 1's metric.

    A thin view over :class:`repro.observability.OpCounts`, the one
    shared counting helper — the bench tables and the exported run
    metrics read the same walk and can never disagree.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return f"StaticCounts(loads={self.loads}, stores={self.stores})"


class DynamicCounts(OpCounts):
    """Executed operation counts — Table 2's metric (same shared helper)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return f"DynamicCounts(loads={self.loads}, stores={self.stores})"


def improvement(before: int, after: int) -> float:
    """Percentage improvement as the paper reports it (negative when the
    count increased)."""
    if before == 0:
        return 0.0
    return 100.0 * (before - after) / before


class PipelineResult:
    def __init__(self, module: Module) -> None:
        self.module = module
        self.static_before = StaticCounts()
        self.static_after = StaticCounts()
        self.dynamic_before = DynamicCounts()
        self.dynamic_after = DynamicCounts()
        self.stats: Dict[str, FunctionPromotionStats] = {}
        self.output_matches = True
        self.profile: Optional[ProfileData] = None
        #: Per-function outcomes, warnings, and the bisection report.
        self.diagnostics = PipelineDiagnostics()
        #: Worker count phases 3+4 actually ran with (1 = in-process).
        self.jobs_used = 1
        #: Analysis-cache hit/miss counters, aggregated over the parent
        #: run and (under the worker dispatch, in module order) every
        #: worker attempt.  ``None`` when caching was disabled.
        self.cache_stats: Optional[CacheStats] = None
        #: What the worker dispatch shipped and received
        #: (:class:`~repro.parallel.scheduler.TransportStats`); ``None``
        #: for in-process runs.  Kept off the diagnostics on purpose —
        #: transport volume is machine-local and must stay out of the
        #: byte-identical output fingerprint, like cache counters.
        self.transport_stats: Optional[TransportStats] = None
        #: The tracer + metrics bundle the run recorded into
        #: (:data:`~repro.observability.NULL_OBSERVABILITY` when
        #: tracing was off) — exporters read the trace from here.
        self.observability: Observability = NULL_OBSERVABILITY
        #: The promotion decision journal the run recorded into, or
        #: ``None`` when journaling was off — ``--decisions-out`` and the
        #: diagnostics summary read from here.
        self.decisions: Optional[DecisionJournal] = None

    def totals(self) -> FunctionPromotionStats:
        total = FunctionPromotionStats()
        for stats in self.stats.values():
            total.absorb(stats.as_dict())
        return total

    def report(self) -> str:
        lines = [
            f"static  loads {self.static_before.loads:>8} -> {self.static_after.loads:<8}"
            f" ({improvement(self.static_before.loads, self.static_after.loads):+.1f}%)",
            f"static  stores {self.static_before.stores:>7} -> {self.static_after.stores:<8}"
            f" ({improvement(self.static_before.stores, self.static_after.stores):+.1f}%)",
            f"dynamic loads {self.dynamic_before.loads:>8} -> {self.dynamic_after.loads:<8}"
            f" ({improvement(self.dynamic_before.loads, self.dynamic_after.loads):+.1f}%)",
            f"dynamic stores {self.dynamic_before.stores:>7} -> {self.dynamic_after.stores:<8}"
            f" ({improvement(self.dynamic_before.stores, self.dynamic_after.stores):+.1f}%)",
            f"behaviour preserved: {self.output_matches}",
        ]
        if self.diagnostics.outcomes:
            lines.append(f"functions: {self.diagnostics.summary()}")
        for warning in self.diagnostics.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


def _behaviour_matches(before: ExecutionResult, after: ExecutionResult) -> bool:
    return (
        after.output == before.output
        and after.return_value == before.return_value
        and after.globals_snapshot() == before.globals_snapshot()
    )


def _ignore_stage(name: str, stage: str) -> None:
    pass


def promote_stages(
    function: Function,
    model: AliasModel,
    profile: ProfileData,
    tree: Optional[IntervalTree],
    options: PromotionOptions,
    verify: bool,
    tracer,
    snap: Optional[FunctionSnapshot],
    on_stage: Callable[[str, str], None] = _ignore_stage,
) -> Tuple[Optional[FunctionPromotionStats], Optional[Exception], str, float]:
    """Phases 3+4 for one function — the one per-function stage sequence,
    in-process and in worker processes alike.

    Runs memssa → promote → cleanup → verify inside a ``function:<name>``
    span with one ``stage:<stage>`` child each, and returns ``(stats,
    error, stage, duration_ms)``.  On failure ``snap`` is restored,
    ``stats`` is ``None``, and ``error`` is the exception ``stage``
    raised; without a snapshot (a non-transactional run) the failure
    propagates.  ``tree=None`` recomputes the interval tree (a worker's
    copy); ``on_stage(name, stage)`` is called as each stage starts.
    """
    name = function.name
    started = time.perf_counter()
    stage = "memssa"
    with tracer.span("function:" + name, category="promote") as fn_span:
        try:
            on_stage(name, stage)
            with tracer.span("stage:memssa", category="promote"):
                if tree is None:
                    tree = IntervalTree.compute(function)
                mssa = build_memory_ssa(function, model)
            stage = "promote"
            on_stage(name, stage)
            with tracer.span("stage:promote", category="promote"):
                stats = promote_function(function, mssa, profile, tree, options)
            stage = "cleanup"
            on_stage(name, stage)
            with tracer.span("stage:cleanup", category="promote"):
                remove_dummy_loads(function)
                propagate_copies(function)
                dead_code_elimination(function)
                dead_memory_elimination(function)
            stage = "verify"
            on_stage(name, stage)
            with tracer.span("stage:verify", category="promote"):
                if verify:
                    verify_function(function, check_ssa=True, check_memssa=True)
        except Exception as exc:
            if snap is None:
                raise
            snap.restore()
            fn_span.set("status", "rolled_back").set("stage", stage)
            return None, exc, stage, (time.perf_counter() - started) * 1e3
        fn_span.set("status", "promoted")
        fn_span.set("webs_promoted", stats.webs_promoted)
        return stats, None, stage, (time.perf_counter() - started) * 1e3


class PromotionPipeline:
    """The user-facing transactional pass manager around
    :func:`promote_function`.

    With ``transactional=True`` (the default) every function is
    snapshotted before it is transformed; failures roll the function
    back instead of aborting the run, and a phase-5 behaviour divergence
    triggers bisection over the transformed functions.  With
    ``transactional=False`` the pipeline behaves like a classic
    all-or-nothing pass manager (no snapshot overhead, exceptions
    propagate, divergence is only recorded in ``output_matches``).

    Phases 3+4 run in-process unless ``resilience`` (a
    :class:`~repro.robustness.ResilienceOptions`) is set: then they fan
    out over ``jobs`` shared-nothing worker processes (``jobs=0`` means
    one per CPU) under the resilient executor — per-function deadlines,
    bounded retry with seeded backoff, broken-pool recovery,
    poison-function quarantine, and optional chaos injection.  Results
    merge in module order, so every table, statistic, and diagnostic is
    identical to an in-process run.  ``resilience`` requires
    ``jobs != 1``, and ``jobs != 1`` requires ``transactional=True`` —
    workers report failures as rollbacks, and phase-5 bisection needs
    the snapshots.  A quarantined function keeps its pre-promotion IR —
    behaviour-preserving by construction — and the run is reported as
    *degraded* (``diagnostics.degraded``, CLI exit code 3) rather than
    failed.  ``use_cache`` memoizes dominator trees, IDFs, and liveness
    across phases in a cache that lives for one run (one attempt, in a
    worker).
    """

    def __init__(
        self,
        options: Optional[PromotionOptions] = None,
        alias_model: Optional[Callable[[Module], AliasModel]] = None,
        entry: str = "main",
        args: Sequence[int] = (),
        use_interpreter_profile: bool = True,
        run_mem2reg: bool = True,
        verify: bool = True,
        max_steps: int = 50_000_000,
        transactional: bool = True,
        jobs: int = 1,
        use_cache: bool = True,
        compiled_interpreter: bool = True,
        resilience: Optional[ResilienceOptions] = None,
        observability: Optional[Observability] = None,
        decisions: Optional[DecisionJournal] = None,
        keep_pool: bool = True,
    ) -> None:
        self.options = options or PromotionOptions()
        self.alias_model_factory = alias_model or AliasModel.conservative
        self.entry = entry
        self.args = list(args)
        self.use_interpreter_profile = use_interpreter_profile
        self.run_mem2reg = run_mem2reg
        self.verify = verify
        self.max_steps = max_steps
        self.transactional = transactional
        if jobs != 1 and not transactional:
            raise ValueError(
                "parallel promotion (jobs != 1) requires transactional=True: "
                "workers report failures as per-function rollbacks"
            )
        self.jobs = jobs
        self.use_cache = use_cache
        #: False pins phases 2 and 5 to the interpreter's classic
        #: dispatch loop — the timing harness's baseline arm.
        self.compiled_interpreter = compiled_interpreter
        #: When set, phases 3+4 run in worker processes under the
        #: resilient executor: per-function deadlines, retry with
        #: backoff, quarantine, and (optionally) chaos injection.
        #: Requires parallel execution — deadlines and chaos act on
        #: worker processes, and a crashed or hung in-process attempt
        #: could not be recovered.
        if resilience is not None and jobs == 1:
            raise ValueError(
                "resilience options require parallel execution (jobs != 1): "
                "deadlines, crash recovery, and chaos act on worker processes"
            )
        self.resilience = resilience
        #: The tracer + metrics bundle; :data:`NULL_OBSERVABILITY` (the
        #: default) makes every instrumentation point a no-op.
        self.observability = observability or NULL_OBSERVABILITY
        #: The promotion decision journal; ``None`` (the default) keeps
        #: the driver's decision sites on the null path.
        self.decisions = decisions
        #: False shuts this run's warm worker pool down afterwards
        #: instead of leaving it resident for the next run.
        self.keep_pool = keep_pool

    def run(self, module: Module) -> PipelineResult:
        result = PipelineResult(module)
        result.observability = self.observability
        obs = self.observability
        cache = AnalysisCache() if self.use_cache else None
        if cache is not None:
            result.cache_stats = CacheStats()
        result.decisions = self.decisions
        with activate(cache), activate_metrics(
            obs.metrics if obs.enabled else None
        ), activate_decisions(self.decisions), obs.tracer.span(
            "pipeline", module=module.name, jobs=self.jobs
        ):
            self._run_phases(module, result)
        if cache is not None:
            result.cache_stats.absorb(cache.stats)
        if obs.enabled:
            self._finalize_observability(result)
        if self.decisions is not None:
            result.diagnostics.decisions = self.decisions.summary()
        if not self.keep_pool and self.resilience is not None:
            from repro.parallel.pool import shutdown_pool

            shutdown_pool(resolve_jobs(self.jobs))
        return result

    def config_stamp(self) -> Dict[str, object]:
        """The pipeline configuration as stamped into every exported
        trace/metrics artifact and the diagnostics ``observability``
        section, so artifacts are self-describing."""
        resilience = self.resilience
        stamp: Dict[str, object] = {
            "entry": self.entry,
            "jobs": self.jobs,
            "use_cache": self.use_cache,
            "compiled_interpreter": self.compiled_interpreter,
            "transactional": self.transactional,
            "max_steps": self.max_steps,
            "keep_pool": self.keep_pool,
            "resilience": None if resilience is None else resilience.as_dict(),
        }
        return stamp

    def _mark_decision(self, name: str, status: str) -> None:
        """Re-stamp a function's decision document after the pipeline
        overrode the promotion attempt (rollback, quarantine)."""
        if self.decisions is not None:
            self.decisions.mark(name, status)

    def _finalize_observability(self, result: PipelineResult) -> None:
        """Publish run aggregates into the metrics registry and the
        diagnostics ``observability`` section.

        The load/store gauges and ``promotion.*`` counters are set from
        the :class:`PipelineResult` itself — the exported metrics read
        the same :class:`OpCounts` the report prints, so they can never
        disagree.  Only called when tracing is enabled; when disabled the
        diagnostics section stays ``None`` so timing-harness fingerprints
        are identical with and without this layer.
        """
        metrics = self.observability.metrics
        for prefix, counts in (
            ("pipeline.static_before", result.static_before),
            ("pipeline.static_after", result.static_after),
            ("pipeline.dynamic_before", result.dynamic_before),
            ("pipeline.dynamic_after", result.dynamic_after),
        ):
            metrics.set(prefix + ".loads", counts.loads, unit="ops")
            metrics.set(prefix + ".stores", counts.stores, unit="ops")
        metrics.set("pipeline.jobs_used", result.jobs_used, unit="workers")
        metrics.set(
            "pipeline.output_matches", int(result.output_matches), unit="bool"
        )
        for field, value in result.totals().as_dict().items():
            metrics.inc("promotion." + field, value)
        if result.cache_stats is not None:
            for kind, hits in result.cache_stats.hits.items():
                metrics.inc(f"cache.{kind}.hits", hits)
            for kind, misses in result.cache_stats.misses.items():
                metrics.inc(f"cache.{kind}.misses", misses)
        diags = result.diagnostics
        diags.observability = {
            "version": SCHEMA_VERSION,
            "profile_source": diags.profile_source,
            "config": self.config_stamp(),
            "spans": len(self.observability.tracer.records),
            "metrics": metrics.as_dict(),
        }

    def _run_phases(self, module: Module, result: PipelineResult) -> None:
        diags = result.diagnostics
        tracer = self.observability.tracer

        # Phase 1: prepare every function (transaction: skip on failure).
        trees: Dict[str, IntervalTree] = {}
        prepared: List[str] = []
        with tracer.span("phase:prepare", category="phase"):
            for function in list(module.functions.values()):
                if not self.transactional:
                    with tracer.span("prepare:" + function.name, category="prepare"):
                        if self.run_mem2reg:
                            construct_ssa(function)
                        trees[function.name] = normalize_for_promotion(function)
                    prepared.append(function.name)
                    continue
                started = time.perf_counter()
                pre = snapshot_function(function)
                with tracer.span(
                    "prepare:" + function.name, category="prepare"
                ) as prep_span:
                    try:
                        if self.run_mem2reg:
                            construct_ssa(function)
                        trees[function.name] = normalize_for_promotion(function)
                        if self.verify:
                            verify_function(function, check_ssa=True)
                    except Exception as exc:
                        pre.restore()
                        trees.pop(function.name, None)
                        prep_span.set("status", "skipped")
                        prep_span.set("error_type", type(exc).__name__)
                        diags.record_skip(
                            function.name,
                            stage="prepare",
                            error=exc,
                            duration_ms=(time.perf_counter() - started) * 1e3,
                        )
                    else:
                        prepared.append(function.name)
            if self.verify and not self.transactional:
                verify_module(module, check_ssa=True)

        result.static_before = StaticCounts.of_module(module)

        # Phase 2: profile (step-limit exhaustion falls back to the
        # static estimate instead of aborting the run).
        before_run: Optional[ExecutionResult] = None
        with tracer.span("phase:profile", category="phase") as profile_span:
            if self.use_interpreter_profile and self.entry in module.functions:
                try:
                    before_run = Interpreter(
                        module,
                        max_steps=self.max_steps,
                        compiled=self.compiled_interpreter,
                    ).run(self.entry, self.args)
                except InterpreterLimitError as exc:
                    diags.warn(
                        f"profiling run hit the interpreter limit ({exc}); "
                        "falling back to the static profile estimate"
                    )
                    result.profile = estimate_profile(module)
                    diags.profile_source = "estimator-fallback"
                else:
                    result.profile = ProfileData.from_execution(before_run)
                    result.dynamic_before = DynamicCounts.of_execution(before_run)
                    diags.profile_source = "interpreter"
            else:
                result.profile = estimate_profile(module)
                diags.profile_source = "estimator"
            profile_span.set("profile_source", diags.profile_source)

        # Phases 3+4: memory SSA, promotion, and cleanup — one
        # transaction per function, verified before committing.
        snapshots: Dict[str, FunctionSnapshot] = {}
        committed: Dict[str, FunctionState] = {}
        jobs = 1 if self.resilience is None else resolve_jobs(self.jobs)
        with tracer.span("phase:promote", category="phase") as promote_span:
            in_workers = (
                jobs > 1
                and len(prepared) > 1
                and self._phase34_workers(
                    module, result, prepared, snapshots, committed, jobs
                )
            )
            if not in_workers:
                self._phase34_serial(
                    module, result, trees, prepared, snapshots, committed
                )
            promote_span.set("jobs_used", result.jobs_used)
            promote_span.set("functions", len(prepared))

        result.static_after = StaticCounts.of_module(module)

        # Phase 5: re-execute, compare behaviour, and bisect divergence.
        if before_run is not None:
            with tracer.span("phase:re-execute", category="phase") as rerun_span:
                self._check_behaviour(
                    module, result, before_run, snapshots, committed
                )
                rerun_span.set("output_matches", result.output_matches)

    # -- phases 3+4 ------------------------------------------------------

    def _roll_back(self, result: PipelineResult, name: str, **record):
        """Record ``name`` as rolled back (its IR already is)."""
        result.stats[name] = FunctionPromotionStats()
        self._mark_decision(name, "rolled_back")
        return result.diagnostics.record_rollback(name, **record)

    def _commit(
        self,
        result: PipelineResult,
        function: Function,
        stats: FunctionPromotionStats,
        duration_ms: float,
        snap: Optional[FunctionSnapshot],
        snapshots: Dict[str, FunctionSnapshot],
        committed: Dict[str, FunctionState],
    ):
        """Record ``function`` as promoted; keep its snapshot and
        promoted state for phase-5 bisection."""
        name = function.name
        result.stats[name] = stats
        if snap is not None:
            snapshots[name] = snap
            committed[name] = capture_state(function)
        return result.diagnostics.record_promoted(
            name, duration_ms=duration_ms, webs_promoted=stats.webs_promoted
        )

    def _phase34_serial(
        self,
        module: Module,
        result: PipelineResult,
        trees: Dict[str, IntervalTree],
        prepared: List[str],
        snapshots: Dict[str, FunctionSnapshot],
        committed: Dict[str, FunctionState],
    ) -> None:
        tracer = self.observability.tracer
        model = self.alias_model_factory(module)
        for name in prepared:
            function = module.functions[name]
            snap = snapshot_function(function) if self.transactional else None
            stats, error, stage, duration_ms = promote_stages(
                function,
                model,
                result.profile,
                trees[name],
                self.options,
                self.verify,
                tracer,
                snap,
            )
            if error is not None:
                self._roll_back(
                    result, name, stage=stage, error=error, duration_ms=duration_ms
                )
            else:
                self._commit(
                    result, function, stats, duration_ms, snap, snapshots, committed
                )

    def _worker_extras(self) -> Optional[Dict[str, object]]:
        """Observability state to carry into worker processes: whether to
        journal decisions, and the distributed trace id for their root
        spans.  ``None`` when there is nothing to carry."""
        extras: Dict[str, object] = {}
        if self.decisions is not None:
            extras["decisions"] = True
        trace_id = self.observability.tracer.trace_id
        if trace_id:
            extras["trace"] = trace_id
        return extras or None

    def _phase34_workers(
        self,
        module: Module,
        result: PipelineResult,
        prepared: List[str],
        snapshots: Dict[str, FunctionSnapshot],
        committed: Dict[str, FunctionState],
        jobs: int,
    ) -> bool:
        """Phases 3+4 on the warm worker pool under the resilient
        executor: deadlines, retry with backoff, crash recovery, and
        quarantine.  False means fall back to in-process (nothing was
        modified)."""
        diags = result.diagnostics
        obs = self.observability
        try:
            outcomes, report, transport = promote_functions_parallel(
                module,
                prepared,
                result.profile,
                self.options,
                self.alias_model_factory,
                self.verify,
                jobs,
                self.use_cache,
                self.resilience,
                observe=obs.enabled,
                extras=self._worker_extras(),
            )
        except ResilientExecutorError as exc:
            detail = str(exc).splitlines()[0]
            diags.warn(str(exc))
            diags.fallback_reason = {
                "error_type": type(exc).__name__,
                "detail": detail,
                "function": None,
            }
            obs.tracer.add_record(
                "event:serial-fallback",
                category="event",
                error_type=type(exc).__name__,
                detail=detail,
            )
            obs.metrics.inc("pipeline.serial_fallbacks")
            return False
        result.jobs_used = jobs
        result.transport_stats = transport
        diags.resilience = report.as_dict()
        diags.resilience["options"] = self.resilience.as_dict()
        if obs.enabled:
            metrics = obs.metrics
            metrics.inc("parallel.batches", transport.batches)
            metrics.inc("parallel.functions_shipped", transport.functions_shipped)
            metrics.inc("parallel.installs_full", transport.installs_full)
            metrics.inc("parallel.installs_delta", transport.installs_delta)
            metrics.inc("parallel.transport_bytes_out", transport.bytes_out)
            metrics.inc("parallel.transport_bytes_in", transport.bytes_in)
        for outcome in outcomes:
            name = outcome.name
            function = module.functions[name]
            attempts = outcome.history.attempts
            diags.attempt_histories[name] = outcome.history.as_dict()
            # One synthetic span per attempt (reconstructed from the
            # retry history — earlier attempts left no live spans), then
            # the final attempt's real worker spans (its pid is the trace
            # lane), metrics, and decision document — in module order,
            # so the aggregate is identical to an in-process run.
            for rec in outcome.history.records:
                obs.tracer.add_record(
                    "attempt:" + name,
                    category="attempt",
                    duration_ms=rec.duration_ms,
                    attempt=rec.attempt,
                    outcome=rec.outcome,
                    error_type=rec.error_type,
                    reason=rec.reason,
                    backoff_s=rec.backoff_s,
                )
                obs.metrics.inc("resilience.attempts")
                if rec.outcome not in ("promoted", "rolled_back"):
                    obs.metrics.inc("resilience." + rec.outcome.replace("-", "_"))
            obs.tracer.merge(outcome.spans)
            obs.metrics.absorb(outcome.metrics)
            if self.decisions is not None:
                self.decisions.absorb(outcome.decisions)
            if outcome.cache_stats is not None and result.cache_stats is not None:
                result.cache_stats.absorb(outcome.cache_stats)
            if outcome.status == ResilientOutcome.QUARANTINED:
                # The worker copies never shipped a payload, so this
                # module's function still holds its pre-promotion IR —
                # degraded but sound by construction.
                result.stats[name] = FunctionPromotionStats()
                obs.metrics.inc("resilience.quarantines")
                self._mark_decision(name, "quarantined")
                diags.record_quarantine(
                    name,
                    reason=outcome.reason,
                    error_type=outcome.error_type,
                    stage=outcome.stage,
                    duration_ms=outcome.duration_ms,
                    attempts=attempts,
                )
                continue
            if outcome.status != ResilientOutcome.PROMOTED:
                # The worker already restored its copy; this module's
                # function was never touched — record the rollback with
                # the stage and error the worker observed.
                record = self._roll_back(
                    result,
                    name,
                    stage=outcome.stage,
                    reason=outcome.reason,
                    error_type=outcome.error_type,
                    duration_ms=outcome.duration_ms,
                )
                record.attempts = attempts
                continue
            snap = snapshot_function(function)
            try:
                outcome.payload.install(module)
            except TransportError as exc:
                snap.restore()
                self._roll_back(
                    result,
                    name,
                    stage="install",
                    error=exc,
                    duration_ms=outcome.duration_ms,
                )
                continue
            stats = FunctionPromotionStats()
            stats.absorb(outcome.stats)
            record = self._commit(
                result,
                function,
                stats,
                outcome.duration_ms,
                snap,
                snapshots,
                committed,
            )
            record.attempts = attempts
        return True

    # -- phase 5 ---------------------------------------------------------

    def _execute(self, module: Module):
        """One re-execution attempt: (run, error) with exactly one set."""
        try:
            run = Interpreter(
                module,
                max_steps=self.max_steps,
                compiled=self.compiled_interpreter,
            ).run(self.entry, self.args)
        except InterpreterError as exc:
            return None, exc
        return run, None

    def _check_behaviour(
        self,
        module: Module,
        result: PipelineResult,
        before_run: ExecutionResult,
        snapshots: Dict[str, FunctionSnapshot],
        committed: Dict[str, FunctionState],
    ) -> None:
        diags = result.diagnostics
        after_run, error = self._execute(module)
        if after_run is not None and _behaviour_matches(before_run, after_run):
            result.dynamic_after = DynamicCounts.of_execution(after_run)
            result.output_matches = True
            return

        reason = (
            f"re-execution raised {type(error).__name__}: {error}"
            if error is not None
            else "re-execution diverged from the baseline behaviour"
        )
        if not committed:
            diags.warn(f"{reason}; no transformed function to roll back")
            result.output_matches = False
            if after_run is not None:
                result.dynamic_after = DynamicCounts.of_execution(after_run)
            return

        # Delta-debug: find the minimal culprit set among the transformed
        # functions, toggling each between its promoted and pre-promotion
        # IR and re-running from the snapshots.
        diags.warn(
            f"{reason}; bisecting over {len(committed)} transformed function(s)"
        )
        candidates = list(committed)

        def diverges(kept: List[str]) -> bool:
            kept_set = set(kept)
            for name in candidates:
                if name in kept_set:
                    committed[name].install(module.functions[name])
                else:
                    snapshots[name].restore()
            run, _ = self._execute(module)
            return run is None or not _behaviour_matches(before_run, run)

        culprits, tests_run, resolved = isolate_culprits(candidates, diverges)
        diags.bisection = BisectionReport(candidates, culprits, tests_run, resolved)

        culprit_set = set(culprits)
        for name in candidates:
            if name in culprit_set:
                snapshots[name].restore()
            else:
                committed[name].install(module.functions[name])
        for name in culprits:
            self._roll_back(
                result,
                name,
                stage="re-execution",
                reason="behaviour divergence isolated by bisection",
            )

        final_run, final_error = self._execute(module)
        result.output_matches = final_run is not None and _behaviour_matches(
            before_run, final_run
        )
        if final_run is not None:
            result.dynamic_after = DynamicCounts.of_execution(final_run)
        result.static_after = StaticCounts.of_module(module)
        if not result.output_matches:
            diags.warn(
                "behaviour divergence persists after rolling back every "
                "transformed function; promotion is not the cause"
            )
