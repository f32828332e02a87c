"""The resilient promotion executor.

The one function-level worker dispatch
(:func:`repro.parallel.scheduler.promote_functions_parallel` runs it):
phases 3+4 on the shared-nothing warm worker pool, one task per
function attempt, with the machinery a production promotion service
needs when workers misbehave:

* **Deadlines.**  Each function attempt gets a wall-clock budget.  A
  worker heartbeat (written to a manager-hosted scoreboard at task
  start, with the current pass stage) lets the parent watchdog tell
  "still queued" from "started and hung"; a hung attempt gets the pool
  torn down — ``Future.result(timeout=)`` alone cannot unstick a worker
  that is asleep inside a task — and only incomplete functions are
  resubmitted to the rebuilt pool.

* **Retry with backoff.**  Transient failures (injected chaos, broken
  pipes, timeouts, worker crashes) are retried up to the attempt budget
  with capped-exponential, seed-jittered delays
  (:class:`~repro.robustness.retry.RetryPolicy`).  Deterministic
  failures — verification errors, promotion bugs — keep the serial
  path's semantics: one attempt, rolled back, never retried.

* **Crash recovery.**  A dead worker breaks the whole
  ``ProcessPoolExecutor``.  The executor rebuilds the warm pool
  (:meth:`repro.parallel.pool.WarmPool.rebuild`), attributes the crash
  to the task the dead process had claimed on the scoreboard (innocent
  workers are terminated with SIGTERM by the pool and are *not*
  penalized), and resubmits everything incomplete.  Rebuilt workers re-synchronize from
  the pool's published epoch board, so recovery does not re-broadcast
  the module.

* **Quarantine.**  A function still failing when its attempts run out
  degrades to the IR it had before promotion — soundness-preserving by
  construction, because promotion is an optimization — and the module
  completes with the poison function named in the diagnostics.

Per-function attempt histories, the quarantine register, and executor
counters (retries, timeouts, crashes, rebuilds) are returned alongside
the outcomes so the pipeline can thread them into
:class:`~repro.robustness.diagnostics.PipelineDiagnostics`; what the
run shipped and received accumulates in :attr:`ResilientExecutor.transport`.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.robustness.faults import ChaosConfig
from repro.robustness.quarantine import Quarantine, QuarantineEntry
from repro.robustness.retry import AttemptHistory, AttemptRecord, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle: parallel -> snapshot
    from repro.parallel import scheduler
    from repro.parallel.cache import CacheStats
    from repro.parallel.transport import FunctionPayload


class ResilientExecutorError(RuntimeError):
    """The pool never made progress; callers should fall back to serial."""


class ResilienceOptions:
    """Knobs for the resilient executor (the CLI's ``--timeout``,
    ``--retries``, and ``--chaos`` map straight onto these)."""

    def __init__(
        self,
        timeout_s: Optional[float] = None,
        retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        seed: int = 0,
        chaos: Optional[ChaosConfig] = None,
        poll_interval_s: float = 0.05,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_policy = RetryPolicy(
            max_attempts=retries + 1,
            backoff_base_s=backoff_base_s,
            backoff_max_s=backoff_max_s,
            seed=seed,
        )
        self.seed = seed
        self.chaos = chaos
        self.poll_interval_s = poll_interval_s

    @property
    def max_attempts(self) -> int:
        return self.retry_policy.max_attempts

    def as_dict(self) -> Dict[str, object]:
        return {
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "seed": self.seed,
            "backoff": self.retry_policy.as_dict(),
            "chaos": self.chaos.as_dict() if self.chaos is not None else None,
        }


class ResilientOutcome:
    """What the executor concluded for one function."""

    PROMOTED = "promoted"
    ROLLED_BACK = "rolled_back"
    QUARANTINED = "quarantined"

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
        history: Optional[AttemptHistory] = None,
        quarantine: Optional[QuarantineEntry] = None,
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
        self.history = history or AttemptHistory(name)
        self.quarantine = quarantine
        #: Worker span records / metrics snapshot / decision document
        #: from the *final* attempt (earlier attempts are reconstructed
        #: from ``history``); ``None`` when the corresponding layer was
        #: off or no attempt ran to completion.
        self.spans = spans
        self.metrics = metrics
        self.decisions = decisions


class ExecutorReport:
    """Aggregate counters for one executor run."""

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0
        self.worker_crashes = 0
        self.transient_faults = 0
        self.pool_rebuilds = 0
        self.quarantined: List[str] = []

    @property
    def degraded(self) -> bool:
        """True when any resilience machinery had to engage."""
        return bool(
            self.retries
            or self.timeouts
            or self.worker_crashes
            or self.transient_faults
            or self.pool_rebuilds
            or self.quarantined
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "transient_faults": self.transient_faults,
            "pool_rebuilds": self.pool_rebuilds,
            "quarantined": list(self.quarantined),
        }


# -- worker side ----------------------------------------------------------

#: Executor-specific worker state (the heartbeat/claim scoreboard the
#: current task registered), alongside the scheduler's ``_WORKER_STATE``.
_EXEC_STATE: Dict[str, object] = {}


def _record_stage(name: str, stage: str) -> None:
    board = _EXEC_STATE.get("board")
    if board is not None:
        try:
            board[f"stage:{name}"] = stage
        except Exception:
            # A dying manager must never take the worker down with it.
            pass


def _resilient_promote_one(
    epoch_board, scoreboard, ir_key: str, meta_key: str, name: str, attempt: int
) -> Tuple[int, "scheduler.FunctionResult", Dict[str, int]]:
    """One attempt at one function: heartbeat, claim, sync, chaos, promote.

    Runs on a warm-pool worker: the epoch sync is a no-op when the
    worker already holds the published module, and the chaos config
    rides the epoch's meta blob (``extras``), so a rebuilt worker picks
    everything back up from the board on its first task.  Returns the
    attempt number, the result, and the sync's install accounting.
    """
    from repro.parallel import scheduler
    from repro.parallel.pool import _sync_worker

    board = scoreboard
    pid = os.getpid()
    if board is not None:
        try:
            board[f"hb:{name}"] = time.time()
            board[f"claim:{pid}"] = name
        except Exception:
            board = None
    _EXEC_STATE["board"] = board
    if board is not None:
        scheduler._STAGE_OBSERVER = _record_stage
    chaos = None
    sync = {"installs_full": 0, "installs_delta": 0}
    try:
        sync = _sync_worker(epoch_board, ir_key, meta_key)
        state = scheduler._WORKER_STATE or {}
        chaos = (state.get("extras") or {}).get("chaos")
        if chaos is not None:
            chaos.inject(name, attempt)  # may crash, hang, or raise
        result = scheduler._promote_one(name)
    except Exception as exc:
        text = (str(exc) or type(exc).__name__).splitlines()[0]
        result = scheduler.FunctionResult(
            name,
            scheduler.FunctionResult.ROLLED_BACK,
            stage="chaos" if chaos is not None else "worker",
            error_type=type(exc).__name__,
            reason=text,
        )
    finally:
        if board is not None:
            try:
                board[f"claim:{pid}"] = None
            except Exception:
                pass
    return attempt, result, sync


# -- parent side ----------------------------------------------------------


class _FunctionState:
    """Parent-side retry bookkeeping for one function."""

    __slots__ = ("name", "attempts", "eligible_at", "history")

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempts = 0
        #: Monotonic time before which the next attempt must not start.
        self.eligible_at = 0.0
        self.history = AttemptHistory(name)


class _RebuildPool(Exception):
    """Internal: the current pool must be torn down and rebuilt."""


class ResilientExecutor:
    """Drives phases 3+4 over a worker pool that is allowed to fail.

    The public entry point is :meth:`run`, which returns one
    :class:`ResilientOutcome` per function **in the submitted order**
    (so the pipeline's module-order merge stays deterministic) plus an
    :class:`ExecutorReport`.
    """

    def __init__(
        self,
        module,
        names: Sequence[str],
        profile,
        options,
        alias_model_factory: Callable,
        verify: bool,
        jobs: int,
        use_cache: bool,
        resilience: ResilienceOptions,
        observe: bool = False,
        pool=None,
        extras: Optional[Dict[str, object]] = None,
    ) -> None:
        from repro.parallel.scheduler import TransportStats
        from repro.parallel.transport import export_profile

        self.names = list(names)
        self.jobs = jobs
        self.resilience = resilience
        self.quarantine = Quarantine(resilience.max_attempts)
        self.report = ExecutorReport()
        #: What this run shipped and received (filled by :meth:`run`).
        self.transport = TransportStats()
        self.transport.functions_shipped = len(self.names)
        self._module = module
        self._pool = pool
        self._profile_map = export_profile(profile, module)
        # Chaos rides the meta extras; caller extras (decision journaling,
        # a distributed trace id) merge alongside it.
        worker_extras: Dict[str, object] = dict(extras or {})
        worker_extras["chaos"] = resilience.chaos
        self._meta = {
            "profile_map": self._profile_map,
            "options": options,
            "alias_model_factory": alias_model_factory,
            "verify": verify,
            "use_cache": use_cache,
            "observe": observe,
            "extras": worker_extras,
        }
        self._ir_key: Optional[str] = None
        self._meta_key: Optional[str] = None

    def run(self) -> Tuple[List[ResilientOutcome], ExecutorReport]:
        from repro.parallel.pool import publish_epoch, warm_pool

        pool = self._pool if self._pool is not None else warm_pool(self.jobs)
        states = {name: _FunctionState(name) for name in self.names}
        outcomes: Dict[str, ResilientOutcome] = {}
        with pool.lock:
            pool.runs += 1
            self.transport.pool_generation = pool.generation
            try:
                meta_blob = pickle.dumps(
                    self._meta, protocol=pickle.HIGHEST_PROTOCOL
                )
                self._ir_key, self._meta_key, published = publish_epoch(
                    pool, self._module, meta_blob
                )
                self.transport.bytes_out += published
                epoch_board = pool.board()
            except Exception as exc:
                detail = (str(exc) or type(exc).__name__).splitlines()[0]
                raise ResilientExecutorError(
                    "cannot publish the module to the worker pool "
                    f"({type(exc).__name__}: {detail}); falling back to "
                    "serial execution"
                ) from exc
            try:
                # The heartbeat/claim scoreboard lives on the pool's
                # manager, so it shares the pool's lifetime.
                board = pool.shared_dict()
            except Exception:
                board = None  # degrade: no hang watchdog, coarse attribution
            stalled_rounds = 0
            while len(outcomes) < len(self.names):
                progressed = self._round(pool, states, outcomes, epoch_board, board)
                if progressed:
                    stalled_rounds = 0
                    continue
                stalled_rounds += 1
                if stalled_rounds >= 2:
                    raise ResilientExecutorError(
                        "worker pool failed repeatedly without completing "
                        "any function; falling back to serial execution"
                    )
        return [outcomes[name] for name in self.names], self.report

    # -- one pool lifetime -----------------------------------------------

    def _round(
        self,
        pool,
        states: Dict[str, _FunctionState],
        outcomes: Dict[str, ResilientOutcome],
        epoch_board,
        board,
    ) -> bool:
        """Drive the warm pool until every function resolves or the pool
        must be rebuilt (hang or crash).  Returns True when any function
        resolved or any attempt was charged: a charge moves its function
        toward quarantine, so a poison function that crashes the pool
        before anything else completes still converges.  A clean round
        leaves the pool warm; a rebuild hands back fresh workers that
        resync from the epoch board."""
        resolved_before = len(outcomes)
        charged_before = sum(state.attempts for state in states.values())
        submitted: Dict[str, object] = {}
        procs: Dict[int, object] = {}
        rebuild = False
        try:
            while True:
                open_names = [n for n in self.names if n not in outcomes]
                if not open_names:
                    break
                now_mono = time.monotonic()
                for name in open_names:
                    state = states[name]
                    if name in submitted or state.eligible_at > now_mono:
                        continue
                    self._clear_board(board, name)
                    try:
                        future = pool.submit(
                            _resilient_promote_one,
                            epoch_board,
                            board,
                            self._ir_key,
                            self._meta_key,
                            name,
                            state.attempts + 1,
                        )
                    except BrokenProcessPool:
                        raise _RebuildPool()
                    submitted[name] = future
                    self.transport.batches += 1
                # The pool's worker processes spawn lazily; keep the
                # freshest pid -> Process view for crash attribution.
                procs.update(pool.processes())
                if not submitted:
                    pause = min(
                        states[n].eligible_at for n in open_names
                    ) - time.monotonic()
                    time.sleep(max(0.0, min(pause, self.resilience.poll_interval_s)))
                    continue
                done, _ = wait(
                    list(submitted.values()),
                    timeout=self.resilience.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                by_future = {future: name for name, future in submitted.items()}
                broken = False
                for future in done:
                    name = by_future[future]
                    del submitted[name]
                    try:
                        _, result, sync = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except CancelledError:
                        continue  # resubmitted next iteration
                    except Exception as exc:
                        # Result transport failed (e.g. unpicklable
                        # payload); retryable infrastructure fault.
                        self._register_failure(
                            states[name],
                            outcomes,
                            AttemptRecord.TRANSIENT,
                            error_type=type(exc).__name__,
                            reason=(str(exc) or type(exc).__name__).splitlines()[0],
                        )
                        continue
                    self.transport.installs_full += sync["installs_full"]
                    self.transport.installs_delta += sync["installs_delta"]
                    if result.payload is not None:
                        self.transport.bytes_in += len(result.payload.data)
                    self._absorb(states[name], result, outcomes)
                if broken:
                    self._attribute_crash(states, outcomes, submitted, board, procs)
                    raise _RebuildPool()
                hung = self._find_hung(submitted, outcomes, board)
                if hung:
                    for name in hung:
                        stage = None
                        if board is not None:
                            stage = board.get(f"stage:{name}")
                        self._register_failure(
                            states[name],
                            outcomes,
                            AttemptRecord.TIMEOUT,
                            error_type="TimeoutError",
                            reason=(
                                f"exceeded {self.resilience.timeout_s}s deadline"
                                + (f" in stage {stage}" if stage else "")
                            ),
                        )
                    raise _RebuildPool()
        except _RebuildPool:
            self.report.pool_rebuilds += 1
            rebuild = True
        finally:
            if rebuild:
                # One recovery path for crashes and hangs alike: kill
                # the workers, keep the board; the replacement workers
                # resync lazily on their first task.
                pool.rebuild(kill=True)
        return len(outcomes) > resolved_before or charged_before < sum(
            state.attempts for state in states.values()
        )

    # -- outcome accounting ----------------------------------------------

    def _absorb(
        self,
        state: _FunctionState,
        result: "scheduler.FunctionResult",
        outcomes: Dict[str, ResilientOutcome],
    ) -> None:
        from repro.parallel import scheduler

        name = state.name
        if result.status == scheduler.FunctionResult.PROMOTED:
            state.attempts += 1
            state.history.add(
                AttemptRecord(
                    state.attempts,
                    AttemptRecord.PROMOTED,
                    duration_ms=result.duration_ms,
                )
            )
            outcomes[name] = ResilientOutcome(
                name,
                ResilientOutcome.PROMOTED,
                duration_ms=result.duration_ms,
                stats=result.stats,
                payload=result.payload,
                cache_stats=result.cache_stats,
                history=state.history,
                spans=result.spans,
                metrics=result.metrics,
                decisions=result.decisions,
            )
            return
        if self.resilience.retry_policy.is_transient(result.error_type):
            self._register_failure(
                state,
                outcomes,
                AttemptRecord.TRANSIENT,
                error_type=result.error_type,
                reason=result.reason,
                stage=result.stage,
                duration_ms=result.duration_ms,
            )
            return
        # Deterministic failure: keep the serial transaction semantics —
        # one attempt, rolled back, never retried.
        state.attempts += 1
        state.history.add(
            AttemptRecord(
                state.attempts,
                AttemptRecord.ROLLED_BACK,
                error_type=result.error_type,
                reason=result.reason,
                duration_ms=result.duration_ms,
            )
        )
        outcomes[name] = ResilientOutcome(
            name,
            ResilientOutcome.ROLLED_BACK,
            stage=result.stage,
            error_type=result.error_type,
            reason=result.reason,
            duration_ms=result.duration_ms,
            cache_stats=result.cache_stats,
            history=state.history,
            spans=result.spans,
            metrics=result.metrics,
            decisions=result.decisions,
        )

    def _register_failure(
        self,
        state: _FunctionState,
        outcomes: Dict[str, ResilientOutcome],
        kind: str,
        error_type: Optional[str],
        reason: Optional[str],
        stage: Optional[str] = None,
        duration_ms: float = 0.0,
    ) -> None:
        """Record one transient-class failed attempt: schedule a backoff
        retry, or quarantine when the budget is exhausted."""
        from repro.observability import flightrecorder

        name = state.name
        state.attempts += 1
        counter = {
            AttemptRecord.TIMEOUT: "timeouts",
            AttemptRecord.WORKER_CRASH: "worker_crashes",
            AttemptRecord.TRANSIENT: "transient_faults",
        }[kind]
        setattr(self.report, counter, getattr(self.report, counter) + 1)
        flightrecorder.ambient().record(
            "executor.attempt_failed",
            function=name,
            attempt=state.attempts,
            outcome=kind,
            error_type=error_type,
            reason=reason,
            stage=stage,
        )
        if self.quarantine.exhausted(state.attempts):
            state.history.add(
                AttemptRecord(
                    state.attempts,
                    kind,
                    error_type=error_type,
                    reason=reason,
                    duration_ms=duration_ms,
                )
            )
            entry = self.quarantine.admit(
                name,
                state.attempts,
                reason=(
                    f"{state.attempts} failed attempt(s), last: "
                    f"{kind} ({error_type}: {reason})"
                ),
                last_error_type=error_type,
                last_outcome=kind,
            )
            self.report.quarantined.append(name)
            recorder = flightrecorder.ambient()
            recorder.record(
                "executor.quarantine",
                function=name,
                attempts=state.attempts,
                reason=entry.reason,
            )
            recorder.dump(f"quarantine-{name}")
            outcomes[name] = ResilientOutcome(
                name,
                ResilientOutcome.QUARANTINED,
                stage=stage,
                error_type=error_type,
                reason=entry.reason,
                duration_ms=duration_ms,
                history=state.history,
                quarantine=entry,
            )
            return
        backoff = self.resilience.retry_policy.backoff_s(name, state.attempts)
        state.history.add(
            AttemptRecord(
                state.attempts,
                kind,
                error_type=error_type,
                reason=reason,
                backoff_s=backoff,
                duration_ms=duration_ms,
            )
        )
        state.eligible_at = time.monotonic() + backoff
        self.report.retries += 1

    # -- failure detection -----------------------------------------------

    def _find_hung(
        self,
        submitted: Dict[str, object],
        outcomes: Dict[str, ResilientOutcome],
        board,
    ) -> List[str]:
        timeout = self.resilience.timeout_s
        if timeout is None or board is None:
            return []
        now = time.time()
        hung = []
        for name, future in submitted.items():
            if name in outcomes or future.done():
                continue
            started = board.get(f"hb:{name}")
            if started is not None and now - started > timeout:
                hung.append(name)
        for name in hung:
            del submitted[name]
        return hung

    def _attribute_crash(
        self,
        states: Dict[str, _FunctionState],
        outcomes: Dict[str, ResilientOutcome],
        submitted: Dict[str, object],
        board,
        procs: Dict[int, object],
    ) -> None:
        """Penalize only the task(s) the dead worker(s) had claimed.

        A broken pool fails every in-flight future, but all workers
        except the dead one were terminated *by the pool* with SIGTERM —
        their tasks are innocent and resubmit without an attempt charge.
        """
        culprits: Dict[str, str] = {}
        for pid, proc in procs.items():
            try:
                proc.join(timeout=1.0)
                code = proc.exitcode
            except Exception:
                code = None
            if code is None or code == 0 or code == -signal.SIGTERM:
                continue
            claimed = None
            if board is not None:
                try:
                    claimed = board.get(f"claim:{pid}")
                except Exception:
                    claimed = None
            if claimed and claimed not in outcomes:
                culprits[claimed] = f"worker pid {pid} died (exit code {code})"
        if not culprits:
            # No attribution possible (no scoreboard, or the death raced
            # the claim): charge every started-but-incomplete function so
            # a persistent crasher still converges on quarantine.
            for name in list(submitted):
                if name in outcomes:
                    continue
                started = None
                if board is not None:
                    try:
                        started = board.get(f"hb:{name}")
                    except Exception:
                        started = None
                if board is None or started is not None:
                    culprits[name] = "worker pool broke while the task was running"
        for name, reason in culprits.items():
            submitted.pop(name, None)
            self._register_failure(
                states[name],
                outcomes,
                AttemptRecord.WORKER_CRASH,
                error_type="BrokenProcessPool",
                reason=reason,
            )
        submitted.clear()

    # -- pool lifecycle ---------------------------------------------------

    def _clear_board(self, board, name: str) -> None:
        if board is None:
            return
        try:
            board.pop(f"hb:{name}", None)
            board.pop(f"stage:{name}", None)
        except Exception:
            pass
