"""Persistent, warm worker pools with incremental IR transport.

The original scheduler created a ``ProcessPoolExecutor`` per pipeline
run with the whole module pickled into the pool *initializer*: every run
paid worker spawn-up, a full module broadcast, and interpreter/module
import costs before the first function promoted.  This module replaces
that lifecycle with process pools that survive across runs (and across
modules) and a pull-based epoch protocol that ships only what changed.

**Pool lifecycle.**  :func:`warm_pool` hands out one :class:`WarmPool`
per worker count, process-wide.  The pool owns a plain executor (no
initializer — workers are blank until a task syncs them) and a
``multiprocessing.Manager`` board for epoch publication.  ``rebuild()``
is the *single* recovery path — the resilient executor's crash/hang
recovery and :func:`~repro.parallel.scheduler.map_tasks` failures both
land here — and keeps the board, so rebuilt workers resynchronize from
the already-published epoch without a new broadcast.

**Epoch protocol.**  Before dispatching, the parent publishes to the
board (under the pool lease):

* ``anchor`` — a full :class:`ModulePayload` plus its module content
  key (re-published only when the function set, the globals table, or
  too long a delta chain makes deltas unusable);
* ``chain`` — an ordered tuple of ``(module_key, delta_blob)`` entries,
  each delta a pickled ``{name: FunctionPayload bytes}`` of just the
  functions whose :func:`~repro.parallel.fingerprint.content_fingerprint`
  changed since the previous entry;
* ``meta`` — the run configuration (profile map, options, alias-model
  factory, flags), content-keyed so an unchanged configuration is never
  re-shipped.

Every task names the ``(module_key, meta_key)`` epoch it needs; a
worker already at that epoch touches nothing, a worker one or more
deltas behind applies just the suffix, and a blank (or rebuilt) worker
pulls the anchor plus the full chain.  There is no broadcast barrier —
workers pull lazily, so lazily-spawned or newly-rebuilt processes are
handled by construction.

Workers keep their module copy **pristine**: the scheduler restores the
pre-promotion snapshot after capturing each result payload, so the
module a worker holds always matches the published epoch and the next
task can reuse it.  The module copy is the only state a worker keeps
across tasks; analysis caches live for one attempt.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.parallel.fingerprint import globals_fingerprint, module_fingerprint
from repro.parallel.transport import (
    FunctionPayload,
    ModulePayload,
    TransportError,
)

#: Delta-chain length at which the parent re-anchors: a blank worker
#: must replay the whole chain, so unbounded chains would make worker
#: rebuilds progressively slower.
MAX_CHAIN = 8


class WarmPool:
    """One persistent worker pool plus its transport state.

    Callers serialize whole dispatches through :attr:`lock` (the service
    engine's threads contend on it safely); everything below the lock —
    executor, manager board, epoch bookkeeping — is owned by the lease
    holder for the duration of a run.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"a warm pool needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.lock = threading.RLock()
        #: Bumped on every rebuild; lets callers observe "same workers
        #: as last run" (or not) without reaching into the executor.
        self.generation = 0
        self.rebuilds = 0
        self.runs = 0
        self.prewarmed = False
        self._executor: Optional[ProcessPoolExecutor] = None
        self._manager = None
        self._board = None
        #: Parent-side mirror of what the board holds; ``None`` until
        #: the first publication (or after a full shutdown).
        self._epoch: Optional[dict] = None

    # -- executor ---------------------------------------------------------

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def submit(self, fn, *args):
        return self.executor().submit(fn, *args)

    def processes(self) -> Dict[int, object]:
        """pid -> Process view of the live workers (crash attribution)."""
        executor = self._executor
        if executor is None:
            return {}
        return dict(getattr(executor, "_processes", None) or {})

    def rebuild(self, kill: bool = False) -> None:
        """Tear the worker processes down and start blank ones.

        The board (and therefore the published epoch) survives, so the
        fresh workers re-anchor from it on their first task — chaos
        recovery and infrastructure-failure recovery share this one
        path.  ``kill=True`` terminates workers that will not exit on
        their own (hangs).
        """
        executor, self._executor = self._executor, None
        self.generation += 1
        self.rebuilds += 1
        self.prewarmed = False
        if executor is None:
            return
        procs = dict(getattr(executor, "_processes", None) or {})
        executor.shutdown(wait=not kill, cancel_futures=True)
        if kill:
            for proc in procs.values():
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:
                    pass
            for proc in procs.values():
                try:
                    proc.join(timeout=1.0)
                except Exception:
                    pass

    def prewarm(self, timeout_s: float = 10.0) -> float:
        """Spin every worker up and warm its imports; returns seconds.

        Submits one rendezvous task per worker; the tasks import the
        pipeline (the bulk of a cold worker's first-task latency) and
        meet on a manager barrier so the lazy executor is forced to
        spawn all ``jobs`` processes instead of funnelling the tasks
        through one.  Best-effort: a barrier timeout degrades to
        whatever spun up.
        """
        started = time.perf_counter()
        with self.lock:
            executor = self.executor()
            barrier = None
            if self.jobs > 1:
                try:
                    self.board()
                    barrier = self._manager.Barrier(self.jobs, timeout=timeout_s)
                except Exception:
                    barrier = None
            futures = [
                executor.submit(_prewarm_task, barrier) for _ in range(self.jobs)
            ]
            for future in futures:
                try:
                    future.result(timeout=timeout_s)
                except Exception:
                    break
            self.prewarmed = True
        return time.perf_counter() - started

    # -- shared state -----------------------------------------------------

    def board(self):
        """The manager-hosted epoch board (created on first use)."""
        if self._board is None:
            self._manager = multiprocessing.Manager()
            self._board = self._manager.dict()
            self._epoch = None
        return self._board

    def shared_dict(self):
        """A fresh manager dict on this pool's manager (the resilient
        executor's heartbeat/claim scoreboard lives here, so it shares
        the pool's lifetime instead of paying a manager per run)."""
        self.board()
        return self._manager.dict()

    # -- lifecycle --------------------------------------------------------

    def shutdown(self) -> None:
        with self.lock:
            executor, self._executor = self._executor, None
            manager, self._manager = self._manager, None
            self._board = None
            self._epoch = None
            self.prewarmed = False
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        if manager is not None:
            try:
                manager.shutdown()
            except Exception:
                pass

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "generation": self.generation,
            "rebuilds": self.rebuilds,
            "runs": self.runs,
            "prewarmed": self.prewarmed,
            "epoch_published": self._epoch is not None,
        }


# -- epoch publication (parent side) --------------------------------------


def publish_epoch(pool: WarmPool, module, meta_blob: bytes) -> Tuple[str, str, int]:
    """Bring the pool's board up to date with ``module`` + ``meta_blob``.

    Returns ``(module_key, meta_key, bytes_published)``.
    Caller must hold the pool lease.  Publication is incremental: an
    unchanged module publishes nothing, a partially-changed module
    appends one delta entry, and only structural changes (function set,
    globals table, overlong chain) re-anchor with a full payload.
    """
    ir_key, fps = module_fingerprint(module)
    gkey = globals_fingerprint(module)
    meta_key = hashlib.sha256(meta_blob).hexdigest()
    board = pool.board()
    epoch = pool._epoch
    names = tuple(module.functions)
    bytes_out = 0

    need_anchor = (
        epoch is None
        or epoch["globals_key"] != gkey
        or epoch["names"] != names
        or len(epoch["chain_keys"]) >= MAX_CHAIN
    )
    if need_anchor or epoch["ir_key"] != ir_key:
        changed = (
            []
            if need_anchor
            else [name for name in names if fps[name] != epoch["fps"][name]]
        )
        if not need_anchor and changed:
            blob = pickle.dumps(
                {
                    name: FunctionPayload.capture(module.functions[name]).data
                    for name in changed
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            board["chain"] = tuple(board.get("chain") or ()) + ((ir_key, blob),)
            bytes_out += len(blob)
            epoch["chain_keys"].append(ir_key)
            epoch["ir_key"] = ir_key
            epoch["fps"] = fps
        else:
            payload = ModulePayload.capture(module)
            board["anchor"] = (ir_key, payload.data)
            board["chain"] = ()
            bytes_out += len(payload.data)
            pool._epoch = epoch = {
                "ir_key": ir_key,
                "fps": fps,
                "globals_key": gkey,
                "names": names,
                "chain_keys": [],
                "meta_key": None,
            }
    if epoch["meta_key"] != meta_key:
        board["meta"] = (meta_key, meta_blob)
        epoch["meta_key"] = meta_key
        bytes_out += len(meta_blob)
    return ir_key, meta_key, bytes_out


# -- worker side -----------------------------------------------------------

#: This worker process's transport state: its module copy and the epoch
#: keys it is synchronized to.
_WORKER: dict = {}


def _prewarm_task(barrier) -> int:
    # The import IS the work: a cold worker's first task otherwise pays
    # for pulling in the whole promotion pipeline.
    import repro.promotion.pipeline  # noqa: F401

    try:
        if barrier is not None:
            barrier.wait()
    except Exception:
        pass
    return os.getpid()


def _sync_worker(board, ir_key: str, meta_key: str) -> Dict[str, int]:
    """Bring this worker to the ``(ir_key, meta_key)`` epoch.

    Fast path: already there — no board traffic at all.  Otherwise pull
    the anchor and/or the delta-chain suffix, rebuild the scheduler's
    ``_WORKER_STATE`` (the alias model is module-bound, so an IR change
    always rebuilds it), and report what was installed.
    Any failure clears the worker back to blank so the next task
    re-anchors instead of trusting half-applied state.
    """
    from repro.parallel import scheduler

    state = _WORKER
    sync = {"installs_full": 0, "installs_delta": 0}
    if state.get("ir_key") == ir_key and state.get("meta_key") == meta_key:
        return sync
    try:
        if state.get("ir_key") != ir_key:
            anchor = board.get("anchor")
            if anchor is None:
                raise TransportError(f"epoch {ir_key[:12]} has no anchor")
            anchor_key, module_bytes = anchor
            chain = tuple(board.get("chain") or ())
            keys = [anchor_key] + [key for key, _ in chain]
            if ir_key not in keys:
                raise TransportError(
                    f"epoch {ir_key[:12]} is not on the board (stale task?)"
                )
            target = keys.index(ir_key)
            module = state.get("module")
            current = state.get("ir_key")
            if module is not None and current in keys and keys.index(current) <= target:
                start = keys.index(current)
            else:
                module = ModulePayload(module_bytes).restore()
                sync["installs_full"] = 1
                start = 0
            for key, blob in chain[start:target]:
                for name, data in pickle.loads(blob).items():
                    FunctionPayload(name, data).install(module)
                    sync["installs_delta"] += 1
            state["module"] = module
            state["ir_key"] = ir_key
            # The alias model is bound to the old module objects; force
            # the meta rebind below.
            state["meta_key"] = None
        if state.get("meta_key") != meta_key:
            meta_entry = board.get("meta")
            if meta_entry is None or meta_entry[0] != meta_key:
                raise TransportError(
                    f"meta epoch {meta_key[:12]} is not on the board"
                )
            meta = pickle.loads(meta_entry[1])
            module = state["module"]
            scheduler._WORKER_STATE = {
                "module": module,
                "model": meta["alias_model_factory"](module),
                # Name-keyed, not block-bound: snapshot restores and delta
                # installs replace block objects, so the scheduler re-keys
                # a function-local profile per promotion instead.
                "profile_map": meta["profile_map"],
                "options": meta["options"],
                "verify": meta["verify"],
                "use_cache": meta["use_cache"],
                "observe": meta["observe"],
                "extras": meta.get("extras") or {},
            }
            state["meta_key"] = meta_key
    except Exception:
        state.clear()
        scheduler._WORKER_STATE = None
        raise
    return sync


# -- the process-wide pool registry ---------------------------------------

_POOLS: Dict[int, WarmPool] = {}
_REGISTRY_LOCK = threading.Lock()


def warm_pool(jobs: int) -> WarmPool:
    """The process-wide warm pool for ``jobs`` workers (created once)."""
    jobs = int(jobs)
    with _REGISTRY_LOCK:
        pool = _POOLS.get(jobs)
        if pool is None:
            pool = WarmPool(jobs)
            _POOLS[jobs] = pool
        return pool


def shutdown_pool(jobs: int) -> None:
    """Shut down (and forget) the pool for ``jobs``, if one exists."""
    with _REGISTRY_LOCK:
        pool = _POOLS.pop(int(jobs), None)
    if pool is not None:
        pool.shutdown()


def shutdown_pools() -> None:
    """Shut every warm pool down (process exit, service drain)."""
    with _REGISTRY_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


def pool_info() -> List[Dict[str, object]]:
    """Snapshot of every live pool (service ``/healthz`` reporting)."""
    with _REGISTRY_LOCK:
        return [pool.as_dict() for pool in _POOLS.values()]


atexit.register(shutdown_pools)
