"""Parallel, cache-aware execution layer for the promotion pipeline.

Four pieces:

* :mod:`repro.parallel.cache` — a per-function :class:`AnalysisCache`
  memoizing dominator trees, iterated dominance frontiers, and liveness
  across pipeline phases, keyed by IR fingerprints so mutation is
  invalidation.  One cache lives for one pipeline run (or one worker
  attempt).
* :mod:`repro.parallel.transport` — pickle-based IR payloads that move
  functions and modules between shared-nothing worker processes while
  preserving the module/global sharing discipline.
* :mod:`repro.parallel.fingerprint` — identity fingerprints for cache
  invalidation plus *content* fingerprints (:func:`content_fingerprint`,
  :func:`module_fingerprint`) that drive the incremental transport: only
  functions whose content changed since the last dispatch are re-shipped.
* :mod:`repro.parallel.scheduler` and :mod:`repro.parallel.pool` — the
  one function-level worker dispatch (per-function tasks under the
  resilient executor; :class:`~repro.parallel.scheduler.TransportStats`
  reports what it shipped) and the persistent warm worker pools it runs
  on.  Import them directly (``from repro.parallel import scheduler``;
  ``from repro.parallel.pool import warm_pool``); they are not
  re-exported here because the pipeline imports the scheduler, and the
  scheduler's worker side imports the pipeline.

Phases 3+4 run in-process by default; they go to worker processes only
under :class:`repro.robustness.executor.ResilientExecutor` (deadlines,
crash recovery, retry/backoff, quarantine, chaos injection).  Enable it
with ``PromotionPipeline(jobs=N, resilience=ResilienceOptions(...))`` or
the CLI's ``--timeout``/``--retries``/``--chaos`` flags.
"""

from repro.parallel.cache import (
    AnalysisCache,
    CacheStats,
    activate,
    active_cache,
    dominator_tree,
    idf,
    liveness,
)
from repro.parallel.fingerprint import (
    cfg_fingerprint,
    code_fingerprint,
    content_fingerprint,
    globals_fingerprint,
    module_fingerprint,
)
from repro.parallel.transport import (
    FunctionPayload,
    ModulePayload,
    TransportError,
    export_profile,
    import_profile,
)

__all__ = [
    "AnalysisCache",
    "CacheStats",
    "activate",
    "active_cache",
    "dominator_tree",
    "idf",
    "liveness",
    "cfg_fingerprint",
    "code_fingerprint",
    "content_fingerprint",
    "globals_fingerprint",
    "module_fingerprint",
    "FunctionPayload",
    "ModulePayload",
    "TransportError",
    "export_profile",
    "import_profile",
]
