"""A per-function analysis cache keyed by IR fingerprints.

The pipeline recomputes dominator trees, iterated dominance frontiers, and
liveness several times per function: SSA construction, CFG normalization,
memory-SSA construction, the promotion driver, incremental SSA updates,
and each verifier pass all ask for the same analyses on an unchanged CFG.
:class:`AnalysisCache` memoizes them, keyed by the fingerprints of
:mod:`repro.parallel.fingerprint`; a mutation of the fingerprinted
structure changes the key, which *is* the invalidation — stale entries are
dropped the first time a lookup observes a new fingerprint, so callers
never need to notify the cache of IR edits (though :meth:`invalidate`
exists for explicit control).

The cache is installed with :func:`activate` (a context manager backed by
a :class:`contextvars.ContextVar`, so concurrent pipelines in one process
cannot observe each other's caches) and consumed through the module-level
accessors :func:`dominator_tree`, :func:`liveness`, and :func:`idf`, which
fall back to a direct computation when no cache is active.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterable, List, Optional

from repro.analysis.dominance import DominatorTree
from repro.analysis.idf import iterated_dominance_frontier
from repro.analysis.liveness import Liveness
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.parallel.fingerprint import cfg_fingerprint, code_fingerprint


class CacheStats:
    """Hit/miss counters per analysis kind."""

    KINDS = ("domtree", "idf", "liveness")

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {kind: 0 for kind in self.KINDS}
        self.misses: Dict[str, int] = {kind: 0 for kind in self.KINDS}

    def hit(self, kind: str) -> None:
        self.hits[kind] += 1

    def miss(self, kind: str) -> None:
        self.misses[kind] += 1

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def hit_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_hits / total if total else 0.0

    def absorb(self, other: "CacheStats") -> None:
        for kind in self.KINDS:
            self.hits[kind] += other.hits[kind]
            self.misses[kind] += other.misses[kind]

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "total_hits": self.total_hits,
            "total_misses": self.total_misses,
            "hit_rate": round(self.hit_rate(), 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats(hits={self.total_hits}, misses={self.total_misses})"


class _FunctionEntry:
    """Cached analyses of one function at one fingerprint."""

    __slots__ = (
        "function",
        "cfg_key",
        "cfg_pins",
        "code_key",
        "code_pins",
        "domtree",
        "idf_results",
        "liveness",
    )

    def __init__(self, function: Function) -> None:
        self.function = function
        self.cfg_key: Optional[tuple] = None
        self.cfg_pins: List[object] = []
        self.code_key: Optional[tuple] = None
        self.code_pins: List[object] = []
        self.domtree: Optional[DominatorTree] = None
        #: def-block id-set -> IDF block list, valid for the current cfg_key.
        self.idf_results: Dict[tuple, List[BasicBlock]] = {}
        self.liveness: Optional[Liveness] = None


class AnalysisCache:
    """Memoized dominator trees, IDFs, and liveness per function.

    Shared-nothing by design: each pipeline run (and each worker attempt)
    owns its own instance, so no locking is needed, hit rates describe
    exactly one run, and nothing the cache pins outlives it.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, _FunctionEntry] = {}
        self.stats = CacheStats()

    # -- entry management ------------------------------------------------

    def _entry(self, function: Function) -> _FunctionEntry:
        entry = self._entries.get(id(function))
        if entry is None or entry.function is not function:
            entry = _FunctionEntry(function)
            self._entries[id(function)] = entry
        return entry

    def _cfg_entry(self, function: Function) -> _FunctionEntry:
        """The entry revalidated against the current CFG fingerprint."""
        entry = self._entry(function)
        key, pins = cfg_fingerprint(function)
        if key != entry.cfg_key:
            entry.cfg_key = key
            entry.cfg_pins = pins
            entry.domtree = None
            entry.idf_results = {}
            # Liveness depends on the CFG too; the code key embeds the
            # terminator targets, so it would miss anyway — clear it to
            # release the pinned IR promptly.
            entry.code_key = None
            entry.code_pins = []
            entry.liveness = None
        return entry

    def invalidate(self, function: Optional[Function] = None) -> None:
        """Drop cached analyses for ``function`` (or everything)."""
        if function is None:
            self._entries.clear()
        else:
            self._entries.pop(id(function), None)

    # -- analyses --------------------------------------------------------

    def dominator_tree(self, function: Function) -> DominatorTree:
        entry = self._cfg_entry(function)
        if entry.domtree is not None:
            self.stats.hit("domtree")
            return entry.domtree
        self.stats.miss("domtree")
        entry.domtree = DominatorTree.compute(function)
        return entry.domtree

    def idf(
        self,
        function: Function,
        domtree: DominatorTree,
        def_blocks: Iterable[BasicBlock],
    ) -> List[BasicBlock]:
        defs = list(def_blocks)
        entry = self._cfg_entry(function)
        if domtree is not entry.domtree:
            # A caller-owned tree we cannot vouch for: compute directly.
            self.stats.miss("idf")
            return iterated_dominance_frontier(domtree, defs)
        key = tuple(sorted(id(b) for b in defs))
        cached = entry.idf_results.get(key)
        if cached is not None:
            self.stats.hit("idf")
            return list(cached)
        self.stats.miss("idf")
        result = iterated_dominance_frontier(domtree, defs)
        entry.idf_results[key] = list(result)
        return result

    def liveness(self, function: Function) -> Liveness:
        entry = self._cfg_entry(function)
        key, pins = code_fingerprint(function)
        if key == entry.code_key and entry.liveness is not None:
            self.stats.hit("liveness")
            return entry.liveness
        self.stats.miss("liveness")
        entry.code_key = key
        entry.code_pins = pins
        entry.liveness = Liveness.compute(function)
        return entry.liveness


# -- activation -----------------------------------------------------------

_ACTIVE: contextvars.ContextVar[Optional[AnalysisCache]] = contextvars.ContextVar(
    "repro-analysis-cache", default=None
)


def active_cache() -> Optional[AnalysisCache]:
    """The cache installed by the innermost :func:`activate`, if any."""
    return _ACTIVE.get()


@contextlib.contextmanager
def activate(cache: Optional[AnalysisCache]):
    """Install ``cache`` as the ambient analysis cache (None deactivates)."""
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)


# -- cache-aware accessors (the analysis consumers call these) ------------


def dominator_tree(function: Function) -> DominatorTree:
    """Dominator tree of ``function``, memoized when a cache is active."""
    cache = _ACTIVE.get()
    if cache is None:
        return DominatorTree.compute(function)
    return cache.dominator_tree(function)


def idf(
    function: Function, domtree: DominatorTree, def_blocks: Iterable[BasicBlock]
) -> List[BasicBlock]:
    """Iterated dominance frontier, memoized when a cache is active."""
    cache = _ACTIVE.get()
    if cache is None:
        return iterated_dominance_frontier(domtree, def_blocks)
    return cache.idf(function, domtree, def_blocks)


def liveness(function: Function) -> Liveness:
    """Live-variable analysis, memoized when a cache is active."""
    cache = _ACTIVE.get()
    if cache is None:
        return Liveness.compute(function)
    return cache.liveness(function)
