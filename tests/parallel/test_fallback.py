"""A worker-only failure keeps its cause and never costs behaviour.

An alias-model factory that refuses to build inside worker processes
fails every worker attempt during the epoch sync.  The resilient
dispatch treats that like any deterministic per-function failure: each
function is rolled back to its pre-promotion IR, the run completes with
its behaviour preserved, and the diagnostics name the cause.
"""

import multiprocessing
import os

import pytest

from repro.frontend.lower import compile_source
from repro.memory.aliasing import AliasModel
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ResilienceOptions

SOURCE = """
int total = 0;
int step(int k) {
    for (int i = 0; i < 5; i++) total += k;
    return total;
}
int main() {
    int r = step(2);
    print(r);
    return r;
}
"""

#: Recorded at import time in the parent.  Under the fork start method a
#: worker inherits this value but has its own pid, so the factory below
#: fails only inside workers — the parent's own phases still work.
_PARENT_PID = os.getpid()


def _worker_hostile_factory(module):
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("alias model refuses to build in a worker")
    return AliasModel.conservative(module)


requires_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-only failure trick needs fork inheritance",
)


@requires_fork
def test_worker_only_failure_rolls_back_and_names_the_cause():
    module = compile_source(SOURCE)
    result = PromotionPipeline(
        jobs=2,
        alias_model=_worker_hostile_factory,
        resilience=ResilienceOptions(),
    ).run(module)
    diags = result.diagnostics

    # The dispatch itself ran; no fallback to in-process promotion.
    assert result.jobs_used == 2
    assert diags.fallback_reason is None
    assert result.output_matches

    # Every function failed the same deterministic way — once, never
    # retried — and kept its pre-promotion IR.
    assert sorted(diags.rolled_back_functions) == ["main", "step"]
    for outcome in diags.as_dict()["functions"]:
        assert outcome["stage"] == "worker"
        assert outcome["error_type"] == "RuntimeError"
        assert "alias model refuses to build in a worker" in outcome["reason"]
        assert outcome["attempts"] == 1
    assert result.static_after.loads == result.static_before.loads
    assert result.static_after.stores == result.static_before.stores
