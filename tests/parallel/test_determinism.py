"""Worker-process promotion must be bit-identical to in-process promotion.

The worker dispatch merges results in module order, so a ``jobs=4``
resilient run must reproduce a ``jobs=1`` run exactly: same transformed
IR, same Table 1/2 counts, same per-function statistics, and the same
diagnostics JSON byte for byte (after zeroing wall-clock durations,
which are not outputs, and dropping the resilient executor's own
report, which an in-process run does not have).
"""

import json

import pytest

from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ResilienceOptions


def _run(name, jobs, use_cache=True):
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    pipeline = PromotionPipeline(
        entry=workload.entry,
        args=list(workload.args),
        jobs=jobs,
        use_cache=use_cache,
        resilience=ResilienceOptions() if jobs != 1 else None,
    )
    result = pipeline.run(module)
    if jobs != 1:
        assert result.jobs_used == jobs, "worker run fell back to in-process"
    diagnostics = result.diagnostics.as_dict()
    for outcome in diagnostics["functions"]:
        outcome["duration_ms"] = 0.0
        # Worker attempts are counted; in-process runs make none.
        assert outcome.pop("attempts") == (1 if jobs != 1 else 0)
    for key in ("resilience", "attempt_histories"):
        diagnostics.pop(key, None)
    return {
        "ir": print_module(module),
        "static": [
            result.static_before.loads,
            result.static_before.stores,
            result.static_after.loads,
            result.static_after.stores,
        ],
        "dynamic": [
            result.dynamic_before.loads,
            result.dynamic_before.stores,
            result.dynamic_after.loads,
            result.dynamic_after.stores,
        ],
        "stats": {fn: s.as_dict() for fn, s in sorted(result.stats.items())},
        "output_matches": result.output_matches,
        "diagnostics_json": json.dumps(diagnostics, sort_keys=True),
    }


@pytest.mark.parametrize("name", ORDER)
def test_parallel_matches_serial(name):
    serial = _run(name, jobs=1)
    parallel = _run(name, jobs=4)
    assert parallel["ir"] == serial["ir"]
    assert parallel["static"] == serial["static"]
    assert parallel["dynamic"] == serial["dynamic"]
    assert parallel["stats"] == serial["stats"]
    assert parallel["output_matches"] is True
    assert parallel["diagnostics_json"] == serial["diagnostics_json"]


def test_cache_does_not_change_outputs():
    cached = _run("compress", jobs=1, use_cache=True)
    uncached = _run("compress", jobs=1, use_cache=False)
    assert cached == uncached
