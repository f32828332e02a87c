"""Warm-pool lifecycle: reuse across runs stays byte-identical.

Two consecutive worker runs of the same module must (a) execute on the
same pool generation (no teardown/respawn between runs), (b) publish
nothing the second time (the epoch is unchanged), and (c) both stay
byte-identical to an in-process run.
"""

import json

import pytest

from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.parallel.pool import WarmPool, warm_pool
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ResilienceOptions

#: Dedicated to this test file: the warm pool's published epoch is
#: process-wide, so sharing a workload with other tests would let their
#: runs pre-publish it and skew the first/second-run accounting below.
SOURCE = """
int warm_acc = 0;
int warm_step(int k) {
    for (int i = 0; i < 6; i++) warm_acc += k * i;
    return warm_acc;
}
int warm_mix(int k) {
    for (int i = 0; i < 4; i++) {
        if (warm_acc % 2 == 0) { warm_acc += k; } else { warm_acc -= 1; }
    }
    return warm_acc;
}
int main() {
    print(warm_step(3) + warm_mix(2));
    return 0;
}
"""


def _run(jobs):
    module = compile_source(SOURCE, "warmpool")
    pipeline = PromotionPipeline(
        entry="main",
        jobs=jobs,
        resilience=ResilienceOptions() if jobs != 1 else None,
    )
    result = pipeline.run(module)
    diagnostics = result.diagnostics.as_dict()
    for outcome in diagnostics["functions"]:
        outcome["duration_ms"] = 0.0
        outcome["attempts"] = 0
    for key in ("resilience", "attempt_histories"):
        diagnostics.pop(key, None)
    return {
        "ir": print_module(module),
        "diagnostics": json.dumps(diagnostics, sort_keys=True),
        "transport": result.transport_stats,
        "fallback": result.diagnostics.fallback_reason,
    }


def test_two_consecutive_warm_runs_are_byte_identical_to_serial():
    serial = _run(1)
    first = _run(2)
    second = _run(2)

    assert first["fallback"] is None
    assert second["fallback"] is None
    for run in (first, second):
        assert run["ir"] == serial["ir"]
        assert run["diagnostics"] == serial["diagnostics"]

    # Same pool, no rebuild between the runs.
    assert first["transport"].pool_generation == second["transport"].pool_generation

    # The first dispatch published the module; the second found the
    # same epoch on the board and published nothing, but still ran
    # every function on a worker.
    assert first["transport"].bytes_out > 0
    assert second["transport"].bytes_out == 0
    for run in (first, second):
        assert run["transport"].functions_shipped == 3
        assert run["transport"].bytes_in > 0


def test_serial_runs_report_no_transport():
    assert _run(1)["transport"] is None


def test_jobs_without_resilience_run_in_process():
    module = compile_source(SOURCE, "warmpool")
    result = PromotionPipeline(entry="main", jobs=2).run(module)
    assert result.jobs_used == 1
    assert result.transport_stats is None


def test_warm_pool_registry_hands_out_one_pool_per_job_count():
    assert warm_pool(2) is warm_pool(2)
    assert warm_pool(2) is not warm_pool(3)


def test_rebuild_bumps_the_generation_and_keeps_the_epoch():
    pool = WarmPool(jobs=1)
    generation = pool.generation
    pool.board()["anchor"] = ("key", b"payload")
    pool.rebuild()
    assert pool.generation == generation + 1
    assert pool.rebuilds == 1
    # The board survives a rebuild: fresh workers re-anchor from it.
    assert pool.board().get("anchor") == ("key", b"payload")
    pool.shutdown()


def test_pool_rejects_nonpositive_worker_counts():
    with pytest.raises(ValueError):
        WarmPool(jobs=0)


def test_as_dict_reports_lifecycle_counters():
    pool = WarmPool(jobs=1)
    doc = pool.as_dict()
    assert doc["jobs"] == 1
    assert doc["generation"] == 0
    assert doc["runs"] == 0
    assert doc["epoch_published"] is False
    pool.shutdown()
