"""Incremental transport: only changed functions re-ship.

After a warm run, mutating one function and re-running must publish a
*delta* (one pickled blob holding just the changed functions) instead of
re-anchoring the whole module, so a worker that already holds the
module installs only the mutated function.
"""

from repro.frontend.lower import compile_source
from repro.ir.printer import print_module
from repro.parallel.fingerprint import (
    content_fingerprint,
    module_fingerprint,
)
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ResilienceOptions

SOURCE = """
int a = 0;
int b = 0;
int touch_a(int k) {
    for (int i = 0; i < 4; i++) a += k;
    return a;
}
int touch_b(int k) {
    for (int i = 0; i < 3; i++) b += k;
    return b;
}
int main() {
    print(touch_a(2) + touch_b(3));
    return 0;
}
"""

#: ``touch_b`` with a different loop bound; ``touch_a`` and ``main`` are
#: textually identical, and ``main``'s profile is unaffected because its
#: own block counts do not depend on ``touch_b``'s internals.
MUTATED = SOURCE.replace("i < 3", "i < 5")


def _run(source, jobs=2):
    module = compile_source(source, "incremental")
    result = PromotionPipeline(
        entry="main",
        jobs=jobs,
        resilience=ResilienceOptions() if jobs != 1 else None,
    ).run(module)
    assert result.diagnostics.fallback_reason is None
    assert result.jobs_used == jobs
    return print_module(module), result.transport_stats


def test_content_fingerprints_isolate_the_mutated_function():
    original = compile_source(SOURCE, "incremental")
    mutated = compile_source(MUTATED, "incremental")
    _, fps_original = module_fingerprint(original)
    _, fps_mutated = module_fingerprint(mutated)
    assert fps_original["touch_b"] != fps_mutated["touch_b"]
    assert fps_original["touch_a"] == fps_mutated["touch_a"]
    assert fps_original["main"] == fps_mutated["main"]


def test_content_fingerprint_is_stable_across_compiles():
    first = compile_source(SOURCE, "incremental")
    second = compile_source(SOURCE, "incremental")
    for name in first.functions:
        assert content_fingerprint(
            first.functions[name]
        ) == content_fingerprint(second.functions[name])


def test_only_the_mutated_function_reships():
    _, warmup = _run(SOURCE)
    assert warmup.functions_shipped == 3
    assert warmup.bytes_out > 0

    mutated_ir, transport = _run(MUTATED)

    # One delta entry holding touch_b, not a new anchor: each worker
    # that syncs installs that one function and nothing else (a worker
    # the warm-up never reached still pulls the anchor first, then the
    # same one-function delta), and publication costs far fewer bytes
    # than the warm-up anchor.
    assert 1 <= transport.installs_delta <= 2
    assert transport.installs_delta >= transport.installs_full
    assert 0 < transport.bytes_out < warmup.bytes_out

    # Every function still runs on a worker: one task each.
    assert transport.functions_shipped == 3
    assert transport.batches == 3

    # And the mutated run still matches its own serial promotion.
    serial_ir, _ = _run(MUTATED, jobs=1)
    assert mutated_ir == serial_ir
