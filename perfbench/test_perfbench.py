"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench``."""

import json
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

import repro.promotion.pipeline as pipeline_module
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir.parser import parse_module
from repro.parallel.fingerprint import content_fingerprint, globals_fingerprint
from repro.profile.interp import Interpreter
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import UnsoundAliasModel

from perfbench import oracle
from perfbench.edits import LiteralEditor
from perfbench.tracing import COUNTED, WRAPPED, LayerTracer
from perfbench.workloads import Tally, layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _bindings():
    names = list(WRAPPED) + list(COUNTED) + ["Interpreter"]
    return {name: vars(pipeline_module)[name] for name in names}


def test_wrappers_are_installed_and_removed():
    originals = _bindings()
    tracer = LayerTracer()
    with tracer.installed():
        inside = _bindings()
        for name, original in originals.items():
            assert inside[name] is not original, name
    assert _bindings() == originals
    for name, original in _bindings().items():
        assert original is originals[name]


def test_wrappers_are_removed_when_the_run_raises():
    originals = _bindings()
    with pytest.raises(RuntimeError):
        with LayerTracer().installed():
            raise RuntimeError("boom")
    for name, current in _bindings().items():
        assert current is originals[name], name


def test_interpreter_runs_are_attributed_to_their_phase():
    tracer = LayerTracer()
    module = compile_source(WORKLOADS["compress"].source)
    with tracer.installed():
        tracer.run_pipeline(PromotionPipeline(), module)
        # Outside a pipeline run, a direct interpreter call is not traced.
        Interpreter(module).run("main", [])
    assert tracer.calls["profile.phase2"] == 1
    assert tracer.calls["profile.phase5"] == 1
    assert tracer.counts["profile.steps"] > 0


def test_bisection_reruns_count_as_phase5():
    from tests.robustness.test_unsound_alias import TEXT

    tracer = LayerTracer()
    pipeline = PromotionPipeline(alias_model=UnsoundAliasModel)
    with tracer.installed():
        result = tracer.run_pipeline(pipeline, parse_module(TEXT))
    assert result.diagnostics.bisection is not None
    assert tracer.calls["profile.phase2"] == 1
    assert tracer.calls["profile.phase5"] > 2
    assert tracer.counts["robustness.bisect"] == 1


def test_self_times_add_up_to_the_pipeline_wall_time():
    tracer = LayerTracer()
    with tracer.installed():
        for name in ("compress", "vortex"):
            tracer.run_pipeline(PromotionPipeline(), compile_source(WORKLOADS[name].source))
    assert tracer.calls["pipeline.other"] == 2
    assert abs(tracer.unaccounted_ms()) < 1e-6
    assert tracer.busy["ir.verify"] > 0 and tracer.busy["robustness.snapshot"] > 0


def test_nested_frames_are_not_counted_twice():
    tracer = LayerTracer()

    def outer():
        time.sleep(0.01)
        tracer.call("inner", time.sleep, 0.02)

    tracer.call("outer", outer)
    total = tracer.root_wall["outer"]
    assert tracer.busy["outer"] + tracer.busy["inner"] == pytest.approx(total)
    assert tracer.busy["inner"] >= 0.02
    assert tracer.busy["outer"] < total - 0.02


@pytest.mark.parametrize("name", ORDER)
def test_each_edit_changes_exactly_one_function(name):
    editor = LiteralEditor(WORKLOADS[name].source, random.Random(f"selftest:{name}"))
    previous = compile_source(editor.source)
    for _ in range(3):
        function, source = editor.propose()
        editor.accept(source)
        current = compile_source(source)
        changed = [
            fn
            for fn in current.functions
            if content_fingerprint(current.functions[fn])
            != content_fingerprint(previous.functions[fn])
        ]
        assert changed == [function]
        assert globals_fingerprint(current) == globals_fingerprint(previous)
        previous = current


def test_metric_names_match_the_benchmark_spec():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(Tally().end_to_end()) == sorted(end_to_end)
    assert sorted(layer_metrics(LayerTracer(), Tally())) == sorted(per_layer)


def test_the_layer_map_covers_every_per_layer_metric():
    mapped = [m for row in oracle.load_manifest()["layer_map"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_printed_result_line_uses_the_spec_names():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "genprog-compile", "--seed", "3", "--seconds", "0.2", "--trace", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_the_oracle_catches_a_wrong_module():
    source = WORKLOADS["compress"].source
    reference = oracle.reference(source)
    wrong = compile_source(source.replace("checksum * 31", "checksum * 37"))
    assert oracle.check_promoted("compress", wrong, reference) is not None
    assert oracle.check_promoted("compress", compile_source(source), reference) is None
    items = [
        ("right", pickle.dumps(compile_source(source)), reference),
        ("wrong", pickle.dumps(wrong), reference),
    ]
    problems = oracle.check_in_workers(items, workers=2)
    assert len(problems) == 1 and problems[0].startswith("wrong:")
