"""The classic loop, tier 0 and the translated tier must agree exactly.

``compiled=False`` is the executable specification; tier 0 (the closure
engine) and the translated tier are what ``compiled=True`` runs.  They
must agree on every observable: output, return value, step accounting,
each operation counter, the block-count profile, the final globals, and
errors.  Each engine is forced on its own through ``_run_engine``; the
translated tier raises ``_Deopt`` where it would hand a run back to
tier 0, so these tests also show it handles the regular case itself.
"""

import pytest

import repro.promotion.pipeline as pipeline_module
from repro.bench.workloads import ORDER, WORKLOADS
from repro.frontend.lower import compile_source
from repro.ir import instructions as I
from repro.ir.parser import parse_module
from repro.profile.interp import (
    Interpreter,
    InterpreterError,
    InterpreterLimitError,
    _run_engine,
)

from tests.support import nested_loops, simple_loop

ENGINES = ("classic", "tier0", "translated")


def observe(result):
    """Every observable of one successful run."""
    return {
        "output": result.output,
        "return_value": result.return_value,
        "steps": result.steps,
        "loads": result.loads,
        "stores": result.stores,
        "ptr_loads": result.ptr_loads,
        "ptr_stores": result.ptr_stores,
        "array_loads": result.array_loads,
        "array_stores": result.array_stores,
        "calls": result.calls,
        "copies": result.copies,
        # Block names repeat across functions; key by (function, block).
        "block_counts": {
            (b.function.name, b.name): count
            for b, count in result.block_counts.items()
        },
        "globals": result.globals_snapshot(),
    }


def assert_engines_agree(module, entry="main", args=(), **kwargs):
    """All three engines alone, plus the tiered public run, observe the
    same; returns the classic loop's observation."""
    seen = {
        engine: observe(_run_engine(engine, module, entry, args, **kwargs))
        for engine in ENGINES
    }
    seen["tiered"] = observe(Interpreter(module, **kwargs).run(entry, args))
    for engine, observation in seen.items():
        assert observation == seen["classic"], engine
    return seen["classic"]


def error_of(call):
    """(type, message, steps, depth) of the InterpreterError ``call`` raises."""
    with pytest.raises(InterpreterError) as info:
        call()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "steps", None), getattr(exc, "depth", None)


def assert_same_error(module, entry="main", args=(), **kwargs):
    """Classic loop, tier 0 and the tiered public run raise the same
    error; returns it."""
    errors = [
        error_of(lambda e=engine: _run_engine(e, module, entry, args, **kwargs))
        for engine in ("classic", "tier0")
    ]
    errors.append(error_of(lambda: Interpreter(module, **kwargs).run(entry, args)))
    assert errors[0] == errors[1] == errors[2]
    return errors[0]


@pytest.mark.parametrize("name", ORDER)
def test_engines_agree_on_every_workload(name):
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    assert_engines_agree(module, workload.entry, workload.args)


@pytest.mark.parametrize("name", ORDER)
def test_engines_agree_on_every_promoted_workload(name, monkeypatch):
    """Promoted IR: memory phis, dummy aliased loads (kept here by
    skipping their cleanup) and compensating loads/stores."""
    monkeypatch.setattr(pipeline_module, "remove_dummy_loads", lambda function: None)
    workload = WORKLOADS[name]
    module = compile_source(workload.source, name)
    result = pipeline_module.PromotionPipeline(
        entry=workload.entry, args=list(workload.args)
    ).run(module)
    assert result.output_matches
    kinds = {
        type(inst)
        for function in module.functions.values()
        for block in function.blocks
        for inst in block.instructions
    }
    assert {I.MemPhi, I.DummyAliasedLoad} <= kinds
    assert_engines_agree(module, workload.entry, workload.args)


def test_engines_agree_on_loops():
    for factory in (simple_loop, nested_loops):
        module, func = factory()
        assert_engines_agree(module, entry=func.name)


def test_engines_agree_on_globals_snapshot():
    module, func = simple_loop()
    observation = assert_engines_agree(module, entry=func.name)
    assert observation["globals"] == {"x": 10}


def test_engines_agree_on_pointers_arrays_and_calls():
    module = parse_module(
        """
        global @g = 3
        array @a[4] = {5, 6}

        func @bump(%p, %k) {
        entry:
          %v = ldp %p
          %w = add %v, %k
          stp %p, %w
          ret %w
        }

        func @main(%n) {
        entry:
          %pg = addr @g
          %pa = elem @a, 3
          jmp header
        header:
          %i = phi [entry: 0, body: %i2]
          %c = lt %i, %n
          br %c, body, done
        body:
          %x = call @bump(%pg, %i)
          %j = rem %i, 4
          %y = lda @a, %j
          %z = call @bump(%pa, %y)
          %q = div %z, -3
          sta @a, %j, %q
          %i2 = add %i, 1
          jmp header
        done:
          %r = ld @g
          %e = lda @a, 3
          print %r, %e
          ret %r
        }
        """
    )
    assert_engines_agree(module, "main", [40])


def test_engines_raise_the_same_runtime_error():
    module = parse_module(
        """
        func @main() {
        entry:
          %q = ldp 5
          ret %q
        }
        """
    )
    kind, message, _, _ = assert_same_error(module)
    assert kind is InterpreterError and "expected pointer" in message


def test_engines_enforce_the_same_step_limit():
    module, func = simple_loop(trip_count=1000)
    kind, message, steps, depth = assert_same_error(module, func.name, max_steps=50)
    assert kind is InterpreterLimitError
    assert message == "exceeded 50 steps"
    assert (steps, depth) == (51, 0)


def test_engines_agree_with_externals():
    module = parse_module(
        """
        func @main() {
        entry:
          %a = call @ext(7)
          print %a
          ret %a
        }
        """
    )
    externals = {"ext": lambda x: x + 1}
    seen = [
        observe(_run_engine(engine, module, externals=externals))
        for engine in ("classic", "tier0")
    ]
    seen.append(observe(Interpreter(module, externals=externals).run()))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0]["output"] == [(8,)]
