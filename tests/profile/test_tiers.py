"""Tiering: when a run leaves tier 0, and how exactly it comes back.

A run starts in tier 0 with a budget of ``TIER_UP_STEPS_PER_INSTRUCTION``
steps per static instruction and restarts in the translated tier when it
takes more.  Anything irregular in the translated tier re-runs the
program in tier 0 with the full budget, so every error keeps the classic
loop's type, message, ``steps`` and ``depth``.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.ir import instructions as I
from repro.ir.parser import parse_module
from repro.observability.metrics import MetricsRegistry, activate
from repro.profile import translate as translate_module
from repro.profile.interp import (
    TIER_UP_STEPS_PER_INSTRUCTION,
    Interpreter,
    InterpreterError,
    InterpreterLimitError,
    _Deopt,
    _run_engine,
)

from tests.profile.test_compiled_engine import (
    assert_engines_agree,
    assert_same_error,
    observe,
)

INTERP_COUNTERS = (
    "interp.runs.classic",
    "interp.runs.tier0",
    "interp.runs.translated",
    "interp.deopts",
    "interp.memo.hits",
    "interp.memo.misses",
)


def tiered(module, entry="main", args=(), **kwargs):
    """(result, interp.* counters) of one public run."""
    registry = MetricsRegistry()
    with activate(registry):
        result = Interpreter(module, **kwargs).run(entry, args)
    counters = {name: registry.value(name) or 0 for name in INTERP_COUNTERS}
    return result, counters


def tiered_error(module, entry="main", args=(), **kwargs):
    """(the classic loop's error, interp.* counters of the public run,
    which must raise the same error)."""
    expected = _error(lambda: _run_engine("classic", module, entry, args, **kwargs))
    registry = MetricsRegistry()
    with activate(registry):
        got = _error(lambda: Interpreter(module, **kwargs).run(entry, args))
    assert got == expected
    return expected, {name: registry.value(name) or 0 for name in INTERP_COUNTERS}


def _error(call):
    with pytest.raises(InterpreterError) as info:
        call()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "steps", None), getattr(exc, "depth", None)


def hot_loop_then(tail: str, trip: int = 500, prologue: str = "") -> str:
    """A module whose ``main`` loops ``trip`` times — far past the
    tier-up budget — and then runs ``tail``."""
    return f"""
        global @x = 0
        array @a[4] = 0

        func @main() {{
        entry:
          {prologue}
          jmp header
        header:
          %i = phi [entry: 0, body: %i2]
          %c = lt %i, {trip}
          br %c, body, done
        body:
          %t = ld @x
          %t2 = add %t, %i
          st @x, %t2
          %i2 = add %i, 1
          jmp header
        done:
          {tail}
        }}
        """


# -- errors raised inside the translated tier ----------------------------------


def test_step_limit_inside_the_translated_tier():
    module = parse_module(hot_loop_then("ret 0", trip=100_000))
    with pytest.raises(_Deopt):
        _run_engine("translated", module, max_steps=20_000)
    (kind, message, steps, depth), counters = tiered_error(module, max_steps=20_000)
    assert kind is InterpreterLimitError
    assert (message, steps, depth) == ("exceeded 20000 steps", 20_001, 0)
    assert counters["interp.deopts"] == 1
    assert counters["interp.runs.translated"] == 0


def test_step_limit_when_the_run_ends_just_past_it():
    """The translated tier charges whole blocks and checks the budget at
    dispatch; a run that ends a few steps over must still fail exactly."""
    module = parse_module(hot_loop_then("ret 0"))
    total = _run_engine("classic", module).steps
    (kind, message, steps, _), counters = tiered_error(module, max_steps=total - 1)
    assert kind is InterpreterLimitError
    assert steps == total
    assert counters["interp.deopts"] == 1


def test_recursion_limit_inside_the_translated_tier():
    module = parse_module(
        """
        func @dive(%n) {
        entry:
          jmp header
        header:
          %i = phi [entry: 0, header: %i2]
          %i2 = add %i, 1
          %c = lt %i2, 30
          br %c, header, down
        down:
          %m = add %n, 1
          %r = call @dive(%m)
          ret %r
        }

        func @main() {
        entry:
          %r = call @dive(0)
          ret %r
        }
        """
    )
    with pytest.raises(_Deopt):
        _run_engine("translated", module)
    (kind, message, steps, depth), counters = tiered_error(module)
    assert kind is InterpreterLimitError
    assert message == "recursion deeper than 200"
    assert depth == 201
    assert counters["interp.deopts"] == 1


def test_out_of_bounds_index_inside_the_translated_tier():
    module = parse_module(hot_loop_then("%v = lda @a, %i\n          ret %v"))
    with pytest.raises(_Deopt):
        _run_engine("translated", module)
    (kind, message, _, _), counters = tiered_error(module)
    assert kind is InterpreterError
    assert message == "index 500 out of bounds for @a[4]"
    assert counters["interp.deopts"] == 1


@pytest.mark.parametrize(
    "tail", ["sta @a, %k, 1\n          ret 0", "%v = lda @a, %k\n          ret %v"]
)
def test_negative_index_inside_the_translated_tier(tail):
    """Python lists accept index -1; the IR does not."""
    module = parse_module(hot_loop_then("%k = sub %i, 501\n          " + tail))
    with pytest.raises(_Deopt):
        _run_engine("translated", module)
    (_, message, _, _), _ = tiered_error(module)
    assert message == "index -1 out of bounds for @a[4]"


@pytest.mark.parametrize(
    "tail",
    [
        "%e = eq %p, 0\n          ret %e",
        "br %p, done2, done2\n        done2:\n          ret 0",
        "print %p\n          ret 0",
        "ret %p",
        "%n = not %p\n          ret %n",
        "%q = div %p, 0\n          ret %q",
        "sta @a, 0, %p\n          ret 0",
    ],
)
def test_pointer_used_as_int_inside_the_translated_tier(tail):
    """Python would happily compare, test or print a pointer; the
    translated tier must fault wherever ``as_int`` does."""
    module = parse_module(hot_loop_then(tail, prologue="%p = addr @x"))
    with pytest.raises(_Deopt):
        _run_engine("translated", module)
    (kind, message, _, _), counters = tiered_error(module)
    assert kind is InterpreterError
    assert message.startswith("expected integer, got Pointer(")
    assert counters["interp.deopts"] == 1


def test_unassigned_register_inside_the_translated_tier():
    module = parse_module(hot_loop_then("%v = add %never, 1\n          ret %v"))
    with pytest.raises(_Deopt):
        _run_engine("translated", module)
    (_, message, _, _), _ = tiered_error(module)
    assert message == "read of unassigned register %never"


# -- phi errors, in every engine -------------------------------------------------

MISSING_EDGE = """
    func @main() {
    entry:
      jmp header
    header:
      %i = phi [entry: 0, body: %i2]
      %c = lt %i, LIMIT
      br %c, body, other
    body:
      %i2 = add %i, 1
      jmp header
    other:
      jmp join
    join:
      %j = phi [body: 1]
      ret %j
    }
    """

ENTRY_PHI = """
    func @main() {
    entry:
      %i = phi [entry: %i2]
      %i2 = add %i, 1
      %c = lt %i2, 5
      br %c, entry, done
    done:
      ret %i2
    }
    """


@pytest.mark.parametrize("limit", [3, 500])
def test_missing_phi_edge_raises_an_interpreter_error(limit):
    module = parse_module(MISSING_EDGE.replace("LIMIT", str(limit)))
    kind, message, _, _ = assert_same_error(module)
    assert kind is InterpreterError
    assert message == "phi %j in block join has no incoming value for block other"
    with pytest.raises(_Deopt):
        _run_engine("translated", module)


def test_phi_in_entry_block_raises_an_interpreter_error():
    module = parse_module(ENTRY_PHI)
    kind, message, _, _ = assert_same_error(module)
    assert kind is InterpreterError
    assert message == "phi in entry block entry"
    with pytest.raises(_Deopt):
        _run_engine("translated", module)


def test_phi_errors_surface_in_phi_order():
    """An unassigned read by the first phi wins over a missing edge on
    the second, as in the classic loop's one-pass evaluation."""
    module = parse_module(
        """
        func @main() {
        entry:
          jmp join
        join:
          %b = phi [other: 1]
          %a = phi [entry: %undefined]
          ret %b
        other:
          jmp join
        }
        """
    )
    join = module.functions["main"].blocks[1]
    # The parser places each phi at the head of its block.
    assert [str(phi.dst) for phi in join.instructions[:2]] == ["%a", "%b"]
    _, message, _, _ = assert_same_error(module)
    assert message == "read of unassigned register %undefined"


# -- the tier boundary -----------------------------------------------------------


def boundary_module(extra: int):
    """A module that takes exactly ``budget + extra`` steps: ``pad``
    straight-line copies then a 3-step loop of ``trip`` iterations, with
    ``pad`` and ``trip`` solved for the budget of the module's size."""
    for pad in range(3):
        instructions = pad + 6
        steps_wanted = TIER_UP_STEPS_PER_INSTRUCTION * instructions + extra
        trip, rest = divmod(steps_wanted - pad - 2, 3)
        if rest == 0:
            break
    copies = "\n          ".join(f"%p{k} = copy {k}" for k in range(pad))
    module = parse_module(
        f"""
        func @main() {{
        entry:
          {copies}
          jmp header
        header:
          %i = phi [entry: 0, header: %i2]
          %i2 = add %i, 1
          %c = lt %i2, {trip}
          br %c, header, done
        done:
          ret %i2
        }}
        """
    )
    budget = TIER_UP_STEPS_PER_INSTRUCTION * sum(
        len(b.instructions) for b in module.functions["main"].blocks
    )
    assert _run_engine("classic", module).steps == budget + extra
    return module


def test_a_run_of_exactly_the_budget_stays_in_tier_0():
    module = boundary_module(0)
    result, counters = tiered(module)
    assert counters["interp.runs.tier0"] == 1
    assert counters["interp.runs.translated"] == 0
    assert observe(result) == observe(_run_engine("classic", module))


def test_a_run_one_step_past_the_budget_is_translated():
    module = boundary_module(1)
    result, counters = tiered(module)
    assert counters["interp.runs.tier0"] == 0
    assert counters["interp.runs.translated"] == 1
    assert observe(result) == observe(_run_engine("classic", module))


def test_compiled_false_pins_the_classic_loop():
    module = boundary_module(1)
    _, counters = tiered(module, compiled=False)
    assert counters["interp.runs.classic"] == 1
    assert counters["interp.runs.translated"] == 0


# -- externals, threads, the memo ------------------------------------------------


def test_an_external_callback_is_never_called_twice():
    module = parse_module(
        hot_loop_then("%r = call @ext(%i)\n          ret %r").replace(
            "%t2 = add %t, %i", "%t2 = call @ext(%i)"
        )
    )
    calls = []

    def ext(value):
        calls.append(value)
        return value * 2

    classic = _run_engine("classic", module, externals={"ext": ext})
    expected = list(calls)
    calls.clear()
    result, counters = tiered(module, externals={"ext": ext})
    assert calls == expected == list(range(500)) + [500]
    assert observe(result) == observe(classic)
    assert counters["interp.runs.tier0"] == 1
    assert counters["interp.runs.translated"] == 0


def test_threads_running_one_module_get_identical_results():
    module = parse_module(
        hot_loop_then("%v = ld @x\n          print %v\n          ret %v", trip=2000)
    )
    expected = observe(_run_engine("classic", module))
    translate_module._MEMO.clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: tiered(module), range(8)))
    for result, counters in results:
        assert observe(result) == expected
        assert counters["interp.runs.translated"] == 1


def test_the_memo_serves_a_repeat_run_and_counts_it():
    module = parse_module(hot_loop_then("ret 0"))
    translate_module._MEMO.clear()
    registry = MetricsRegistry()
    with activate(registry):
        first = Interpreter(module).run()
        second = Interpreter(module).run()
    assert observe(first) == observe(second)
    assert registry.value("interp.memo.misses") == 1
    assert registry.value("interp.memo.hits") == 1
    assert registry.value("interp.runs.translated") == 2
    assert registry.value("interp.steps") == 2 * first.steps
    assert registry.as_dict()["interp.translate_ms"]["count"] == 2


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(translate_module, "CODE_MEMO_SIZE", 2)
    translate_module._MEMO.clear()
    for trip in (300, 400, 500):
        assert_engines_agree(parse_module(hot_loop_then("ret 0", trip=trip)))
    assert len(translate_module._MEMO) == 2


def test_pipeline_rolls_back_a_function_left_with_a_missing_phi_edge(monkeypatch):
    """Phase 5 catches InterpreterError; a missing phi edge used to
    escape as a bare KeyError and crash the pipeline."""
    import repro.promotion.pipeline as pipeline_module
    from repro.frontend.lower import compile_source

    source = """
    int total = 0;
    int step(int k) {
        int acc = 0;
        for (int i = 0; i < k; i++) acc += i;
        return acc;
    }
    int main() {
        for (int j = 0; j < 6; j++) total += step(j);
        print(total);
        return 0;
    }
    """
    real_cleanup = pipeline_module.dead_memory_elimination

    def cleanup_then_break(function):
        """Re-key one phi edge of ``step`` to the wrong block, past the
        cleanup passes that would fold a one-input phi."""
        real_cleanup(function)
        if function.name == "step":
            phi = next(
                inst
                for block in function.blocks
                for inst in block.instructions
                if isinstance(inst, I.Phi) and len(inst.incoming) == 2
            )
            (first, _), (second, _) = phi.incoming
            phi.replace_incoming_block(first, second)

    monkeypatch.setattr(pipeline_module, "dead_memory_elimination", cleanup_then_break)
    baseline = _run_engine("classic", compile_source(source))
    module = compile_source(source)
    result = pipeline_module.PromotionPipeline(verify=False).run(module)
    diags = result.diagnostics
    assert diags.rolled_back_functions == ["step"]
    assert diags.outcomes["step"].stage == "re-execution"
    assert any("has no incoming value for block" in w for w in diags.warnings)
    assert result.output_matches
    assert observe(_run_engine("classic", module))["output"] == baseline.output


def test_deeply_nested_branches_still_translate():
    """Single-predecessor blocks nest one level per branch; past the
    inlining limit they become dispatch targets, so the source stays
    within Python's indentation limit."""
    depth = 150
    blocks = []
    for k in range(depth):
        blocks.append(
            f"b{k}:\n  %c{k} = lt %n, {depth - k}\n  br %c{k}, b{k + 1}, side{k}"
        )
        blocks.append(f"side{k}:\n  print {k}\n  jmp done")
    blocks.append(f"b{depth}:\n  print {depth}\n  jmp done")
    module = parse_module(
        "func @main(%n) {\nentry:\n  jmp b0\n"
        + "\n".join(blocks)
        + "\ndone:\n  ret 0\n}\n"
    )
    for n in (0, 75, 149):
        assert_engines_agree(module, "main", [n])
