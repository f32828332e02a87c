"""A deterministic IR interpreter with three execution engines.

Semantics:

* integers are unbounded Python ints; ``div``/``rem`` truncate toward
  zero and yield 0 for a zero divisor (total semantics keep random
  programs well-defined for property-based testing);
* shift amounts are masked to 0..63;
* comparison results are 0/1; branch conditions treat nonzero as true;
* ``undef`` reads as 0 (the front end zero-initializes locals anyway);
* pointers are (cells, index) views onto one-cell scalar boxes or array
  cell lists; arithmetic on pointers is not representable in the IR;
* phis in a block are evaluated simultaneously from the edge just taken.

The interpreter works on any IR the verifier accepts — pre-SSA, SSA,
memory-SSA-annotated, or post-phi-elimination — because memory
annotations carry no runtime meaning.  It counts executed singleton
loads/stores and per-block frequencies, which is everything Tables 1 and
2 need.

Engines.  ``Interpreter(compiled=False)`` runs the *classic* loop, an
``isinstance`` dispatch per instruction that is the executable
specification.  ``compiled=True`` (the default) runs two tiers that
produce exactly what the classic loop produces — same output, return
value, globals, step count, operation counters, block profile, and the
same error type and message:

* **tier 0** (the closure engine) translates each executed block into
  one closure per instruction, afresh every run.  It starts instantly,
  so short runs end here: a run first gets a budget of
  :data:`TIER_UP_STEPS_PER_INSTRUCTION` steps per static IR instruction
  of the module.
* the **translated tier** turns each called IR function into one Python
  function (registers become locals, blocks become branches of a
  ``while`` loop, phis become one tuple assignment per CFG edge) and
  runs that through ``compile()``.  A run that outgrows its tier-0
  budget restarts from scratch here.  Steps are charged once per block,
  and the operation counters are derived after the run from per-function
  block counts times each block's static operation counts.

Deopt.  The translated tier only handles the regular case.  Anything
irregular — the step or depth limit, an out-of-bounds index, a pointer
used as an integer, a read of an unassigned register, a missing phi
edge, an unknown callee or instruction — abandons the translated run and
re-runs the program in tier 0 with the full step budget, so every error
is raised by an engine that reports it exactly.  Runs with
``externals`` never leave tier 0: a callback must not see a re-run.

Memo.  A translated run translates every function it calls, but
``compile()`` costs about three times as much, so compiled code is kept
in a process-wide LRU of :data:`repro.profile.translate.CODE_MEMO_SIZE`
entries.  It is keyed by the generated source text itself, so a hit is
exact by construction: everything run-specific (global storage, limits, the
result being filled) is bound when the code is instantiated for a run.
The re-execution after promotion therefore reuses the profiling run's
code for every function promotion left untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Const, Undef, Value, VReg
from repro.observability.metrics import ambient

#: Tier-0 step budget per static IR instruction of the module.  A run
#: that executes more steps restarts in the translated tier.  The
#: break-even derivation from measured compile cost per instruction and
#: saving per step is in docs/PERFORMANCE.md.
TIER_UP_STEPS_PER_INSTRUCTION = 20


class InterpreterError(RuntimeError):
    """Raised on runtime errors: unknown callee, step/recursion budget
    exhaustion, out-of-bounds array access."""


class InterpreterLimitError(InterpreterError):
    """A step or recursion budget was exhausted.

    A distinct subclass so drivers can treat budget exhaustion as a
    recoverable condition (fall back to the static profile estimator)
    while genuine runtime errors still propagate."""

    def __init__(self, message: str, steps: int = 0, depth: int = 0) -> None:
        super().__init__(message)
        self.steps = steps
        self.depth = depth


class Pointer:
    """A runtime pointer: a view onto a cell list."""

    __slots__ = ("cells", "index")

    def __init__(self, cells: List[int], index: int = 0) -> None:
        self.cells = cells
        self.index = index

    def read(self) -> int:
        return self.cells[self.index]

    def write(self, value: int) -> None:
        self.cells[self.index] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pointer({self.cells!r}[{self.index}])"


class ExecutionResult:
    """Everything one program run produced and cost."""

    def __init__(self) -> None:
        #: Printed tuples, in order — the observable behaviour.
        self.output: List[Tuple[int, ...]] = []
        self.return_value: int = 0
        #: Executions per basic block (the profile), keyed by block object.
        self.block_counts: Dict[BasicBlock, int] = {}
        #: Dynamic counts of executed operations.
        self.loads = 0          # singleton loads
        self.stores = 0         # singleton stores
        self.ptr_loads = 0
        self.ptr_stores = 0
        self.array_loads = 0
        self.array_stores = 0
        self.calls = 0
        self.copies = 0
        self.steps = 0

    @property
    def memory_ops(self) -> int:
        """Singleton memory operations — the paper's reported metric."""
        return self.loads + self.stores

    def globals_snapshot(self) -> Dict[str, int]:
        return dict(self._globals_final)

    _globals_final: Dict[str, int] = {}


class _TierUp(Exception):
    """Tier 0 used up its budget; the run restarts in the translated tier."""


class _Deopt(Exception):
    """The translated tier met something irregular; the run restarts in
    tier 0 with the full step budget."""


class Interpreter:
    """Runs a module from an entry function.

    ``compiled=False`` pins the classic loop, the executable
    specification.  ``compiled=True`` (the default) runs tier 0 within a
    budget of :data:`TIER_UP_STEPS_PER_INSTRUCTION` steps per static
    instruction, restarts a run that exceeds it in the translated tier,
    and re-runs in tier 0 with the full ``max_steps`` whenever the
    translated tier deopts; with ``externals`` it stays in tier 0.  The
    engines agree on every observable, errors included (see the module
    docstring), and the test suite holds them to that.  Each run
    records ``interp.*`` counters in the ambient metrics registry."""

    def __init__(
        self,
        module: Module,
        max_steps: int = 10_000_000,
        max_depth: int = 200,
        externals: Optional[Dict[str, Callable[..., int]]] = None,
        compiled: bool = True,
    ) -> None:
        self.module = module
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.externals = externals or {}
        self.compiled = compiled

    def run(self, entry: str = "main", args: Sequence[int] = ()) -> ExecutionResult:
        function = self.module.functions.get(entry)
        if function is None:
            raise InterpreterError(f"no entry function {entry!r}")
        args = list(args)
        metrics = ambient()
        if not self.compiled:
            result = self._run_classic(function, args)
            metrics.inc("interp.runs.classic")
        elif self.externals or any(type(a) is not int for a in args):
            # A callback must not see a re-run, and translated code
            # trusts that only its own pointers are not exact ints.
            result = self._run_closures(function, args, self.max_steps)
            metrics.inc("interp.runs.tier0")
        else:
            budget = TIER_UP_STEPS_PER_INSTRUCTION * sum(
                len(block.instructions)
                for fn in self.module.functions.values()
                for block in fn.blocks
            )
            try:
                result = self._run_closures(
                    function, args, min(budget, self.max_steps)
                )
                metrics.inc("interp.runs.tier0")
            except _TierUp:
                try:
                    result = self._run_translated(function, args, metrics)
                    metrics.inc("interp.runs.translated")
                except _Deopt:
                    metrics.inc("interp.deopts")
                    result = self._run_closures(function, args, self.max_steps)
                    metrics.inc("interp.runs.tier0")
        metrics.inc("interp.steps", result.steps)
        return result

    # -- engines ---------------------------------------------------------

    def _fresh(self) -> Tuple[ExecutionResult, Dict[int, List[int]]]:
        globals_store: Dict[int, List[int]] = {}
        for var in self.module.globals.values():
            globals_store[id(var)] = var.initial_cells()
        return ExecutionResult(), globals_store

    def _finish(
        self, result: ExecutionResult, globals_store: Dict[int, List[int]]
    ) -> ExecutionResult:
        result._globals_final = {
            var.name: globals_store[id(var)][0]
            for var in self.module.globals.values()
            if var.is_scalar
        }
        return result

    def _run_classic(self, function: Function, args: List[int]) -> ExecutionResult:
        result, globals_store = self._fresh()
        result.return_value = self._call(function, args, globals_store, result, 0)
        return self._finish(result, globals_store)

    def _run_closures(
        self, function: Function, args: List[int], step_cap: int
    ) -> ExecutionResult:
        """Tier 0; raises :class:`_TierUp` past ``step_cap`` when that
        is below ``max_steps``."""
        result, globals_store = self._fresh()
        engine = _CompiledRun(self, result, globals_store, step_cap)
        result.return_value = engine.call(function, args, 0)
        return self._finish(result, globals_store)

    def _run_translated(
        self, function: Function, args: List[int], metrics
    ) -> ExecutionResult:
        """The translated tier; raises :class:`_Deopt` on anything
        irregular."""
        from repro.profile.translate import TranslatedRun

        result, globals_store = self._fresh()
        linker = TranslatedRun(self, result, globals_store)
        try:
            result.return_value = linker[function.name](0, *args)
        except Exception as exc:
            raise _Deopt from exc
        finally:
            metrics.inc("interp.memo.hits", linker.memo_hits)
            metrics.inc("interp.memo.misses", linker.memo_misses)
            metrics.observe("interp.translate_ms", linker.translate_s * 1e3)
        linker.account()
        return self._finish(result, globals_store)

    # -- the classic loop --------------------------------------------------

    def _call(
        self,
        function: Function,
        args: List[int],
        globals_store: Dict[int, List[int]],
        result: ExecutionResult,
        depth: int,
    ) -> int:
        if depth > self.max_depth:
            raise InterpreterLimitError(
                f"recursion deeper than {self.max_depth}", depth=depth
            )

        frame_store: Dict[int, List[int]] = {}
        for var in function.frame_vars.values():
            frame_store[id(var)] = var.initial_cells()

        def cells_of(var) -> List[int]:
            if id(var) in frame_store:
                return frame_store[id(var)]
            if id(var) in globals_store:
                return globals_store[id(var)]
            raise InterpreterError(f"variable @{var.name} has no storage")

        env: Dict[VReg, object] = {}
        for i, param in enumerate(function.params):
            env[param] = args[i] if i < len(args) else 0

        def value(v: Value) -> object:
            if isinstance(v, Const):
                return v.value
            if isinstance(v, Undef):
                return 0
            if isinstance(v, VReg):
                if v not in env:
                    raise InterpreterError(f"read of unassigned register {v}")
                return env[v]
            raise InterpreterError(f"cannot evaluate {v!r}")

        def as_int(v: Value) -> int:
            raw = value(v)
            if not isinstance(raw, int):
                raise InterpreterError(f"expected integer, got {raw!r}")
            return raw

        def as_ptr(v: Value) -> Pointer:
            raw = value(v)
            if not isinstance(raw, Pointer):
                raise InterpreterError(f"expected pointer, got {raw!r}")
            return raw

        block = function.entry
        prev_block: Optional[BasicBlock] = None
        while True:
            result.block_counts[block] = result.block_counts.get(block, 0) + 1

            # Phis first, evaluated in parallel against the incoming edge.
            phi_updates: List[Tuple[VReg, object]] = []
            index = 0
            for inst in block.instructions:
                if isinstance(inst, I.Phi):
                    if prev_block is None:
                        raise InterpreterError(_entry_phi_message(block))
                    phi_updates.append(
                        (inst.dst, value(_phi_operand(inst, block, prev_block)))
                    )
                elif not isinstance(inst, I.MemPhi):
                    break
                index += 1
            for reg, val in phi_updates:
                env[reg] = val

            jumped = False
            for inst in block.instructions[index:]:
                result.steps += 1
                if result.steps > self.max_steps:
                    raise InterpreterLimitError(
                        f"exceeded {self.max_steps} steps", steps=result.steps
                    )

                if isinstance(inst, I.Copy):
                    env[inst.dst] = value(inst.src)
                    result.copies += 1
                elif isinstance(inst, I.BinOp):
                    env[inst.dst] = _binop(inst.op, as_int(inst.lhs), as_int(inst.rhs))
                elif isinstance(inst, I.UnOp):
                    env[inst.dst] = _unop(inst.op, as_int(inst.src))
                elif isinstance(inst, I.Load):
                    env[inst.dst] = cells_of(inst.var)[0]
                    result.loads += 1
                elif isinstance(inst, I.Store):
                    # Pointer-typed locals may hold Pointer values until
                    # mem2reg promotes them to registers.
                    cells_of(inst.var)[0] = value(inst.value)
                    result.stores += 1
                elif isinstance(inst, I.AddrOf):
                    env[inst.dst] = Pointer(cells_of(inst.var))
                elif isinstance(inst, I.Elem):
                    idx = as_int(inst.index)
                    cells = cells_of(inst.array)
                    _bounds_check(inst.array, idx, cells)
                    env[inst.dst] = Pointer(cells, idx)
                elif isinstance(inst, I.PtrLoad):
                    env[inst.dst] = as_ptr(inst.ptr).read()
                    result.ptr_loads += 1
                elif isinstance(inst, I.PtrStore):
                    as_ptr(inst.ptr).write(as_int(inst.value))
                    result.ptr_stores += 1
                elif isinstance(inst, I.ArrayLoad):
                    idx = as_int(inst.index)
                    cells = cells_of(inst.array)
                    _bounds_check(inst.array, idx, cells)
                    env[inst.dst] = cells[idx]
                    result.array_loads += 1
                elif isinstance(inst, I.ArrayStore):
                    idx = as_int(inst.index)
                    cells = cells_of(inst.array)
                    _bounds_check(inst.array, idx, cells)
                    cells[idx] = as_int(inst.value)
                    result.array_stores += 1
                elif isinstance(inst, I.Call):
                    result.calls += 1
                    ret = self._dispatch_call(
                        inst,
                        [value(a) for a in inst.operands],
                        globals_store,
                        result,
                        depth,
                    )
                    if inst.dst is not None:
                        env[inst.dst] = ret
                elif isinstance(inst, I.DummyAliasedLoad):
                    pass  # no runtime effect by construction
                elif isinstance(inst, I.Print):
                    result.output.append(tuple(as_int(v) for v in inst.operands))
                elif isinstance(inst, I.Jump):
                    prev_block, block = block, inst.target
                    jumped = True
                elif isinstance(inst, I.CondBr):
                    taken = inst.if_true if as_int(inst.cond) != 0 else inst.if_false
                    prev_block, block = block, taken
                    jumped = True
                elif isinstance(inst, I.Ret):
                    return as_int(inst.value) if inst.value is not None else 0
                else:
                    raise InterpreterError(f"cannot execute {type(inst).__name__}")
                if jumped:
                    break
            if not jumped:
                raise InterpreterError(f"block {block.name} fell through")

    def _dispatch_call(self, inst, args, globals_store, result, depth):
        callee = self.module.functions.get(inst.callee)
        if callee is not None:
            return self._call(callee, args, globals_store, result, depth + 1)
        if inst.callee in self.externals:
            value = self.externals[inst.callee](*args)
            return int(value) if value is not None else 0
        raise InterpreterError(f"unknown callee @{inst.callee}")


def run_module(
    module: Module, entry: str = "main", args: Sequence[int] = (), **kwargs
) -> ExecutionResult:
    """Convenience wrapper: run ``module`` from ``entry``."""
    return Interpreter(module, **kwargs).run(entry, args)


def _run_engine(
    engine: str,
    module: Module,
    entry: str = "main",
    args: Sequence[int] = (),
    **kwargs,
) -> ExecutionResult:
    """Run one engine alone, with no tiering: ``"classic"``, ``"tier0"``
    (the closure engine with the full step budget) or ``"translated"``
    (which raises :class:`_Deopt` instead of falling back).  The test
    suite's handle for holding the engines to each other."""
    interp = Interpreter(module, **kwargs)
    function = module.functions[entry]
    if engine == "classic":
        return interp._run_classic(function, list(args))
    if engine == "tier0":
        return interp._run_closures(function, list(args), interp.max_steps)
    if engine == "translated":
        return interp._run_translated(function, list(args), ambient())
    raise ValueError(f"unknown engine {engine!r}")


def _bounds_check(array, idx: int, cells: List[int]) -> None:
    if not 0 <= idx < len(cells):
        raise InterpreterError(
            f"index {idx} out of bounds for @{array.name}[{len(cells)}]"
        )


def _entry_phi_message(block: BasicBlock) -> str:
    return f"phi in entry block {block.name}"


def _incoming(phi: I.Phi, pred: BasicBlock) -> Optional[Value]:
    """``phi``'s value on the edge from ``pred``, or None if it has none."""
    for block, value in phi.incoming:
        if block is pred:
            return value
    return None


def _phi_operand(phi: I.Phi, block: BasicBlock, pred: BasicBlock) -> Value:
    value = _incoming(phi, pred)
    if value is None:
        raise InterpreterError(
            f"phi {phi.dst} in block {block.name} has no incoming value "
            f"for block {pred.name}"
        )
    return value


def _binop(op: str, a: int, b: int) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            return 0
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if op == "rem":
        if b == 0:
            return 0
        return a - b * _binop("div", a, b)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << (b & 63)
    if op == "shr":
        return a >> (b & 63)
    if op == "lt":
        return int(a < b)
    if op == "le":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "ge":
        return int(a >= b)
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    raise InterpreterError(f"unknown binary op {op}")


def _unop(op: str, a: int) -> int:
    if op == "neg":
        return -a
    if op == "not":
        return int(a == 0)
    if op == "bnot":
        return ~a
    raise InterpreterError(f"unknown unary op {op}")


# ---------------------------------------------------------------------------
# Tier 0: the closure engine
# ---------------------------------------------------------------------------
#
# Each executed basic block is translated once per run into a tuple
# ``(phis, phi_edges, ops)``: the leading phi instructions, a per-edge
# cache of precompiled phi moves, and one closure per remaining
# instruction.  A closure takes ``(env, cells, depth)`` — the only
# per-call-frame state — and returns ``None`` to fall through, the next
# block to jump, or the ``_RETURN`` sentinel.  Operand access, operator
# selection, and type checks are resolved at compile time, so executing
# an instruction costs one closure call instead of an isinstance chain.
#
# Exactness over speed wherever they conflict: step accounting, error
# types, messages, and their relative ordering all match the classic
# loop, and the IR is re-read lazily (a block is compiled only when
# first executed, so errors like an unknown instruction still surface at
# execution time, not before).

_RETURN = object()


def _getter(v: Value):
    """Compile ``value(v)`` into a closure of ``env``."""
    if isinstance(v, Const):
        c = v.value
        return lambda env: c
    if isinstance(v, Undef):
        return lambda env: 0
    if isinstance(v, VReg):

        def get(env, r=v):
            try:
                return env[r]
            except KeyError:
                raise InterpreterError(f"read of unassigned register {r}") from None

        return get

    def bad(env, v=v):
        raise InterpreterError(f"cannot evaluate {v!r}")

    return bad


def _phi_getter(phi: I.Phi, block: BasicBlock, pred: BasicBlock):
    """Compile ``phi``'s read on the edge from ``pred``."""
    try:
        return _getter(_phi_operand(phi, block, pred))
    except InterpreterError as exc:

        def missing(env, exc=exc):
            raise InterpreterError(str(exc))

        return missing


def _int_getter(v: Value):
    """Compile ``as_int(v)`` into a closure of ``env``."""
    if isinstance(v, Const):
        c = v.value
        if isinstance(c, int):
            return lambda env: c

        def badc(env, c=c):
            raise InterpreterError(f"expected integer, got {c!r}")

        return badc
    if isinstance(v, Undef):
        return lambda env: 0
    if isinstance(v, VReg):

        def get(env, r=v):
            try:
                raw = env[r]
            except KeyError:
                raise InterpreterError(f"read of unassigned register {r}") from None
            if isinstance(raw, int):
                return raw
            raise InterpreterError(f"expected integer, got {raw!r}")

        return get

    def bad(env, v=v):
        raise InterpreterError(f"cannot evaluate {v!r}")

    return bad


def _ptr_getter(v: Value):
    """Compile ``as_ptr(v)`` into a closure of ``env``."""
    if isinstance(v, (Const, Undef)):
        raw = 0 if isinstance(v, Undef) else v.value

        def badc(env, raw=raw):
            raise InterpreterError(f"expected pointer, got {raw!r}")

        return badc
    if isinstance(v, VReg):

        def get(env, r=v):
            try:
                raw = env[r]
            except KeyError:
                raise InterpreterError(f"read of unassigned register {r}") from None
            if isinstance(raw, Pointer):
                return raw
            raise InterpreterError(f"expected pointer, got {raw!r}")

        return get

    def bad(env, v=v):
        raise InterpreterError(f"cannot evaluate {v!r}")

    return bad


def _div(a: int, b: int) -> int:
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _rem(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a - b * _div(a, b)


_BIN_FNS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _div,
    "rem": _rem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: a >> (b & 63),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
}

_UN_FNS: Dict[str, Callable[[int], int]] = {
    "neg": lambda a: -a,
    "not": lambda a: int(a == 0),
    "bnot": lambda a: ~a,
}


class _CompiledRun:
    """One tier-0 execution: the per-run code map plus the dispatch loop."""

    __slots__ = ("interp", "result", "globals_store", "codemap", "retval", "step_cap")

    def __init__(
        self,
        interp: Interpreter,
        result: ExecutionResult,
        globals_store: Dict[int, List[int]],
        step_cap: int,
    ) -> None:
        self.interp = interp
        self.result = result
        self.globals_store = globals_store
        #: id(block) -> (phis, phi_edges, ops); valid for this run only.
        self.codemap: Dict[int, tuple] = {}
        self.retval: int = 0
        #: Steps this run may take: ``max_steps``, or the tier-up budget.
        self.step_cap = step_cap

    def _over_cap(self) -> Exception:
        max_steps = self.interp.max_steps
        if self.step_cap < max_steps:
            return _TierUp()
        steps = self.result.steps
        return InterpreterLimitError(f"exceeded {max_steps} steps", steps=steps)

    def call(self, function: Function, args: List[int], depth: int) -> int:
        interp = self.interp
        if depth > interp.max_depth:
            raise InterpreterLimitError(
                f"recursion deeper than {interp.max_depth}", depth=depth
            )

        frame_store: Dict[int, List[int]] = {}
        for var in function.frame_vars.values():
            frame_store[id(var)] = var.initial_cells()
        globals_store = self.globals_store

        def cells_of(var) -> List[int]:
            cells = frame_store.get(id(var))
            if cells is not None:
                return cells
            cells = globals_store.get(id(var))
            if cells is not None:
                return cells
            raise InterpreterError(f"variable @{var.name} has no storage")

        env: Dict[VReg, object] = {}
        for i, param in enumerate(function.params):
            env[param] = args[i] if i < len(args) else 0

        result = self.result
        codemap = self.codemap
        step_cap = self.step_cap
        block_counts = result.block_counts
        block = function.entry
        prev_block: Optional[BasicBlock] = None
        while True:
            code = codemap.get(id(block))
            if code is None:
                code = codemap[id(block)] = self._compile_block(block)
            phis, phi_edges, ops = code
            block_counts[block] = block_counts.get(block, 0) + 1

            if phis:
                if prev_block is None:
                    raise InterpreterError(_entry_phi_message(block))
                moves = phi_edges.get(id(prev_block))
                if moves is None:
                    # First arrival via this edge.  A missing incoming
                    # value compiles to a getter that raises, so errors
                    # surface in phi order, like the classic loop's.
                    moves = phi_edges[id(prev_block)] = [
                        (phi.dst, _phi_getter(phi, block, prev_block)) for phi in phis
                    ]
                if len(moves) == 1:
                    dst, get = moves[0]
                    env[dst] = get(env)
                else:
                    updates = [(dst, get(env)) for dst, get in moves]
                    for reg, val in updates:
                        env[reg] = val

            for op in ops:
                result.steps += 1
                if result.steps > step_cap:
                    raise self._over_cap()
                nxt = op(env, cells_of, depth)
                if nxt is not None:
                    if nxt is _RETURN:
                        return self.retval
                    prev_block, block = block, nxt
                    break
            else:
                raise InterpreterError(f"block {block.name} fell through")

    # -- translation -----------------------------------------------------

    def _compile_block(self, block: BasicBlock) -> tuple:
        instructions = block.instructions
        index = 0
        phis: List[I.Phi] = []
        for inst in instructions:
            if isinstance(inst, I.Phi):
                phis.append(inst)
            elif not isinstance(inst, I.MemPhi):
                break
            index += 1
        ops = tuple(self._compile_inst(inst) for inst in instructions[index:])
        return phis, {}, ops

    def _compile_inst(self, inst: I.Instruction):
        result = self.result

        if isinstance(inst, I.Copy):
            get = _getter(inst.src)

            def op(env, cells, depth, d=inst.dst, get=get):
                env[d] = get(env)
                result.copies += 1

            return op

        if isinstance(inst, I.BinOp):
            fn = _BIN_FNS.get(inst.op)
            if fn is None:

                def badop(env, cells, depth, o=inst.op):
                    raise InterpreterError(f"unknown binary op {o}")

                return badop
            ga = _int_getter(inst.lhs)
            gb = _int_getter(inst.rhs)

            def op(env, cells, depth, d=inst.dst, fn=fn, ga=ga, gb=gb):
                env[d] = fn(ga(env), gb(env))

            return op

        if isinstance(inst, I.UnOp):
            ufn = _UN_FNS.get(inst.op)
            if ufn is None:

                def badop(env, cells, depth, o=inst.op):
                    raise InterpreterError(f"unknown unary op {o}")

                return badop
            ga = _int_getter(inst.src)

            def op(env, cells, depth, d=inst.dst, fn=ufn, ga=ga):
                env[d] = fn(ga(env))

            return op

        if isinstance(inst, I.Load):

            def op(env, cells, depth, d=inst.dst, var=inst.var):
                env[d] = cells(var)[0]
                result.loads += 1

            return op

        if isinstance(inst, I.Store):
            get = _getter(inst.value)

            def op(env, cells, depth, var=inst.var, get=get):
                cells(var)[0] = get(env)
                result.stores += 1

            return op

        if isinstance(inst, I.AddrOf):

            def op(env, cells, depth, d=inst.dst, var=inst.var):
                env[d] = Pointer(cells(var))

            return op

        if isinstance(inst, I.Elem):
            gi = _int_getter(inst.index)

            def op(env, cells, depth, d=inst.dst, array=inst.array, gi=gi):
                idx = gi(env)
                c = cells(array)
                _bounds_check(array, idx, c)
                env[d] = Pointer(c, idx)

            return op

        if isinstance(inst, I.PtrLoad):
            gp = _ptr_getter(inst.ptr)

            def op(env, cells, depth, d=inst.dst, gp=gp):
                env[d] = gp(env).read()
                result.ptr_loads += 1

            return op

        if isinstance(inst, I.PtrStore):
            gp = _ptr_getter(inst.ptr)
            gi = _int_getter(inst.value)

            def op(env, cells, depth, gp=gp, gi=gi):
                gp(env).write(gi(env))
                result.ptr_stores += 1

            return op

        if isinstance(inst, I.ArrayLoad):
            gi = _int_getter(inst.index)

            def op(env, cells, depth, d=inst.dst, array=inst.array, gi=gi):
                idx = gi(env)
                c = cells(array)
                _bounds_check(array, idx, c)
                env[d] = c[idx]
                result.array_loads += 1

            return op

        if isinstance(inst, I.ArrayStore):
            gi = _int_getter(inst.index)
            gv = _int_getter(inst.value)

            def op(env, cells, depth, array=inst.array, gi=gi, gv=gv):
                idx = gi(env)
                c = cells(array)
                _bounds_check(array, idx, c)
                c[idx] = gv(env)
                result.array_stores += 1

            return op

        if isinstance(inst, I.Call):
            getters = [_getter(a) for a in inst.operands]
            functions = self.interp.module.functions
            externals = self.interp.externals
            call = self.call

            def op(
                env,
                cells,
                depth,
                d=inst.dst,
                name=inst.callee,
                getters=getters,
                functions=functions,
                externals=externals,
                call=call,
            ):
                result.calls += 1
                args = [g(env) for g in getters]
                callee = functions.get(name)
                if callee is not None:
                    ret = call(callee, args, depth + 1)
                elif name in externals:
                    value = externals[name](*args)
                    ret = int(value) if value is not None else 0
                else:
                    raise InterpreterError(f"unknown callee @{name}")
                if d is not None:
                    env[d] = ret

            return op

        if isinstance(inst, I.DummyAliasedLoad):

            def op(env, cells, depth):
                pass

            return op

        if isinstance(inst, I.Print):
            igetters = [_int_getter(v) for v in inst.operands]

            def op(env, cells, depth, igetters=igetters):
                result.output.append(tuple(g(env) for g in igetters))

            return op

        if isinstance(inst, I.Jump):

            def op(env, cells, depth, t=inst.target):
                return t

            return op

        if isinstance(inst, I.CondBr):
            gc = _int_getter(inst.cond)

            def op(env, cells, depth, gc=gc, t=inst.if_true, f=inst.if_false):
                return t if gc(env) != 0 else f

            return op

        if isinstance(inst, I.Ret):
            if inst.value is not None:
                gi = _int_getter(inst.value)

                def op(env, cells, depth, self=self, gi=gi):
                    self.retval = gi(env)
                    return _RETURN

                return op

            def op(env, cells, depth, self=self):
                self.retval = 0
                return _RETURN

            return op

        def unknown(env, cells, depth, kind=type(inst).__name__):
            raise InterpreterError(f"cannot execute {kind}")

        return unknown
