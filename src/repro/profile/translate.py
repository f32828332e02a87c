"""The translated tier of :mod:`repro.profile.interp`.

One IR function becomes the source of a factory ``make(bc, st, fns,
out, max_depth, max_steps, g0, ..., t0, ...)`` that returns a
``fn(d, r0=0, ...)`` closed over one run's state: ``bc`` is the
function's block-count list, ``st`` the run's one-cell step counter,
``fns`` the run's linker (:class:`TranslatedRun`), ``out`` the output
list's append, ``gK`` a global's cells and ``tK`` a frame variable's
initial cells.  Registers are locals ``rK``; a frame scalar whose
address is never taken is a local ``vK`` too.  Blocks with one incoming
edge are inlined into their predecessor; the others are *dispatch
targets*, numbered branches of ``while True`` selected by ``b``.
Entering a block adds one to its count and its step cost to the
activation's local ``s``, which is flushed into ``st`` around calls and
at return; each dispatch checks ``s`` against the budget left, so every
loop is bounded.  Anything the code does not handle regularly raises
``Deopt`` or a Python error, and the interpreter repeats the run in
tier 0.

A frame is the only per-call state, so code is shared across runs and
threads: a process-wide LRU hands out the compiled factory for a source
text.  The interpreter imports this module on a run's first tier-up.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir import instructions as I
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Const, Undef, Value, VReg
from repro.profile.interp import (
    ExecutionResult,
    Interpreter,
    Pointer,
    _Deopt,
    _div,
    _incoming,
    _rem,
)

#: Compiled translated functions kept in the process-wide code memo.
CODE_MEMO_SIZE = 256

_MEMO: "OrderedDict[str, Callable]" = OrderedDict()
_MEMO_LOCK = threading.Lock()

#: The module namespace of every generated factory.
_RUNTIME = {"Deopt": _Deopt, "P": Pointer, "div": _div, "rem": _rem}

#: Blocks inlined along one path, past which a single-predecessor block
#: becomes a dispatch target instead: the generated source stays well
#: inside Python's indentation limit and the translator's recursion.
_MAX_INLINED = 48

#: The :class:`ExecutionResult` fields of a block's static row, in order.
_COUNTERS = (
    "steps",
    "loads",
    "stores",
    "ptr_loads",
    "ptr_stores",
    "array_loads",
    "array_stores",
    "calls",
    "copies",
)
#: Instruction type -> the row index of the counter it bumps.
_COUNTED = {
    I.Load: 1,
    I.Store: 2,
    I.PtrLoad: 3,
    I.PtrStore: 4,
    I.ArrayLoad: 5,
    I.ArrayStore: 6,
    I.Call: 7,
    I.Copy: 8,
}

_ARITH = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_SHIFT = {"shl": "<<", "shr": ">>"}
_COMPARE = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_EQUALITY = {"eq": "==", "ne": "!="}
_TERMINATORS = (I.Jump, I.CondBr, I.Ret)


def _factory(source: str) -> Tuple[Callable, bool]:
    """The compiled factory for ``source`` and whether the memo had it."""
    with _MEMO_LOCK:
        make = _MEMO.get(source)
        if make is not None:
            _MEMO.move_to_end(source)
            return make, True
    namespace = dict(_RUNTIME)
    exec(compile(source, "<translated>", "exec"), namespace)
    make = namespace["make"]
    with _MEMO_LOCK:
        _MEMO[source] = make
        while len(_MEMO) > CODE_MEMO_SIZE:
            _MEMO.popitem(last=False)
    return make, False


class TranslatedRun(dict):
    """One translated execution.  Maps a function name to its
    translated code instantiated for this run; generated call sites
    index it, so a function is translated on its first call."""

    def __init__(
        self,
        interp: Interpreter,
        result: ExecutionResult,
        globals_store: Dict[int, List[int]],
    ) -> None:
        super().__init__()
        self.interp = interp
        self.result = result
        self.globals_store = globals_store
        self.steps = [0]
        #: (block counts, static rows) per function, in link order.
        self.linked: List[tuple] = []
        self.memo_hits = 0
        self.memo_misses = 0
        self.translate_s = 0.0

    def __missing__(self, name: str) -> Callable:
        started = time.perf_counter()
        interp = self.interp
        module = interp.module
        source, bound, rows = _Translator(module.functions[name], module).translate()
        make, hit = _factory(source)
        if hit:
            self.memo_hits += 1
        else:
            self.memo_misses += 1
        cells = [
            self.globals_store[id(var)] if is_global else var.initial_cells()
            for is_global, var in bound
        ]
        # Generated arithmetic does not type-check what it loads, so
        # memory must start out as exact ints.
        if any(type(c) is not int for cell_list in cells for c in cell_list):
            raise _Deopt
        counts = [0] * len(rows)
        fn = make(
            counts,
            self.steps,
            self,
            self.result.output.append,
            interp.max_depth,
            interp.max_steps,
            *cells,
        )
        self[name] = fn
        self.linked.append((counts, rows))
        self.translate_s += time.perf_counter() - started
        return fn

    def account(self) -> None:
        """Fill the result's profile and counters from the block counts."""
        result = self.result
        block_counts = result.block_counts
        totals = [0] * len(_COUNTERS)
        for counts, rows in self.linked:
            for count, (block, static) in zip(counts, rows):
                if count:
                    block_counts[block] = count
                    for k, n in enumerate(static):
                        totals[k] += count * n
        for field, total in zip(_COUNTERS, totals):
            setattr(result, field, total)
        if result.steps > self.interp.max_steps:
            raise _Deopt


def _plan(block: BasicBlock) -> tuple:
    """(phis, body, terminator) of ``block`` as the classic loop runs
    it: the leading phis, then every instruction up to the first
    terminator (None when the block falls through)."""
    insts = block.instructions
    i = 0
    phis = []
    while i < len(insts) and isinstance(insts[i], (I.Phi, I.MemPhi)):
        if isinstance(insts[i], I.Phi):
            phis.append(insts[i])
        i += 1
    body = []
    for inst in insts[i:]:
        if type(inst) in _TERMINATORS:
            return phis, body, inst
        body.append(inst)
    return phis, body, None


def _literal(value: int) -> str:
    return str(value) if value >= 0 else f"({value})"


class _Translator:
    """Emits one function's factory source (see the module docstring)."""

    def __init__(self, function: Function, module: Module) -> None:
        self.function = function
        self.module = module
        self.index: Dict[BasicBlock, int] = {}
        self.plans: Dict[BasicBlock, tuple] = {}
        self.preds: Dict[BasicBlock, int] = {}
        self.regs: Dict[VReg, str] = {}
        #: Registers every definition of which yields an int.
        self.ints: set = set()
        #: id(var) -> the name its storage has in the generated code.
        self.storage: Dict[int, str] = {}
        #: (is_global, var) per factory parameter after the fixed ones.
        self.bound: List[Tuple[bool, object]] = []
        self.prologue: List[str] = []
        self.targets: Dict[BasicBlock, int] = {}
        self.queue: List[BasicBlock] = []
        self.frame = {id(var): var for var in function.frame_vars.values()}
        #: id(var) of every variable whose cells are indexed or whose
        #: address is taken; the other frame scalars become locals.
        self.exposed: set = set()

    def translate(self) -> Tuple[str, List[Tuple[bool, object]], List[tuple]]:
        """(source, bound variables, per-block static rows)."""
        function = self.function
        rows = []
        defs: Dict[VReg, bool] = {}
        for i, block in enumerate(function.blocks):
            self.index[block] = i
        for block in function.blocks:
            _, body, term = self.plans[block] = _plan(block)
            static = [len(body) + (term is not None)] + [0] * (len(_COUNTERS) - 1)
            for inst in body:
                k = _COUNTED.get(type(inst))
                if k:
                    static[k] += 1
            rows.append((block, tuple(static)))
            successors = term.targets if term is not None else ()
            for target in successors:
                self.preds[target] = self.preds.get(target, 0) + 1
            for inst in block.instructions:
                if inst.dst is not None:
                    ok = isinstance(inst, (I.BinOp, I.UnOp, I.Call))
                    defs[inst.dst] = defs.get(inst.dst, True) and ok
                if isinstance(inst, I.AddrOf):
                    self.exposed.add(id(inst.var))
                elif isinstance(inst, (I.Elem, I.ArrayLoad, I.ArrayStore)):
                    self.exposed.add(id(inst.array))
        self.ints = {reg for reg, ok in defs.items() if ok}

        params = [self._reg(p) for p in function.params]
        entry = function.entry
        if self.plans[entry][0]:
            body = [(0, "raise Deopt")]  # a phi in the entry block
        else:
            self._target(entry)
            chunks: List[list] = []
            while len(chunks) < len(self.queue):
                out: list = []
                self._block(self.queue[len(chunks)], 0, 0, out)
                chunks.append(out)
            body = [(0, "while True:"), (1, "if s > lim:"), (2, "raise Deopt")]
            self._dispatch(chunks, 0, len(chunks), 1, body)
        names = "".join(
            f", {'g' if is_global else 't'}{k}"
            for k, (is_global, _) in enumerate(self.bound)
        )
        lines = [
            (0, f"def make(bc, st, fns, out, max_depth, max_steps{names}):"),
            (1, f"def fn(d{''.join(f', {p}=0' for p in params)}, *_):"),
            (2, "if d > max_depth:"),
            (3, "raise Deopt"),
        ]
        lines += [(2, line) for line in self.prologue]
        lines += [(2, "s = 0"), (2, "lim = max_steps - st[0]"), (2, "b = 0")]
        lines += [(2 + depth, text) for depth, text in body]
        lines.append((1, "return fn"))
        source = "\n".join("    " * depth + text for depth, text in lines) + "\n"
        return source, self.bound, rows

    # -- names -------------------------------------------------------------

    def _reg(self, reg: VReg) -> str:
        name = self.regs.get(reg)
        if name is None:
            name = self.regs[reg] = f"r{len(self.regs)}"
        return name

    def _storage(self, var) -> Optional[str]:
        """The name of ``var``'s storage: a local ``vK`` holding a frame
        scalar's value, or a cell list; None when it has none."""
        key = id(var)
        name = self.storage.get(key)
        if name is not None:
            return name
        if key in self.frame:
            initial = var.initial_cells()[0] if var.size == 1 else None
            if key not in self.exposed and type(initial) is int:
                name = f"v{len(self.storage)}"
                self.prologue.append(f"{name} = {_literal(initial)}")
            else:
                name = f"f{len(self.storage)}"
                self.prologue.append(f"{name} = t{len(self.bound)}[:]")
                self.bound.append((False, var))
        elif any(g is var for g in self.module.globals.values()):
            name = f"g{len(self.bound)}"
            self.bound.append((True, var))
        else:
            return None
        self.storage[key] = name
        return name

    def _cells(self, var) -> Optional[str]:
        name = self._storage(var)
        return None if name is None or name[0] == "v" else name

    def _cell(self, var) -> Optional[str]:
        name = self._storage(var)
        if name is None or name[0] == "v":
            return name
        return f"{name}[0]"

    # -- operands ----------------------------------------------------------

    def _val(self, v: Value) -> Optional[str]:
        if isinstance(v, Const):
            return _literal(v.value)
        if isinstance(v, Undef):
            return "0"
        if isinstance(v, VReg):
            return self._reg(v)
        return None

    def _int(self, v: Value) -> Optional[str]:
        """Like :meth:`_val`, but a pointer must fault, as ``as_int`` does."""
        text = self._val(v)
        if text is None or not isinstance(v, VReg) or v in self.ints:
            return text
        return f"({text} | 0)"

    @staticmethod
    def _const(v: Value) -> Optional[int]:
        if isinstance(v, Const):
            return v.value
        return 0 if isinstance(v, Undef) else None

    # -- code --------------------------------------------------------------

    def _target(self, block: BasicBlock) -> int:
        index = self.targets.get(block)
        if index is None:
            index = self.targets[block] = len(self.queue)
            self.queue.append(block)
        return index

    def _dispatch(self, chunks, lo: int, hi: int, depth: int, out: list) -> None:
        if hi - lo == 1:
            out.extend((depth + d, text) for d, text in chunks[lo])
            return
        if hi - lo <= 3:
            for k in range(lo, hi):
                if k == hi - 1:
                    out.append((depth, "else:"))
                else:
                    out.append((depth, f"{'if' if k == lo else 'elif'} b == {k}:"))
                out.extend((depth + 1 + d, text) for d, text in chunks[k])
            return
        mid = (lo + hi) // 2
        out.append((depth, f"if b < {mid}:"))
        self._dispatch(chunks, lo, mid, depth + 1, out)
        out.append((depth, "else:"))
        self._dispatch(chunks, mid, hi, depth + 1, out)

    def _block(self, block: BasicBlock, depth: int, inlined: int, out: list) -> None:
        _, body, term = self.plans[block]
        out.append((depth, f"bc[{self.index[block]}] += 1"))
        out.append((depth, f"s += {len(body) + (term is not None)}"))
        for inst in body:
            lines = self._inst(inst)
            if lines is None:
                out.append((depth, "raise Deopt"))
                return
            out.extend((depth, line) for line in lines)
        kind = type(term)
        if kind is I.Jump:
            self._edge(block, term.target, depth, inlined, out)
            return
        if kind is I.CondBr:
            cond = self._int(term.cond)
            if cond is not None:
                out.append((depth, f"if {cond}:"))
                self._edge(block, term.if_true, depth + 1, inlined, out)
                out.append((depth, "else:"))
                self._edge(block, term.if_false, depth + 1, inlined, out)
                return
        elif kind is I.Ret:
            value = "0" if term.value is None else self._int(term.value)
            if value is not None:
                out.append((depth, "st[0] += s"))
                out.append((depth, f"return {value}"))
                return
        out.append((depth, "raise Deopt"))  # no terminator, or a bad operand

    def _edge(self, src, dst, depth: int, inlined: int, out: list) -> None:
        """Phi moves for the edge ``src -> dst``, then ``dst`` itself
        (inlined) or its dispatch number."""
        if dst not in self.index:
            out.append((depth, "raise Deopt"))
            return
        names, values = [], []
        for phi in self.plans[dst][0]:
            value = _incoming(phi, src)
            text = None if value is None else self._val(value)
            if text is None:
                out.append((depth, "raise Deopt"))
                return
            values.append(text)
            names.append(self._reg(phi.dst))
        if names:
            out.append((depth, f"{', '.join(names)} = {', '.join(values)}"))
        if (
            dst is not self.function.blocks[0]
            and self.preds.get(dst) == 1
            and inlined < _MAX_INLINED
        ):
            self._block(dst, depth, inlined + 1, out)
        else:
            out.append((depth, f"b = {self._target(dst)}"))

    def _inst(self, inst: I.Instruction) -> Optional[List[str]]:
        """Statements for one non-terminator, or None to deopt there."""
        kind = type(inst)
        if kind is I.DummyAliasedLoad:
            return []
        if kind is I.Print:
            values = [self._int(v) for v in inst.operands]
            if None in values:
                return None
            return [f"out(({''.join(v + ', ' for v in values)}))"]
        if kind is I.Call:
            args = [self._val(v) for v in inst.operands]
            if None in args or inst.callee not in self.module.functions:
                return None
            call = f"fns[{inst.callee!r}](d + 1{''.join(', ' + a for a in args)})"
            if inst.dst is not None:
                call = f"{self._reg(inst.dst)} = {call}"
            return ["st[0] += s", "s = 0", call, "lim = max_steps - st[0]"]
        if kind is I.PtrStore:
            ptr, value = self._val(inst.ptr), self._int(inst.value)
            if not isinstance(inst.ptr, VReg) or value is None:
                return None
            return [f"{ptr}.cells[{ptr}.index] = {value}"]
        if kind is I.Store:
            cell, value = self._cell(inst.var), self._val(inst.value)
            if cell is None or value is None:
                return None
            return [f"{cell} = {value}"]
        if kind is I.ArrayStore:
            access = self._index(inst.array, inst.index, exact=False)
            value = self._int(inst.value)
            if access is None or value is None:
                return None
            checks, cells, i = access
            return checks + [f"{cells}[{i}] = {value}"]
        expr = self._expr(inst)
        if expr is None:
            return None
        *checks, value = expr
        return checks + [f"{self._reg(inst.dst)} = {value}"]

    def _index(self, array, index: Value, exact: bool) -> Optional[tuple]:
        """(checks, cells, index) for an in-bounds element access.  A
        negative index deopts; past the end, ``exact`` deopts too, else
        the list's own IndexError does."""
        cells, i = self._cells(array), self._int(index)
        if cells is None or i is None:
            return None
        size = max(array.size, 0)
        const = self._const(index)
        if const is not None:
            return ([], cells, str(const)) if 0 <= const < size else None
        if exact:
            return [f"if not 0 <= {i} < {size}: raise Deopt"], cells, i
        return [f"if {i} < 0: raise Deopt"], cells, i

    def _expr(self, inst: I.Instruction) -> Optional[list]:
        """[checks..., expression] for an instruction that defines a register."""
        kind = type(inst)
        if kind is I.Copy:
            value = self._val(inst.src)
            return value and [value]
        if kind is I.BinOp:
            return self._binop(inst.op, inst.lhs, inst.rhs)
        if kind is I.UnOp:
            a = self._val(inst.src)
            if a is None:
                return None
            if inst.op == "neg":
                return [f"-{a}"]
            if inst.op == "bnot":
                return [f"~{a}"]
            if inst.op == "not":
                return [f"1 if {self._int(inst.src)} == 0 else 0"]
            return None
        if kind is I.Load:
            cell = self._cell(inst.var)
            return cell and [cell]
        if kind is I.AddrOf:
            cells = self._cells(inst.var)
            return cells and [f"P({cells})"]
        if kind in (I.Elem, I.ArrayLoad):
            access = self._index(inst.array, inst.index, exact=kind is I.Elem)
            if access is None:
                return None
            checks, cells, i = access
            return checks + [f"P({cells}, {i})" if kind is I.Elem else f"{cells}[{i}]"]
        if kind is I.PtrLoad:
            ptr = self._val(inst.ptr)
            if not isinstance(inst.ptr, VReg):
                return None
            return [f"{ptr}.cells[{ptr}.index]"]
        return None

    def _binop(self, op: str, lhs: Value, rhs: Value) -> Optional[list]:
        a, b = self._val(lhs), self._val(rhs)
        if a is None or b is None:
            return None
        if op in _ARITH:
            return [f"{a} {_ARITH[op]} {b}"]
        if op in _SHIFT:
            const = self._const(rhs)
            amount = f"({b} & 63)" if const is None else str(const & 63)
            return [f"{a} {_SHIFT[op]} {amount}"]
        if op in _COMPARE:
            return [f"1 if {a} {_COMPARE[op]} {b} else 0"]
        if op in _EQUALITY:
            return [f"1 if {self._int(lhs)} {_EQUALITY[op]} {self._int(rhs)} else 0"]
        if op in ("div", "rem"):
            const = self._const(rhs)
            if const is not None and const > 0:
                sym = "//" if op == "div" else "%"
                return [f"{a} {sym} {const} if {a} >= 0 else -(-{a} {sym} {const})"]
            return [f"{op}({self._int(lhs)}, {b})"]
        return None
