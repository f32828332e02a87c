"""Correctness checks that do not trust the code under test.

The reference behaviour of a program is what the classic dispatch loop
(``Interpreter(..., compiled=False)``, the executable specification)
observes on the *unpromoted* module, compiled fresh from source.  A
promoted module passes when the same classic loop, run on it, prints
the same output, returns the same value and leaves the same final
globals.  Paper-module counts must also equal the golden Tables 1-2
values recorded in ``manifest.json``.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from repro.frontend.lower import compile_source
from repro.profile.interp import Interpreter, InterpreterError

MANIFEST_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "manifest.json")


def load_manifest() -> Dict[str, object]:
    with open(MANIFEST_PATH) as handle:
        return json.load(handle)


class Behaviour:
    """What one classic-loop run of a program observably did."""

    __slots__ = ("output", "return_value", "globals", "steps")

    def __init__(self, output, return_value: int, globals_: Dict[str, int], steps: int):
        self.output: Tuple[Tuple[int, ...], ...] = tuple(tuple(row) for row in output)
        self.return_value = return_value
        self.globals = globals_
        self.steps = steps

    @classmethod
    def of_module(cls, module, max_steps: int = 10_000_000) -> "Behaviour":
        run = Interpreter(module, max_steps=max_steps, compiled=False).run("main", [])
        return cls(run.output, run.return_value, run.globals_snapshot(), run.steps)

    def same_as(self, other: "Behaviour") -> bool:
        return (
            self.output == other.output
            and self.return_value == other.return_value
            and self.globals == other.globals
        )

    def served_lines(self) -> List[str]:
        """The output as the service renders it in ``JobResult.output``."""
        return [" ".join(str(v) for v in row) for row in self.output]


def reference(source: str, max_steps: int = 10_000_000) -> Optional[Behaviour]:
    """The reference behaviour of ``source``, or None when the program
    fails or exceeds ``max_steps`` under the classic loop."""
    try:
        return Behaviour.of_module(compile_source(source), max_steps=max_steps)
    except InterpreterError:
        return None


def check_promoted(name: str, module, expected: Behaviour) -> Optional[str]:
    """None when the promoted ``module`` behaves like ``expected``;
    otherwise a one-line description of the mismatch."""
    try:
        got = Behaviour.of_module(module, max_steps=max(4 * expected.steps, 1000))
    except InterpreterError as exc:
        return f"{name}: promoted module failed under the classic loop: {exc}"
    if not got.same_as(expected):
        return f"{name}: promoted behaviour differs from the unpromoted reference"
    return None


def check_in_workers(items: List[Tuple[str, bytes, Behaviour]], workers: int) -> List[str]:
    """:func:`check_promoted` over ``(name, pickled module, expected)``
    items, in ``workers`` child processes of this script; the mismatches
    found."""
    shares = [items[i::workers] for i in range(workers) if items[i::workers]]
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        for _ in shares
    ]
    problems: List[str] = []
    try:
        for proc, share in zip(procs, shares):
            proc.stdin.write(pickle.dumps(share))
            proc.stdin.close()
        for proc in procs:
            problems.extend(p for p in pickle.loads(proc.stdout.read()) if p is not None)
            if proc.wait() != 0:
                problems.append(f"a check worker exited with code {proc.returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return problems


def counts_of(result) -> Dict[str, List[int]]:
    """A pipeline result's Table 1-2 counts in the manifest's layout."""
    return {
        "static_before": [result.static_before.loads, result.static_before.stores],
        "static_after": [result.static_after.loads, result.static_after.stores],
        "dynamic_before": [result.dynamic_before.loads, result.dynamic_before.stores],
        "dynamic_after": [result.dynamic_after.loads, result.dynamic_after.stores],
    }


def check_golden(name: str, result, golden: Dict[str, Dict[str, List[int]]]) -> Optional[str]:
    """None when a paper module's counts equal the recorded golden row."""
    got = counts_of(result)
    if got != golden[name]:
        return f"{name}: counts {got} differ from the golden row {golden[name]}"
    return None


def remaining_pct(result) -> Tuple[float, float]:
    """(static, dynamic) singleton loads+stores left after promotion, in
    percent of the count before: 100 minus the "total %" columns of
    Tables 1 and 2 for one module."""
    pcts = []
    for before, after in (
        (result.static_before, result.static_after),
        (result.dynamic_before, result.dynamic_after),
    ):
        total = before.loads + before.stores
        left = after.loads + after.stores
        pcts.append(100.0 * left / total if total else 100.0)
    return pcts[0], pcts[1]


if __name__ == "__main__":
    # A check worker: pickled items on stdin (written by this benchmark),
    # one result per item on stdout.
    from perfbench.oracle import check_promoted as check

    items = pickle.load(sys.stdin.buffer)
    results = [check(name, pickle.loads(blob), expected) for name, blob, expected in items]
    sys.stdout.buffer.write(pickle.dumps(results))
