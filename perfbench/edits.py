"""Seeded single-literal edits for the edit-compile workload.

Each resubmission of a module bumps one integer literal inside one
function body by one, on top of the module's earlier edits.  Literals
outside function bodies (global initializers, array sizes) are never
touched, so the globals table is unchanged; only operands of ``=``,
``+``, ``-``, ``*``, ``^`` and their compound assignments outside
brackets are candidates, which keeps loop bounds, array indices and
masks as they were.  Because the
bumps only accumulate, a module never returns to an earlier source.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Tuple

_TOKEN = re.compile(
    r"\d+|[A-Za-z_]\w*|[-+*/%^&|<>=!]=|\+\+|--|&&|\|\||<<|>>|\S"
)
_OPERAND_OF = {"=", "+", "-", "*", "^", "+=", "-=", "*=", "^="}


def literal_sites(source: str) -> Dict[str, List[Tuple[int, int]]]:
    """function name -> (start, end) offsets of its editable literals."""
    sites: Dict[str, List[Tuple[int, int]]] = {}
    depth = 0
    brackets = 0
    current = None
    prev = ""
    last_ident = ""
    paren_ident = ""
    for match in _TOKEN.finditer(source):
        tok = match.group()
        if tok == "(" and depth == 0:
            paren_ident = last_ident
        elif tok == "{":
            if depth == 0 and prev == ")":
                current = paren_ident
                sites.setdefault(current, [])
            depth += 1
        elif tok == "}":
            depth -= 1
            if depth == 0:
                current = None
        elif tok == "[":
            brackets += 1
        elif tok == "]":
            brackets -= 1
        elif tok.isdigit() and current is not None and brackets == 0:
            if prev in _OPERAND_OF:
                sites[current].append(match.span())
        if tok[0].isalpha() or tok[0] == "_":
            last_ident = tok
        prev = tok
    return {name: spans for name, spans in sites.items() if spans}


class LiteralEditor:
    """One module's edit history: the current source and its next edit."""

    def __init__(self, source: str, rng: random.Random) -> None:
        self.source = source
        self.rng = rng

    def propose(self) -> Tuple[str, str]:
        """(function name, edited source) for one seeded literal bump;
        call :meth:`accept` to make it the module's current source."""
        sites = literal_sites(self.source)
        function = self.rng.choice(sorted(sites))
        start, end = self.rng.choice(sites[function])
        value = int(self.source[start:end]) + 1
        return function, self.source[:start] + str(value) + self.source[end:]

    def accept(self, source: str) -> None:
        self.source = source
