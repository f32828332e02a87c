"""Puts the package under test and the repository root on ``sys.path``
for the benchmark's self-tests (``python3 -m pytest perfbench``)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
