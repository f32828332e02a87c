"""Benchmark harness for the register promotion pipeline; see run.py."""
