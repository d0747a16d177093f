"""Benchmark harness for ``roast``; run it through ``perfbench/run.py``."""
