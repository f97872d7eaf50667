"""Benchmark of the elicit CLI and library; run ``python3 perfbench/run.py --help``."""
