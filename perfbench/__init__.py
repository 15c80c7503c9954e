"""Benchmark of the amsim toolkit; the entry point is ``perfbench/run.py``."""
