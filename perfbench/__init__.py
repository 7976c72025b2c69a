"""Benchmark of certified-GME jobs on three workloads; run ``perfbench/run.py``."""
