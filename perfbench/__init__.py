"""Engine benchmark: seeded workloads, output checks and a traced
per-layer breakdown.  Run it with ``python3 perfbench/run.py``."""
