"""A layered benchmark of the served engine; run it with
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``."""
