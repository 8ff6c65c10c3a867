"""A benchmark of the production cluster; run it as ``python3 perfbench/run.py``."""
