"""The repository's benchmark: fixed work, host-rescaled, oracle-checked.

``run.py`` is the entry point; see its docstring for the workloads, the
metrics and how the numbers are made steady.
"""
