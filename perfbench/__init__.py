"""End-to-end and per-layer benchmark of the monofix CLI and library.

Run from the root of a source checkout:

    python3 -m perfbench.run --workload cli-mix --seed 1 --seconds 20 --trace 0
"""
