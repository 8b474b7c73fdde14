"""Shared configuration for the paper-reproduction benchmarks.

Each ``bench_*`` module is a pytest module that regenerates one
committed artifact under ``results/`` — a paper table or figure as CSV,
or a ``BENCH_*.json`` report — and asserts its shape.  Everything is
measured in simulated seconds; run ``PYTHONPATH=src pytest benchmarks/
-s`` to see the tables inline.
"""

import os
import sys

# allow `from benchhelpers import ...` inside the benchmark modules
sys.path.insert(0, os.path.dirname(__file__))
