"""Simulated Hadoop 1.x MapReduce engine (the paper's baseline)."""

from repro.engines.hadoop.engine import HadoopEngine

__all__ = ["HadoopEngine"]
