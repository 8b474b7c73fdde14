"""Runtime execution layer shared by all engines.

* :mod:`repro.exec.expressions` — bound (index-resolved) expressions
  with Hive's three-valued NULL logic, evaluated two independent ways:
  a closure compiler (the reference) and column-kernel codegen
  (production).
* :mod:`repro.exec.operators` — operator descriptors
  (Filter/Select/ReduceSink/FileSink/map GroupBy/MapJoin, mirroring
  Hive's physical operators) and the reference row operators.
* :mod:`repro.exec.vectorized` — the column-kernel operators every
  engine task runs.
* :mod:`repro.exec.reduce` — reduce-side logics (aggregate, join, sort,
  identity) turning grouped key/values into rows.
* :mod:`repro.exec.mapper` — ExecMapper/ExecReducer drivers: the
  engine-independent task bodies (paper §IV-B keeps these identical
  between Hadoop and DataMPI).
"""

from repro.exec.expressions import (
    BoundExpression,
    InputRef,
    Const,
    compile_expression,
    stable_hash,
)
from repro.exec.mapper import ExecMapper, ExecReducer, MapTaskResult

__all__ = [
    "BoundExpression",
    "InputRef",
    "Const",
    "compile_expression",
    "stable_hash",
    "ExecMapper",
    "ExecReducer",
    "MapTaskResult",
]
