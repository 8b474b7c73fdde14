"""The DataMPI engine: bipartite O/A execution with MPI-style shuffle.

This package is the reproduction of the paper's contribution:

* :mod:`repro.engines.datampi.mpi` — simulated MPI point-to-point layer
  (``MPI_Isend``-style non-blocking requests over the DES network) and a
  dynamic barrier used by the blocking communication style.
* :mod:`repro.engines.datampi.buffers` — the buffer manager: Send
  Partition Lists (SPL), bounded send queue, A-side receive manager with
  memory accounting and spill.
* :mod:`repro.engines.datampi.engine` — the engine: ``mpidrun`` startup,
  O-task scheduling with overlapped shuffle (blocking or non-blocking
  style), A-task merge/reduce, and the parallelism/memory tuning knobs
  (``hive.datampi.*``).
"""

from repro.engines.datampi.engine import DataMPIEngine

__all__ = ["DataMPIEngine"]
