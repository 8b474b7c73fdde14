"""The DataMPI engine: Hive's plug-in over the MPI-D library
(:mod:`repro.datampi`), in :mod:`repro.engines.datampi.engine`."""

from repro.engines.datampi.engine import DataMPIEngine

__all__ = ["DataMPIEngine"]
