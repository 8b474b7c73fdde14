"""repro — Hive on DataMPI, reproduced.

A from-scratch Python reproduction of *"Accelerating Apache Hive with
MPI for Data Warehouse Systems"* (ICDCS 2015): a HiveQL compiler, a
simulated HDFS with Text/Sequence/ORC formats, a Hadoop-MapReduce
execution engine and the paper's DataMPI engine, all running real
relational workloads (Intel HiBench, TPC-H) on a discrete-event cluster
simulator calibrated to the paper's 8-node GigE testbed.

Quick start::

    import repro

    with repro.connect(engine="datampi") as session:
        session.execute("CREATE TABLE t (k int, v string)")
        result = session.query("SELECT count(*) FROM t")
        result.fetchall()
        result.trace      # cross-layer span tree (simulated seconds)

Engines are resolved through the registry in :mod:`repro.engines`;
``repro.engines.register(MyEngine)`` makes a third-party engine — an
:class:`~repro.engines.base.Engine` subclass, whose class attributes are
its whole declaration — connectable by its ``name``.  Query traces export to Chrome-trace JSON via
:mod:`repro.obs`.  See README.md for the full tour, DESIGN.md for the
architecture and docs/observability.md for tracing.
"""

from repro.common.config import Configuration
from repro.core.driver import Driver, QueryResult, make_warehouse
from repro.engines.datampi import DataMPIEngine
from repro.engines.hadoop import HadoopEngine
from repro.engines.llap import LlapEngine
from repro.engines.local import LocalEngine
from repro.obs import MetricsRegistry, Span, Tracer, get_metrics
from repro.sched import Pool, QueryHandle, WorkloadScheduler
from repro.session import Session, connect
from repro.simulate.cluster import ClusterSpec
from repro.simulate.costmodel import CostModel
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore

__version__ = "1.2.0"

__all__ = [
    "connect",
    "Session",
    "make_warehouse",
    "Driver",
    "QueryResult",
    "Configuration",
    "HDFS",
    "Metastore",
    "ClusterSpec",
    "CostModel",
    "HadoopEngine",
    "DataMPIEngine",
    "LlapEngine",
    "LocalEngine",
    "WorkloadScheduler",
    "QueryHandle",
    "Pool",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "get_metrics",
    "__version__",
]
