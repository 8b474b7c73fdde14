"""The public session API: :func:`connect` and :class:`Session`.

A :class:`Session` is a Hive driver bound to a registry-resolved engine
with context-manager lifecycle::

    import repro

    with repro.connect(engine="datampi") as session:
        session.execute("CREATE TABLE t (k int, v string)")
        result = session.query("SELECT v, count(*) FROM t GROUP BY v")
        for row in result:
            print(row)
        result.trace  # the query's span tree (repro.obs.Span)

Engines are looked up in :mod:`repro.engines`' registry, so anything
registered with ``repro.engines.register(...)`` — including third-party
engines — connects the same way as the built-ins.  Engine knobs are
ordinary conf keys::

    with repro.connect(engine="llap",
                       conf={"repro.llap.cache.mb": 1024}) as session:
        ...
        session.caches()  # live result-/columnar-cache counters
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro import engines as engine_registry
from repro.common.config import Configuration
from repro.common.errors import ConfigError, ExecutionError
from repro.core.driver import Driver, make_warehouse
from repro.engines.base import Engine
from repro.exec.expressions import KERNEL_CODE_CACHE
from repro.simulate.cluster import ClusterSpec
from repro.simulate.costmodel import CostModel
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore

ConfLike = Union[Configuration, Dict[str, object], None]


def _as_configuration(conf: ConfLike) -> Optional[Configuration]:
    if conf is None or isinstance(conf, Configuration):
        return conf
    configuration = Configuration()
    for key, value in conf.items():
        configuration.set(key, value)
    return configuration


class Session(Driver):
    """One Hive session: a Driver with registry lookup, a lifecycle and
    ``with``-statement semantics.

    Everything the Driver exposes (``execute``, ``query``, ``conf``,
    ``hdfs``, ``metastore``, ``engine``) is available here; closing the
    session only refuses further statements — the warehouse it points at
    stays usable by other sessions.
    """

    def __init__(
        self,
        engine: Union[str, Engine] = "datampi",
        num_workers: int = 7,
        conf: ConfLike = None,
        model: Optional[CostModel] = None,
        hdfs: Optional[HDFS] = None,
        metastore: Optional[Metastore] = None,
    ):
        if hdfs is None:
            hdfs = HDFS(num_workers=num_workers)
        if metastore is None:
            metastore = Metastore(hdfs)
        configuration = _as_configuration(conf) or Configuration()
        if isinstance(engine, str):
            engine = engine_registry.create(engine, hdfs, model=model or CostModel(
                cluster=ClusterSpec(num_nodes=hdfs.num_workers + 1)
            ))
        if model is not None and engine.model != model:
            # an engine instance carries its own model
            raise ConfigError(
                f"engine {engine.name!r} does not run under the given "
                "model=; an Engine instance carries its own"
            )
        super().__init__(hdfs, metastore, engine, conf=configuration)
        self._closed = False
        self._scheduler = None

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def engine_name(self) -> str:
        return self.engine.name

    def close(self) -> None:
        """Refuse further statements (idempotent)."""
        self._closed = True
        if self._scheduler is not None:
            self._scheduler.close()
            self._scheduler = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def execute(self, sql: str, with_metrics: bool = False):
        if self._closed:
            raise ExecutionError("session is closed")
        return super().execute(sql, with_metrics=with_metrics)

    # -- cache introspection -------------------------------------------------
    def caches(self) -> Dict[str, object]:
        """Live counters for the session's caches.

        ``"statement"`` — the parsed-statement cache (entries, hits,
        misses, evictions: one miss per distinct SQL text while it stays
        cached); ``"plan"`` — the compiled-plan cache; ``"result"`` —
        the driver result cache's hit/miss/eviction/invalidation
        counters (``None`` when the engine doesn't support it or it is
        disabled); ``"columnar"`` — per-node decoded-stripe cache
        counters from the engine (empty for engines without a
        persistent data cache); ``"kernel"`` — the process-wide kernel
        code cache (one miss per distinct generated source, shared by
        every session: a task that "compiled" shows up as a miss here).
        """
        result_cache = self.result_cache()
        return {
            "statement": self._statement_cache.stats(),
            "plan": self._plan_cache.stats(),
            "kernel": KERNEL_CODE_CACHE.stats(),
            "result": result_cache.stats() if result_cache is not None else None,
            "columnar": self.engine.cache_stats(),
        }

    # -- statistics introspection --------------------------------------------
    def stats(self, table: Optional[str] = None) -> Dict[str, object]:
        """Collected table statistics (see docs/optimizer.md).

        With *table*: that table's stats summary plus per-column
        summaries (NDV estimate, null count, min/max, top heavy
        hitters), or ``None`` values when no fresh stats exist.  Without
        arguments: ``{table_name: summary}`` for every table whose
        recorded stats are still fresh (stale entries are omitted —
        the optimizer would not use them either).
        """
        if table is not None:
            stats = self.metastore.get_table_stats(table)
            if stats is None:
                return {"table": table.lower(), "stats": None}
            summary = stats.summary()
            summary["columns"] = {
                name: column.summary()
                for name, column in sorted(stats.columns.items())
            }
            return summary
        out: Dict[str, object] = {}
        for name in self.metastore.stats_tables():
            stats = self.metastore.get_table_stats(name)
            if stats is not None:
                out[name] = stats.summary()
        return out

    # -- concurrent submission (repro.sched) --------------------------------
    @property
    def scheduler(self):
        """The session's lazily-built workload scheduler, configured from
        the ``repro.sched.*`` keys (policy, pools, caps)."""
        if self._closed:
            raise ExecutionError("session is closed")
        if self._scheduler is None:
            from repro.sched.scheduler import scheduler_from_conf

            self._scheduler = scheduler_from_conf(self)
        return self._scheduler

    def submit(self, sql: str, pool: Optional[str] = None,
               deadline: Optional[float] = None,
               retry_budget: Optional[int] = None):
        """Queue a script on the shared simulated cluster and return a
        :class:`repro.sched.QueryHandle`; non-blocking in simulated time
        (``handle.result()`` drains the simulation).  Concurrent submits
        interleave on the same cluster under the configured policy.

        *deadline* bounds the query in simulated seconds from submission
        (default ``repro.query.deadline``; unset = unbounded): past it
        the work is cancelled, its slots freed, and ``handle.result()``
        raises :class:`~repro.common.errors.QueryTimeoutError`.
        *retry_budget* overrides ``repro.retry.max`` for this query.
        """
        if self._closed:
            raise ExecutionError("session is closed")
        return self.scheduler.submit(sql, pool=pool, deadline=deadline,
                                     retry_budget=retry_budget)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Session(engine={self.engine.name!r}, {state})"


def connect(
    engine: Union[str, Engine] = "datampi",
    num_workers: int = 7,
    conf: ConfLike = None,
    model: Optional[CostModel] = None,
    hdfs: Optional[HDFS] = None,
    metastore: Optional[Metastore] = None,
) -> Session:
    """Open a :class:`Session` on a registered engine.

    *engine* is a registry name/alias (``"datampi"``/``"dm"``,
    ``"hadoop"``/``"mr"``, ``"llap"``, ``"local"``, or anything added
    via ``repro.engines.register``) or an already-built :class:`Engine`.
    Pass an existing *hdfs*/*metastore* pair to share one warehouse
    between sessions (e.g. to run the same tables on both engines);
    *conf* accepts a :class:`Configuration` or a plain dict.  *model* is
    the :class:`~repro.simulate.CostModel` simulated seconds are priced
    with (default: the paper's testbed, one worker per HDFS datanode);
    it needs an engine name — an :class:`Engine` instance carries its
    own model, and one with another raises
    :class:`~repro.common.errors.ConfigError`.
    """
    return Session(
        engine=engine,
        num_workers=num_workers,
        conf=conf,
        model=model,
        hdfs=hdfs,
        metastore=metastore,
    )


__all__ = ["Session", "connect", "make_warehouse"]
