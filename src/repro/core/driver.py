"""Hive Driver: statement execution on top of a pluggable engine.

Responsibilities (Hive's Driver + DDL task equivalents):

* parse multi-statement scripts — once per distinct text: a bounded
  statement cache hands repeats the parsed statements and their
  structural keys, so an interactive repeat reaches the result cache
  without paying the compile front-end;
* DDL — ``CREATE TABLE``, ``DROP TABLE``, ``SET``;
* DML/queries — analyze, physically compile, then run the statement's
  one lifecycle (:meth:`Driver.statement_process`): compile charged on
  the simulated clock, the job DAG on the session's engine, fallback on
  the same cluster, CTAS outputs registered, temp directories cleaned,
  the result cached.  ``execute`` runs it on a fresh cluster per
  statement — a scheduler of one — and :mod:`repro.sched` in one shared
  cluster for every submitted query;
* bookkeeping — per-statement :class:`QueryResult` with the engine's job
  timings plus the (modeled) query-compile time that the paper's Fig 10
  breakdown reports as the "compile" section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common.config import (
    Configuration,
    HIVE_MAPJOIN_SMALLTABLE_BYTES,
    QUERY_DEADLINE,
    RESULT_CACHE_ENABLED,
    SKEWJOIN_THRESHOLD,
    STATS_AUTO,
    STATS_ENABLED,
)
from repro.common.errors import (
    QueryTimeoutError,
    RetryExhaustedError,
    SemanticError,
)
from repro.common.lru import LruCache
from repro.common.rows import Schema, Column, DataType
from repro.engines.base import (
    Engine,
    EngineRuntime,
    PlanResult,
    collect_plan_result,
)
from repro.obs import Span, get_metrics
from repro.plan.analyzer import Analyzer
from repro.plan.optimizer import prune_columns
from repro.plan.physical import PhysicalCompiler, PhysicalPlan
from repro.simulate import Interrupt, LeaseOwner, Simulator
from repro.sql import ast, parse_script
from repro.stats.model import collect_table_stats
from repro.storage.hdfs import DEFAULT_BLOCK_SIZE, HDFS
from repro.storage.metastore import Metastore

# bounds of the session-scoped caches
STATEMENT_CACHE_ENTRIES = 256
PLAN_CACHE_ENTRIES = 64
RESULT_CACHE_ENTRIES = 64

# file format of a CREATE TABLE / CTAS without a STORED AS clause
DEFAULT_FILE_FORMAT = "text"


@dataclass
class QueryResult:
    """Outcome of one statement.

    ``statement`` names what ran: ``'select'``, ``'create'``, ``'ctas'``,
    ``'insert'``, ``'drop'``, ``'set'``, ``'analyze'`` or ``'explain'``.
    Behaves like a cursor over its result rows: iterate it directly,
    ``len()`` it, or use :meth:`fetchall` / :meth:`to_pydict`.
    ``trace`` holds the statement's span tree (``query`` → ``compile`` →
    ``job`` → ``task``/``shuffle``/``spill``) in simulated seconds on
    the clock of the cluster it ran on — from statement start under
    ``execute``, which gives each statement a cluster of its own;
    ``None`` for statements that execute nothing (``SET``, DDL).

    ``engine`` names the engine that produced the rows (the fallback
    engine when graceful degradation kicked in; ``None`` for host-only
    statements).  ``cache_hit`` is ``True`` when the rows were served
    from the driver's result cache without touching the cluster — the
    statement then costs ~0 simulated seconds and ``execution`` is
    ``None``.
    """

    statement: str  # 'select' | 'create' | 'ctas' | 'insert' | 'drop' | 'set' | 'explain'
    rows: List[tuple] = field(default_factory=list)
    schema: Optional[Schema] = None
    plan: Optional[PhysicalPlan] = None
    execution: Optional[PlanResult] = None
    compile_seconds: float = 0.0
    trace: Optional[Span] = None
    cache_hit: bool = False
    engine: Optional[str] = None

    @property
    def simulated_seconds(self) -> float:
        run = self.execution.total_seconds if self.execution else 0.0
        return self.compile_seconds + run

    # -- fault/recovery visibility ------------------------------------------
    @property
    def attempts(self) -> int:
        """Task executions across the query (failures + successes)."""
        return self.execution.total_attempts if self.execution else 0

    @property
    def restarts(self) -> int:
        """Whole-job resubmissions (DataMPI gang recovery)."""
        if self.execution is None:
            return 0
        return sum(job.restarts for job in self.execution.jobs)

    @property
    def fault_events(self) -> List[object]:
        """Injected fault edges delivered while the query ran."""
        return list(self.execution.fault_events) if self.execution else []

    @property
    def fallback_engine(self) -> Optional[str]:
        """Engine that actually ran the plan after graceful degradation
        (``None`` when the session's engine completed it)."""
        if self.execution is None or self.execution.fallback_from is None:
            return None
        return self.execution.engine

    # -- cursor-style result access -----------------------------------------
    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def fetchall(self) -> List[tuple]:
        """All result rows as a list (DB-API flavor)."""
        return list(self.rows)

    def column_names(self) -> List[str]:
        if self.schema is not None:
            return list(self.schema.names)
        width = len(self.rows[0]) if self.rows else 0
        return [f"_c{i}" for i in range(width)]

    def to_pydict(self) -> Dict[str, List[object]]:
        """Columnar dict view: column name -> list of values."""
        names = self.column_names()
        return {
            name: [row[i] for row in self.rows] for i, name in enumerate(names)
        }


class ParsedStatement:
    """One statement of a parsed script plus its structural key.

    The key is ``repr(node)`` — it stands in for normalized query text
    in the plan- and result-cache keys.  It is derived on first use and
    kept, because the statement cache hands the same node to every
    repeat of the text; that is sound only while nothing mutates an AST
    after parse (tests assert analyze → compile → run leave it alone).
    """

    __slots__ = ("node", "_key")

    def __init__(self, node: ast.Statement):
        self.node = node
        self._key: Optional[str] = None

    @property
    def key(self) -> str:
        if self._key is None:
            self._key = repr(self.node)
        return self._key


class CachedPlan(NamedTuple):
    """One compiled SELECT plus what proves it is still current
    (metastore version + input-file fingerprint at compile time)."""

    plan: PhysicalPlan
    query_id: str
    version: int
    snapshot: tuple


@dataclass
class ResultCacheEntry:
    """One cached SELECT: the rows plus everything needed to prove they
    are still current (metastore version + input-file fingerprint).

    The result cache is Hive's ``hive.query.results.cache`` equivalent:
    a repeated identical query whose inputs are untouched is answered
    without scheduling anything, in ~0 simulated seconds.  Entries are
    keyed by the same key as the compiled-plan cache (AST + engine + the
    config the compiler reads) and validated on every hit against the
    live metastore version and input snapshot; results observed while a
    writer overlapped the query are never admitted (the caller checks
    the version/snapshot it captured at compile time against the state
    at completion before storing).
    """

    plan: PhysicalPlan
    query_id: str
    version: int
    snapshot: tuple
    rows: List[tuple]
    schema: Optional[Schema]
    engine: str


@dataclass
class PreparedStatement:
    """A compiled engine-bound statement, split from its execution, which
    :meth:`Driver.statement_process` runs.  ``epilogue`` is the
    host-side work once the plan ran (register a CTAS table, gather
    stats, drop the temp result directory); ``statement``, ``version``
    and ``snapshot`` (the metastore version and input fingerprint at
    compile time) are what the result cache checks before admitting the
    rows.
    """

    kind: str  # 'ctas' | 'insert' | 'select'
    plan: PhysicalPlan
    query_id: str
    clear_output: bool
    epilogue: Callable[[], None]
    statement: Optional[ParsedStatement] = None
    compile_seconds: float = 0.0
    version: int = 0
    snapshot: tuple = ()

    @property
    def intermediates(self) -> str:
        """Where the plan's non-final jobs write (gone once it ends)."""
        return f"/tmp/hive/{self.query_id}"


@dataclass
class StatementContext:
    """Who runs a statement, as :meth:`Driver.statement_process` asks it:
    the conf, the lease owner, extra attributes of the ``query`` span,
    and — from the workload scheduler's breakers — *choose*, the engine
    the plan starts on at a given time (default: the session's), and
    *finished*, told how that engine did.  ``Driver.execute`` passes the
    session conf alone."""

    conf: Configuration
    owner: Optional[LeaseOwner] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    choose: Optional[Callable[[float], Engine]] = None
    finished: Optional[Callable[[Engine, float, bool], None]] = None


def within_deadline(sim: Simulator, body, query_id: str,
                    deadline: Optional[float], submitted_at: float = 0.0):
    """Generator: *body* raced against a *deadline* of simulated seconds
    from *submitted_at* (``None``: run inline); returns what *body*
    returns, or raises :class:`QueryTimeoutError` once it has unwound.

    The body runs in a child process so the race can interrupt it:
    engine-level ``finally`` blocks unwind (crash subscriptions, queued
    lease/gang requests are withdrawn), while already-running task
    processes finish on their own.  A body that wins withdraws the
    timer, which would otherwise pin the clock to the last deadline.
    """
    if deadline is None:
        return (yield from body)
    child = sim.spawn(body, f"{query_id}-body")
    timer = sim.timeout(max(0.0, submitted_at + deadline - sim.now))
    yield sim.any_of([child, timer])
    if child.triggered:
        timer.cancel()
        return child.value
    child.interrupt(("deadline", query_id))
    yield child  # let the finallys unwind before reporting
    raise QueryTimeoutError(
        f"query {query_id} exceeded its deadline of {deadline:g}s "
        f"(submitted at t={submitted_at:g})", query_id, deadline)


def _append_constant_items(query, values):
    """Wrap/extend a SELECT so it also emits the given constant columns
    (used to widen INSERT ... PARTITION queries to full-width rows)."""
    import dataclasses

    extra = [ast.SelectItem(ast.Literal(value)) for value in values]
    if isinstance(query, ast.Select):
        return dataclasses.replace(query, items=list(query.items) + extra)
    if isinstance(query, ast.UnionAll):
        return ast.UnionAll(
            [_append_constant_items(branch, values) for branch in query.branches]
        )
    raise SemanticError("INSERT source must be a SELECT")


def make_warehouse(
    num_workers: int = 7, block_size: Optional[float] = None
) -> Tuple[HDFS, Metastore]:
    """Convenience: a fresh (hdfs, metastore) pair for the default testbed."""
    hdfs = HDFS(
        num_workers=num_workers,
        block_size=DEFAULT_BLOCK_SIZE if block_size is None else block_size,
    )
    return hdfs, Metastore(hdfs)


class Driver:
    """One Hive session bound to an execution engine."""

    def __init__(
        self,
        hdfs: HDFS,
        metastore: Metastore,
        engine: Engine,
        conf: Optional[Configuration] = None,
    ):
        self.hdfs = hdfs
        self.metastore = metastore
        self.engine = engine
        self.conf = conf or Configuration()
        self.analyzer = Analyzer(metastore)
        self._query_counter = 0
        # exact SQL text -> its parsed statements.  Parsing is a pure
        # function of the text, so an entry never goes stale.
        self._statement_cache: LruCache[str, Tuple[ParsedStatement, ...]] = (
            LruCache(STATEMENT_CACHE_ENTRIES)
        )
        # compiled-plan cache for repeated SELECTs.  Compilation is
        # deterministic, so a hit skips only host-side work; the modeled
        # compile latency is still charged, keeping simulated seconds
        # identical.
        self._plan_cache: LruCache[tuple, CachedPlan] = (
            LruCache(PLAN_CACHE_ENTRIES)
        )
        # result cache (for engines declaring it): built on first use so the
        # configured capacity is read after any SET statements ran
        self._result_cache: Optional[LruCache[tuple, ResultCacheEntry]] = None
        # input snapshots taken at the current HDFS namespace generation,
        # by plan identity (the plan is held so its id cannot be reused)
        self._snapshots: Dict[int, Tuple[PhysicalPlan, tuple]] = {}
        self._snapshots_generation = hdfs.generation
        # engines a plan degrades onto, by resolved registry name
        self._engines: Dict[str, Engine] = {}

    # -- public API ---------------------------------------------------------
    def parse(self, sql: str) -> Tuple[ParsedStatement, ...]:
        """The statements of a (possibly multi-statement) script, parsed
        at most once per distinct text while it stays in the session's
        statement cache.  A text that fails to parse is never cached."""
        parsed = self._statement_cache.lookup(sql)
        if parsed is None:
            get_metrics().counter("sql.statement_cache.misses").add(1)
            parsed = tuple(ParsedStatement(node) for node in parse_script(sql))
            self._statement_cache.store(sql, parsed)
        else:
            get_metrics().counter("sql.statement_cache.hits").add(1)
        return parsed

    def execute(self, sql: str, with_metrics: bool = False) -> List[QueryResult]:
        """Run a (possibly multi-statement) HiveQL script.  Each
        engine-bound statement is a scheduler of one: its lifecycle runs
        on a fresh simulated cluster through :meth:`Engine.run_plan
        <repro.engines.base.Engine.run_plan>`, bounded by
        ``repro.query.deadline``; *with_metrics* samples that cluster at
        1 Hz while the plan runs."""
        results = []
        for statement in self.parse(sql):
            result = self.instant_result(statement)
            if result is None:
                prepared = self.prepare(statement)
                try:
                    result = self.engine.run_plan(
                        prepared.plan, self.conf, with_metrics=with_metrics,
                        process=lambda runtime: within_deadline(
                            runtime.sim, self.statement_process(
                                runtime, prepared, StatementContext(self.conf)
                            ), prepared.query_id, self.query_deadline(),
                        ),
                    )
                except Exception:
                    # a task's own exception ends the simulation without
                    # passing through the statement's lifecycle
                    self.hdfs.delete(prepared.intermediates)
                    raise
            results.append(result)
        return results

    def query(self, sql: str, with_metrics: bool = False) -> QueryResult:
        """Run a script and return the last result that produced rows
        (or the last result overall)."""
        results = self.execute(sql, with_metrics)
        for result in reversed(results):
            if result.statement in ("select",):
                return result
        return results[-1]

    # -- the statement lifecycle ------------------------------------------------
    def query_deadline(self) -> Optional[float]:
        """``repro.query.deadline`` in simulated seconds (0/unset: none)."""
        deadline = self.conf.get_float(QUERY_DEADLINE, 0.0)
        return deadline if deadline > 0 else None

    def statement_process(self, runtime: EngineRuntime,
                          prepared: PreparedStatement,
                          context: StatementContext):
        """Generator: the one lifecycle of a prepared engine-bound
        statement in *runtime*; returns its :class:`QueryResult`.

        The modeled compile is charged on the simulated clock, then the
        plan runs from a cleared output location — degrading to the
        engine's ``degrades_to`` on the same cluster and clock once
        retries are exhausted — and its intermediates are deleted,
        whatever happened.  Then the trace, the host-side epilogue and
        the result-cache store.
        """
        sim = runtime.sim
        started = sim.now
        yield sim.timeout(prepared.compile_seconds)
        compiled = sim.now
        plan = prepared.plan
        if prepared.clear_output:  # INSERT OVERWRITE / fresh result dir
            self.hdfs.delete(plan.output_location)
        if runtime.sampler is not None:
            runtime.sampler.start()  # samples the plan, on its own clock
        try:
            execution = yield from self._plan_execution(
                runtime, plan, context, started
            )
        except Exception:
            # failed or past its deadline: the intermediates go too.  Not
            # on GeneratorExit — a collected, abandoned session's query
            # id may belong to a later session on the same warehouse.
            self.hdfs.delete(prepared.intermediates)
            raise
        self.hdfs.delete(prepared.intermediates)
        prepared.epilogue()
        result = QueryResult(
            statement=prepared.kind,
            rows=execution.rows,
            schema=plan.output_schema,
            plan=plan,
            execution=execution,
            compile_seconds=prepared.compile_seconds,
            trace=self._trace(
                prepared.kind, prepared.query_id, execution.engine, started,
                compiled, sim.now, execution.spans, **context.attributes
            ),
            engine=execution.engine,
        )
        self.result_cache_store(prepared, result)
        return result

    def _plan_execution(self, runtime: EngineRuntime, plan: PhysicalPlan,
                        context: StatementContext, statement_started: float):
        """Generator: *plan* on the context's engine; a job whose retries
        are exhausted re-runs the whole plan on the engine's
        :meth:`degrade_target` in the same runtime, after the failed
        run's committed part-files are removed.  Its :class:`PlanResult`
        counts from the plan's start, the failed run included, and holds
        the fault events delivered since the statement started."""
        started = runtime.sim.now
        engine = first = (context.choose(started) if context.choose
                          else self.engine)
        try:
            timings = yield from engine.plan_process(
                runtime, plan, context.conf, context.owner
            )
            if context.finished:
                context.finished(engine, runtime.sim.now, False)
        except Interrupt:
            raise  # deadline abort: not the engine's failure
        except Exception as exc:
            if context.finished:
                context.finished(engine, runtime.sim.now, True)
            fallback = self.degrade_target(engine)
            if not isinstance(exc, RetryExhaustedError) or fallback is None:
                raise
            self._discard_partial_outputs(plan)
            get_metrics().counter("engine.fallbacks").add(1)
            engine = fallback
            timings = yield from engine.plan_process(
                runtime, plan, context.conf, context.owner
            )
        execution = collect_plan_result(engine, runtime, plan, timings,
                                        started, statement_started)
        if engine is not first:
            execution.fallback_from = first.name
        elif engine is not self.engine:  # the breaker degraded it
            execution.fallback_from = self.engine.name
        return execution

    def degrade_target(self, engine: Engine) -> Optional[Engine]:
        """The engine a plan failing on *engine* goes to — its declared
        ``degrades_to`` — or ``None``.  The one degrade rule: retry
        exhaustion and the scheduler's open circuit breaker both ask
        it."""
        if engine.degrades_to is None:
            return None
        return self.engine_named(engine.degrades_to)

    def engine_named(self, name: str) -> Engine:
        """The registry engine *name* (or an alias) a plan degrades
        onto, built once per session and priced by the session engine's
        model."""
        from repro import engines as engine_registry

        key = engine_registry.resolve(name)
        engine = self._engines.get(key)
        if engine is None:
            engine = self._engines[key] = engine_registry.create(
                key, self.hdfs, model=self.engine.model
            )
        return engine

    def _trace(self, kind: str, query_id: str, engine: str, started: float,
               compiled: float, ended: float, spans=(), **attributes) -> Span:
        """A statement's span tree: the ``query`` root from *started* to
        *ended*, its ``compile`` child up to *compiled* and the job
        *spans*, all on the clock of the cluster the statement ran on."""
        root = Span(
            "query", start=started, category="query",
            attributes=dict(engine=engine, query_id=query_id, statement=kind,
                            **attributes),
        )
        root.start_child("compile", started, category="compile").finish(compiled)
        for job_span in spans:
            root.adopt(job_span)
        return root.finish(ended)

    def instant_result(self, parsed: ParsedStatement
                       ) -> Optional[QueryResult]:
        """*parsed*'s result when it takes no simulated time — a statement
        that never touches the engine (``SET``, DDL, ``EXPLAIN``), run
        here, or a SELECT the result cache answers — else ``None``: the
        statement needs a cluster.  One call is one cache lookup (LRU
        order and the hit counters are observable)."""
        statement = parsed.node
        if isinstance(statement, ast.SetOption):
            self.conf.set(statement.key, statement.value.strip())
            return QueryResult(statement="set")

        if isinstance(statement, ast.DropTable):
            self.metastore.drop_table(statement.name, if_exists=statement.if_exists)
            return QueryResult(statement="drop")

        if isinstance(statement, ast.CreateTable):
            if statement.if_not_exists and self.metastore.has_table(statement.name):
                return QueryResult(statement="create")
            schema = Schema(
                [
                    Column(col.name, DataType.from_name(col.type_name))
                    for col in statement.columns
                ]
            )
            partition_columns = [
                Column(col.name, DataType.from_name(col.type_name))
                for col in statement.partition_columns
            ]
            fmt = statement.format_name or DEFAULT_FILE_FORMAT
            self.metastore.create_table(
                statement.name, schema, format_name=fmt,
                partition_columns=partition_columns,
            )
            return QueryResult(statement="create")

        if isinstance(statement, ast.AnalyzeTable):
            return self._run_analyze(statement)

        if isinstance(statement, ast.Explain):
            return self._run_explain(statement)

        if isinstance(
            statement,
            (ast.CreateTableAsSelect, ast.InsertOverwrite, ast.Select, ast.UnionAll),
        ):
            return self.result_cache_lookup(parsed)

        raise SemanticError(f"unsupported statement {type(statement).__name__}")

    def prepare(self, statement: ParsedStatement,
                use_cache: bool = True) -> PreparedStatement:
        """Compile an engine-bound statement without running it.

        The workload scheduler passes ``use_cache=False``: a cache hit
        would hand two in-flight copies of one query the same plan —
        and the same result directory — so concurrent submissions each
        compile a fresh plan under their own query id.
        """
        node = statement.node
        version = self.metastore.version
        if isinstance(node, ast.CreateTableAsSelect):
            prepared = self._prepare_ctas(node)
        elif isinstance(node, ast.InsertOverwrite):
            prepared = self._prepare_insert(node)
        elif isinstance(node, (ast.Select, ast.UnionAll)):
            prepared = self._prepare_select(statement, use_cache=use_cache)
        else:
            raise SemanticError(
                f"statement {type(node).__name__} does not run on an engine"
            )
        prepared.statement = statement
        prepared.compile_seconds = self._compile_seconds(prepared.plan)
        prepared.version = version
        prepared.snapshot = self._plan_snapshot(prepared.plan)
        return prepared

    # -- helpers ------------------------------------------------------------------
    def _next_query_id(self) -> str:
        self._query_counter += 1
        return f"{self.engine.name}-q{self._query_counter}"

    def _compile(self, select: ast.Select, output_location: str,
                 output_format: str, query_id: str) -> PhysicalPlan:
        logical = self.analyzer.analyze(select)
        logical = prune_columns(logical)
        compiler = PhysicalCompiler(
            self.metastore, self.hdfs, self.conf, query_id=query_id
        )
        return compiler.compile(logical, output_location, output_format)

    def _discard_partial_outputs(self, plan: PhysicalPlan) -> None:
        """Remove part-files a failed run's earlier jobs committed so a
        re-run (fallback engine, resubmission) can commit them again."""
        for job in plan.jobs:
            prefix = f"{job.output_location.rstrip('/')}/{job.job_id}-part-"
            for data_file in self.hdfs.list_dir(job.output_location):
                if data_file.path.startswith(prefix):
                    self.hdfs.delete(data_file.path)

    def _compile_seconds(self, plan: PhysicalPlan) -> float:
        """Modeled HiveQL compile latency, from the engine's cost model
        (the compiler is shared, so every engine's model charges it the
        same way; §IV-A principle 1)."""
        costs = self.engine.model.compile
        return costs.base_seconds + costs.per_job_seconds * plan.num_jobs

    def _prepare_ctas(
        self, statement: ast.CreateTableAsSelect
    ) -> PreparedStatement:
        if self.metastore.has_table(statement.name):
            raise SemanticError(f"table already exists: {statement.name}")
        query_id = self._next_query_id()
        fmt = statement.format_name or DEFAULT_FILE_FORMAT
        location = f"/warehouse/{statement.name.lower()}"
        plan = self._compile(statement.query, location, fmt, query_id)
        plan.returns_rows = False

        def register() -> None:
            self.metastore.create_table(
                statement.name, plan.output_schema, format_name=fmt,
                location=location,
            )
            self._autogather_stats(statement.name)

        return PreparedStatement("ctas", plan, query_id, True, register)

    def _prepare_insert(
        self, statement: ast.InsertOverwrite
    ) -> PreparedStatement:
        table = self.metastore.get_table(statement.table)
        query_id = self._next_query_id()

        query = statement.query
        location = table.location
        target_schema = table.schema
        partition_values = None
        if table.is_partitioned:
            if not statement.partition:
                raise SemanticError(
                    f"table {table.name} is partitioned; use "
                    "INSERT ... PARTITION (col=value, ...)"
                )
            spec = {name.lower(): value for name, value in statement.partition}
            expected = [column.name.lower() for column in table.partition_columns]
            if sorted(spec) != sorted(expected):
                raise SemanticError(
                    f"PARTITION spec must name exactly {expected}, got {sorted(spec)}"
                )
            values = tuple(spec[name] for name in expected)
            location = table.add_partition(values)
            self.metastore.version += 1  # partition set changed
            partition_values = dict(zip(expected, values))
            # stored rows carry the partition values (full-width files);
            # the constant columns are appended to the query output
            query = _append_constant_items(query, list(values))
            target_schema = table.full_schema
        elif statement.partition:
            raise SemanticError(f"table {table.name} is not partitioned")

        plan = self._compile(query, location, table.format_name, query_id)
        if len(plan.output_schema) != len(target_schema):
            raise SemanticError(
                f"INSERT column count mismatch: query produces "
                f"{len(plan.output_schema)}, table {table.name} expects "
                f"{len(target_schema)}"
            )
        # positional insert: the table's declared schema wins (Hive semantics)
        plan.jobs[-1].output_schema = target_schema
        plan.jobs[-1].output_partition_values = partition_values
        plan.output_schema = target_schema
        plan.returns_rows = False
        return PreparedStatement(
            "insert", plan, query_id, statement.overwrite,
            lambda: self._autogather_stats(table.name),
        )

    def _run_analyze(self, statement: ast.AnalyzeTable) -> QueryResult:
        """ANALYZE TABLE: collect stats host-side and store them.

        Scanning happens on the simulated namenode's row store, so no
        cluster time is charged — like Hive's metastore-backed quick
        stats.  ``FOR COLUMNS`` adds the NDV / heavy-hitter sketches the
        optimizer's selectivity and skew decisions read.
        """
        table = self.metastore.get_table(statement.name)
        stats = collect_table_stats(
            self.hdfs, table, with_columns=statement.with_columns
        )
        self.metastore.put_table_stats(stats)
        rows = [
            (
                table.name,
                stats.row_count,
                float(round(stats.total_bytes, 1)),
                len(stats.columns),
            )
        ]
        schema = Schema(
            [
                Column("table_name", DataType.STRING),
                Column("row_count", DataType.BIGINT),
                Column("total_bytes", DataType.DOUBLE),
                Column("column_stats", DataType.INT),
            ]
        )
        return QueryResult(statement="analyze", rows=rows, schema=schema)

    def _autogather_stats(self, table_name: str) -> None:
        """Basic-stats autogather after INSERT/CTAS (Hive's
        ``hive.stats.autogather``): row count + bytes from file metadata
        only — no row scan, no column sketches — so estimates equal raw
        sizes and plan decisions are unchanged until an explicit
        ANALYZE ... FOR COLUMNS."""
        if not (
            self.conf.get_bool(STATS_ENABLED, True)
            and self.conf.get_bool(STATS_AUTO, True)
        ):
            return
        try:
            table = self.metastore.get_table(table_name)
            stats = collect_table_stats(self.hdfs, table, with_columns=False)
            self.metastore.put_table_stats(stats)
        except Exception:
            pass  # stats are advisory; never fail the write

    def _run_explain(self, statement: ast.Explain) -> QueryResult:
        """EXPLAIN: compile the target and render its physical plan
        without executing anything."""
        from repro.plan.physical import explain_plan

        target = statement.target
        query_id = self._next_query_id()
        if isinstance(target, ast.CreateTableAsSelect):
            fmt = target.format_name or DEFAULT_FILE_FORMAT
            plan = self._compile(
                target.query, f"/warehouse/{target.name.lower()}", fmt, query_id
            )
        elif isinstance(target, ast.InsertOverwrite):
            table = self.metastore.get_table(target.table)
            plan = self._compile(
                target.query, table.location, table.format_name, query_id
            )
        elif isinstance(target, (ast.Select, ast.UnionAll)):
            plan = self._compile(target, f"/tmp/results/{query_id}", "text", query_id)
        else:
            raise SemanticError("EXPLAIN supports SELECT / CTAS / INSERT")
        lines = explain_plan(plan).splitlines()
        compile_seconds = self._compile_seconds(plan)
        return QueryResult(
            statement="explain",
            rows=[(line,) for line in lines],
            schema=Schema([Column("plan", DataType.STRING)]),
            plan=plan,
            trace=self._trace("explain", query_id, self.engine.name, 0.0,
                              compile_seconds, compile_seconds),
        )

    # -- result cache -------------------------------------------------------
    def result_cache(self) -> Optional[LruCache[tuple, ResultCacheEntry]]:
        """The driver's result cache, or ``None`` when the session's
        engine does not declare ``result_cache`` or
        ``repro.result.cache.enabled`` is off."""
        if not self.engine.result_cache:
            return None
        if not self.conf.get_bool(RESULT_CACHE_ENABLED, True):
            return None
        if self._result_cache is None:
            self._result_cache = LruCache(RESULT_CACHE_ENTRIES)
        return self._result_cache

    def result_cache_lookup(self, statement: ParsedStatement
                            ) -> Optional[QueryResult]:
        """A finished :class:`QueryResult` for *statement* if the result
        cache holds a still-valid entry, else ``None``.  A hit costs no
        compile time and no cluster work (~0 simulated seconds)."""
        cache = self.result_cache()
        if cache is None or not isinstance(
            statement.node, (ast.Select, ast.UnionAll)
        ):
            return None
        entry = cache.lookup(
            self._plan_cache_key(statement.key), self._still_current
        )
        if entry is None:
            return None
        trace = Span(
            "query", start=0.0, category="query",
            attributes={
                "engine": entry.engine,
                "query_id": entry.query_id,
                "statement": "select",
                "cache_hit": True,
            },
        ).finish(0.0)
        return QueryResult(
            statement="select",
            rows=list(entry.rows),
            schema=entry.schema,
            plan=entry.plan,
            execution=None,
            compile_seconds=0.0,
            trace=trace,
            cache_hit=True,
            engine=entry.engine,
        )

    def result_cache_store(self, prepared: PreparedStatement,
                           result: QueryResult) -> None:
        """Admit a completed SELECT, unless a writer overlapped it.

        The metastore version and input snapshot captured at compile
        time must still hold now that the query finished — otherwise the
        rows may reflect a half-updated input (a concurrent INSERT under
        ``Session.submit``) and are not safe to replay.
        """
        cache = self.result_cache()
        if cache is None or result.statement != "select" or result.cache_hit:
            return
        if result.execution is None:
            return
        if self.metastore.version != prepared.version:
            return
        if self._plan_snapshot(prepared.plan) != prepared.snapshot:
            return
        cache.store(
            self._plan_cache_key(prepared.statement.key),
            ResultCacheEntry(
                plan=prepared.plan,
                query_id=prepared.query_id,
                version=prepared.version,
                snapshot=prepared.snapshot,
                rows=list(result.rows),
                schema=result.schema,
                engine=result.engine or self.engine.name,
            ),
        )

    # -- plan cache ---------------------------------------------------------
    def _plan_cache_key(self, structural_key: str) -> tuple:
        """Cache key: query structure plus everything compilation reads.

        The AST repr (:attr:`ParsedStatement.key`) stands in for
        normalized query text and is the only memoized part — the conf
        and epoch parts are read live on every call; the
        configuration the physical compiler consults is the map-join
        small-table threshold (``hive.mapjoin.smalltable.filesize``)
        and the stats-driven planning and skew-join threshold keys.  The
        metastore ``stats_epoch`` is part of the key so a plan costed
        under old statistics can never be replayed after an ANALYZE (or
        autogather) changed what the optimizer would decide — the
        input-snapshot check alone cannot see ANALYZE, which touches no
        data files.
        """
        return (
            structural_key,
            self.engine.name,
            self.conf.get(HIVE_MAPJOIN_SMALLTABLE_BYTES, None),
            self.conf.get(STATS_ENABLED, None),
            self.conf.get(SKEWJOIN_THRESHOLD, None),
            self.metastore.stats_epoch,
        )

    def _plan_snapshot(self, plan: PhysicalPlan) -> tuple:
        """Fingerprint of the plan's input data at compile time.

        Compilation depends on the inputs only through file listings and
        byte sizes (split planning, the map-join decision), so a cached
        plan stays valid while those are unchanged.  The plan's own
        intermediate locations (under ``/tmp/hive/``) are excluded — they
        exist only while the plan runs.

        Listings and file sizes can only change with the HDFS namespace
        generation, so within one generation a plan is fingerprinted
        once: validating a cache hit against an unchanged warehouse
        re-lists and re-sums nothing.
        """
        if self._snapshots_generation != self.hdfs.generation:
            self._snapshots.clear()
            self._snapshots_generation = self.hdfs.generation
        memo = self._snapshots.get(id(plan))
        if memo is not None:
            return memo[1]
        locations = set()
        for job in plan.jobs:
            for map_input in job.inputs:
                locations.add(map_input.location)
            for broadcast in job.broadcasts:
                locations.add(broadcast.location)
        snapshot = []
        for location in sorted(locations):
            if location.startswith("/tmp/hive/"):
                continue
            for data_file in self.hdfs.list_dir(location):
                stored = data_file.stored
                snapshot.append(
                    (data_file.path, data_file.scale,
                     stored.row_count, stored.total_bytes)
                )
        fingerprint = tuple(snapshot)
        self._snapshots[id(plan)] = (plan, fingerprint)
        return fingerprint

    def _still_current(self, entry) -> bool:
        """Validity check of a plan- or result-cache entry: stale once
        the catalog or the plan's input data moved."""
        return (entry.version == self.metastore.version
                and entry.snapshot == self._plan_snapshot(entry.plan))

    def _prepare_select(self, statement: ParsedStatement,
                        use_cache: bool = True) -> PreparedStatement:
        entry = None
        if use_cache:
            key = self._plan_cache_key(statement.key)
            entry = self._plan_cache.lookup(key, self._still_current)
        if entry is not None:
            plan, query_id = entry.plan, entry.query_id
        else:
            query_id = self._next_query_id()
            location = f"/tmp/results/{query_id}"
            plan = self._compile(statement.node, location, "text", query_id)
            if use_cache:
                self._plan_cache.store(key, CachedPlan(
                    plan, query_id, self.metastore.version,
                    self._plan_snapshot(plan),
                ))
        return PreparedStatement(
            "select", plan, query_id, True,
            lambda: self.hdfs.delete(plan.output_location),
        )
