"""Hive Driver: statement execution on top of a pluggable engine.

Responsibilities (Hive's Driver + DDL task equivalents):

* parse multi-statement scripts — once per distinct text: a bounded
  statement cache hands repeats the parsed statements and their
  structural keys, so an interactive repeat reaches the result cache
  without paying the compile front-end;
* DDL — ``CREATE TABLE``, ``DROP TABLE``, ``SET``;
* DML/queries — analyze, physically compile, run the job DAG on the
  session's engine, register CTAS outputs, clean temp directories;
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
    RESULT_CACHE_ENABLED,
    RETRY_FALLBACK,
    SKEWJOIN_THRESHOLD,
    STATS_AUTO,
    STATS_ENABLED,
)
from repro.common.errors import RetryExhaustedError, SemanticError
from repro.common.lru import LruCache
from repro.common.rows import Schema, Column, DataType
from repro.engines.base import Engine, PlanResult
from repro.obs import Span, get_metrics
from repro.plan.analyzer import Analyzer
from repro.plan.optimizer import prune_columns
from repro.plan.physical import PhysicalCompiler, PhysicalPlan
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
    ``job`` → ``task``/``shuffle``/``spill``) in simulated seconds from
    statement start; ``None`` for statements that execute nothing
    (``SET``, DDL).

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
    """A compiled engine-bound statement, split from its execution.

    The solo path (:meth:`Driver._execute_statement`) runs the plan
    immediately; the workload scheduler (:mod:`repro.sched`) instead
    carries many of these into one shared simulation and calls
    ``finalize`` when each plan's jobs complete.  ``finalize`` performs
    the host-side epilogue (register a CTAS table, drop the temp result
    directory) and builds the :class:`QueryResult`.
    """

    kind: str  # 'ctas' | 'insert' | 'select'
    plan: PhysicalPlan
    query_id: str
    clear_output: bool
    compile_seconds: float
    finalize: Callable[[Optional[PlanResult], Optional[Span]], QueryResult]


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
        # result cache (capability-gated): built on first use so the
        # configured capacity is read after any SET statements ran
        self._result_cache: Optional[LruCache[tuple, ResultCacheEntry]] = None
        # input snapshots taken at the current HDFS namespace generation,
        # by plan identity (the plan is held so its id cannot be reused)
        self._snapshots: Dict[int, Tuple[PhysicalPlan, tuple]] = {}
        self._snapshots_generation = hdfs.generation

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
        """Run a (possibly multi-statement) HiveQL script."""
        return [
            self._execute_statement(statement, with_metrics)
            for statement in self.parse(sql)
        ]

    def query(self, sql: str, with_metrics: bool = False) -> QueryResult:
        """Run a script and return the last result that produced rows
        (or the last result overall)."""
        results = self.execute(sql, with_metrics)
        for result in reversed(results):
            if result.statement in ("select",):
                return result
        return results[-1]

    # -- statement dispatch ------------------------------------------------------
    def _execute_statement(
        self, statement: ParsedStatement, with_metrics: bool
    ) -> QueryResult:
        host = self._execute_host_statement(statement.node)
        if host is not None:
            return host
        cached = self.result_cache_lookup(statement)
        if cached is not None:
            return cached
        version_at_compile = self.metastore.version
        prepared = self.prepare(statement)
        snapshot_at_compile = self._plan_snapshot(prepared.plan)
        execution = self._run_plan(
            prepared.plan, prepared.query_id, with_metrics,
            clear_output=prepared.clear_output,
        )
        trace = self._assemble_trace(
            prepared.kind, prepared.query_id, prepared.compile_seconds, execution
        )
        result = prepared.finalize(execution, trace)
        self.result_cache_store(
            statement, prepared, result, version_at_compile, snapshot_at_compile
        )
        return result

    def _execute_host_statement(
        self, statement: ast.Statement
    ) -> Optional[QueryResult]:
        """Run a statement that never touches the engine (``SET``, DDL,
        ``EXPLAIN``); ``None`` means the statement needs a cluster."""
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
            return None

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
        if isinstance(node, ast.CreateTableAsSelect):
            return self._prepare_ctas(node)
        if isinstance(node, ast.InsertOverwrite):
            return self._prepare_insert(node)
        if isinstance(node, (ast.Select, ast.UnionAll)):
            return self._prepare_select(statement, use_cache=use_cache)
        raise SemanticError(
            f"statement {type(node).__name__} does not run on an engine"
        )

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

    def _run_plan(self, plan: PhysicalPlan, query_id: str,
                  with_metrics: bool, clear_output: bool = True) -> PlanResult:
        if clear_output:  # INSERT OVERWRITE / fresh result dir semantics
            self.hdfs.delete(plan.output_location)
        try:
            execution = self.engine.run_plan(
                plan, self.conf, with_metrics=with_metrics
            )
        except RetryExhaustedError:
            fallback = (self.conf.get(RETRY_FALLBACK, "") or "").strip()
            if not fallback:
                raise
            execution = self._run_plan_fallback(plan, fallback, with_metrics)
        finally:
            # intermediate job outputs, also when a later job failed
            self.hdfs.delete(f"/tmp/hive/{query_id}")
        return execution

    def _run_plan_fallback(self, plan: PhysicalPlan, fallback: str,
                           with_metrics: bool) -> PlanResult:
        """Graceful degradation (``repro.retry.fallback``): a job whose
        gang-scheduled resubmissions are exhausted re-runs the whole plan
        on a task-granular engine from the registry.  Part-files written
        by the failed run's earlier jobs are removed first so the re-run
        can commit them again."""
        from repro import engines as engine_registry

        self._discard_partial_outputs(plan)
        get_metrics().counter("engine.fallbacks").add(1)
        engine = engine_registry.create(
            fallback, self.hdfs, model=self.engine.model
        )
        execution = engine.run_plan(plan, self.conf, with_metrics=with_metrics)
        execution.fallback_from = self.engine.name
        return execution

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

    def _assemble_trace(self, statement: str, query_id: str,
                        compile_seconds: float,
                        execution: Optional[PlanResult]) -> Span:
        """Fold the modeled compile section and the engine's job spans
        into one query-rooted tree on a common simulated clock (seconds
        from statement start)."""
        root = Span(
            "query", start=0.0, category="query",
            attributes={
                "engine": self.engine.name,
                "query_id": query_id,
                "statement": statement,
            },
        )
        root.start_child("compile", 0.0, category="compile").finish(compile_seconds)
        run_seconds = 0.0
        if execution is not None:
            run_seconds = execution.total_seconds
            for job_span in execution.spans:
                # engine spans start at their own t=0; shift past compile
                root.adopt(job_span.shift(compile_seconds))
        return root.finish(compile_seconds + run_seconds)

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
        compile_seconds = self._compile_seconds(plan)

        def finalize(execution: Optional[PlanResult],
                     trace: Optional[Span]) -> QueryResult:
            self.metastore.create_table(
                statement.name, plan.output_schema, format_name=fmt,
                location=location,
            )
            if execution is not None:
                self._autogather_stats(statement.name)
            return QueryResult(
                statement="ctas",
                schema=plan.output_schema,
                plan=plan,
                execution=execution,
                compile_seconds=compile_seconds,
                trace=trace,
                engine=execution.engine if execution else self.engine.name,
            )

        return PreparedStatement(
            "ctas", plan, query_id, True, compile_seconds, finalize
        )

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
        compile_seconds = self._compile_seconds(plan)

        def finalize(execution: Optional[PlanResult],
                     trace: Optional[Span]) -> QueryResult:
            if execution is not None:
                self._autogather_stats(table.name)
            return QueryResult(
                statement="insert",
                schema=target_schema,
                plan=plan,
                execution=execution,
                compile_seconds=compile_seconds,
                trace=trace,
                engine=execution.engine if execution else self.engine.name,
            )

        return PreparedStatement(
            "insert", plan, query_id, statement.overwrite, compile_seconds,
            finalize,
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
            trace=self._assemble_trace("explain", query_id, compile_seconds, None),
        )

    # -- result cache -------------------------------------------------------
    def result_cache(self) -> Optional[LruCache[tuple, ResultCacheEntry]]:
        """The driver's result cache, or ``None`` when the session's
        engine does not advertise the ``result_cache`` capability or
        ``repro.result.cache.enabled`` is off."""
        if not self.engine.capabilities.result_cache:
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

    def result_cache_store(self, statement: ParsedStatement,
                           prepared: "PreparedStatement",
                           result: QueryResult, version_at_compile: int,
                           snapshot_at_compile: tuple) -> None:
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
        if self.metastore.version != version_at_compile:
            return
        if self._plan_snapshot(prepared.plan) != snapshot_at_compile:
            return
        cache.store(
            self._plan_cache_key(statement.key),
            ResultCacheEntry(
                plan=prepared.plan,
                query_id=prepared.query_id,
                version=version_at_compile,
                snapshot=snapshot_at_compile,
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
        compile_seconds = self._compile_seconds(plan)
        bound_plan = plan

        def finalize(execution: Optional[PlanResult],
                     trace: Optional[Span]) -> QueryResult:
            self.hdfs.delete(bound_plan.output_location)
            return QueryResult(
                statement="select",
                rows=execution.rows if execution else [],
                schema=bound_plan.output_schema,
                plan=bound_plan,
                execution=execution,
                compile_seconds=compile_seconds,
                trace=trace,
                engine=execution.engine if execution else self.engine.name,
            )

        return PreparedStatement(
            "select", bound_plan, query_id, True, compile_seconds, finalize
        )
