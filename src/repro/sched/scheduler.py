"""The workload scheduler: admission control + shared-cluster execution.

Layering (top to bottom):

* **admission** (here) — whether a submitted query may run at all:
  global ``max_concurrent``, per-pool concurrency caps, bounded wait
  queues with typed rejection;
* **slot arbitration** (:class:`repro.simulate.LeaseManager`) — which
  *admitted* query's task gets the next free slot, per the ``fifo`` or
  ``fair`` policy;
* **execution** (:meth:`repro.core.driver.Driver.statement_process`) —
  each statement runs the driver's one statement lifecycle, the same
  ``Driver.execute`` runs on a cluster of its own, as a coroutine
  inside one shared :class:`~repro.engines.base.EngineRuntime`.

``submit`` never advances simulated time; it parses (through the
driver's statement cache, so a repeated text costs one lookup) and
compiles nothing.  Simulated-process machinery is paid only for work
that takes simulated time: when a handle is admitted its *instant
prefix* — host statements and statements the result cache answers —
runs on the spot, a script that is all prefix is finished there and
then, and a driver process is spawned into the shared simulator only
for the statements that remain.  A handle's :meth:`QueryHandle.result`
(or :meth:`WorkloadScheduler.drain`) runs the simulation until every
runnable query completes.  Everything is deterministic: same seed + same
submission sequence replays the exact same event order, timings and
results.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.config import BREAKER_THRESHOLD, Configuration, RETRY_MAX
from repro.common.errors import (
    AdmissionRejectedError,
    ConfigError,
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.core.driver import (
    Driver,
    ParsedStatement,
    QueryResult,
    StatementContext,
    within_deadline,
)
from repro.engines.base import Engine, EngineRuntime
from repro.obs import get_metrics
from repro.simulate import Interrupt, LeaseOwner
# submit parses through Driver.parse; the binding stays because hostbench
# pins it as a seam (hostbench/README.md, "Pinned seams")
from repro.sql import parse_script  # noqa: F401

POLICIES = ("fifo", "fair", "capacity")
BREAKER_COOLDOWN = 30.0  # simulated seconds a tripped breaker stays open

QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"


@dataclass
class Pool:
    """One scheduling pool: a weight for fair sharing plus optional
    admission limits (``max_concurrent`` running queries, ``max_queue``
    waiting ones; ``None`` = unlimited)."""

    name: str
    weight: float = 1.0
    max_concurrent: Optional[int] = None
    max_queue: Optional[int] = None

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigError(f"pool {self.name!r}: weight must be positive")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ConfigError(f"pool {self.name!r}: cap must be >= 1")
        if self.max_queue is not None and self.max_queue < 0:
            raise ConfigError(f"pool {self.name!r}: queue must be >= 0")


def parse_pools(spec: str) -> Dict[str, Pool]:
    """Parse the ``repro.sched.pools`` grammar.

    >>> pools = parse_pools("etl:weight=2,cap=1,queue=4; adhoc:weight=1")
    >>> pools["etl"].max_concurrent
    1
    """
    pools: Dict[str, Pool] = {}
    for chunk in (spec or "").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, options = chunk.partition(":")
        name = name.strip()
        if not name:
            raise ConfigError(f"pool spec {chunk!r}: missing pool name")
        if name in pools:
            raise ConfigError(f"pool {name!r} declared twice")
        kwargs: Dict[str, object] = {}
        for option in options.split(","):
            option = option.strip()
            if not option:
                continue
            key, eq, raw = option.partition("=")
            key = key.strip().lower()
            if not eq:
                raise ConfigError(f"pool {name!r}: malformed option {option!r}")
            try:
                if key == "weight":
                    kwargs["weight"] = float(raw)
                elif key == "cap":
                    kwargs["max_concurrent"] = int(raw)
                elif key == "queue":
                    kwargs["max_queue"] = int(raw)
                else:
                    raise ConfigError(
                        f"pool {name!r}: unknown option {key!r} "
                        "(expected weight/cap/queue)"
                    )
            except ValueError as exc:
                raise ConfigError(
                    f"pool {name!r}: {key}={raw!r} is not a number"
                ) from exc
        pools[name] = Pool(name, **kwargs)
    return pools


class EngineBreaker:
    """Consecutive-failure circuit breaker for one engine.

    Closed until ``threshold`` consecutive query failures, then open for
    ``cooldown`` simulated seconds (the scheduler degrades new queries
    onto the engine's declared ``degrades_to``).  After the
    cooldown one half-open probe query is let through: success closes
    the breaker, failure re-opens it with a fresh cooldown.  A
    ``threshold`` of 0 disables the breaker entirely.
    """

    __slots__ = ("threshold", "cooldown", "failures", "opened_at",
                 "half_open_probe", "trips")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.half_open_probe = False
        self.trips = 0

    @property
    def open(self) -> bool:
        return self.opened_at is not None

    def allows(self, now: float) -> bool:
        if self.threshold <= 0 or self.opened_at is None:
            return True
        if now - self.opened_at >= self.cooldown and not self.half_open_probe:
            self.half_open_probe = True  # exactly one probe per cooldown
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None
        self.half_open_probe = False

    def record_failure(self, now: float) -> bool:
        """Count a failure; returns True when the breaker (re-)trips."""
        self.failures += 1
        if self.opened_at is not None:
            # failed half-open probe (or failure while already open)
            self.opened_at = now
            self.half_open_probe = False
            self.trips += 1
            return True
        if self.threshold > 0 and self.failures >= self.threshold:
            self.opened_at = now
            self.half_open_probe = False
            self.trips += 1
            return True
        return False


def jain_fairness_index(values: List[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)`` — 1.0 when
    every query got the same share, ``1/n`` when one got everything."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares <= 0:
        return 1.0
    return (total * total) / (len(values) * squares)


class QueryHandle:
    """One submitted query (possibly a multi-statement script).

    ``submit`` returns immediately in simulated time; :meth:`result`
    drains the shared simulation and returns the script's primary
    :class:`~repro.core.driver.QueryResult` (the last SELECT's, matching
    ``Driver.query``), re-raising the query's failure if it had one.
    """

    __slots__ = ("_scheduler", "query_id", "pool", "owner", "statements",
                 "results", "error", "submitted_at", "admitted_at",
                 "finished_at", "deadline", "deadline_missed", "retry_budget",
                 "_status")

    def __init__(self, scheduler: "WorkloadScheduler", query_id: str,
                 pool: Pool, statements: Sequence[ParsedStatement],
                 deadline: Optional[float] = None,
                 retry_budget: Optional[int] = None):
        self._scheduler = scheduler
        self.query_id = query_id
        self.pool = pool.name
        #: lease identity, built with the driver process: a handle that
        #: is answered at admission never holds a lease
        self.owner: Optional[LeaseOwner] = None
        self.statements = statements
        self.results: List[QueryResult] = []
        self.error: Optional[BaseException] = None
        self.submitted_at = scheduler.runtime.sim.now
        self.admitted_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: wall-clock budget in simulated seconds from submission; the
        #: scheduler cancels the query with QueryTimeoutError past it
        self.deadline = deadline
        self.deadline_missed = False
        #: per-query override of ``repro.retry.max`` (None = session conf)
        self.retry_budget = retry_budget
        self._status = QUEUED

    # -- public API ---------------------------------------------------------
    def status(self) -> str:
        return self._status

    def done(self) -> bool:
        return self._status in (SUCCEEDED, FAILED, CANCELLED)

    def cancel(self) -> bool:
        """Withdraw the query if it has not been admitted yet.  Returns
        ``True`` when cancelled; ``False`` once it is running or done
        (no preemption — the cluster finishes what it started)."""
        return self._scheduler._cancel(self)

    def result(self) -> QueryResult:
        self._scheduler.drain()
        if self._status == CANCELLED:
            raise QueryCancelledError(
                f"query {self.query_id} was cancelled before admission",
                query_id=self.query_id,
            )
        if self.error is not None:
            raise self.error
        for result in reversed(self.results):
            if result.statement == "select":
                return result
        return self.results[-1]

    # -- timings (simulated seconds on the shared clock) ---------------------
    @property
    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def queue_wait(self) -> Optional[float]:
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.submitted_at

    def __repr__(self) -> str:
        return (
            f"QueryHandle({self.query_id!r}, pool={self.pool!r}, "
            f"status={self._status!r})"
        )


class WorkloadScheduler:
    """Admits queries from one :class:`~repro.core.driver.Driver` into a
    shared :class:`~repro.engines.base.EngineRuntime`."""

    def __init__(
        self,
        driver: Driver,
        policy: str = "fifo",
        max_concurrent: int = 0,
        pools: Optional[Dict[str, Pool]] = None,
        default_pool: str = "default",
    ):
        if policy not in POLICIES:
            raise ConfigError(
                f"unknown scheduler policy {policy!r} (expected one of {POLICIES})"
            )
        if max_concurrent < 0:
            raise ConfigError("repro.sched.max.concurrent must be >= 0")
        self.driver = driver
        self.policy = policy
        self.max_concurrent = max_concurrent
        self.pools: Dict[str, Pool] = dict(pools or {})
        self.default_pool = default_pool
        self.pools.setdefault(default_pool, Pool(default_pool))
        self.runtime = EngineRuntime(
            driver.engine.model,
            driver.conf,
            lease_policy="fair" if policy == "fair" else "fifo",
        )
        #: deterministic audit trail: (time, action, query, pool) in
        #: scheduling order — the concurrency suite replays and compares it
        self.events: List[Tuple[float, str, str, str]] = []
        self.handles: List[QueryHandle] = []
        self._waiting: Deque[QueryHandle] = deque()
        self._queued_by_pool: Dict[str, int] = {}
        self._running_by_pool: Dict[str, int] = {}
        self._running_total = 0
        self._counter = 0
        self.rejected = 0
        self.peak_queue_depth = 0
        self._breaker_threshold = max(
            0, driver.conf.get_int(BREAKER_THRESHOLD, 0)
        )
        self._breakers: Dict[str, EngineBreaker] = {}

    # -- submission ----------------------------------------------------------
    def submit(self, sql: str, pool: Optional[str] = None,
               deadline: Optional[float] = None,
               retry_budget: Optional[int] = None) -> QueryHandle:
        """Queue a script for execution; non-blocking in simulated time.

        *deadline* is a wall-clock budget in simulated seconds from
        submission (defaults to ``repro.query.deadline``; 0/unset = no
        deadline): past it the query's work is interrupted, its leases
        and executor slots freed, and :class:`QueryTimeoutError` becomes
        the handle's error.  *retry_budget* overrides ``repro.retry.max``
        for this query only.

        Raises :class:`AdmissionRejectedError` when the target pool's
        concurrency cap is reached *and* its bounded wait queue is full.
        """
        statements = self.driver.parse(sql)
        if not statements:
            raise ExecutionError("submit needs at least one statement")
        if deadline is None:
            deadline = self.driver.query_deadline()
        elif deadline <= 0:
            raise ConfigError(f"deadline must be positive: {deadline}")
        if retry_budget is not None and retry_budget < 0:
            raise ConfigError(f"retry budget must be >= 0: {retry_budget}")
        pool_obj = self._resolve_pool(pool)
        self._counter += 1
        handle = QueryHandle(self, f"wq{self._counter}", pool_obj, statements,
                             deadline=deadline, retry_budget=retry_budget)
        self._check_admission(pool_obj, handle)
        self.handles.append(handle)
        self._waiting.append(handle)
        self._queued_by_pool[pool_obj.name] = (
            self._queued_by_pool.get(pool_obj.name, 0) + 1
        )
        self._log("submit", handle)
        self._pump()
        return handle

    @property
    def queue_depth(self) -> int:
        """Queries submitted but not yet admitted (nor cancelled)."""
        return len(self._waiting)

    def _resolve_pool(self, pool: Optional[str]) -> Pool:
        name = pool or self.default_pool
        pool_obj = self.pools.get(name)
        if pool_obj is None:
            raise ConfigError(
                f"unknown pool {name!r} (declared: {sorted(self.pools)})"
            )
        return pool_obj

    def _check_admission(self, pool: Pool, handle: QueryHandle) -> None:
        if pool.max_concurrent is None:
            return
        running = self._running_by_pool.get(pool.name, 0)
        if running < pool.max_concurrent:
            return
        queued = self._queued_by_pool.get(pool.name, 0)
        if pool.max_queue is not None and queued >= pool.max_queue:
            self.rejected += 1
            get_metrics().counter("sched.admission.rejected").add(1)
            self.events.append(
                (self.runtime.sim.now, "reject", handle.query_id, pool.name)
            )
            raise AdmissionRejectedError(
                f"pool {pool.name!r} is full: {running} running "
                f"(cap {pool.max_concurrent}), {queued} queued "
                f"(queue limit {pool.max_queue})",
                pool=pool.name,
                running=running,
                queued=queued,
                max_concurrent=pool.max_concurrent,
                max_queue=pool.max_queue,
            )

    # -- draining ------------------------------------------------------------
    def drain(self) -> None:
        """Run the shared simulation until every runnable query is done."""
        self._pump()
        self.runtime.sim.run()

    def close(self) -> None:
        self.runtime.close()

    # -- admission pump --------------------------------------------------------
    def _fits(self, pool: Pool) -> bool:
        if self.max_concurrent and self._running_total >= self.max_concurrent:
            return False
        if pool.max_concurrent is not None:
            if self._running_by_pool.get(pool.name, 0) >= pool.max_concurrent:
                return False
        return True

    def _pump(self) -> None:
        """Admit waiting queries, in submission order, as capacity allows
        (a full pool never blocks a later submission to another pool).

        An admitted handle is started on the spot; one answered without
        simulated time has given its slot back before the next is looked
        at, so a run of queued hits drains in this one pass (and nothing
        skipped earlier can fit because of it: a pool only frees a slot
        here that this pass took).  The waiting list is a deque: the
        common serving case — head admitted, or nothing admissible —
        never rebuilds it, and the loop stops at the *global* cap
        instead of re-checking every queued query.
        """
        depth = len(self._waiting)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        if not self._waiting:
            return
        waiting = self._waiting
        skipped: Deque[QueryHandle] = deque()
        while waiting:
            if self.max_concurrent and self._running_total >= self.max_concurrent:
                break  # global cap: nothing more fits until a finish
            handle = waiting.popleft()
            pool = self.pools[handle.pool]
            if not self._fits(pool):
                skipped.append(handle)  # pool-capped; later pools may fit
                continue
            self._queued_by_pool[pool.name] -= 1
            self._running_by_pool[pool.name] = (
                self._running_by_pool.get(pool.name, 0) + 1
            )
            self._running_total += 1
            handle.admitted_at = self.runtime.sim.now
            handle._status = RUNNING
            self._log("admit", handle)
            self._start(handle, pool)
        if skipped:
            skipped.extend(waiting)
            self._waiting = skipped
        get_metrics().gauge("sched.queue.depth").set(len(self._waiting))

    def _cancel(self, handle: QueryHandle) -> bool:
        if handle._status != QUEUED:
            return False
        handle._status = CANCELLED  # no process yet: marking is all
        handle.finished_at = self.runtime.sim.now
        self._waiting.remove(handle)
        self._queued_by_pool[handle.pool] -= 1
        self._log("cancel", handle)
        return True

    def _start(self, handle: QueryHandle, pool: Pool) -> None:
        """Run the admitted handle's instant prefix; a script that is all
        prefix is finished here, anything else gets a driver process for
        the statements that remain."""
        statements = handle.statements
        start = 0
        try:
            while start < len(statements):
                instant = self._instant_result(handle, statements[start])
                if instant is None:
                    break
                handle.results.append(instant)
                start += 1
        except Exception as exc:  # as _guarded_body: never escapes submit
            handle._status = FAILED
            handle.error = exc
        else:
            if start < len(statements):
                handle.owner = LeaseOwner(handle.query_id, pool=pool.name,
                                          weight=pool.weight)
                self.runtime.sim.spawn(self._query_process(handle, start),
                                       handle.query_id)
                return
            handle._status = SUCCEEDED
        self._finish(handle)

    def _finish(self, handle: QueryHandle) -> None:
        """Book a handle out; the caller pumps (``_pump``'s own loop when
        the handle was answered at admission)."""
        now = self.runtime.sim.now
        handle.finished_at = now
        self._log("finish" if handle._status == SUCCEEDED else "fail", handle)
        self._running_by_pool[handle.pool] -= 1
        self._running_total -= 1
        get_metrics().histogram("sched.query.latency").observe(
            now - handle.submitted_at
        )

    def _log(self, action: str, handle: QueryHandle) -> None:
        self.events.append(
            (self.runtime.sim.now, action, handle.query_id, handle.pool)
        )

    # -- the per-query driver process ------------------------------------------
    def _query_process(self, handle: QueryHandle, start: int):
        try:
            yield from within_deadline(
                self.runtime.sim, self._guarded_body(handle, start),
                handle.query_id, handle.deadline, handle.submitted_at,
            )
        except QueryTimeoutError as exc:
            handle.deadline_missed = True
            get_metrics().counter("sched.deadline.misses").add(1)
            self._log("deadline", handle)
            handle._status = FAILED
            handle.error = exc
        finally:
            self._finish(handle)
        # not in the finally: a process abandoned with its session books
        # its handle out (at collection time) but must admit nobody —
        # admission now *runs* statements
        self._pump()

    def _guarded_body(self, handle: QueryHandle, start: int):
        """Run the statements, recording outcome on the handle; a
        deadline interrupt passes through to the guard untouched."""
        try:
            yield from self._statements_body(handle, start)
            handle._status = SUCCEEDED
        except Interrupt:
            raise  # deadline abort: within_deadline reports the timeout
        except Exception as exc:  # one query's failure never sinks the rest
            handle._status = FAILED
            handle.error = exc

    def _instant_result(self, handle: QueryHandle,
                        statement: ParsedStatement) -> Optional[QueryResult]:
        """:meth:`Driver.instant_result` on the shared clock, at the
        moment the statement gets to run — a hit reflects every write
        that committed before it."""
        result = self.driver.instant_result(statement)
        if result is not None and result.cache_hit:
            self._log("cache-hit", handle)
        return result

    def _statements_body(self, handle: QueryHandle, start: int):
        """The statements from *start* on.  ``statements[start]`` needs
        the cluster — admission looked it up already."""
        statements = handle.statements
        for index in range(start, len(statements)):
            statement = statements[index]
            if index > start:
                instant = self._instant_result(handle, statement)
                if instant is not None:
                    handle.results.append(instant)
                    continue
            prepared = self.driver.prepare(statement, use_cache=False)
            handle.results.append((yield from self.driver.statement_process(
                self.runtime, prepared, self._context(handle)
            )))

    def _context(self, handle: QueryHandle) -> StatementContext:
        """A statement of *handle* as the lifecycle sees it: the handle's
        retry budget and lease owner, the breakers, and the workload
        attribution of its trace root."""
        conf = self.driver.conf
        if handle.retry_budget is not None:
            conf = conf.copy()
            conf.set(RETRY_MAX, handle.retry_budget)
        return StatementContext(
            conf, handle.owner,
            {"query": handle.query_id, "pool": handle.pool,
             "policy": self.policy, "queue_wait": handle.queue_wait or 0.0},
            functools.partial(self._select_engine, handle),
            functools.partial(self._engine_finished, handle),
        )

    # -- circuit breaker -------------------------------------------------------
    def _breaker(self, engine_name: str) -> EngineBreaker:
        breaker = self._breakers.get(engine_name)
        if breaker is None:
            breaker = EngineBreaker(self._breaker_threshold, BREAKER_COOLDOWN)
            self._breakers[engine_name] = breaker
        return breaker

    def _select_engine(self, handle: QueryHandle, now: float) -> Engine:
        """Breaker-aware engine choice: the session engine unless its
        breaker is open, else the engine it names in ``degrades_to``
        (:meth:`Driver.degrade_target`) while that one's breaker is
        closed."""
        primary = self.driver.engine
        if self._breaker_threshold <= 0:
            return primary
        if self._breaker(primary.name).allows(now):
            return primary
        target = self.driver.degrade_target(primary)
        if target is None or not self._breaker(target.name).allows(now):
            return primary  # nowhere to go: last resort is the primary
        get_metrics().counter("sched.breaker.degraded").add(1)
        self.events.append(
            (now, "breaker-degrade", handle.query_id, target.name)
        )
        return target

    def _engine_finished(self, handle: QueryHandle, engine: Engine,
                         now: float, failed: bool) -> None:
        breaker = self._breaker(engine.name)
        if not failed:
            breaker.record_success()
        elif breaker.record_failure(now):
            get_metrics().counter("sched.breaker.trips").add(1)
            self.events.append((now, "breaker-open", handle.query_id,
                                engine.name))

    # -- reporting -------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Workload-level numbers for the bench harness and tests."""
        finished = [h for h in self.handles if h.finished_at is not None]
        latencies = sorted(
            h.latency for h in finished if h._status == SUCCEEDED
        )
        ledger = self.runtime.leases.ledger
        usage = ledger.usage  # read only: ``owner_usage`` would add rows

        def nearest_rank(q: float) -> Optional[float]:
            if not latencies:
                return None
            rank = min(len(latencies) - 1,
                       max(0, int(round(q / 100.0 * (len(latencies) - 1)))))
            return latencies[rank]

        return {
            "policy": self.policy,
            "queries": len(self.handles),
            "succeeded": sum(1 for h in self.handles if h._status == SUCCEEDED),
            "failed": sum(1 for h in self.handles if h._status == FAILED),
            "cancelled": sum(1 for h in self.handles if h._status == CANCELLED),
            "rejected": self.rejected,
            "makespan": self.runtime.sim.now,
            "latencies": latencies,
            "latency_p50": nearest_rank(50),
            "latency_p95": nearest_rank(95),
            "latency_p99": nearest_rank(99),
            "peak_queue_depth": self.peak_queue_depth,
            "fairness": jain_fairness_index(latencies),
            "deadline_misses": sum(
                1 for h in self.handles if h.deadline_missed
            ),
            "breaker_trips": {
                name: breaker.trips
                for name, breaker in sorted(self._breakers.items())
                if breaker.trips
            },
            "oversubscribed_pools": ledger.oversubscribed_pools(),
            "slot_seconds": {
                h.query_id: (usage[h.query_id].slot_seconds
                             if h.query_id in usage else 0.0)
                for h in self.handles
            },
        }


def scheduler_from_conf(driver: Driver,
                        conf: Optional[Configuration] = None) -> WorkloadScheduler:
    """Build a scheduler from the ``repro.sched.*`` configuration keys."""
    from repro.common.config import (
        SCHED_DEFAULT_POOL,
        SCHED_MAX_CONCURRENT,
        SCHED_POLICY,
        SCHED_POOLS,
    )

    conf = conf or driver.conf
    return WorkloadScheduler(
        driver,
        policy=(conf.get(SCHED_POLICY, "fifo") or "fifo").strip().lower(),
        max_concurrent=conf.get_int(SCHED_MAX_CONCURRENT, 0),
        pools=parse_pools(conf.get(SCHED_POOLS, "") or ""),
        default_pool=conf.get(SCHED_DEFAULT_POOL, "default") or "default",
    )
