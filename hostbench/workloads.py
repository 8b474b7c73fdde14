"""The six hostbench workloads.

Every workload is built from ``--seed`` alone (the seed feeds
``load_tpch`` / ``load_hibench`` and hostbench's own arrival generator)
and the program under test only ever receives the generated warehouse,
SQL text and configuration — no workload name reaches ``src/``.

A workload has four steps, called by ``measure.py``:

* ``build(seed)``      — dataset generation, load, DDL (set-up);
* ``oracle(state)``    — run every script once on the ``local`` engine
                         and keep its rows (set-up);
* ``execute(state)``   — one *pass*: the scripts on fresh sessions over
                         the built warehouse (the timed region);
* ``check(state, raw)``— compare the pass to the oracle and account
                         failures (untimed).
"""

from __future__ import annotations

import math
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro.common.config import (
    HEARTBEAT_ENABLED,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.common.errors import AdmissionRejectedError
from repro.workloads.hibench import (
    HIBENCH_AGGREGATE,
    HIBENCH_JOIN,
    hibench_ddl,
    load_hibench,
)
from repro.workloads.tpch import (
    TPCH_QUERY_IDS,
    TPCH_SCHEMAS,
    load_tpch,
    tpch_query,
)

Row = Tuple[object, ...]


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------

def rows_match(expected: Sequence[Row], actual: Sequence[Row],
               ordered: bool = True) -> bool:
    """Row-set equality with floats compared at 9 significant digits.

    Reduce-side sums accumulate in shuffle-arrival order, so two correct
    runs can differ in the last ulps; a tolerance absorbs that where a
    rounded digest would flip at a rounding boundary.  ``ordered=False``
    compares sorted multisets (scan order is file layout, not a query
    guarantee)."""
    if len(expected) != len(actual):
        return False
    if expected == actual:
        return True
    if not ordered:
        expected = sorted(expected, key=_sort_key)
        actual = sorted(actual, key=_sort_key)
    return all(_row_match(left, right) for left, right in zip(expected, actual))


def _row_match(left: Row, right: Row) -> bool:
    if left == right:
        return True
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if a != b and not (
            isinstance(a, float) and isinstance(b, float)
            and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        ):
            return False
    return True


def _sort_key(row: Row):
    # floats at 6 digits so ulp noise cannot reorder rows; NULLs last
    return tuple(
        (value is None,
         0 if value is None
         else float(f"{value:.6g}") if isinstance(value, float) else value)
        for value in row
    )


def _rows_read(results) -> int:
    """Input rows read by map tasks."""
    return sum(
        task.rows_read
        for result in results if result.execution is not None
        for job in result.execution.jobs
        for task in job.tasks
    )


def _cache_counts(session) -> Counter:
    caches = session.caches()
    counts: Counter = Counter()
    if caches["result"] is not None:
        counts["core.result_cache_hits"] = caches["result"]["hits"]
        counts["core.result_cache_misses"] = caches["result"]["misses"]
    for node in caches["columnar"].values():
        counts["storage.llap_cache_hits"] += node["hits"]
        counts["storage.llap_cache_misses"] += node["misses"]
    return counts


# ---------------------------------------------------------------------------
# query workloads
# ---------------------------------------------------------------------------

@dataclass
class PassOutcome:
    attempted: int
    failed: int
    sim_seconds: float
    rows_read: int
    counts: Counter = field(default_factory=Counter)


@dataclass
class State:
    hdfs: object
    metastore: object
    expected: Dict[str, List[List[Row]]] = field(default_factory=dict)
    expected_tables: Dict[str, List[Row]] = field(default_factory=dict)
    arrivals: list = field(default_factory=list)


@dataclass(frozen=True)
class Leg:
    """Scripts run in order on one fresh session."""

    engine: str
    scripts: Tuple[str, ...]


class QueryWorkload:
    """Scripts on fresh sessions; INSERT targets probed as multisets."""

    def __init__(self, name: str, why: str, input_size: str, loader,
                 legs: Sequence[Leg], setup_sql: str = "",
                 output_tables: Sequence[str] = ()):
        self.name = name
        self.why = why
        self.input_size = input_size
        self._loader = loader  # (hdfs, metastore, seed, smoke) -> None
        self.legs = tuple(legs)
        self.setup_sql = setup_sql
        self.output_tables = tuple(output_tables)
        self._raised = 0

    def build(self, seed: int, smoke: bool) -> State:
        hdfs, metastore = repro.make_warehouse()
        self._loader(hdfs, metastore, seed, smoke)
        if self.setup_sql:
            with repro.connect(engine="local", hdfs=hdfs,
                               metastore=metastore) as session:
                session.execute(self.setup_sql)
        return State(hdfs, metastore)

    def oracle(self, state: State) -> None:
        with repro.connect(engine="local", hdfs=state.hdfs,
                           metastore=state.metastore) as session:
            for leg in self.legs:
                for script in leg.scripts:
                    if script not in state.expected:
                        state.expected[script] = [
                            result.rows for result in session.execute(script)
                        ]
        for table in self.output_tables:
            state.expected_tables[table] = self._table_rows(state, table)

    @staticmethod
    def _table_rows(state: State, table: str) -> List[Row]:
        location = state.metastore.get_table(table).location
        return state.hdfs.dir_rows(location)

    def execute(self, state: State):
        raw = []
        for leg in self.legs:
            with repro.connect(engine=leg.engine, hdfs=state.hdfs,
                               metastore=state.metastore) as session:
                for script in leg.scripts:
                    try:
                        raw.append((script, session.execute(script)))
                    except Exception:
                        # counted as failed by check(); show the first one
                        if not self._raised:
                            traceback.print_exc(file=sys.stderr)
                        self._raised += 1
                        raw.append((script, None))
                raw.append((None, _cache_counts(session)))
        return raw

    def check(self, state: State, raw) -> PassOutcome:
        outcome = PassOutcome(0, 0, 0.0, 0)
        for script, results in raw:
            if script is None:
                outcome.counts.update(results)  # Counter.update adds
                continue
            outcome.attempted += 1
            expected = state.expected[script]
            if results is None or len(results) != len(expected) or not all(
                rows_match(want, result.rows)
                for want, result in zip(expected, results)
            ):
                outcome.failed += 1
                continue
            outcome.sim_seconds += sum(r.simulated_seconds for r in results)
            outcome.rows_read += _rows_read(results)
        for table, expected_rows in state.expected_tables.items():
            outcome.attempted += 1
            if not rows_match(expected_rows, self._table_rows(state, table),
                              ordered=False):
                outcome.failed += 1
        return outcome


# ---------------------------------------------------------------------------
# serving workload: hostbench owns the arrivals and the dispatcher
# ---------------------------------------------------------------------------

#: Read-only HiBench-shaped mix, most popular first.  Every ORDER BY ...
#: LIMIT breaks ties on a key so all engines pick the same rows.
SERVING_CATALOG: Tuple[str, ...] = (
    "SELECT sourceip, SUM(adrevenue) FROM uservisits GROUP BY sourceip",
    "SELECT countrycode, count(*), sum(adrevenue) FROM uservisits "
    "GROUP BY countrycode",
    "SELECT searchword, avg(duration) FROM uservisits GROUP BY searchword",
    "SELECT count(*) FROM uservisits WHERE visitdate >= '1999-07-01'",
    "SELECT languagecode, count(*) FROM uservisits GROUP BY languagecode",
    "SELECT avg(pagerank) FROM rankings WHERE pagerank > 500",
    "SELECT count(*) FROM rankings",
    "SELECT r.pageurl, r.pagerank FROM rankings r "
    "ORDER BY r.pagerank DESC, r.pageurl LIMIT 10",
)

#: name -> (weight, concurrency cap), as in benchmarks/bench_serving.py.
#: Queues hold every arrival and the deadline is far above the cold-start
#: tail, so a healthy system refuses nothing and misses no deadline: every
#: rejection or miss a change introduces counts as failed.
SERVING_POOLS = {"bi": (3.0, 24), "etl": (1.0, 8), "adhoc": (2.0, 16)}
SERVING_MAX_CONCURRENT = 48  # the sum of the pool caps
SERVING_QUEUE = 8192
SERVING_DEADLINE = 3600.0
SERVING_DEADLINE_SHARE = 0.15
#: The seeded stream starts once the cold burst has drained.  Letting the
#: stream itself hit a cold cache makes the number of result-cache misses
#: (and so rows read, simulated latency and wall time) swing by +-20 %
#: with the seed: a miss is any duplicate admitted before its query's
#: first copy finishes, which depends on arrival order to the millisecond.
STREAM_START = 120.0  # the burst's slowest query finishes within ~20 s


@dataclass(frozen=True)
class Arrival:
    when: float  # simulated seconds
    pool: str
    query: int  # index into SERVING_CATALOG
    deadline: Optional[float]


def generate_arrivals(seed: int, count: int, sessions: int, rate: float,
                      burst_factor: float = 3.0, burst_share: float = 0.25,
                      cycle: float = 60.0, zipf_s: float = 1.1) -> List[Arrival]:
    """Open-loop schedule: a cold burst, then the seeded stream.

    The burst fills every pool to its cap at time 0 with the catalog
    round-robin, so all of its queries run concurrently and miss the
    result cache together: the lease-heavy part, the same for every
    seed.  The stream is bursty (a *burst_share* of every *cycle* at
    *burst_factor* times the mean rate, a lull at the complementary
    rate) with Zipf popularity over the catalog, each arrival from one
    of *sessions* clients pinned to a pool by weight."""
    rng = random.Random(seed)
    pools = list(SERVING_POOLS)
    arrivals = [
        Arrival(0.0, pool, index % len(SERVING_CATALOG), None)
        for index, pool in enumerate(
            pool for pool in pools for _ in range(SERVING_POOLS[pool][1]))
    ]
    session_pool = rng.choices(
        pools, weights=[SERVING_POOLS[p][0] for p in pools], k=sessions)
    ranks = range(len(SERVING_CATALOG))
    popularity = [1.0 / (rank + 1) ** zipf_s for rank in ranks]
    lull = rate * (1.0 - burst_factor * burst_share) / (1.0 - burst_share)
    now = STREAM_START
    for _ in range(count):
        in_burst = (now % cycle) < burst_share * cycle
        now += rng.expovariate(rate * burst_factor if in_burst else lull)
        arrivals.append(Arrival(
            when=now,
            pool=session_pool[rng.randrange(sessions)],
            query=rng.choices(ranks, weights=popularity)[0],
            deadline=(SERVING_DEADLINE
                      if rng.random() < SERVING_DEADLINE_SHARE else None),
        ))
    return arrivals


class ServingWorkload:
    """Open loop in *simulated* time: the dispatcher submits each arrival
    at its scheduled instant whatever the backlog, and host speed cannot
    delay it, so the generator is never late."""

    name = "serving_llap"
    why = ("a cold burst, then open-loop bursty Zipf traffic through "
           "Session.submit on llap: parser, leases, scheduler and result "
           "cache, negligible row compute")
    engine = "llap"

    ARRIVALS = 4000
    SESSIONS = 2000
    RATE = 8.0  # stream arrivals per simulated second, long-run mean
    WORKERS = 100
    USERVISITS = 4000
    input_size = (
        f"{SERVING_MAX_CONCURRENT}-query cold burst, then {ARRIVALS} "
        f"arrivals at {RATE:g} q/s mean over {SESSIONS} sessions, "
        f"{WORKERS + 1} nodes, fair policy, {USERVISITS} uservisits rows; "
        f"open loop in simulated time, so the generator is never late")

    def build(self, seed: int, smoke: bool) -> State:
        shrink = 4 if smoke else 1
        hdfs, metastore = repro.make_warehouse(num_workers=self.WORKERS)
        # ORC so the daemons' decoded-stripe caches take part
        load_hibench(hdfs, metastore, nominal_gb=0.5,
                     sample_uservisits=self.USERVISITS // shrink,
                     format_name="orc", seed=seed)
        arrivals = generate_arrivals(
            seed, self.ARRIVALS // shrink, self.SESSIONS // shrink, self.RATE)
        return State(hdfs, metastore, arrivals=arrivals)

    def oracle(self, state: State) -> None:
        with repro.connect(engine="local", hdfs=state.hdfs,
                           metastore=state.metastore) as session:
            for sql in SERVING_CATALOG:
                state.expected[sql] = [session.query(sql).rows]

    def execute(self, state: State):
        pools = "; ".join(
            f"{name}:weight={weight:g},cap={cap},queue={SERVING_QUEUE}"
            for name, (weight, cap) in SERVING_POOLS.items())
        conf = {
            HEARTBEAT_ENABLED: False,  # a tick per worker adds nothing here
            SCHED_POLICY: "fair",
            SCHED_POOLS: pools,
            SCHED_MAX_CONCURRENT: SERVING_MAX_CONCURRENT,
        }
        with repro.connect(engine=self.engine, hdfs=state.hdfs,
                           metastore=state.metastore, conf=conf) as session:
            scheduler = session.scheduler
            sim = scheduler.runtime.sim
            handles = []
            depth = [0]

            def dispatcher():
                for arrival in state.arrivals:
                    delay = arrival.when - sim.now
                    if delay > 0:
                        yield sim.timeout(delay)
                    try:
                        handles.append((arrival, session.submit(
                            SERVING_CATALOG[arrival.query], pool=arrival.pool,
                            deadline=arrival.deadline)))
                    except AdmissionRejectedError:
                        handles.append((arrival, None))
                    depth[0] = max(depth[0], scheduler.queue_depth)

            sim.spawn(dispatcher(), "hostbench-dispatcher")
            scheduler.drain()
            return handles, scheduler.summary(), depth[0], _cache_counts(session)

    def check(self, state: State, raw) -> PassOutcome:
        handles, summary, depth_peak, counts = raw
        outcome = PassOutcome(len(handles), 0, summary["makespan"], 0, counts)
        # result-cache hits replay copies of one row list: comparing with
        # the last verified copy is a C-speed equality, the tolerant
        # oracle comparison runs once per distinct result
        verified: Dict[int, List[Row]] = {}
        for arrival, handle in handles:
            if handle is None or handle.status() != "succeeded":
                outcome.failed += 1
                continue
            rows = handle.results[-1].rows
            if rows != verified.get(arrival.query):
                expected = state.expected[SERVING_CATALOG[arrival.query]][0]
                if not rows_match(expected, rows, ordered=False):
                    outcome.failed += 1
                    continue
                verified[arrival.query] = rows
            outcome.rows_read += _rows_read(handle.results)
        latencies = summary["latencies"]
        counts.update({
            "sched.deadline_misses": summary["deadline_misses"],
            "sched.latency_p50_sim_s": summary["latency_p50"] or 0.0,
            "sched.latency_p99_sim_s": summary["latency_p99"] or 0.0,
            "sched.queue_depth_peak": depth_peak,
            "sched.completed": len(latencies),
        })
        return outcome


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

TPCH_SF = 2.0
_LINEITEM_DDL = ", ".join(
    f"{column.name} {column.dtype.value}"
    for column in TPCH_SCHEMAS["lineitem"].columns
)


def _tpch_loader(lineitem_sample: int, format_name: str = "text"):
    def load(hdfs, metastore, seed: int, smoke: bool) -> None:
        load_tpch(
            hdfs, metastore, TPCH_SF,
            lineitem_sample=lineitem_sample // (4 if smoke else 1),
            seed=seed, format_name=format_name)
    return load


def _hibench_loader(sample_uservisits: int):
    def load(hdfs, metastore, seed: int, smoke: bool) -> None:
        load_hibench(
            hdfs, metastore, nominal_gb=1.0,
            sample_uservisits=sample_uservisits // (4 if smoke else 1),
            seed=seed)
    return load


def all_workloads() -> Dict[str, object]:
    scan_scripts = (tpch_query(1, TPCH_SF), tpch_query(6, TPCH_SF))
    tpch22 = tuple(tpch_query(q, TPCH_SF) for q in TPCH_QUERY_IDS)
    workloads = [
        QueryWorkload(
            "tpch_scan_text",
            "TPC-H Q1+Q6 on Text: column-slice scan and tiny shuffle, so "
            "vectorized map kernels, codegen and per-job overhead do the work",
            f"SF {TPCH_SF:g}, 48000 lineitem rows, Text",
            _tpch_loader(48000),
            [Leg("datampi", scan_scripts)],
        ),
        QueryWorkload(
            "tpch_scan_orc",
            "same script and size on ORC: stripe streams to ColumnBatch, "
            "column pruning and stripe skipping; storage used differently",
            f"SF {TPCH_SF:g}, 48000 lineitem rows, ORC",
            _tpch_loader(48000, format_name="orc"),
            [Leg("datampi", scan_scripts)],
        ),
        QueryWorkload(
            "hibench_datampi",
            "HiBench JOIN + AGGREGATE on datampi: the paper's engine under "
            "heavy shuffle (DES bandwidth sharing, reduce sort/join, SPL)",
            "1 GB nominal, 30000 uservisits rows, Sequence",
            _hibench_loader(30000),
            [Leg("datampi", (hibench_ddl(), HIBENCH_JOIN, HIBENCH_AGGREGATE))],
            output_tables=("rankings_uservisits_join", "uservisits_aggre"),
        ),
        QueryWorkload(
            "tpch22_three_engines",
            "all 22 TPC-H queries on hadoop, datampi and llap: every "
            "operator, multi-job DAGs, map-joins, all three task lifecycles",
            f"SF {TPCH_SF:g}, 3000 lineitem rows, Text, 66 scripts per pass",
            _tpch_loader(3000),
            [Leg(engine, tpch22) for engine in ("hadoop", "datampi", "llap")],
        ),
        ServingWorkload(),
        QueryWorkload(
            "ctas_write",
            "INSERT OVERWRITE of lineitem into an ORC and a SequenceFile "
            "table: ORC encode and column packing beside the reads",
            f"SF {TPCH_SF:g}, 24000 lineitem rows, Text in, ORC + Sequence out",
            _tpch_loader(24000),
            [Leg("datampi", (
                "INSERT OVERWRITE TABLE lineitem_orc SELECT * FROM lineitem;",
                "INSERT OVERWRITE TABLE lineitem_seq SELECT * FROM lineitem;",
            ))],
            setup_sql=(
                f"CREATE TABLE lineitem_orc ({_LINEITEM_DDL}) STORED AS ORC;"
                f"CREATE TABLE lineitem_seq ({_LINEITEM_DDL}) "
                f"STORED AS SEQUENCEFILE;"),
            output_tables=("lineitem_orc", "lineitem_seq"),
        ),
    ]
    return {workload.name: workload for workload in workloads}
