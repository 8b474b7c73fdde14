"""Concurrency suite for the workload scheduler (``repro.sched``).

Covers: deterministic replay (same seed + submission schedule → byte
identical results, makespan and event ordering), cluster-sharing
invariants (no slot oversubscription, DataMPI gang atomicity,
overlapping job spans), solo-equivalence of results under every policy
on both engines, admission control (capacity caps, bounded queues,
typed rejection), fair-vs-FIFO differentiation, cancellation, and a
hypothesis property test over random submit/cancel/result interleavings.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.common.config import (
    FAULT_SPEC,
    LEASE_AUDIT,
    RETRY_BACKOFF,
    RETRY_MAX,
    SCHED_DEFAULT_POOL,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.common.errors import (
    AdmissionRejectedError,
    ConfigError,
    ParseError,
    QueryCancelledError,
)
from repro.sched import (
    CANCELLED,
    FAILED,
    QUEUED,
    RUNNING,
    SUCCEEDED,
    Pool,
    jain_fairness_index,
    parse_pools,
)

from .conftest import build_big_warehouse, build_warehouse

AGG = "SELECT dept, count(*), sum(salary) FROM emp GROUP BY dept"
JOIN = ("SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.dept "
        "ORDER BY e.name")
SCAN = "SELECT count(*) FROM emp"
BIG_AGG = "SELECT grp, sum(val), count(*), avg(val) FROM facts GROUP BY grp"
BIG_SCAN = "SELECT count(*) FROM facts"


def open_session(engine, conf=None, big=False):
    hdfs, metastore = build_big_warehouse() if big else build_warehouse()
    return repro.connect(engine=engine, hdfs=hdfs, metastore=metastore, conf=conf)


def replay_audit_trail(ledger):
    """Replay grants/releases; return the per-pool peak occupancy seen."""
    assert ledger.audit, "test session must set repro.lease.audit"
    in_use = {}
    peaks = {}
    for _time, action, pool, _query in ledger.events:
        if action == "grant":
            in_use[pool] = in_use.get(pool, 0) + 1
        elif action == "release":
            in_use[pool] = in_use.get(pool, 0) - 1
        assert in_use.get(pool, 0) >= 0, f"pool {pool} released below zero"
        peaks[pool] = max(peaks.get(pool, 0), in_use.get(pool, 0))
    assert all(count == 0 for count in in_use.values()), \
        f"slots leaked at end of run: {in_use}"
    return peaks


# ---------------------------------------------------------------------------
# pool-spec grammar
# ---------------------------------------------------------------------------

def test_parse_pools_grammar():
    pools = parse_pools("etl:weight=2,cap=1,queue=4; adhoc:weight=1; batch")
    assert pools["etl"] == Pool("etl", weight=2.0, max_concurrent=1, max_queue=4)
    assert pools["adhoc"].weight == 1.0
    assert pools["batch"] == Pool("batch")


@pytest.mark.parametrize("spec", [
    "etl:weight=zero", "etl:cap", "etl:speed=2", ":cap=1", "a:w=1; a:w=2",
])
def test_parse_pools_rejects_malformed(spec):
    with pytest.raises(ConfigError):
        parse_pools(spec)


def test_jain_fairness_index():
    assert jain_fairness_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert jain_fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
    assert jain_fairness_index([]) == 1.0


# ---------------------------------------------------------------------------
# sharing: overlap, oversubscription, gang atomicity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["hadoop", "datampi"])
def test_two_queries_share_the_cluster(engine):
    """Two submitted queries provably interleave on one cluster: their
    job spans overlap in simulated time, the makespan beats sequential
    execution, and no pool ever exceeds its capacity."""
    with open_session(engine) as solo:
        sequential = (solo.query(AGG).simulated_seconds
                      + solo.query(JOIN).simulated_seconds)
    with open_session(engine, conf={LEASE_AUDIT: True}) as session:
        h1 = session.submit(AGG)
        h2 = session.submit(JOIN)
        r1, r2 = h1.result(), h2.result()
        scheduler = session.scheduler
        assert scheduler.summary()["makespan"] < sequential
        # overlapping job spans: q1 starts before q2's jobs end and vice versa
        spans1 = r1.execution.spans
        spans2 = r2.execution.spans
        assert spans1 and spans2
        assert spans1[0].attributes["query"] == h1.query_id
        assert spans2[0].attributes["query"] == h2.query_id
        q1 = (min(s.start for s in spans1), max(s.end for s in spans1))
        q2 = (min(s.start for s in spans2), max(s.end for s in spans2))
        assert q1[0] < q2[1] and q2[0] < q1[1], "job spans never overlapped"
        ledger = scheduler.runtime.leases.ledger
        assert ledger.oversubscribed_pools() == []
        peaks = replay_audit_trail(ledger)
        for pool, peak in peaks.items():
            assert peak <= ledger.capacity[pool], (pool, peak)


def test_datampi_gangs_are_all_or_nothing():
    """Every DataMPI gang grant lands atomically: its per-slot grant
    events are contiguous in the audit trail (no other query's grant
    interleaves mid-gang) and never exceed any pool's capacity."""
    with open_session("datampi", conf={LEASE_AUDIT: True}, big=True) as session:
        handles = [session.submit(BIG_AGG) for _ in range(3)]
        for handle in handles:
            handle.result()
        ledger = session.scheduler.runtime.leases.ledger
        assert ledger.gang_grants, "datampi ran without gang grants"
        events = ledger.events
        for when, query, wants in ledger.gang_grants:
            want_slots = [pool for pool, count in wants for _ in range(count)]
            for pool, count in wants:
                assert count <= ledger.capacity[pool]
            matches = [
                index for index, event in enumerate(events)
                if event == (when, "grant", want_slots[0], query)
            ]
            assert any(
                [e[2] for e in events[start:start + len(want_slots)]]
                == want_slots
                and all(e[0] == when and e[1] == "grant" and e[3] == query
                        for e in events[start:start + len(want_slots)])
                for start in matches
            ), f"gang grant for {query} at {when} is not contiguous"
        replay_audit_trail(ledger)


# ---------------------------------------------------------------------------
# correctness: solo equivalence under every policy, both engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["hadoop", "datampi"])
@pytest.mark.parametrize("policy", ["fifo", "fair", "capacity"])
def test_concurrent_results_match_solo(engine, policy):
    solo_rows = {}
    with open_session(engine) as solo:
        for sql in (AGG, JOIN, SCAN):
            solo_rows[sql] = solo.query(sql).rows
    conf = {SCHED_POLICY: policy}
    with open_session(engine, conf=conf) as session:
        handles = [(sql, session.submit(sql)) for sql in (AGG, JOIN, SCAN)]
        for sql, handle in handles:
            assert handle.result().rows == solo_rows[sql], \
                f"{engine}/{policy}: {sql!r} diverged from solo"
        assert session.scheduler.runtime.leases.ledger.oversubscribed_pools() == []


# ---------------------------------------------------------------------------
# determinism: same submission schedule replays identically
# ---------------------------------------------------------------------------

def _deterministic_run(engine):
    conf = {
        SCHED_POLICY: "fair",
        SCHED_POOLS: "etl:weight=2; adhoc:weight=1",
        SCHED_DEFAULT_POOL: "adhoc",
        FAULT_SPEC: "seed:7; fail:0.04",
        RETRY_MAX: 6,
        RETRY_BACKOFF: 0.5,
        LEASE_AUDIT: True,
    }
    with open_session(engine, conf=conf, big=True) as session:
        handles = [
            session.submit(BIG_AGG, pool="etl"),
            session.submit(BIG_SCAN, pool="adhoc"),
            session.submit(BIG_AGG, pool="adhoc"),
        ]
        session.scheduler.drain()
        rows = [repr(handle.result().rows) for handle in handles]
        events = list(session.scheduler.events)
        makespan = session.scheduler.summary()["makespan"]
        lease_events = list(session.scheduler.runtime.leases.ledger.events)
    return rows, events, makespan, lease_events


@pytest.mark.parametrize("engine", ["hadoop", "datampi"])
def test_deterministic_replay(engine):
    """Same seed + same submission schedule ⇒ byte-identical rows, the
    exact same makespan, and the identical scheduling event order."""
    first = _deterministic_run(engine)
    second = _deterministic_run(engine)
    assert first[0] == second[0], "result rows differ between runs"
    assert first[2] == second[2], "makespan differs between runs"
    assert first[1] == second[1], "scheduler event order differs between runs"
    assert first[3] == second[3], "lease audit trail differs between runs"


# ---------------------------------------------------------------------------
# policies: admission control + fair vs fifo
# ---------------------------------------------------------------------------

def test_capacity_pool_rejects_when_queue_full():
    conf = {
        SCHED_POLICY: "capacity",
        SCHED_POOLS: "etl:cap=1,queue=1; adhoc:weight=1",
        SCHED_DEFAULT_POOL: "adhoc",
    }
    with open_session("datampi", conf=conf) as session:
        running = session.submit(SCAN, pool="etl")
        queued = session.submit(SCAN, pool="etl")
        assert running.status() == RUNNING
        assert queued.status() == QUEUED
        with pytest.raises(AdmissionRejectedError) as info:
            session.submit(SCAN, pool="etl")
        assert info.value.pool == "etl"
        assert info.value.running == 1
        assert info.value.queued == 1
        assert info.value.max_concurrent == 1
        assert info.value.max_queue == 1
        # a full pool never blocks other pools
        bystander = session.submit(SCAN)
        assert bystander.status() == RUNNING
        assert queued.result().rows == running.result().rows


def test_global_concurrency_cap_queues_without_rejecting():
    conf = {SCHED_MAX_CONCURRENT: 1}
    with open_session("datampi", conf=conf) as session:
        first = session.submit(SCAN)
        second = session.submit(SCAN)
        assert first.status() == RUNNING
        assert second.status() == QUEUED  # bounded only by pool queues
        assert second.result().rows == first.result().rows
        admits = [e for e in session.scheduler.events if e[1] == "admit"]
        assert [e[2] for e in admits] == [first.query_id, second.query_id]
        # the second query was admitted only when the first finished
        finish_first = next(e[0] for e in session.scheduler.events
                            if e[1] == "finish" and e[2] == first.query_id)
        assert admits[1][0] == finish_first


def test_fair_share_beats_fifo_for_short_query():
    """The paper-motivating scenario: a short scan submitted behind long
    aggregations finishes far earlier under fair-share than FIFO."""
    latencies = {}
    for policy in ("fifo", "fair"):
        with open_session("hadoop", conf={SCHED_POLICY: policy}, big=True) as session:
            longs = [session.submit(BIG_AGG) for _ in range(3)]
            short = session.submit(BIG_SCAN)
            session.scheduler.drain()
            for handle in longs:
                handle.result()
            latencies[policy] = short.latency
    assert latencies["fair"] < latencies["fifo"], latencies


def test_fifo_and_fair_policies_change_event_order_not_results():
    rows = {}
    for policy in ("fifo", "fair"):
        with open_session("hadoop", conf={SCHED_POLICY: policy}, big=True) as session:
            handles = [session.submit(BIG_AGG), session.submit(BIG_SCAN)]
            rows[policy] = [repr(h.result().rows) for h in handles]
    assert rows["fifo"] == rows["fair"]


# ---------------------------------------------------------------------------
# lifecycle: cancel, failure isolation, closed sessions
# ---------------------------------------------------------------------------

def test_cancel_before_admission():
    conf = {SCHED_MAX_CONCURRENT: 1}
    with open_session("datampi", conf=conf) as session:
        first = session.submit(SCAN)
        second = session.submit(SCAN)
        assert second.cancel() is True
        assert second.cancel() is False  # idempotent: already cancelled
        assert second.status() == CANCELLED
        assert first.cancel() is False  # running queries are not preempted
        assert first.result().rows
        with pytest.raises(QueryCancelledError):
            second.result()
        assert [e[1] for e in session.scheduler.events
                if e[2] == second.query_id] == ["submit", "cancel"]


def test_abandoned_session_admits_nobody():
    """Admission runs host statements, so a driver process that dies
    with its session (its ``finally`` runs when the collector gets to
    it) frees its slot but must not admit the ``DROP`` queued behind it."""
    import gc

    hdfs, metastore = build_warehouse()
    session = repro.connect(engine="datampi", hdfs=hdfs, metastore=metastore,
                            conf={SCHED_MAX_CONCURRENT: 1})
    session.submit(SCAN)
    assert session.submit("DROP TABLE emp").status() == QUEUED
    events = session.scheduler.events
    session.scheduler.runtime.sim.run(until=1.0)  # the scan is mid-flight
    session.close()
    del session
    gc.collect()
    assert [event[1] for event in events] == [
        "submit", "admit", "submit", "fail"]  # booked out, nobody admitted
    assert metastore.has_table("emp")


def test_one_failing_query_does_not_sink_the_batch():
    with open_session("datampi") as session:
        good = session.submit(AGG)
        bad = session.submit("SELECT nonexistent_column FROM emp")
        other = session.submit(SCAN)
        assert good.result().rows
        assert other.result().rows
        assert bad.status() == FAILED
        with pytest.raises(Exception):
            bad.result()


def test_submit_statuses_and_timings():
    with open_session("datampi") as session:
        handle = session.submit(AGG)
        assert handle.status() == RUNNING  # admitted, zero simulated time yet
        assert handle.latency is None
        result = handle.result()
        assert handle.status() == SUCCEEDED
        assert handle.queue_wait == 0.0
        assert handle.latency > 0
        assert result.trace is not None
        assert result.trace.attributes["pool"] == "default"
        assert result.trace.attributes["policy"] == "fifo"
        usage = session.scheduler.runtime.leases.ledger.owner_usage(
            handle.query_id
        )
        assert usage.slot_seconds > 0


def test_summary_does_not_write_to_the_ledger():
    """``summary()`` reports 0.0 slot-seconds for a handle that never
    held a lease (a result-cache hit) without giving it a ledger row."""
    def ledger_state(ledger):
        state = {name: list(value) if isinstance(value, list) else dict(value)
                 for name, value in vars(ledger).items()
                 if isinstance(value, (list, dict))}
        state["usage"] = {
            query: tuple(getattr(row, slot) for slot in row.__slots__)
            for query, row in ledger.usage.items()
        }
        return state

    with open_session("llap") as session:
        ran = session.submit(SCAN)
        ran.result()
        hit = session.submit(SCAN)
        assert hit.result().cache_hit
        ledger = session.scheduler.runtime.leases.ledger
        before = ledger_state(ledger)
        first = session.scheduler.summary()
        second = session.scheduler.summary()
        assert ledger_state(ledger) == before
        assert hit.query_id not in ledger.usage
        assert first["slot_seconds"][hit.query_id] == 0.0
        assert first["slot_seconds"][ran.query_id] > 0
        assert first == second


def test_closed_session_refuses_submit():
    session = open_session("datampi")
    session.close()
    with pytest.raises(Exception):
        session.submit(SCAN)


def test_unknown_pool_is_an_error():
    with open_session("datampi") as session:
        with pytest.raises(ConfigError):
            session.submit(SCAN, pool="nope")


# ---------------------------------------------------------------------------
# submit goes through the driver's statement cache
# ---------------------------------------------------------------------------

def _submit_all(engine, texts):
    with open_session(engine) as session:
        outcomes = []
        for text in texts:
            result = session.submit(text).result()
            outcomes.append(
                (result.rows, result.simulated_seconds, result.cache_hit)
            )
        return session.caches()["statement"], outcomes


@pytest.mark.parametrize("engine", ["datampi", "llap"])
def test_submit_statement_cache_hit_matches_fresh_parse(engine):
    # trailing blanks: same AST from a different text, so the reference
    # run never hits the statement cache
    stats, cached = _submit_all(engine, [AGG, AGG, AGG])
    reference_stats, reference = _submit_all(engine, [AGG, AGG + " ", AGG + "  "])
    assert (stats["hits"], stats["misses"]) == (2, 1)
    assert (reference_stats["hits"], reference_stats["misses"]) == (0, 3)
    assert cached == reference
    assert cached[1][2] is (engine == "llap")


def test_submit_parses_through_the_driver_binding(monkeypatch):
    import repro.core.driver as driver_module

    parsed = []
    real = driver_module.parse_script
    monkeypatch.setattr(
        driver_module, "parse_script",
        lambda text: parsed.append(text) or real(text),
    )
    with open_session("datampi") as session:
        session.submit(SCAN).result()
        session.submit(SCAN).result()
        session.query(SCAN)  # execute and submit share the one cache
    assert parsed == [SCAN]


def test_submit_does_not_cache_unparsable_text():
    with open_session("datampi") as session:
        for _ in range(2):
            with pytest.raises(ParseError):
                session.submit("SELECT FROM WHERE")
        stats = session.caches()["statement"]
        assert (stats["entries"], stats["misses"]) == (0, 2)


def test_insert_between_identical_submits_serves_fresh_rows():
    with open_session("llap") as session:
        session.execute("CREATE TABLE emp_copy AS SELECT * FROM emp WHERE dept = 'hr'")
        probe = "SELECT count(*) FROM emp_copy"
        assert session.submit(probe).result().rows == [(1,)]
        assert session.submit(probe).result().cache_hit
        session.submit("INSERT INTO TABLE emp_copy SELECT * FROM emp").result()
        fresh = session.submit(probe).result()
        assert not fresh.cache_hit and fresh.rows == [(8,)]
        assert session.submit(probe).result().cache_hit  # re-admitted
        assert session.caches()["statement"]["hits"] == 3


# ---------------------------------------------------------------------------
# property: random interleavings never deadlock or lose work
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(["etl", "adhoc"])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("result"), st.integers(min_value=0, max_value=9)),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=12, deadline=None)
@given(ops=OPS)
def test_random_interleavings_terminate(ops):
    """Any submit/cancel/result interleaving drains cleanly: every
    admitted query reaches a terminal state, pending-work counters
    return to zero, and no slots leak."""
    conf = {
        SCHED_POLICY: "capacity",
        SCHED_POOLS: "etl:cap=1,queue=2; adhoc:weight=1",
        SCHED_DEFAULT_POOL: "adhoc",
        LEASE_AUDIT: True,
    }
    with open_session("datampi", conf=conf) as session:
        handles = []
        rejected = 0
        for op in ops:
            if op[0] == "submit":
                try:
                    handles.append(session.submit(SCAN, pool=op[1]))
                except AdmissionRejectedError:
                    rejected += 1
            elif op[0] == "cancel" and handles:
                handles[op[1] % len(handles)].cancel()
            elif op[0] == "result" and handles:
                handle = handles[op[1] % len(handles)]
                try:
                    handle.result()
                except (QueryCancelledError, AdmissionRejectedError):
                    pass
        scheduler = session.scheduler
        scheduler.drain()
        for handle in handles:
            assert handle.done(), f"{handle} never terminated"
            if handle.status() == SUCCEEDED:
                assert handle.results
        assert scheduler._running_total == 0
        assert not scheduler._waiting
        terminal = {SUCCEEDED, FAILED, CANCELLED}
        assert {h.status() for h in handles} <= terminal
        assert len(handles) + rejected == sum(
            1 for op in ops if op[0] == "submit"
        )
        replay_audit_trail(scheduler.runtime.leases.ledger)
