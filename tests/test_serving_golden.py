"""Behaviour golden for the workload scheduler, captured at ``44e232d``.

``data/serving_golden.json`` pins one seeded mini serving run (~140
arrivals, 8 nodes, llap, ORC) under each of ``fifo``, ``fair`` and
``capacity``.  The schedule covers a cold burst that fills every pool
and the global cap, two arrivals queued behind it and a third refused,
a queued handle that is cancelled, a Zipf stream of result-cache hits
and misses (15 % with a roomy deadline, two with one they cannot meet),
an ``INSERT`` that invalidates cached results mid-stream, a
``DROP/CREATE/SELECT`` script, a hit-then-miss script, an all-instant
``SET`` + hit script and two failing ones (a host statement, a SELECT).

Pinned exactly, per policy: every handle's ``(pool, status,
submitted_at, admitted_at, finished_at, deadline_missed, error type,
per-result kind/cache-hit/row digest)`` and its own ordered audit
events; the scheduler's audit trail as a sequence of instants (events
of one instant compare as a multiset — their order inside an instant is
not part of the contract, see docs/observability.md); ``summary()``;
the ledger's per-pool counts; the result cache's counters.

What the change after the capture *did* move at a single instant is
not absorbed by a re-capture: it has its own cases in
``TestSameInstantSemantics``.  Re-capture (only after a declared
scheduling change) with ``PYTHONPATH=src python -m tests.test_serving_golden``.
"""

import hashlib
import os
import random

import pytest

import repro
from repro.common.config import (
    HEARTBEAT_ENABLED,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.common.errors import AdmissionRejectedError
from repro.common.lru import LruCache
from repro.simulate.chaos import assert_clean_ledger
from repro.workloads.hibench import load_hibench

from .goldens import load_golden, write_golden

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "serving_golden.json"
)

POLICIES = ("fifo", "fair", "capacity")
POOLS = {"bi": (3.0, 4), "etl": (1.0, 2), "adhoc": (2.0, 3)}
POOL_QUEUE = {"bi": 16, "etl": 2, "adhoc": 8}
MAX_CONCURRENT = 8  # one below the sum of the caps: the global cap bites too
SEED = 23
STREAM = 118
STREAM_START = 4.0  # the stream overlaps the burst: early arrivals miss
RATE = 3.0
DEADLINE = 60.0
DEADLINE_SHARE = 0.15

CATALOG = (
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

#: never repeated, so never a hit: with a deadline shorter than the
#: modeled compile time they are interrupted mid-flight
HOPELESS = (
    "SELECT count(*) FROM uservisits WHERE duration > 3",
    "SELECT count(*) FROM uservisits WHERE duration > 4",
)

#: (when, pool, script, deadline) placed among the stream
SPECIALS = (
    (9.0, "bi", HOPELESS[0], 0.5),
    (18.0, "bi", "INSERT INTO TABLE rankings SELECT pageurl, pagerank, "
                 "avgduration FROM rankings WHERE pagerank > 900", None),
    (26.0, "bi", "DROP TABLE IF EXISTS scratch; CREATE TABLE scratch (a INT); "
                 + CATALOG[6], None),
    (36.0, "bi", CATALOG[6] + "; SELECT max(pagerank) FROM rankings", None),
    (37.0, "bi", "SET repro.golden.marker=1; " + CATALOG[0], DEADLINE),
    (38.0, "bi", "DROP TABLE never_created", None),
    (39.0, "bi", "SELECT no_such_column FROM rankings", None),
    (40.0, "bi", HOPELESS[1], 0.25),
)


def schedule():
    """``(when, pool, script, deadline, cancel)`` in submission order."""
    rng = random.Random(SEED)
    pools = list(POOLS)
    arrivals = [
        (0.0, pool, CATALOG[index % len(CATALOG)], None, False)
        for index, pool in enumerate(
            pool for pool in pools for _ in range(POOLS[pool][1]))
    ]
    # etl is at its cap: two wait (the first repeats a bi query that
    # finishes before an etl slot frees, so it is admitted as a hit), a
    # third is refused; a bi arrival waits and is withdrawn
    arrivals += [
        (0.0, "etl", CATALOG[0], None, False),
        (0.0, "etl", CATALOG[7], DEADLINE, False),
        (0.0, "etl", CATALOG[2], None, False),
        (0.0, "bi", CATALOG[3], None, True),
    ]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(CATALOG))]
    stream = []
    now = STREAM_START
    for _ in range(STREAM):
        now += rng.expovariate(RATE)
        stream.append((
            now,
            rng.choices(pools, weights=[POOLS[p][0] for p in pools])[0],
            rng.choices(CATALOG, weights=weights)[0],
            DEADLINE if rng.random() < DEADLINE_SHARE else None,
            False,
        ))
    stream += [special + (False,) for special in SPECIALS]
    stream.sort(key=lambda arrival: arrival[0])
    return arrivals + stream


def open_session(policy, pools=None, max_concurrent=MAX_CONCURRENT):
    if pools is None:
        pools = "; ".join(
            f"{name}:weight={weight:g},cap={cap},queue={POOL_QUEUE[name]}"
            for name, (weight, cap) in POOLS.items())
    session = repro.connect(engine="llap", num_workers=7, conf={
        HEARTBEAT_ENABLED: False,
        SCHED_POLICY: policy,
        SCHED_POOLS: pools,
        SCHED_MAX_CONCURRENT: max_concurrent,
    })
    load_hibench(session.hdfs, session.metastore, nominal_gb=0.25,
                 sample_uservisits=600, format_name="orc", seed=SEED)
    return session


def _digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:12]


def _time(value):
    return None if value is None else repr(value)


def measure(policy):
    with open_session(policy) as session:
        scheduler = session.scheduler
        sim = scheduler.runtime.sim
        rejected = []

        def dispatcher():
            for when, pool, script, deadline, cancel in schedule():
                if when > sim.now:
                    yield sim.timeout(when - sim.now)
                try:
                    handle = session.submit(script, pool=pool,
                                            deadline=deadline)
                except AdmissionRejectedError:
                    rejected.append([repr(when), pool])
                    continue
                if cancel:
                    assert handle.cancel()

        sim.spawn(dispatcher(), "golden-dispatcher")
        scheduler.drain()
        ledger = scheduler.runtime.leases.ledger
        assert_clean_ledger(ledger)
        own = {}
        instants = []
        for when, action, query, pool in scheduler.events:
            own.setdefault(query, []).append(f"{action}@{when!r}")
            if not instants or instants[-1][0] != repr(when):
                instants.append([repr(when), []])
            instants[-1][1].append(f"{action}:{query}:{pool}")
        summary = scheduler.summary()
        cache = session.caches()["result"]
        return {
            "handles": {
                handle.query_id: [
                    handle.pool, handle.status(),
                    _time(handle.submitted_at), _time(handle.admitted_at),
                    _time(handle.finished_at), handle.deadline_missed,
                    type(handle.error).__name__ if handle.error else None,
                    " ".join(
                        f"{result.statement}{'*' if result.cache_hit else ''}"
                        f":{_digest(result.rows)}"
                        for result in handle.results),
                    " ".join(own[handle.query_id]),
                ]
                for handle in scheduler.handles
            },
            "rejected": rejected,
            "trail": [[when, " ".join(sorted(events))]
                      for when, events in instants],
            "summary": {
                "latencies": [repr(value) for value in summary["latencies"]],
                "latency_p50": _time(summary["latency_p50"]),
                "latency_p99": _time(summary["latency_p99"]),
                "makespan": repr(summary["makespan"]),
                "deadline_misses": summary["deadline_misses"],
                "succeeded": summary["succeeded"],
                "failed": summary["failed"],
                "cancelled": summary["cancelled"],
                "rejected": summary["rejected"],
                "peak_queue_depth": summary["peak_queue_depth"],
                "slot_seconds": {
                    query: repr(value)
                    for query, value in summary["slot_seconds"].items()
                    if value
                },
            },
            "ledger": {
                "grant_counts": dict(sorted(ledger.grant_counts.items())),
                "release_counts": dict(sorted(ledger.release_counts.items())),
                "max_in_use": dict(sorted(ledger.max_in_use.items())),
            },
            "result_cache": {
                key: cache[key] for key in ("hits", "misses", "invalidations")
            },
        }


@pytest.fixture(scope="module")
def golden():
    return load_golden(GOLDEN_PATH)


@pytest.mark.parametrize("policy", POLICIES)
def test_serving_run_matches_golden(golden, policy):
    measured = measure(policy)
    expected = golden[policy]
    # section by section, smallest first: a failure names what moved
    for section in ("result_cache", "ledger", "rejected", "summary"):
        assert measured[section] == expected[section], section
    assert measured["handles"] == expected["handles"]
    assert measured["trail"] == expected["trail"]


def test_golden_covers_what_it_claims(golden):
    """The schedule is seeded, not hand-placed: check the run really
    contains every case the module docstring lists."""
    for policy in POLICIES:
        handles = list(golden[policy]["handles"].values())
        trails = [record[8].split() for record in handles]
        actions = [[event.split("@")[0] for event in trail] for trail in trails]

        def queued(record):
            return record[3] is not None and record[3] != record[2]

        assert golden[policy]["rejected"], policy
        assert any(a == ["submit", "cancel"] for a in actions), policy
        assert any(queued(r) and "cache-hit" in a and r[1] == "succeeded"
                   and a[-1] == "finish" and "*" in r[7] and ";" not in r[7]
                   and len(a) == 4
                   for r, a in zip(handles, actions)), "queued-then-admitted hit"
        hits = sum(a == ["submit", "admit", "cache-hit", "finish"]
                   for a in actions)
        assert hits >= 40, (policy, hits)
        assert golden[policy]["summary"]["deadline_misses"] == 2, policy
        assert any("deadline" in a for a in actions), policy
        assert golden[policy]["result_cache"]["invalidations"] > 0, policy
        kinds = [[part.split(":")[0] for part in r[7].split()] for r in handles]
        assert ["drop", "create", "select"] in kinds, policy
        assert ["select*", "select"] in kinds, "hit-then-miss script"
        assert ["set", "select*"] in kinds, "all-instant script"
        assert any(k == ["insert"] for k in kinds), policy
        failed = [r for r in handles if r[1] == "failed"]
        assert {r[6] for r in failed} >= {"QueryTimeoutError"}, policy
        assert len(failed) == 4, policy


class TestSameInstantSemantics:
    """The three things that differ from ``44e232d``, all at one
    simulated instant (docs/observability.md, "Same-instant semantics")."""

    HIT = CATALOG[6]

    def test_all_instant_script_is_done_when_submit_returns(self):
        with open_session("fair") as session:
            session.submit(self.HIT).result()  # warm the result cache
            sim = session.scheduler.runtime.sim
            agenda_before = sim._pending_regular
            handle = session.submit("SET repro.golden.marker=2; " + self.HIT,
                                    deadline=5.0)
            assert handle.status() == "succeeded"
            assert handle.done() and handle.latency == 0.0
            assert [r.statement for r in handle.results] == ["set", "select"]
            assert handle.results[-1].cache_hit
            # nothing was left behind for drain() to run: no process,
            # no deadline timer
            assert sim._pending_regular == agenda_before
            assert handle.result().rows == handle.results[-1].rows

    def test_same_instant_hits_log_per_handle_not_interleaved(self):
        with open_session("fair") as session:
            session.submit(self.HIT).result()
            first = session.submit(self.HIT)
            second = session.submit(self.HIT)
            session.scheduler.drain()
            tail = [(action, query)
                    for _when, action, query, _pool in session.scheduler.events
                    if query in (first.query_id, second.query_id)]
            order = ["submit", "admit", "cache-hit", "finish"]
            assert tail == (
                [(action, first.query_id) for action in order]
                + [(action, second.query_id) for action in order]
            )

    @pytest.mark.parametrize("queue", (0, 8))
    def test_hit_burst_wider_than_the_pool_does_not_queue_behind_itself(
            self, queue):
        """A hit holds its slot for zero time: at ``44e232d`` the second
        of these was refused (``queue=0``) or waited (``queue=8``, peak
        depth 5) behind a query that had nothing left to do."""
        with open_session("capacity", pools=f"only:cap=1,queue={queue}",
                          max_concurrent=1) as session:
            session.submit(self.HIT, pool="only").result()
            handles = [session.submit(self.HIT, pool="only")
                       for _ in range(5)]  # one instant, cap 1
            assert all(h.status() == "succeeded" for h in handles)
            assert all(h.results[-1].cache_hit for h in handles)
            assert all(h.queue_wait == 0.0 for h in handles)
            summary = session.scheduler.summary()
            assert summary["rejected"] == 0
            # the depth is sampled with the arrival itself on the queue
            assert summary["peak_queue_depth"] == 1

    def test_prefix_failure_is_recorded_on_the_handle(self):
        with open_session("fair") as session:
            handle = session.submit("DROP TABLE never_created")
            assert handle.status() == "failed"
            assert handle.error is not None
            assert [e[1] for e in session.scheduler.events] == [
                "submit", "admit", "fail"]
            with pytest.raises(type(handle.error)):
                handle.result()
            # the failure freed its slot
            assert session.submit(self.HIT).result().rows


class TestOneLookupPerStatement:
    """A statement is looked up in the result cache exactly once per
    execution — LRU order and the hit counters are observable."""

    @staticmethod
    def _lookups(monkeypatch, session):
        cache = session.result_cache()
        calls = []
        original = LruCache.lookup

        def counting(self, key, is_current=None):
            if self is cache:
                calls.append(key[0])
            return original(self, key, is_current)

        monkeypatch.setattr(LruCache, "lookup", counting)
        return calls

    def test_hit_miss_and_prefix_then_miss(self, monkeypatch):
        with open_session("fair") as session:
            calls = self._lookups(monkeypatch, session)
            session.submit(CATALOG[6]).result()  # miss
            assert len(calls) == 1
            session.submit(CATALOG[6]).result()  # hit
            assert len(calls) == 2
            handle = session.submit(
                "DROP TABLE IF EXISTS scratch; CREATE TABLE scratch (a INT); "
                + CATALOG[6] + "; " + CATALOG[5])
            handle.result()
            assert [r.statement for r in handle.results] == [
                "drop", "create", "select", "select"]
            assert len(calls) == 4  # one per SELECT of the script
            stats = session.caches()["result"]
            assert (stats["hits"], stats["misses"]) == (1, 3)


if __name__ == "__main__":
    write_golden(GOLDEN_PATH, {policy: measure(policy) for policy in POLICIES},
                 indent=0)
