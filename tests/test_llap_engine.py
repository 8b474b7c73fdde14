"""The LLAP persistent-daemon engine: solo equivalence, once-per-session
daemon startup, the node-local columnar cache (hits, eviction
determinism, crash invalidation), and the driver result cache
(hits, metastore/snapshot invalidation, concurrent-writer safety)."""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.common.config import (
    FAULT_SPEC,
    LLAP_CACHE_MB,
    RESULT_CACHE_ENABLED,
    SCHED_POLICY,
)
from repro.common.rows import Schema
from repro.core import driver as driver_module
from repro.engines.base import TaggedSplit, compare_result_rows
from repro.engines.llap import LlapEngine, StripeCache
from repro.engines.llap.engine import DEFAULT_CACHE_MB
from repro.plan.physical import MapInput, ScanHints
from repro.sched.scheduler import scheduler_from_conf
from repro.storage.formats.orc import OrcFormat
from repro.storage.hdfs import HDFS, FileSplit
from repro.storage.metastore import Metastore

from .test_scan_projection import _TYPES, _files

FACT_SCHEMA = Schema.parse("k int, grp string, val double")
NO_RESULT_CACHE = {RESULT_CACHE_ENABLED: False}


def build_orc_warehouse(scale: float = 2e4):
    """A deterministic ORC table big enough to span many stripes, yet
    with scaled stripes small enough to fit the default per-node cache."""
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    table = metastore.create_table("facts", FACT_SCHEMA, format_name="orc")
    rows = [
        (i, f"g{i % 13}", round((i * 7919) % 1000 / 10.0, 1))
        for i in range(6000)
    ]
    hdfs.write(f"{table.location}/part-0", FACT_SCHEMA, rows, scale=scale,
               format_name="orc")
    return hdfs, metastore


QUERIES = (
    "SELECT grp, count(*) AS n, sum(val) AS s FROM facts GROUP BY grp ORDER BY grp",
    "SELECT grp, max(val) FROM facts WHERE k > 1000 GROUP BY grp ORDER BY grp",
    "SELECT k, val FROM facts WHERE val > 99 ORDER BY k LIMIT 10",
)


def total_cache(session, field):
    return sum(stats[field] for stats in session.engine.cache_stats().values())


# ---------------------------------------------------------------------------
# correctness: solo equivalence against the local oracle
# ---------------------------------------------------------------------------


class TestSoloEquivalence:
    def test_orc_queries_match_local(self):
        hdfs, metastore = build_orc_warehouse()
        llap = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        local = connect(engine="local", hdfs=hdfs, metastore=metastore)
        for sql in QUERIES:
            assert compare_result_rows(
                local.query(sql).rows, llap.query(sql).rows, ordered=True
            ), f"llap diverged from local on {sql!r}"

    def test_text_warehouse_matches_local(self, warehouse):
        hdfs, metastore = warehouse
        llap = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        local = connect(engine="local", hdfs=hdfs, metastore=metastore)
        sql = ("SELECT dept, count(*), avg(salary) FROM emp "
               "WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept")
        assert compare_result_rows(
            local.query(sql).rows, llap.query(sql).rows, ordered=True
        )


# ---------------------------------------------------------------------------
# daemons: spawn paid once per session, warm fragments dispatch fast
# ---------------------------------------------------------------------------


class TestDaemonLifecycle:
    def test_daemon_spawn_charged_once(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                          conf=NO_RESULT_CACHE)
        first = session.query(QUERIES[0]).execution
        second = session.query(QUERIES[0]).execution
        spawn = session.engine.model.llap.daemon_spawn
        # the fleet bring-up is inside the first query's makespan only
        assert first.total_seconds >= second.total_seconds + spawn * 0.5

    def test_warm_startup_beats_hadoop_per_job(self):
        hdfs, metastore = build_orc_warehouse()
        llap = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                       conf=NO_RESULT_CACHE)
        hadoop = connect(engine="hadoop", hdfs=hdfs, metastore=metastore)
        llap.query(QUERIES[0])  # pay the one-time spawn
        warm = llap.query(QUERIES[0]).execution
        cold = hadoop.query(QUERIES[0]).execution
        for job in warm.jobs:
            assert job.startup < min(j.startup for j in cold.jobs), (
                "a warm llap fragment dispatch must undercut hadoop's "
                "per-job JVM startup"
            )

    def test_closed_scheduler_runtime_is_released(self):
        """The daemon fleet belongs to the runtime it runs in: closing a
        scheduler drops both, while the engine (and its caches) lives on
        for the session's next runtime."""
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                          conf=NO_RESULT_CACHE)
        runtimes = []
        for _ in range(2):
            scheduler = scheduler_from_conf(session)
            handle = scheduler.submit(QUERIES[0])
            scheduler.drain()
            assert handle.result().rows
            injector = scheduler.runtime.injector
            runtimes.append(weakref.ref(scheduler.runtime))
            scheduler.close()
            assert not injector._membership_subscribers
            del scheduler, handle, injector
            gc.collect()
        assert [ref() for ref in runtimes] == [None, None]
        assert total_cache(session, "hits") > 0, "caches outlive runtimes"

    def test_capabilities_surface(self):
        assert LlapEngine.result_cache
        assert LlapEngine.degrades_to == "hadoop"


# ---------------------------------------------------------------------------
# columnar cache: hits, determinism, eviction, crash invalidation
# ---------------------------------------------------------------------------


class TestColumnarCache:
    def test_engine_options_default_to_what_the_engine_falls_back_to(self):
        """An llap session without conf runs with the stripe cache at
        ``DEFAULT_CACHE_MB`` and the result cache on."""
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        session.query(QUERIES[0])
        assert session.engine._cache_mb == DEFAULT_CACHE_MB
        assert session.result_cache() is not None

    def test_repeat_scan_hits_cache(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                          conf=NO_RESULT_CACHE)
        session.query(QUERIES[0])
        misses_after_first = total_cache(session, "misses")
        assert misses_after_first > 0, "first scan must populate the cache"
        hits_after_first = total_cache(session, "hits")
        session.query(QUERIES[0])
        assert total_cache(session, "hits") > hits_after_first
        # warm run reads the same stripes from daemon memory, not disk
        assert total_cache(session, "misses") == misses_after_first

    def test_warm_cache_saves_simulated_time(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                          conf=NO_RESULT_CACHE)
        cold = session.query(QUERIES[0]).simulated_seconds
        warm = session.query(QUERIES[0]).simulated_seconds
        assert warm < cold

    def test_hit_miss_sequence_is_deterministic(self):
        def run_workload():
            hdfs, metastore = build_orc_warehouse()
            session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                              conf={RESULT_CACHE_ENABLED: False,
                                    LLAP_CACHE_MB: 512})
            for sql in QUERIES * 2:
                session.query(sql)
            return session.engine.cache_stats()

        assert run_workload() == run_workload()

    def test_small_cache_evicts_deterministically(self):
        # derive a capacity that holds roughly half the working set
        hdfs, metastore = build_orc_warehouse()
        probe = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                        conf=NO_RESULT_CACHE)
        probe.query(QUERIES[0])
        resident = sum(
            stats["bytes"] for stats in probe.engine.cache_stats().values()
        )
        per_node = max(
            stats["bytes"] for stats in probe.engine.cache_stats().values()
        )
        assert resident > 0
        cache_mb = per_node * 0.6 / (1024 * 1024)

        def run_small():
            small_hdfs, small_ms = build_orc_warehouse()
            session = connect(engine="llap", hdfs=small_hdfs,
                              metastore=small_ms,
                              conf={RESULT_CACHE_ENABLED: False,
                                    LLAP_CACHE_MB: cache_mb})
            for sql in QUERIES * 2:
                session.query(sql)
            return session.engine.cache_stats()

        first, second = run_small(), run_small()
        assert first == second, "same seed + workload must replay the same " \
                                "hit/miss/eviction sequence"
        assert sum(s["evictions"] for s in first.values()) > 0

    def test_zero_capacity_disables_admission(self):
        cache = StripeCache("w0", 0.0)
        assert cache.lookup(("p", 0, None), object(), 10.0) is None
        cache.insert(("p", 0, None), object(), 10.0, [[1]])
        assert len(cache) == 0 and cache.misses == 1

    def test_rewritten_file_is_not_served_stale(self):
        cache = StripeCache("w0", 1e9)
        old_file, new_file = object(), object()
        cache.insert(("p", 0, None), old_file, 10.0, [[1, 2]])
        assert cache.lookup(("p", 0, None), old_file, 10.0) == [[1, 2]]
        # the path now points at a different stored file: identity miss
        assert cache.lookup(("p", 0, None), new_file, 10.0) is None
        assert len(cache) == 0

    def test_daemon_crash_invalidates_node_cache(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(
            engine="llap", hdfs=hdfs, metastore=metastore,
            conf={FAULT_SPEC: "crash:w1@4-60", **NO_RESULT_CACHE},
        )
        # pre-seed w1 so the crash demonstrably drops resident data
        session.engine.node_cache(1).insert(("seed", 0, None), object(),
                                            1.0, [[1]])
        local_hdfs, local_ms = build_orc_warehouse()
        local = connect(engine="local", hdfs=local_hdfs, metastore=local_ms)
        result = session.query(QUERIES[0])
        assert compare_result_rows(local.query(QUERIES[0]).rows, result.rows,
                                   ordered=True)
        assert session.engine.node_cache(1).invalidations >= 1
        # the node recovered: a later query repopulates and still matches
        again = session.query(QUERIES[1])
        assert compare_result_rows(local.query(QUERIES[1]).rows, again.rows,
                                   ordered=True)


@settings(max_examples=150, deadline=None)
@given(_files(), st.data())
def test_cache_pass_covers_exactly_the_scan_charge(file, data):
    """A cold pass misses, and a warm pass hits, exactly the bytes the
    split's scan charges — stripe by stripe, times the split scale — and
    a stripe its stats skip never reaches the cache."""
    schema, rows = file
    projection = data.draw(st.one_of(
        st.none(), st.lists(st.sampled_from(schema.names), unique=True)
    ))
    start = data.draw(st.integers(0, len(rows) + 3))
    count = data.draw(st.integers(0, len(rows) + 3))
    conjuncts = data.draw(st.one_of(
        st.none(),
        st.tuples(st.just("c0"), st.sampled_from(["=", "<", "<=", ">", ">="]),
                  _TYPES[schema.columns[0].dtype.value]).map(lambda c: [c]),
    ))
    scale = data.draw(st.sampled_from([1.0, 0.37, 3e3]))
    stored = OrcFormat(data.draw(st.integers(1, 16))).build(schema, rows)

    # the scan's charge, stripe by stripe, as scan_batch sums it
    charges, surviving = [], []
    end = start + count
    for index, stripe in enumerate(stored.stripes):
        lo = max(stripe.row_start, start)
        hi = min(stripe.row_start + stripe.row_count, end)
        if hi <= lo or not stripe.may_contain(conjuncts):
            continue
        surviving.append(index)
        charges.append(stripe.bytes_for_columns(projection)
                       * ((hi - lo) / stripe.row_count))
    scan = stored.scan_batch(start, count, projection, conjuncts)
    assert scan.bytes_read == int(sum(charges))
    scaled = 0.0
    for charge in charges:
        scaled += charge * scale

    split = FileSplit("/t/part-0", start, count, 0.0, (0,), scale, stored)
    hints = ScanHints(projection, conjuncts or [])
    tagged = TaggedSplit(split, 0, [], MapInput("/t", 0, [], hints))
    engine = LlapEngine(HDFS(num_workers=1))
    cache = engine.node_cache(0)
    cold = engine._cached_scan(tagged, 0)
    assert (cold.miss_bytes, cold.hit_bytes, cold.total_bytes) == \
        (scaled, 0.0, scaled)
    assert (cache.misses, len(cache)) == (len(surviving), len(surviving))
    warm = engine._cached_scan(tagged, 0)
    assert (warm.hit_bytes, warm.miss_bytes) == (scaled, 0.0)
    assert (cache.hits, cache.misses) == (len(surviving), len(surviving))
    resident = {stored.stripe_cache_key("/t/part-0", index, projection)
                for index in surviving}
    assert set(cache._entries) == resident


# ---------------------------------------------------------------------------
# result cache: hits, invalidation, concurrent writers
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_repeated_query_is_free_and_marked(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        first = session.query(QUERIES[0])
        assert not first.cache_hit and first.engine == "llap"
        second = session.query(QUERIES[0])
        assert second.cache_hit
        assert second.engine == "llap"
        assert second.rows == first.rows
        assert second.simulated_seconds == 0.0
        assert second.execution is None
        assert session.caches()["result"]["hits"] == 1

    def test_metastore_version_bump_invalidates(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        first = session.query(QUERIES[0])
        session.execute("CREATE TABLE unrelated (x int)")
        after_ddl = session.query(QUERIES[0])
        assert not after_ddl.cache_hit, "any catalog change invalidates"
        assert after_ddl.rows == first.rows
        assert session.caches()["result"]["invalidations"] >= 1
        assert session.query(QUERIES[0]).cache_hit  # re-admitted

    def test_insert_changes_rows_not_served_stale(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        sql = "SELECT count(*) FROM facts"
        before = session.query(sql)
        assert session.query(sql).cache_hit
        session.execute(
            "INSERT INTO TABLE facts SELECT k, grp, val FROM facts WHERE k < 50"
        )
        after = session.query(sql)
        assert not after.cache_hit, "new input files must invalidate"
        assert after.rows != before.rows

    def test_disabled_by_conf(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                          conf=NO_RESULT_CACHE)
        session.query(QUERIES[0])
        assert not session.query(QUERIES[0]).cache_hit
        assert session.caches()["result"] is None

    def test_capability_gated_off_for_hadoop(self, warehouse):
        hdfs, metastore = warehouse
        session = connect(engine="hadoop", hdfs=hdfs, metastore=metastore)
        sql = "SELECT count(*) FROM emp"
        session.query(sql)
        assert not session.query(sql).cache_hit
        assert session.caches()["result"] is None
        assert session.caches()["columnar"] == {}

    def test_lru_capacity_evicts(self, monkeypatch):
        monkeypatch.setattr(driver_module, "RESULT_CACHE_ENTRIES", 2)
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        for sql in QUERIES:  # 3 distinct entries through a 2-entry cache
            session.query(sql)
        stats = session.caches()["result"]
        assert stats["capacity"] == 2
        assert stats["evictions"] >= 1
        assert not session.query(QUERIES[0]).cache_hit  # evicted LRU

    def test_concurrent_writer_invalidates_mid_workload(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                          conf={SCHED_POLICY: "fair"})
        sql = "SELECT count(*) FROM facts"
        warm = session.submit(sql)
        before_rows = warm.result().rows
        assert session.submit(sql).result().cache_hit  # warm and valid
        # a writer lands between two reads of the same query text
        writer = session.submit(
            "INSERT INTO TABLE facts SELECT k, grp, val FROM facts WHERE k < 50"
        )
        reader = session.submit(sql)
        session.scheduler.drain()
        writer.result()
        after = reader.result()
        if after.cache_hit:
            # a replay is only legal if it reproduces a state whose
            # inputs were verified unchanged — the pre-insert answer
            assert after.rows == before_rows
        final = session.submit(sql).result()
        assert final.rows[0][0] == before_rows[0][0] + 50
        # and the post-insert rows are what repeats serve from now on
        assert session.submit(sql).result().rows == final.rows

    def test_solo_and_scheduler_paths_share_one_cache(self):
        hdfs, metastore = build_orc_warehouse()
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore)
        solo = session.query(QUERIES[0])
        submitted = session.submit(QUERIES[0]).result()
        assert submitted.cache_hit
        assert submitted.rows == solo.rows
