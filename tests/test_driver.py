"""Tests for the Hive driver: DDL, CTAS, INSERT, SET, cleanup."""

import pytest

import repro.core.driver as driver_module
from repro import connect
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.errors import ParseError, SemanticError
from repro.common.lru import LruCache
from repro.obs import get_metrics

from .conftest import EMP_ROWS, EMP_SCHEMA, build_warehouse, shipped_scripts


class TestDdl:
    def test_create_and_drop(self, local_session):
        local_session.execute("CREATE TABLE scratch (a int, b string)")
        assert local_session.metastore.has_table("scratch")
        local_session.execute("DROP TABLE scratch")
        assert not local_session.metastore.has_table("scratch")

    def test_create_if_not_exists(self, local_session):
        local_session.execute("CREATE TABLE t (a int)")
        local_session.execute("CREATE TABLE IF NOT EXISTS t (a int)")  # no raise

    def test_create_stored_as(self, local_session):
        local_session.execute("CREATE TABLE t (a int) STORED AS orc")
        assert local_session.metastore.get_table("t").format_name == "orc"

    def test_set_option(self, local_session):
        local_session.execute("SET hive.datampi.parallelism = enhanced")
        assert local_session.conf.get("hive.datampi.parallelism") == "enhanced"


class TestSelect:
    def test_simple_select(self, local_session):
        result = local_session.query("SELECT name FROM emp WHERE dept = 'hr'")
        assert result.rows == [("eve",)]

    def test_result_schema_names(self, local_session):
        result = local_session.query("SELECT name AS who, salary * 2 doubled FROM emp LIMIT 1")
        assert result.schema.names == ["who", "doubled"]

    def test_temp_dirs_cleaned(self, local_session):
        local_session.query("SELECT dept, sum(salary) s FROM emp GROUP BY dept ORDER BY s")
        hdfs = local_session.hdfs
        leftovers = [p for p in hdfs._files if p.startswith("/tmp/")]
        assert leftovers == []

    def test_multi_statement_script(self, local_session):
        results = local_session.execute("""
            SET a.b = c;
            SELECT count(*) FROM emp;
        """)
        assert [r.statement for r in results] == ["set", "select"]
        assert results[1].rows == [(7,)]


class TestCtas:
    def test_ctas_creates_queryable_table(self, local_session):
        local_session.execute(
            "CREATE TABLE high_paid AS SELECT name, salary FROM emp WHERE salary >= 100"
        )
        result = local_session.query("SELECT count(*) FROM high_paid")
        assert result.rows == [(2,)]

    def test_ctas_format(self, local_session):
        local_session.execute(
            "CREATE TABLE t STORED AS orc AS SELECT dept FROM emp"
        )
        table = local_session.metastore.get_table("t")
        assert table.format_name == "orc"
        files = local_session.hdfs.list_dir(table.location)
        assert files and all(f.format_name == "orc" for f in files)

    def test_ctas_duplicate_rejected(self, local_session):
        local_session.execute("CREATE TABLE t AS SELECT name FROM emp")
        with pytest.raises(SemanticError):
            local_session.execute("CREATE TABLE t AS SELECT name FROM emp")

    def test_ctas_schema_from_select(self, local_session):
        local_session.execute(
            "CREATE TABLE t AS SELECT dept, avg(salary) avg_sal FROM emp GROUP BY dept"
        )
        schema = local_session.metastore.get_table("t").schema
        assert schema.names == ["dept", "avg_sal"]


class TestInsertOverwrite:
    def test_insert_overwrite_replaces(self, local_session):
        local_session.execute("CREATE TABLE sink (who string, pay double)")
        local_session.execute(
            "INSERT OVERWRITE TABLE sink SELECT name, salary FROM emp WHERE dept = 'eng'"
        )
        first = local_session.query("SELECT count(*) FROM sink").rows
        local_session.execute(
            "INSERT OVERWRITE TABLE sink SELECT name, salary FROM emp WHERE dept = 'hr'"
        )
        second = local_session.query("SELECT count(*) FROM sink").rows
        assert first == [(3,)]
        assert second == [(1,)]

    def test_insert_arity_mismatch(self, local_session):
        local_session.execute("CREATE TABLE sink (a string)")
        with pytest.raises(SemanticError):
            local_session.execute("INSERT OVERWRITE TABLE sink SELECT name, salary FROM emp")

    def test_insert_into_missing_table(self, local_session):
        with pytest.raises(SemanticError):
            local_session.execute("INSERT OVERWRITE TABLE ghost SELECT name FROM emp")


class TestSessionFactory:
    def test_engine_selection(self):
        assert connect(engine="mr").engine.name == "hadoop"
        assert connect(engine="dm").engine.name == "datampi"
        assert connect(engine="local").engine.name == "local"

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            connect(engine="spark")

    def test_compile_seconds_accounted(self, local_session):
        result = local_session.query("SELECT count(*) FROM emp")
        assert result.compile_seconds > 0
        assert result.simulated_seconds >= result.compile_seconds


class TestPlanCache:
    def test_repeated_select_reuses_plan(self, local_session):
        sql = "SELECT dept, count(*) c FROM emp GROUP BY dept ORDER BY dept"
        first = local_session.query(sql)
        assert len(local_session._plan_cache) == 1
        (cached_plan, *_rest), = local_session._plan_cache.values()
        second = local_session.query(sql)
        assert second.rows == first.rows
        assert len(local_session._plan_cache) == 1
        assert second.plan is cached_plan  # same compiled object, not a re-plan

    def test_different_statements_cache_separately(self, local_session):
        local_session.query("SELECT count(*) FROM emp")
        local_session.query("SELECT count(*) FROM dept")
        assert len(local_session._plan_cache) == 2

    def test_insert_invalidates_cached_plan(self, local_session):
        local_session.execute(
            "CREATE TABLE emp_copy AS SELECT * FROM emp WHERE dept = 'hr'"
        )
        sql = "SELECT count(*) FROM emp_copy"
        assert local_session.query(sql).rows == [(1,)]
        local_session.execute("INSERT OVERWRITE TABLE emp_copy SELECT * FROM emp")
        # the input data moved: the stale plan must not serve old results
        assert local_session.query(sql).rows == [(7,)]

    def test_ddl_invalidates_cached_plan(self, local_session):
        sql = "SELECT count(*) FROM emp"
        first = local_session.query(sql)
        (cached_plan, *_rest), = local_session._plan_cache.values()
        local_session.execute("CREATE TABLE unrelated (a int)")
        second = local_session.query(sql)  # catalog version moved
        assert second.rows == first.rows
        assert second.plan is not cached_plan

    def test_cache_respects_mapjoin_threshold(self, local_session):
        sql = (
            "SELECT e.name, d.region FROM emp e JOIN dept d "
            "ON e.dept = d.dept ORDER BY e.name"
        )
        first = local_session.query(sql)
        local_session.execute("SET hive.mapjoin.smalltable.filesize = 1")
        second = local_session.query(sql)  # new key: threshold is part of it
        assert second.rows == first.rows
        assert len(local_session._plan_cache) == 2


class TestPlanCacheStats:
    """ANALYZE bumps only the stats epoch (not the catalog version);
    cached plans must still be re-costed against the new statistics."""

    # dept raw is 4.6KB; region = 'east' keeps 1 of 3 rows -> est ~1.5KB
    SQL = (
        "SELECT e.name, d.region FROM emp e JOIN dept d ON e.dept = d.dept "
        "WHERE d.region = 'east' ORDER BY e.name"
    )

    def test_analyze_recosts_cached_plan(self, local_session):
        local_session.execute("SET hive.mapjoin.smalltable.filesize = 3000")
        first = local_session.query(self.SQL)
        assert not first.plan.jobs[0].broadcasts  # raw dept above threshold
        local_session.execute("ANALYZE TABLE dept COMPUTE STATISTICS FOR COLUMNS")
        second = local_session.query(self.SQL)  # stats epoch is part of the key
        assert second.plan is not first.plan
        assert second.plan.jobs[0].broadcasts  # estimate now below threshold
        assert second.plan.num_jobs < first.plan.num_jobs  # join job folded away
        assert second.rows == first.rows

    def test_growth_past_threshold_flips_back_to_shuffle(self, local_session):
        local_session.execute("CREATE TABLE tiny AS SELECT name FROM emp LIMIT 1")
        sql = (
            "SELECT e.name FROM emp e JOIN tiny t ON e.name = t.name "
            "ORDER BY e.name"
        )
        tiny_bytes = local_session.metastore.get_table("tiny").logical_bytes(
            local_session.hdfs
        )
        local_session.execute(
            f"SET hive.mapjoin.smalltable.filesize = {int(tiny_bytes * 3)}"
        )
        first = local_session.query(sql)
        assert first.plan.jobs[0].broadcasts  # tiny broadcasts
        local_session.execute("INSERT OVERWRITE TABLE tiny SELECT name FROM emp")
        second = local_session.query(sql)
        assert not second.plan.jobs[0].broadcasts  # grew past the threshold
        assert len(second.rows) == 7

    def test_stats_knobs_are_part_of_cache_key(self, local_session):
        local_session.execute("ANALYZE TABLE dept COMPUTE STATISTICS FOR COLUMNS")
        local_session.execute("SET hive.mapjoin.smalltable.filesize = 3000")
        with_stats = local_session.query(self.SQL)
        assert with_stats.plan.jobs[0].broadcasts
        local_session.execute("SET repro.stats.enabled = false")
        without = local_session.query(self.SQL)  # distinct key, fresh plan
        assert not without.plan.jobs[0].broadcasts
        assert without.rows == with_stats.rows


class TestAstReadOnly:
    """The statement cache hands one AST to every repeat of a text, and
    its structural key is derived once: sound only while no layer
    mutates the tree after parse."""

    @pytest.fixture(scope="class")
    def stores(self):
        return {
            "tpch": fresh_tpch(1, lineitem_sample=300),
            "hibench": fresh_hibench(0.5, sample_uservisits=300),
        }

    @pytest.mark.parametrize("engine", ["local", "hadoop", "datampi", "llap"])
    def test_analyze_compile_run_leave_the_ast_untouched(self, stores, engine):
        sessions = {
            name: connect(engine=engine, hdfs=hdfs, metastore=metastore)
            for name, (hdfs, metastore) in stores.items()
        }
        for name, script in shipped_scripts().items():
            session = sessions["tpch" if name.startswith("tpch") else "hibench"]
            parsed = session.parse(script)
            before = [repr(statement.node) for statement in parsed]
            session.execute(script)  # statement-cache hit: runs these nodes
            assert [repr(statement.node) for statement in parsed] == before, name
            assert [statement.key for statement in parsed] == before, name
        for session in sessions.values():
            assert session.caches()["statement"]["hits"] >= 1


class TestStatementCache:
    SQL = "SELECT dept, count(*) c FROM emp GROUP BY dept ORDER BY dept"

    @pytest.fixture()
    def parser_calls(self, monkeypatch):
        """Texts that reached the parser through the driver module's
        ``parse_script`` binding (the seam hostbench wraps)."""
        calls = []
        real = driver_module.parse_script

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(driver_module, "parse_script", counting)
        return calls

    def test_repeated_text_is_parsed_once(self, local_session, parser_calls):
        first = local_session.query(self.SQL)
        second = local_session.query(self.SQL)
        assert second.rows == first.rows
        assert parser_calls == [self.SQL]
        stats = local_session.caches()["statement"]
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)

    def test_counters_land_in_the_metrics_registry(self, local_session):
        registry = get_metrics()
        hits = registry.counter("sql.statement_cache.hits").value
        misses = registry.counter("sql.statement_cache.misses").value
        local_session.query(self.SQL)
        local_session.query(self.SQL)
        assert registry.counter("sql.statement_cache.hits").value == hits + 1
        assert registry.counter("sql.statement_cache.misses").value == misses + 1

    def test_fresh_session_starts_cold(self, warehouse, parser_calls):
        hdfs, metastore = warehouse
        for _ in range(2):
            with connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
                session.query(self.SQL)
        assert parser_calls == [self.SQL, self.SQL]

    @pytest.mark.parametrize("engine", ["datampi", "llap"])
    def test_hit_matches_a_fresh_parse_of_the_same_text(self, engine):
        # a trailing blank makes a different text (statement-cache miss)
        # with the same AST, so the reference parses every time
        def run(texts):
            hdfs, metastore = build_warehouse()
            with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
                results = [session.query(text) for text in texts]
                return session.caches()["statement"]["hits"], [
                    (r.rows, r.simulated_seconds, r.cache_hit) for r in results
                ]

        hits, cached = run([self.SQL, self.SQL, self.SQL])
        reference_hits, reference = run([self.SQL, self.SQL + " ", self.SQL + "  "])
        assert (hits, reference_hits) == (2, 0)
        assert cached == reference
        assert cached[1][2] is (engine == "llap")  # llap answers from its result cache

    def test_parse_errors_are_not_cached(self, local_session, parser_calls):
        bad = "SELECT FROM WHERE"
        for _ in range(2):
            with pytest.raises(ParseError):
                local_session.execute(bad)
        assert parser_calls == [bad, bad]
        stats = local_session.caches()["statement"]
        assert (stats["entries"], stats["misses"]) == (0, 2)

    def test_lru_eviction_at_capacity(self, local_session, parser_calls):
        local_session._statement_cache = LruCache(2)
        texts = [f"SELECT count(*) FROM emp WHERE emp_id > {n}" for n in range(3)]
        for text in texts:
            local_session.query(text)
        stats = local_session.caches()["statement"]
        assert (stats["entries"], stats["evictions"]) == (2, 1)
        local_session.query(texts[2])  # still resident
        local_session.query(texts[0])  # evicted: parsed again
        assert parser_calls == texts + [texts[0]]

    def test_ddl_between_identical_selects(self, warehouse):
        hdfs, metastore = warehouse
        with connect(engine="llap", hdfs=hdfs, metastore=metastore) as session:
            first = session.query(self.SQL)
            assert session.query(self.SQL).cache_hit
            session.execute("CREATE TABLE unrelated (a int)")  # version bump
            third = session.query(self.SQL)
            assert not third.cache_hit and third.rows == first.rows
            assert third.plan is not first.plan

    def test_conf_part_of_the_key_is_read_live(self, warehouse):
        hdfs, metastore = warehouse
        with connect(engine="llap", hdfs=hdfs, metastore=metastore) as session:
            first = session.query(self.SQL)
            assert session.query(self.SQL).cache_hit
            session.execute("SET hive.mapjoin.smalltable.filesize = 1")
            third = session.query(self.SQL)  # same text, same AST, new key
            assert not third.cache_hit and third.rows == first.rows
            assert session.caches()["statement"]["hits"] == 2


class TestSnapshotMemo:
    SQL = "SELECT count(*) FROM emp"

    def test_unchanged_namespace_is_fingerprinted_once(self, local_session,
                                                       monkeypatch):
        plan = local_session.query(self.SQL).plan
        snapshot = local_session._plan_snapshot(plan)
        listings = []
        real = local_session.hdfs.list_dir
        monkeypatch.setattr(
            local_session.hdfs, "list_dir",
            lambda directory: listings.append(directory) or real(directory),
        )
        assert local_session._plan_snapshot(plan) is snapshot
        assert listings == []

    def test_a_new_input_file_refreshes_the_fingerprint(self, warehouse):
        hdfs, metastore = warehouse
        with connect(engine="llap", hdfs=hdfs, metastore=metastore) as session:
            assert session.query(self.SQL).rows == [(7,)]
            assert session.query(self.SQL).cache_hit
            # straight into the table directory: no metastore version bump,
            # only the HDFS generation tells the memo to look again
            location = metastore.get_table("emp").location
            hdfs.write(f"{location}/part-1", EMP_SCHEMA, EMP_ROWS[:2], scale=5e5)
            again = session.query(self.SQL)
            assert not again.cache_hit and again.rows == [(9,)]
            assert session.caches()["result"]["invalidations"] == 1


class TestPlanCacheBound:
    def test_plan_cache_evicts_least_recently_used(self, local_session):
        local_session._plan_cache = LruCache(2)
        texts = [f"SELECT count(*) FROM emp WHERE emp_id > {n}" for n in range(3)]
        plans = [local_session.query(text).plan for text in texts]
        stats = local_session.caches()["plan"]
        assert (stats["entries"], stats["evictions"]) == (2, 1)
        assert local_session.query(texts[2]).plan is plans[2]
        assert local_session.query(texts[0]).plan is not plans[0]  # recompiled


class TestLruCache:
    def test_lookup_refreshes_recency(self):
        cache = LruCache(2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == 1  # "b" is now the eviction candidate
        cache.store("c", 3)
        assert cache.lookup("b") is None
        assert (cache.lookup("a"), cache.lookup("c")) == (1, 3)
        assert cache.stats() == {
            "entries": 2, "capacity": 2, "hits": 3, "misses": 1,
            "evictions": 1, "invalidations": 0,
        }

    def test_failed_validity_check_drops_the_entry_as_a_miss(self):
        cache = LruCache(4)
        cache.store("k", "stale")
        assert cache.lookup("k", lambda value: value != "stale") is None
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.invalidations) == (0, 1, 1)
