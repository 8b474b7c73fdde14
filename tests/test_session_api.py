"""The public session API: engine registry, connect()/Session lifecycle,
engine class declarations, and the QueryResult cursor surface."""

from dataclasses import replace

import pytest

import repro
from repro import Session, connect, make_warehouse
from repro import engines as registry
from repro.common import errors
from repro.common.errors import ConfigError, ExecutionError
from repro.engines.local import LocalEngine
from repro.simulate.costmodel import CompileModel
from repro.storage.hdfs import DEFAULT_BLOCK_SIZE
from repro.common.units import MB


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert {"datampi", "hadoop", "local"} <= set(registry.available())

    def test_aliases_resolve(self):
        assert registry.resolve("dm") == "datampi"
        assert registry.resolve("MR") == "hadoop"
        assert registry.resolve("local") == "local"

    def test_unknown_engine_lists_available(self, warehouse):
        hdfs, _ = warehouse
        with pytest.raises(ValueError, match="datampi"):
            registry.create("spark", hdfs)

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register(LocalEngine)

    def test_replace_allows_override(self):
        registry.register(LocalEngine, replace=True)
        assert "local" in registry.available()

    def test_custom_engine_round_trip(self, warehouse):
        hdfs, metastore = warehouse

        class Mine(LocalEngine):
            name = "mine"
            aliases = ("m",)

        registry.register(Mine)
        try:
            session = connect(engine="m", hdfs=hdfs, metastore=metastore)
            rows = session.query("SELECT count(*) FROM emp").rows
            assert rows == [(7,)]
        finally:
            registry.unregister("mine")
        assert "mine" not in registry.available()
        assert registry.resolve("m") == "m"  # alias dropped too

    def test_create_skips_spec_for_specless_factories(self, warehouse):
        hdfs, _ = warehouse
        engine = registry.create("local", hdfs)
        assert isinstance(engine, LocalEngine)


# ---------------------------------------------------------------------------
# connect() / Session
# ---------------------------------------------------------------------------


class TestConnect:
    def test_context_manager_tpch_end_to_end(self):
        from repro.bench import fresh_tpch
        from repro.workloads.tpch import tpch_query

        hdfs, metastore = fresh_tpch(sf=1, lineitem_sample=400)
        with repro.connect(engine="datampi", hdfs=hdfs, metastore=metastore) as s:
            result = s.query(tpch_query(1, 1))
            assert result.rows, "TPC-H Q1 returned no groups"
            assert result.simulated_seconds > 0
            assert result.trace is not None and result.trace.find("job")
        assert s.closed

    def test_execute_after_close_raises(self, warehouse):
        hdfs, metastore = warehouse
        session = connect(engine="local", hdfs=hdfs, metastore=metastore)
        session.close()
        session.close()  # idempotent
        with pytest.raises(ExecutionError, match="closed"):
            session.execute("SELECT 1 FROM emp")

    def test_engine_instance_passthrough(self, warehouse):
        hdfs, metastore = warehouse
        engine = LocalEngine(hdfs)
        session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
        assert isinstance(session, Session)
        assert session.engine is engine
        assert session.engine_name == "local"

    def test_local_engine_runs_under_the_given_model(self, warehouse):
        """The local engine has no cluster, but the driver's compile
        charge still comes from the session's model."""
        hdfs, metastore = warehouse
        model = replace(repro.CostModel(), compile=CompileModel(base_seconds=5.0))
        session = connect(engine="local", hdfs=hdfs, metastore=metastore,
                          model=model)
        assert session.engine.model is model
        result = session.query("SELECT count(*) FROM emp")
        assert result.compile_seconds == \
            5.0 + model.compile.per_job_seconds * result.plan.num_jobs

    def test_model_an_engine_cannot_take_is_refused(self, warehouse):
        hdfs, metastore = warehouse
        model = replace(repro.CostModel(), compile=CompileModel(base_seconds=5.0))
        with pytest.raises(ConfigError, match="'local'.*model="):
            connect(engine=LocalEngine(hdfs), hdfs=hdfs, metastore=metastore,
                    model=model)

    def test_conf_accepts_dict(self, warehouse):
        hdfs, metastore = warehouse
        session = connect(engine="local", hdfs=hdfs, metastore=metastore,
                          conf={"hive.exec.reducers.max": 3})
        assert session.conf.get_int("hive.exec.reducers.max", 0) == 3

    def test_repr_shows_state(self, warehouse):
        hdfs, metastore = warehouse
        with connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
            assert "open" in repr(session)
        assert "closed" in repr(session)


class TestHiveSessionRemoved:
    def test_shim_is_gone(self):
        assert not hasattr(repro, "hive_session")
        import repro.session as session_module

        assert not hasattr(session_module, "hive_session")
        assert "hive_session" not in repro.__all__


# ---------------------------------------------------------------------------
# Engine class declarations + typed engine config
# ---------------------------------------------------------------------------


class TestCapabilities:
    def test_builtin_capability_matrix(self):
        """The class is the declaration: result cache and the one engine
        a failed plan degrades to."""
        declared = {
            name: (registry.engine_class(name).result_cache,
                   registry.engine_class(name).degrades_to)
            for name in registry.available()
        }
        assert declared == {
            "datampi": (False, "hadoop"),
            "hadoop": (False, None),
            "llap": (True, "hadoop"),
            "local": (False, None),
        }
        for retired in ("EngineSpec", "EngineCapabilities", "capabilities",
                        "get_spec"):
            assert not hasattr(registry, retired)
            assert retired not in repro.__all__

    def test_capabilities_resolves_aliases(self):
        assert registry.engine_class("mr") is registry.engine_class("hadoop")
        assert registry.engine_class("live") is registry.engine_class("llap")
        assert registry.engine_class("DM").aliases == ("dm",)

    def test_engine_class_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            registry.engine_class("spark")

    def test_engine_config_is_retired(self, warehouse):
        """Engine knobs are conf keys: there is no second, per-engine
        option namespace to validate them through."""
        hdfs, metastore = warehouse
        with pytest.raises(TypeError):
            connect(engine="llap", hdfs=hdfs, metastore=metastore,
                    engine_config={"cache_mb": 64})
        assert not hasattr(registry, "EngineOption")
        assert not hasattr(errors, "EngineConfigError")
        session = connect(engine="llap", hdfs=hdfs, metastore=metastore,
                          conf={"repro.llap.cache.mb": 64,
                                "repro.result.cache.enabled": False})
        assert session.conf.get_float("repro.llap.cache.mb", 0.0) == 64.0
        assert session.conf.get_bool("repro.result.cache.enabled", True) is False

    def test_registered_engine_derives_capabilities_from_class(self, warehouse):
        class Caching(LocalEngine):
            name = "mine2"
            aliases = ("m2",)
            result_cache = True

        registry.register(Caching)
        try:
            assert registry.engine_class("m2") is Caching
            hdfs, metastore = warehouse
            with connect(engine="m2", hdfs=hdfs, metastore=metastore) as session:
                assert session.engine_name == "mine2"
                session.query("SELECT count(*) FROM emp")
                assert session.query("SELECT count(*) FROM emp").cache_hit
        finally:
            registry.unregister("mine2")


# ---------------------------------------------------------------------------
# make_warehouse
# ---------------------------------------------------------------------------


class TestMakeWarehouse:
    def test_defaults(self):
        hdfs, metastore = make_warehouse()
        assert hdfs.num_workers == 7
        assert hdfs.block_size == DEFAULT_BLOCK_SIZE
        assert metastore.hdfs is hdfs

    def test_custom_block_size(self):
        hdfs, _ = make_warehouse(num_workers=3, block_size=128 * MB)
        assert hdfs.num_workers == 3
        assert hdfs.block_size == 128 * MB


# ---------------------------------------------------------------------------
# QueryResult cursor surface
# ---------------------------------------------------------------------------


class TestQueryResult:
    @pytest.fixture()
    def result(self, local_session):
        return local_session.query(
            "SELECT dept, count(*) AS n FROM emp WHERE dept IS NOT NULL "
            "GROUP BY dept ORDER BY dept"
        )

    def test_iteration_and_len(self, result):
        assert list(result) == result.rows
        assert len(result) == len(result.rows)

    def test_fetchall_copies(self, result):
        fetched = result.fetchall()
        assert fetched == result.rows
        fetched.append(("zz", 0))
        assert fetched != result.rows

    def test_to_pydict(self, result):
        columns = result.to_pydict()
        assert list(columns) == result.column_names()
        assert columns[result.column_names()[0]] == [row[0] for row in result.rows]

    def test_statement_docstring_mentions_explain(self):
        from repro.core.driver import QueryResult

        assert "explain" in QueryResult.__doc__
