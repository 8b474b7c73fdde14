"""Differential-oracle suite for the skew-aware shuffle join.

A Zipf-skewed fact table joins a small dim table with the map-join
threshold forced down, so the plan is a shuffle join whose hot keys the
heavy-hitter sketch flags for SharesSkew-style splitting.  Every
configuration (engine x storage format x skew factor) must return rows byte-identical to the local oracle — and identical with
skew splitting disabled — while the shape checks assert the split
actually flattens the per-reducer byte distribution.
"""

import math
import random

import pytest

from repro import HDFS, Metastore, connect
from repro.common.config import (
    HIVE_MAPJOIN_SMALLTABLE_BYTES,
    SKEWJOIN_THRESHOLD,
)
from repro.common.rows import Schema
from repro.engines.base import compare_result_rows

NUM_KEYS = 40
NUM_FACT_ROWS = 1500
ENGINES = ("hadoop", "datampi", "llap")
FORMATS = ("sequence", "orc")

SKEW_SQL = (
    "SELECT f.k, f.v, d.label FROM fact f JOIN dim d ON f.k = d.k "
    "ORDER BY f.k, f.v, d.label"
)
JOIN_CONF = {
    HIVE_MAPJOIN_SMALLTABLE_BYTES: 1,          # force a shuffle join
    "hive.exec.reducers.bytes.per.reducer": 400,  # force many reducers
}


def zipf_keys(alpha: float, count: int, seed: int = 17):
    """Deterministic Zipf(alpha) samples over key ids 0..NUM_KEYS-1."""
    weights = [1.0 / math.pow(rank + 1, alpha) for rank in range(NUM_KEYS)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    rng = random.Random(seed)
    keys = []
    for _ in range(count):
        u = rng.random()
        keys.append(next(i for i, edge in enumerate(cumulative) if u <= edge))
    return keys


def build_skew_warehouse(alpha: float, format_name: str = "sequence"):
    hdfs = HDFS(num_workers=5)
    metastore = Metastore(hdfs)
    dim_schema = Schema.parse("k int, label string")
    fact_schema = Schema.parse("k int, v int")
    dim = metastore.create_table("dim", dim_schema, format_name=format_name)
    fact = metastore.create_table("fact", fact_schema, format_name=format_name)
    hdfs.write(f"{dim.location}/part-0", dim_schema,
               [(i, f"L{i}") for i in range(NUM_KEYS)],
               format_name=format_name)
    keys = zipf_keys(alpha, NUM_FACT_ROWS)
    half = NUM_FACT_ROWS // 2
    for part, chunk in enumerate((keys[:half], keys[half:])):
        hdfs.write(f"{fact.location}/part-{part}", fact_schema,
                   [(k, part * half + i) for i, k in enumerate(chunk)],
                   format_name=format_name)
    return hdfs, metastore


def analyzed_session(hdfs, metastore, engine, conf=None):
    session = connect(engine=engine, hdfs=hdfs, metastore=metastore,
                      conf=dict(JOIN_CONF, **(conf or {})))
    for table in ("fact", "dim"):
        session.execute(f"ANALYZE TABLE {table} COMPUTE STATISTICS FOR COLUMNS")
    return session


def reduce_byte_shares(result):
    """Per-reducer share of shuffled bytes for the join job."""
    for job in result.execution.jobs:
        tasks = [t for t in job.tasks if t.kind in ("reduce", "a")]
        if job.num_reducers and job.num_reducers > 1 and tasks:
            total = sum(t.kv_bytes for t in tasks)
            if total:
                return [t.kv_bytes / total for t in tasks]
    raise AssertionError("no multi-reducer shuffle job in result")


@pytest.fixture(scope="module")
def oracle_rows():
    """(alpha, format) -> reference rows from the stats-free local engine."""
    cache = {}

    def _get(alpha, format_name):
        key = (alpha, format_name)
        if key not in cache:
            hdfs, metastore = build_skew_warehouse(alpha, format_name)
            with connect(engine="local", hdfs=hdfs,
                         metastore=metastore, conf=dict(JOIN_CONF)) as session:
                cache[key] = session.query(SKEW_SQL).rows
        return cache[key]

    return _get


class TestSkewJoinOracle:
    # ids keep the suffix they had beside the retired ``-row`` cells
    @pytest.mark.parametrize(
        "engine", ENGINES, ids=[f"{engine}-vectorized" for engine in ENGINES]
    )
    def test_rows_identical_with_and_without_split(self, oracle_rows, engine):
        hdfs, metastore = build_skew_warehouse(alpha=1.2)
        with analyzed_session(hdfs, metastore, engine) as on:
            rows_on = on.query(SKEW_SQL).rows
        with analyzed_session(hdfs, metastore, engine,
                              {SKEWJOIN_THRESHOLD: 0}) as off:
            rows_off = off.query(SKEW_SQL).rows
        expected = oracle_rows(1.2, "sequence")
        assert compare_result_rows(expected, rows_on, ordered=True), (
            f"skew-split rows diverged from oracle on {engine}"
        )
        assert rows_on == rows_off

    @pytest.mark.parametrize("format_name", FORMATS)
    def test_formats_match_oracle(self, oracle_rows, format_name):
        hdfs, metastore = build_skew_warehouse(alpha=1.2, format_name=format_name)
        with analyzed_session(hdfs, metastore, "datampi") as session:
            rows = session.query(SKEW_SQL).rows
        assert compare_result_rows(
            oracle_rows(1.2, format_name), rows, ordered=True
        )

    @pytest.mark.parametrize("alpha", (0.8, 1.6), ids=["mild", "extreme"])
    def test_skew_factors_match_oracle(self, oracle_rows, alpha):
        hdfs, metastore = build_skew_warehouse(alpha=alpha)
        with analyzed_session(hdfs, metastore, "hadoop") as session:
            rows = session.query(SKEW_SQL).rows
        assert compare_result_rows(oracle_rows(alpha, "sequence"), rows,
                                   ordered=True)

    def test_left_join_split_preserves_unmatched(self, oracle_rows):
        sql = (
            "SELECT f.k, f.v, d.label FROM fact f LEFT JOIN dim d "
            "ON f.k = d.k ORDER BY f.k, f.v"
        )
        hdfs, metastore = build_skew_warehouse(alpha=1.2)
        with analyzed_session(hdfs, metastore, "datampi") as on:
            rows_on = on.query(sql).rows
        with analyzed_session(hdfs, metastore, "datampi",
                              {SKEWJOIN_THRESHOLD: 0}) as off:
            rows_off = off.query(sql).rows
        assert rows_on == rows_off and len(rows_on) == NUM_FACT_ROWS


class TestSkewJoinShape:
    @pytest.mark.parametrize("engine", ("hadoop", "datampi"))
    def test_split_flattens_reducer_bytes(self, engine):
        hdfs, metastore = build_skew_warehouse(alpha=1.6)
        with analyzed_session(hdfs, metastore, engine,
                              {SKEWJOIN_THRESHOLD: 0.1}) as on:
            shares_on = reduce_byte_shares(on.query(SKEW_SQL))
        with analyzed_session(hdfs, metastore, engine,
                              {SKEWJOIN_THRESHOLD: 0}) as off:
            shares_off = reduce_byte_shares(off.query(SKEW_SQL))
        # with Zipf 1.6 the head key holds ~47% of fact rows: undivided it
        # pins one reducer; split (with the two next keys at share >= 0.1)
        # the hot reducer must fall below 20% of shuffled bytes
        assert max(shares_on) < 0.2, shares_on
        assert max(shares_off) / max(shares_on) >= 2.0, (
            f"{engine}: skew split only improved hot-reducer share "
            f"{max(shares_off):.3f} -> {max(shares_on):.3f}"
        )

    def test_split_counted_in_metrics(self):
        from repro.obs.metrics import get_metrics

        hdfs, metastore = build_skew_warehouse(alpha=1.2)
        with analyzed_session(hdfs, metastore, "datampi") as session:
            before = get_metrics().counter("optimizer.skew_splits").value
            session.query(SKEW_SQL)
            assert get_metrics().counter("optimizer.skew_splits").value > before

    def test_threshold_zero_never_splits(self):
        hdfs, metastore = build_skew_warehouse(alpha=1.6)
        with analyzed_session(hdfs, metastore, "datampi",
                              {SKEWJOIN_THRESHOLD: 0}) as session:
            plan = session.query("EXPLAIN " + SKEW_SQL)
            text = "\n".join(r[0] for r in plan.rows)
            assert "skew join" not in text and "skew:" not in text
