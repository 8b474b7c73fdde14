"""Differential oracle: concurrent cluster execution vs the local engine.

All 22 TPC-H queries run solo on the reference (local) executor to
produce oracle rows, then are submitted *concurrently* in batches to a
shared simulated cluster — for each engine (hadoop, datampi, llap).  The
oracle runs the row operators with closure-compiled expressions, the
engines run the generated column kernels, so this is also the 22-query
check of one evaluator against the other.  Every query's rows under
concurrency must match its solo oracle exactly: scheduling may reorder
work in time, never change answers.

The warehouse is tiny (SF-1, small lineitem sample) so the sweep stays
in the tier-1 budget.
"""

import pytest

from repro import connect
from repro.bench import fresh_tpch
from repro.common.config import SCHED_POLICY
from repro.engines.base import compare_result_rows
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_query

SF = 1
LINEITEM_SAMPLE = 800
BATCH_SIZE = 8
ENGINES = ("hadoop", "datampi", "llap")


def batches(items, size):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def last_select_rows(results):
    return [r for r in results if r.statement == "select"][-1].rows


@pytest.fixture(scope="module")
def store():
    return fresh_tpch(SF, lineitem_sample=LINEITEM_SAMPLE)


@pytest.fixture(scope="module")
def oracle(store):
    """Query id -> reference rows from the local engine, run solo."""
    hdfs, metastore = store
    rows = {}
    with connect(engine="local", hdfs=hdfs, metastore=metastore) as session:
        for query in TPCH_QUERY_IDS:
            rows[query] = last_select_rows(session.execute(tpch_query(query, SF)))
    return rows


# ids keep the suffix they had beside the retired ``-row`` cells
@pytest.mark.parametrize(
    "engine", ENGINES, ids=[f"{engine}-vectorized" for engine in ENGINES]
)
def test_concurrent_tpch_matches_local_oracle(store, oracle, engine):
    hdfs, metastore = store
    conf = {SCHED_POLICY: "fair"}
    with connect(engine=engine, hdfs=hdfs, metastore=metastore,
                 conf=conf) as session:
        for batch in batches(list(TPCH_QUERY_IDS), BATCH_SIZE):
            handles = [
                (query, session.submit(tpch_query(query, SF)))
                for query in batch
            ]
            session.scheduler.drain()
            for query, handle in handles:
                rows = handle.result().rows
                assert compare_result_rows(oracle[query], rows, ordered=True), (
                    f"Q{query} on {engine} diverged from the local oracle "
                    "under concurrent scheduling"
                )
        ledger = session.scheduler.runtime.leases.ledger
        assert ledger.oversubscribed_pools() == []
