"""Pair-level golden for the shuffle: sizes, partitions, buffers, order.

``data/pair_golden.json`` pins what the cost model reads off the shuffle
below the level of simulated seconds, on hadoop, datampi and llap:

* per map task — pairs and bytes out, a digest of the ``(partition,
  wire size)`` stream in emit order as the engine's collector received
  it (skew-replicated copies included, each at its original's place) and
  a digest of the Fig. 2(c,d) size histogram;
* on datampi — every ``SendBuffer``'s ``(sender, seq, partition, pair
  count, actual_bytes)`` in emission order (count + digest), i.e. where
  each Send Partition List buffer closed;
* per reduce task — pair count, a digest of the key sequence *after* the
  sort, row count and a digest of the output rows;
* ``repr(simulated_seconds)`` per statement.

Cells: HiBench JOIN and AGGREGATE (2 reducers), TPC-H Q3 / Q9 / Q18 with
22+ reducers (buffers of many partitions close inside one batch), a Zipf
join whose fact-side sink routes in ``split`` and whose dim-side sink
routes in ``replicate`` mode (inner and LEFT), ``ORDER BY a DESC, b``
over NULLs and non-ASCII strings, an ORDER BY on a boolean key and a
``GROUP BY`` on a computed key with ``count(DISTINCT)``.

The values were captured at ``d8e5cc1`` — the parent of the PR that made
column runs the unit of exchange — by this harness with its probes
reading that tree's per-pair objects (``KeyValue.serialized_size()`` at
``collect`` / ``collect_batch``, ``len(SendBuffer.pairs)``, the keys of
``sort_pairs``' result).  They must not move: buffer boundaries and pair
sizes are cost-model inputs.  The simulated seconds alone were
re-captured after ``74b355d``, when ``execute`` began charging the
modeled compile on the simulated clock (last digits only).  Re-capture,
after a *declared* change only, with
``PYTHONPATH=src python tests/test_pair_golden.py``.
"""

import contextlib
import hashlib
import json
import os

import pytest

from repro import HDFS, Metastore, connect
from repro.bench import fresh_hibench, fresh_tpch
from repro.common.rows import ColumnBatch, Schema
from repro.exec.mapper import ExecMapper
from repro.workloads.hibench import HIBENCH_AGGREGATE, HIBENCH_JOIN, hibench_ddl
from repro.workloads.tpch import tpch_query

try:
    from .test_skew_join import JOIN_CONF, build_skew_warehouse
except ImportError:  # run as a script to re-capture
    from test_skew_join import JOIN_CONF, build_skew_warehouse

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "pair_golden.json")

ENGINES = ("hadoop", "datampi", "llap")
MANY_REDUCERS = {"hive.exec.reducers.bytes.per.reducer": 48 * 1024 * 1024}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# probes: what this tree's shuffle hands over at each seam
# ---------------------------------------------------------------------------

class Recorder:
    """What one statement's shuffle did, in simulation order."""

    def __init__(self):
        self.streams = {}  # id(engine collector) -> [(partition, size)]
        self.collectors = {}  # id(mapper) -> engine collector
        self.maps = []
        self.buffers = []
        self.reducers = []
        self._keep = []  # pin probed objects so ids stay unique

    def emitted(self, collector, partitions, sizes):
        self._keep.append(collector)
        self.streams.setdefault(id(collector), []).extend(zip(partitions, sizes))

    def snapshot(self):
        return {
            "maps": self.maps,
            "buffers": [len(self.buffers), _digest(self.buffers)],
            "reducers": self.reducers,
        }


@contextlib.contextmanager
def probed(monkeypatch_like):
    """Install the probes; yields the :class:`Recorder`."""
    import repro.datampi.bipartite as bipartite
    import repro.engines.base as base
    import repro.engines.datampi.engine as datampi_module
    import repro.engines.hadoop.engine as hadoop_module
    import repro.engines.llap.engine as llap_module
    import repro.exec.column_reduce as column_reduce

    recorder = Recorder()
    patch = monkeypatch_like.setattr

    for owner in (base.MapOutputCollector, datampi_module.DataMPICollector):
        collect_batch = owner.collect_batch

        def probed_collect_batch(self, partition_ids, run,
                                 collect_batch=collect_batch):
            assert len(partition_ids) == len(run)
            recorder.emitted(self, partition_ids, run.sizes)
            return collect_batch(self, partition_ids, run)

        patch(owner, "collect_batch", probed_collect_batch)

    init = ExecMapper.__init__
    close = ExecMapper.close

    def probed_init(self, descriptors, collector, *args, **kwargs):
        recorder.collectors[id(self)] = collector
        recorder._keep.append(self)
        init(self, descriptors, collector, *args, **kwargs)

    def probed_close(self):
        first = not self._closed
        result = close(self)
        collector = recorder.collectors.get(id(self))
        if first and collector is not None:
            context = self.context
            recorder.maps.append([
                context.kv_pairs_out,
                context.kv_bytes_out,
                _digest(recorder.streams.get(id(collector), [])),
                _digest(sorted(context.kv_size_histogram.items())),
            ])
        return result

    patch(ExecMapper, "__init__", probed_init)
    patch(ExecMapper, "close", probed_close)

    stamp = bipartite._stamp

    def probed_stamp(buffers, scale, sender, emit_seq):
        stamped = stamp(buffers, scale, sender, emit_seq)
        recorder.buffers.extend(
            [b.sender, b.seq, b.partition, len(b.segments), b.actual_bytes]
            for b in stamped
        )
        return stamped

    patch(bipartite, "_stamp", probed_stamp)

    sort_permutation = column_reduce.sort_permutation
    current = {}

    def probed_sort(keys, key_columns, directions, arrival):
        order = sort_permutation(keys, key_columns, directions, arrival)
        columns = [map(column.__getitem__, order) for column in key_columns]
        current["keys"] = _digest(list(zip(*columns)))
        return order

    patch(column_reduce, "sort_permutation", probed_sort)

    for module in (hadoop_module, datampi_module, llap_module):
        reduce = module.run_reducer_functionally

        def probed_reduce(job, shuffle_input, *args, reduce=reduce, **kwargs):
            current.clear()
            output = reduce(job, shuffle_input, *args, **kwargs)
            rows = output.to_rows() if isinstance(output, ColumnBatch) else output
            recorder.reducers.append([
                len(shuffle_input),
                # an empty input is not sorted: its key sequence is empty
                current.get("keys") if len(shuffle_input) else _digest([]),
                len(rows),
                _digest(rows),
            ])
            return output

        patch(module, "run_reducer_functionally", probed_reduce)

    yield recorder


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------

def _hibench(which):
    def build():
        hdfs, metastore = fresh_hibench(2, sample_uservisits=4000)
        script = {"join": HIBENCH_JOIN, "aggregate": HIBENCH_AGGREGATE}[which]
        return hdfs, metastore, {}, hibench_ddl(), script
    return build


def _tpch(number):
    def build():
        hdfs, metastore = fresh_tpch(1, lineitem_sample=2000)
        return hdfs, metastore, MANY_REDUCERS, "", tpch_query(number, 1)
    return build


def _skew(join):
    def build():
        hdfs, metastore = build_skew_warehouse(alpha=1.2)
        setup = "".join(
            f"ANALYZE TABLE {table} COMPUTE STATISTICS FOR COLUMNS;"
            for table in ("fact", "dim")
        )
        return hdfs, metastore, JOIN_CONF, setup, (
            f"SELECT f.k, f.v, d.label FROM fact f {join} dim d ON f.k = d.k "
            "ORDER BY f.k, f.v, d.label"
        )
    return build


def _nulls_warehouse():
    """3 files of ``t(a int, b string, c double)`` with NULLs in ``a`` and
    ``b``, non-ASCII and empty strings, and a boolean column."""
    hdfs = HDFS(num_workers=5)
    metastore = Metastore(hdfs)
    schema = Schema.parse("a int, b string, c double, d boolean")
    table = metastore.create_table("t", schema, format_name="sequence")
    words = ("", "x", "naïve", "Ünïcode", "plain", None, "日本語", "zz")
    for part in range(3):
        rows = []
        for i in range(part * 400, part * 400 + 400):
            rows.append((
                None if i % 11 == 0 else (i * 7919) % 97,
                words[(i * 31) % len(words)],
                ((i * 104729) % 1000) / 8.0,
                None if i % 13 == 0 else i % 3 == 0,
            ))
        hdfs.write(f"{table.location}/part-{part}", schema, rows,
                   format_name="sequence")
    return hdfs, metastore


def _nulls(query):
    def build():
        hdfs, metastore = _nulls_warehouse()
        conf = {"hive.exec.reducers.bytes.per.reducer": 4000}
        return hdfs, metastore, conf, "", query
    return build


CELLS = {
    "hibench_join": _hibench("join"),
    "hibench_aggregate": _hibench("aggregate"),
    "tpch_q3": _tpch(3),
    "tpch_q9": _tpch(9),
    "tpch_q18": _tpch(18),
    # the fact side's sink routes in `split` mode, the dim side's in
    # `replicate` mode; the LEFT JOIN keeps the split on the preserved side
    "skew_inner": _skew("JOIN"),
    "skew_left": _skew("LEFT JOIN"),
    "order_desc_nulls": _nulls("SELECT a, b, c, d FROM t ORDER BY a DESC, b"),
    "order_bool_key": _nulls("SELECT d, a, b FROM t ORDER BY d, a DESC"),
    "group_computed_key": _nulls(
        "SELECT a % 7, b, count(*), sum(c), avg(c), min(b), count(DISTINCT a) "
        "FROM t GROUP BY a % 7, b"
    ),
}
PARAMS = [(cell, engine) for cell in CELLS for engine in ENGINES]


def measure(cell, engine, patcher):
    hdfs, metastore, conf, setup, script = CELLS[cell]()
    with connect(engine=engine, hdfs=hdfs, metastore=metastore,
                 conf=dict(conf)) as session:
        if setup:
            session.execute(setup)
        with probed(patcher) as recorder:
            results = session.execute(script)
    out = recorder.snapshot()
    out["simulated_seconds"] = [repr(r.simulated_seconds) for r in results]
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("cell,engine", PARAMS,
                         ids=[f"{c}-{e}" for c, e in PARAMS])
def test_pairs_match_golden(golden, monkeypatch, cell, engine):
    assert measure(cell, engine, monkeypatch) == golden[f"{cell}/{engine}"]


if __name__ == "__main__":
    captured = {}
    for cell_name, engine_name in PARAMS:
        with pytest.MonkeyPatch.context() as patcher:
            captured[f"{cell_name}/{engine_name}"] = measure(
                cell_name, engine_name, patcher
            )
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(captured, handle, indent=1, sort_keys=True)
        handle.write("\n")
