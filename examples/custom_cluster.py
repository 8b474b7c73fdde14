#!/usr/bin/env python
"""Run your own workload on a custom simulated cluster.

Demonstrates the lower-level API: a hand-defined star-schema workload, a
:class:`CostModel` on a non-default :class:`ClusterSpec` (more nodes,
faster network — the paper's future-work point 2: "evaluate on different
high-performance clusters"), and reading the dstat-style resource
samples.

Run with:  python examples/custom_cluster.py
"""

import random

from repro import ClusterSpec, CostModel, HDFS, Metastore, connect
from repro.common.rows import Schema
from repro.common.units import GB, MB


def build(hdfs, metastore, rng):
    facts = Schema.parse(
        "sale_id int, store_id int, product string, amount double, day string"
    )
    stores = Schema.parse("store_id int, region string, city string")

    store_rows = [
        (i, rng.choice(["NORTH", "SOUTH", "EAST", "WEST"]), f"city{i % 40}")
        for i in range(200)
    ]
    fact_rows = [
        (
            i,
            rng.randrange(200),
            rng.choice(["widget", "gadget", "doohickey", "gizmo"]),
            round(rng.uniform(1, 500), 2),
            f"2015-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        )
        for i in range(30000)
    ]
    from repro.storage.formats.base import get_format

    for name, schema, rows, logical in (
        ("sales", facts, fact_rows, 24 * GB),
        ("stores", stores, store_rows, 8 * MB),
    ):
        table = metastore.create_table(name, schema, format_name="orc")
        actual = get_format("orc").build(schema, rows).total_bytes
        hdfs.write(f"{table.location}/part-00000", schema, rows,
                   format_name="orc", scale=logical / actual)


QUERY = """
SELECT region, product, sum(amount) AS revenue, count(*) AS sales
FROM sales s JOIN stores st ON s.store_id = st.store_id
WHERE day BETWEEN '2015-03-01' AND '2015-09-30'
GROUP BY region, product
ORDER BY revenue DESC
LIMIT 10
"""


def main():
    rng = random.Random(7)
    # a bigger, faster cluster than the paper's testbed: 16 workers, 10 GigE
    model = CostModel(cluster=ClusterSpec(
        num_nodes=17,
        slots_per_node=8,
        nic_bandwidth=1170 * MB,  # 10 GigE
        disk_bandwidth=180 * MB,
        memory_per_node=32 * GB,
    ))
    hdfs = HDFS(num_workers=model.cluster.num_workers)
    metastore = Metastore(hdfs)
    build(hdfs, metastore, rng)

    for engine in ("hadoop", "datampi"):
        session = connect(engine=engine, hdfs=hdfs, metastore=metastore,
                          model=model)
        result = session.query(QUERY, with_metrics=True)
        timing = result.execution
        peak_net = max((s.net_tx_bps for s in timing.metrics), default=0.0)
        print(f"== {engine} on 16x8-slot 10GigE cluster ==")
        print(f"  {timing.total_seconds:.1f}s simulated, "
              f"peak network {peak_net / MB:.0f} MB/s")
        for row in result.rows[:3]:
            print(f"  {row}")
        print()


if __name__ == "__main__":
    main()
