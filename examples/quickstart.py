#!/usr/bin/env python
"""Quickstart: create tables, run HiveQL on both engines, compare.

Run with:  python examples/quickstart.py
"""

import random

from repro import HDFS, Metastore, connect
from repro.common.rows import Schema
from repro.common.units import GB


def build_warehouse():
    """A toy web-log warehouse; `scale` lifts the byte accounting so the
    simulated cluster sees ~2 GB per table while we generate only a few
    thousand real rows."""
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    rng = random.Random(42)

    pages = Schema.parse("url string, rank int")
    visits = Schema.parse("ip string, url string, day string, revenue double")

    page_rows = [(f"/page/{i}", rng.randint(1, 100)) for i in range(500)]
    visit_rows = [
        (
            f"10.0.{rng.randint(0, 40)}.{rng.randint(0, 255)}",
            f"/page/{rng.randint(0, 499)}",
            f"2015-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            round(rng.uniform(0.1, 25.0), 2),
        )
        for _ in range(20000)
    ]

    for name, schema, rows in (("pages", pages, page_rows), ("visits", visits, visit_rows)):
        table = metastore.create_table(name, schema, format_name="text")
        from repro.storage.formats.base import get_format

        actual = get_format("text").build(schema, rows).total_bytes
        hdfs.write(f"{table.location}/part-00000", schema, rows,
                   format_name="text", scale=2 * GB / actual)
    return hdfs, metastore


QUERY = """
SELECT ip, avg(rank) AS avg_rank, sum(revenue) AS total_revenue
FROM pages p JOIN visits v ON p.url = v.url
WHERE v.day >= '2015-06-01'
GROUP BY ip
ORDER BY total_revenue DESC
LIMIT 5
"""


def main():
    from repro.engines import engine_class

    hdfs, metastore = build_warehouse()

    print("running the same query on the cluster engines...\n")
    for engine in ("hadoop", "datampi", "llap"):
        session = connect(engine=engine, hdfs=hdfs, metastore=metastore)
        result = session.query(QUERY)
        timing = result.execution
        print(f"== {engine} ==")
        declared = engine_class(engine)
        print(f"  result cache: {declared.result_cache}, "
              f"degrades to: {declared.degrades_to}")
        print(f"  physical plan: {len(result.plan.jobs)} MapReduce job(s)")
        print(f"  simulated time: {timing.total_seconds:.1f}s "
              f"(startup {sum(j.startup for j in timing.jobs):.1f}s, "
              f"map-shuffle {sum(j.map_shuffle for j in timing.jobs):.1f}s)")
        print("  top rows:")
        for row in result.rows:
            print(f"    {row}")
        print()


if __name__ == "__main__":
    main()
