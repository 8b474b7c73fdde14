"""TeraGen/TeraSort (used only for the Fig 2 communication comparison).

TeraSort is a plain Hadoop benchmark — not a Hive query — with perfectly
uniform map work: 100-byte records, identity map, sort by 10-byte key.
The paper uses it as the *regular* communication pattern to contrast
with Hive's irregular one (Fig 2(a) vs 2(b)).

The job is built directly as a physical plan (no SQL involved), with a
hash partitioner standing in for TeraSort's range partitioner — the
collect-time behaviour, which is what Fig 2 plots, is unaffected.
"""

from __future__ import annotations

import random
import string
from typing import Tuple

from repro.common.rows import Schema
from repro.common.units import GB
from repro.exec.expressions import InputRef
from repro.exec.operators import FileSinkDesc, ReduceSinkDesc
from repro.exec.reduce import ReduceSortDesc
from repro.plan.physical import MapInput, MRJob, PhysicalPlan, ScanHints
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore

TERA_SCHEMA = Schema.parse("k string, v string")


def load_teragen(
    hdfs: HDFS,
    metastore: Metastore,
    nominal_gb: float,
    sample_rows: int = 24000,
    seed: int = 100,
) -> float:
    """Generate TeraGen data: 10-byte random key + 90-byte payload."""
    rng = random.Random(seed)
    alphabet = string.ascii_uppercase + string.digits
    rows = [
        (
            "".join(rng.choice(alphabet) for _ in range(10)),
            "".join(rng.choice(alphabet) for _ in range(90)),
        )
        for _ in range(sample_rows)
    ]
    if metastore.has_table("teradata"):
        metastore.drop_table("teradata")
    table = metastore.create_table("teradata", TERA_SCHEMA, format_name="text")
    logical = nominal_gb * GB
    from repro.storage.formats.text import text_size

    scale = logical / max(1, text_size(rows))
    parts = 8
    chunk = (len(rows) + parts - 1) // parts
    for part in range(parts):
        piece = rows[part * chunk : (part + 1) * chunk]
        hdfs.write(
            f"{table.location}/part-{part:05d}", TERA_SCHEMA, piece,
            format_name="text", scale=scale, writer_node=part,
        )
    return logical


def terasort_job(output_location: str = "/tmp/terasort-out") -> PhysicalPlan:
    """The TeraSort physical plan: identity map -> shuffle on key ->
    identity (sorted) reduce."""
    map_input = MapInput(
        location="/warehouse/teradata",
        tag=0,
        operators=[
            ReduceSinkDesc(
                key_expressions=[InputRef(0)],
                value_expressions=[InputRef(0), InputRef(1)],
            )
        ],
        hints=ScanHints(),
    )
    job = MRJob(
        job_id="terasort-job1",
        inputs=[map_input],
        reduce_logic=ReduceSortDesc(),
        reduce_operators=[FileSinkDesc(column_names=["k", "v"])],
        output_location=output_location,
        output_schema=TERA_SCHEMA,
        output_format="text",
        sort_directions=[True],
        is_final=True,
    )
    return PhysicalPlan(jobs=[job], output_location=output_location,
                        output_schema=TERA_SCHEMA)
