"""TPC-H data generator (dbgen 2.17 equivalent, sampled).

Generates all eight tables with consistent foreign keys and the value
distributions the 22 queries depend on (date ranges, brands/types/
containers, Zipf-free uniform keys per spec, comment keywords for
Q13/Q16 at their spec rates).  Row counts are the spec counts times a
sampling factor chosen so ``lineitem`` has ``lineitem_sample`` rows;
every file's ``scale`` lifts byte accounting to Table I logical sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Dict, List

from repro.common.rng import draw_choice, draw_randint, draw_uniform
from repro.common.rows import ColumnBuilder
from repro.common.units import GB, KB, MB
from repro.sql.functions import date_add_days
from repro.storage.formats.base import get_format
from repro.storage.formats.text import text_size
from repro.storage.hdfs import HDFS
from repro.storage.metastore import Metastore
from repro.workloads.tpch.schema import (
    CONTAINERS_1,
    CONTAINERS_2,
    COLORS,
    NATIONS,
    NOISE_WORDS,
    PRIORITIES,
    REGIONS,
    SEGMENTS,
    SHIP_INSTRUCT,
    SHIP_MODES,
    TPCH_SCHEMAS,
    TYPES_1,
    TYPES_2,
    TYPES_3,
)

#: Table I logical text bytes per scale-factor GB.
BYTES_PER_SF = {
    "customer": 23.4 * MB,
    "lineitem": 0.73 * GB,
    "orders": 0.17 * GB,
    "partsupp": 0.115 * GB,
    "part": 23.3 * MB,
    "supplier": 1.4 * MB,
}
FIXED_BYTES = {"nation": 4 * KB, "region": 4 * KB}

_START = "1992-01-01"
_CURRENT = "1995-06-17"  # spec CURRENTDATE used for returnflag/linestatus


@dataclass
class TpchInfo:
    sf: float
    row_counts: Dict[str, int] = field(default_factory=dict)
    logical_bytes: Dict[str, float] = field(default_factory=dict)

    @property
    def total_logical_bytes(self) -> float:
        return sum(self.logical_bytes.values())


def load_tpch(
    hdfs: HDFS,
    metastore: Metastore,
    sf: float,
    lineitem_sample: int = 24000,
    seed: int = 19920101,
    format_name: str = "text",
) -> TpchInfo:
    """Generate and register all eight TPC-H tables.

    The byte-accounting ``scale`` is computed against the *text*
    encoding, so switching ``format_name`` to ``"orc"`` yields smaller
    logical files exactly in proportion to the real compression achieved
    on the sampled rows — the mechanism behind Table II's Text-vs-ORC
    comparison.

    Every draw goes through a ``draw_*`` closure of
    :mod:`repro.common.rng` — the stream ``rng.choice`` / ``randint`` /
    ``uniform`` would consume, without their frames — and every date is
    an index into one ``1992-01-01 + n`` table;
    ``tests/test_dbgen_reference.py`` holds the rows equal to the plain
    generator's.  A table is never held as tuples: rows go into its
    columns a chunk at a time (:class:`~repro.common.rows.ColumnBuilder`)
    and every part file is built once from column slices.
    """
    rng = random.Random(seed)
    random_ = rng.random
    noise = draw_choice(rng, NOISE_WORDS)
    nation = draw_randint(rng, 0, 24)
    balance = draw_uniform(rng, -999.99, 9999.99)
    phone3 = draw_randint(rng, 100, 999)
    phone4 = draw_randint(rng, 1000, 9999)

    def _comment(words: int) -> str:
        return " ".join([noise() for _ in range(words)])

    def _phone(nationkey: int) -> str:
        return f"{10 + nationkey}-{phone3()}-{phone3()}-{phone4()}"

    # orderdate 1992-01-01 .. 1998-08-02, shipped <= 121 and received
    # <= 30 days later: every date of the run is one of these
    last_orderdate = 2405 - 151
    dates = list(accumulate(
        repeat(1, last_orderdate + 121 + 30), date_add_days, initial=_START
    ))
    current = dates.index(_CURRENT)

    factor = lineitem_sample / (6_000_000 * sf)

    num_supplier = max(10, round(10_000 * sf * factor))
    num_customer = max(30, round(150_000 * sf * factor))
    num_part = max(25, round(200_000 * sf * factor))
    num_orders = max(50, round(1_500_000 * sf * factor))

    info = TpchInfo(sf=sf)

    # every table is drawn row by row into its columns; TPCH_SCHEMAS'
    # order is the load (and HDFS write) order
    tables = {
        name: ColumnBuilder(len(schema)) for name, schema in TPCH_SCHEMAS.items()
    }
    for i, name in enumerate(REGIONS):
        tables["region"].append((i, name, _comment(6)))
    for key, name, regionkey in NATIONS:
        tables["nation"].append((key, name, regionkey, _comment(6)))

    add_supplier = tables["supplier"].append
    for key in range(1, num_supplier + 1):
        nationkey = nation()
        # spec: 5 per 10,000 suppliers carry "Customer ... Complaints";
        # guarantee a couple in small samples so Q16 selects something
        if key % max(2, num_supplier // 3) == 1 and random_() < 0.25:
            comment = "carefully Customer silent Complaints sleep"
        else:
            comment = _comment(8)
        add_supplier(
            (
                key,
                f"Supplier#{key:09d}",
                _comment(3),
                nationkey,
                _phone(nationkey),
                round(balance(), 2),
                comment,
            )
        )

    add_customer = tables["customer"].append
    segment = draw_choice(rng, SEGMENTS)
    for key in range(1, num_customer + 1):
        nationkey = nation()
        add_customer(
            (
                key,
                f"Customer#{key:09d}",
                _comment(3),
                nationkey,
                _phone(nationkey),
                round(balance(), 2),
                segment(),
                _comment(10),
            )
        )

    add_part = tables["part"].append
    retail_price: Dict[int, float] = {}
    type1, type2, type3 = (
        draw_choice(rng, words) for words in (TYPES_1, TYPES_2, TYPES_3)
    )
    container1 = draw_choice(rng, CONTAINERS_1)
    container2 = draw_choice(rng, CONTAINERS_2)
    part_size = draw_randint(rng, 1, 50)
    for key in range(1, num_part + 1):
        price = round(
            (90000 + (key % 200001) / 10.0 + 100 * (key % 1000)) / 100.0, 2
        )  # spec retail price formula
        retail_price[key] = price
        add_part(
            (
                key,
                " ".join(rng.sample(COLORS, 5)),
                f"Manufacturer#{1 + key % 5}",
                f"Brand#{1 + key % 5}{1 + (key // 5) % 5}",
                f"{type1()} {type2()} {type3()}",
                part_size(),
                f"{container1()} {container2()}",
                price,
                _comment(5),
            )
        )

    add_partsupp = tables["partsupp"].append
    suppliers_of_part: Dict[int, List[int]] = {}
    available = draw_randint(rng, 1, 9999)
    supply_cost = draw_uniform(rng, 1.0, 1000.0)
    for key in range(1, num_part + 1):
        chosen = [1 + (key + i * max(1, num_supplier // 4)) % num_supplier for i in range(4)]
        suppliers_of_part[key] = chosen
        for suppkey in chosen:
            add_partsupp(
                (
                    key,
                    suppkey,
                    available(),
                    round(supply_cost(), 2),
                    _comment(12),
                )
            )

    add_orders = tables["orders"].append
    add_lineitem = tables["lineitem"].append
    # spec: orders reference only two thirds of customers
    eligible_customers = [key for key in range(1, num_customer + 1) if key % 3 != 0]
    customer = draw_choice(rng, eligible_customers)
    order_day = draw_randint(rng, 0, last_orderdate)
    line_count = draw_randint(rng, 1, 7)
    part = draw_randint(rng, 1, num_part)
    one_of_four = draw_randint(rng, 0, 3)  # a part has four suppliers
    quantity_of = draw_randint(rng, 1, 50)
    discount_of = draw_uniform(rng, 0.0, 0.10)
    tax_of = draw_uniform(rng, 0.0, 0.08)
    ship_after = draw_randint(rng, 1, 121)
    commit_after = draw_randint(rng, 30, 90)
    receipt_after = draw_randint(rng, 1, 30)
    returned = draw_choice(rng, ["R", "A"])
    instruct = draw_choice(rng, SHIP_INSTRUCT)
    mode = draw_choice(rng, SHIP_MODES)
    priority = draw_choice(rng, PRIORITIES)
    clerk = draw_randint(rng, 1, 1000)
    for orderkey in range(1, num_orders + 1):
        custkey = customer()
        ordered = order_day()
        orderdate = dates[ordered]
        lines = line_count()
        statuses = []
        total = 0.0
        for line_number in range(1, lines + 1):
            partkey = part()
            suppkey = suppliers_of_part[partkey][one_of_four()]
            quantity = float(quantity_of())
            extended = round(quantity * retail_price[partkey], 2)
            discount = round(discount_of(), 2)
            tax = round(tax_of(), 2)
            shipped = ordered + ship_after()
            commitdate = dates[ordered + commit_after()]
            received = shipped + receipt_after()
            # ISO dates order like their day numbers
            returnflag = returned() if received <= current else "N"
            linestatus = "O" if shipped > current else "F"
            statuses.append(linestatus)
            total += extended * (1 + tax) * (1 - discount)
            add_lineitem(
                (
                    orderkey, partkey, suppkey, line_number, quantity,
                    extended, discount, tax, returnflag, linestatus,
                    dates[shipped], commitdate, dates[received],
                    instruct(), mode(),
                    _comment(4),
                )
            )
        if all(status == "F" for status in statuses):
            orderstatus = "F"
        elif all(status == "O" for status in statuses):
            orderstatus = "O"
        else:
            orderstatus = "P"
        # Q13 pattern: a small share of comments contain special...requests
        if random_() < 0.01:
            comment = "the special pending requests haggle blithely"
        else:
            comment = _comment(8)
        add_orders(
            (
                orderkey, custkey, orderstatus, round(total, 2), orderdate,
                priority(), f"Clerk#{clerk():09d}",
                0, comment,
            )
        )

    file_format = get_format(format_name)
    for name, builder in tables.items():
        schema = TPCH_SCHEMAS[name]
        logical = FIXED_BYTES.get(name) or BYTES_PER_SF[name] * sf
        batch = builder.finish()
        size = batch.size
        if metastore.has_table(name):
            metastore.drop_table(name)
        table = metastore.create_table(name, schema, format_name=format_name)
        parts = max(1, min(8, int(logical / (512 * MB)) + 1))
        # the scale is against the text encoding: a Text table's is the
        # sum of its parts' (row-major sizes add up), any other format's
        # is sized over the columns before the parts consume them
        text_actual = None if file_format.name == "text" else text_size(batch)
        files = file_format.build_parts(schema, batch, parts)
        if text_actual is None:
            text_actual = sum(stored.total_bytes for stored in files)
        scale = logical / max(1, text_actual)
        written = 0.0
        for part, stored in enumerate(files):
            data_file = hdfs.write(
                f"{table.location}/part-{part:05d}", schema, stored,
                format_name=format_name, scale=scale, writer_node=part,
            )
            written += data_file.logical_bytes
        info.row_counts[name] = size
        info.logical_bytes[name] = written
    return info
