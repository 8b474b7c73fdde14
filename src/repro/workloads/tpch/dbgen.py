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
from typing import Dict, List, Tuple

from repro.common.units import GB, KB, MB
from repro.sql.functions import date_add_days
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


def _comment(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(NOISE_WORDS) for _ in range(words))


def _phone(rng: random.Random, nationkey: int) -> str:
    return (
        f"{10 + nationkey}-{rng.randint(100, 999)}-"
        f"{rng.randint(100, 999)}-{rng.randint(1000, 9999)}"
    )


def _date_between(rng: random.Random, lo_days: int, hi_days: int) -> str:
    return date_add_days(_START, rng.randint(lo_days, hi_days))


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
    """
    rng = random.Random(seed)
    factor = lineitem_sample / (6_000_000 * sf)

    num_supplier = max(10, round(10_000 * sf * factor))
    num_customer = max(30, round(150_000 * sf * factor))
    num_part = max(25, round(200_000 * sf * factor))
    num_orders = max(50, round(1_500_000 * sf * factor))

    info = TpchInfo(sf=sf)

    region_rows = [(i, name, _comment(rng, 6)) for i, name in enumerate(REGIONS)]
    nation_rows = [
        (key, name, regionkey, _comment(rng, 6)) for key, name, regionkey in NATIONS
    ]

    supplier_rows = []
    for key in range(1, num_supplier + 1):
        nationkey = rng.randrange(25)
        # spec: 5 per 10,000 suppliers carry "Customer ... Complaints";
        # guarantee a couple in small samples so Q16 selects something
        if key % max(2, num_supplier // 3) == 1 and rng.random() < 0.25:
            comment = "carefully Customer silent Complaints sleep"
        else:
            comment = _comment(rng, 8)
        supplier_rows.append(
            (
                key,
                f"Supplier#{key:09d}",
                _comment(rng, 3),
                nationkey,
                _phone(rng, nationkey),
                round(rng.uniform(-999.99, 9999.99), 2),
                comment,
            )
        )

    customer_rows = []
    for key in range(1, num_customer + 1):
        nationkey = rng.randrange(25)
        customer_rows.append(
            (
                key,
                f"Customer#{key:09d}",
                _comment(rng, 3),
                nationkey,
                _phone(rng, nationkey),
                round(rng.uniform(-999.99, 9999.99), 2),
                rng.choice(SEGMENTS),
                _comment(rng, 10),
            )
        )

    part_rows = []
    retail_price: Dict[int, float] = {}
    for key in range(1, num_part + 1):
        price = round(
            (90000 + (key % 200001) / 10.0 + 100 * (key % 1000)) / 100.0, 2
        )  # spec retail price formula
        retail_price[key] = price
        part_rows.append(
            (
                key,
                " ".join(rng.sample(COLORS, 5)),
                f"Manufacturer#{1 + key % 5}",
                f"Brand#{1 + key % 5}{1 + (key // 5) % 5}",
                f"{rng.choice(TYPES_1)} {rng.choice(TYPES_2)} {rng.choice(TYPES_3)}",
                rng.randint(1, 50),
                f"{rng.choice(CONTAINERS_1)} {rng.choice(CONTAINERS_2)}",
                price,
                _comment(rng, 5),
            )
        )

    partsupp_rows = []
    suppliers_of_part: Dict[int, List[int]] = {}
    for key in range(1, num_part + 1):
        chosen = [1 + (key + i * max(1, num_supplier // 4)) % num_supplier for i in range(4)]
        suppliers_of_part[key] = chosen
        for suppkey in chosen:
            partsupp_rows.append(
                (
                    key,
                    suppkey,
                    rng.randint(1, 9999),
                    round(rng.uniform(1.0, 1000.0), 2),
                    _comment(rng, 12),
                )
            )

    orders_rows = []
    lineitem_rows = []
    # spec: orders reference only two thirds of customers
    eligible_customers = [key for key in range(1, num_customer + 1) if key % 3 != 0]
    for orderkey in range(1, num_orders + 1):
        custkey = rng.choice(eligible_customers)
        orderdate = _date_between(rng, 0, 2405 - 151)  # 1992-01-01 .. 1998-08-02
        lines = rng.randint(1, 7)
        statuses = []
        total = 0.0
        for line_number in range(1, lines + 1):
            partkey = rng.randint(1, num_part)
            suppkey = rng.choice(suppliers_of_part[partkey])
            quantity = float(rng.randint(1, 50))
            extended = round(quantity * retail_price[partkey], 2)
            discount = round(rng.uniform(0.0, 0.10), 2)
            tax = round(rng.uniform(0.0, 0.08), 2)
            shipdate = date_add_days(orderdate, rng.randint(1, 121))
            commitdate = date_add_days(orderdate, rng.randint(30, 90))
            receiptdate = date_add_days(shipdate, rng.randint(1, 30))
            if receiptdate <= _CURRENT:
                returnflag = rng.choice(["R", "A"])
            else:
                returnflag = "N"
            linestatus = "O" if shipdate > _CURRENT else "F"
            statuses.append(linestatus)
            total += extended * (1 + tax) * (1 - discount)
            lineitem_rows.append(
                (
                    orderkey, partkey, suppkey, line_number, quantity,
                    extended, discount, tax, returnflag, linestatus,
                    shipdate, commitdate, receiptdate,
                    rng.choice(SHIP_INSTRUCT), rng.choice(SHIP_MODES),
                    _comment(rng, 4),
                )
            )
        if all(status == "F" for status in statuses):
            orderstatus = "F"
        elif all(status == "O" for status in statuses):
            orderstatus = "O"
        else:
            orderstatus = "P"
        # Q13 pattern: a small share of comments contain special...requests
        if rng.random() < 0.01:
            comment = "the special pending requests haggle blithely"
        else:
            comment = _comment(rng, 8)
        orders_rows.append(
            (
                orderkey, custkey, orderstatus, round(total, 2), orderdate,
                rng.choice(PRIORITIES), f"Clerk#{rng.randint(1, 1000):09d}",
                0, comment,
            )
        )

    tables: List[Tuple[str, list]] = [
        ("region", region_rows),
        ("nation", nation_rows),
        ("supplier", supplier_rows),
        ("customer", customer_rows),
        ("part", part_rows),
        ("partsupp", partsupp_rows),
        ("orders", orders_rows),
        ("lineitem", lineitem_rows),
    ]
    for name, rows in tables:
        schema = TPCH_SCHEMAS[name]
        logical = FIXED_BYTES.get(name) or BYTES_PER_SF[name] * sf
        text_actual = text_size(rows)
        scale = logical / max(1, text_actual)
        if metastore.has_table(name):
            metastore.drop_table(name)
        table = metastore.create_table(name, schema, format_name=format_name)
        parts = max(1, min(8, int(logical / (512 * MB)) + 1))
        chunk = (len(rows) + parts - 1) // parts
        written = 0.0
        for part in range(parts):
            piece = rows[part * chunk : (part + 1) * chunk]
            data_file = hdfs.write(
                f"{table.location}/part-{part:05d}", schema, piece,
                format_name=format_name, scale=scale, writer_node=part,
            )
            written += data_file.logical_bytes
        info.row_counts[name] = len(rows)
        info.logical_bytes[name] = written
    return info
