"""Shared fixtures: a small warehouse and engine helpers."""

import random

import pytest

from repro import HDFS, Metastore, connect
from repro.common.rows import Schema
from repro.workloads.hibench import HIBENCH_AGGREGATE, HIBENCH_JOIN, hibench_ddl
from repro.workloads.serving import SERVING_CATALOG
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_query

EMP_SCHEMA = Schema.parse("emp_id int, name string, dept string, salary double, hired date")
DEPT_SCHEMA = Schema.parse("dept string, budget double, region string")

EMP_ROWS = [
    (1, "ann", "eng", 120.0, "2001-04-01"),
    (2, "bob", "eng", 100.0, "2003-06-15"),
    (3, "cat", "ops", 90.0, "1999-01-20"),
    (4, "dan", "ops", 95.0, "2005-09-09"),
    (5, "eve", "hr", 80.0, "2002-02-02"),
    (6, "fay", None, 70.0, "2004-12-31"),
    (7, "gus", "eng", None, "2000-07-07"),
]

DEPT_ROWS = [
    ("eng", 1000.0, "west"),
    ("ops", 500.0, "east"),
    ("fin", 800.0, "west"),  # no employees
]


def shipped_scripts():
    """Every SQL text the workloads ship, by name, in runnable order:
    TPC-H 1-22, HiBench (DDL first), the serving catalog."""
    scripts = {f"tpch-{n}": tpch_query(n) for n in TPCH_QUERY_IDS}
    scripts["hibench-ddl"] = hibench_ddl()
    scripts["hibench-aggregate"] = HIBENCH_AGGREGATE
    scripts["hibench-join"] = HIBENCH_JOIN
    for index, sql in enumerate(SERVING_CATALOG):
        scripts[f"serving-{index}"] = sql
    return scripts


def build_warehouse(scale: float = 5e5):
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    emp = metastore.create_table("emp", EMP_SCHEMA, format_name="text")
    dept = metastore.create_table("dept", DEPT_SCHEMA, format_name="text")
    hdfs.write(f"{emp.location}/part-0", EMP_SCHEMA, EMP_ROWS, scale=scale)
    hdfs.write(f"{dept.location}/part-0", DEPT_SCHEMA, DEPT_ROWS, scale=100.0)
    return hdfs, metastore


@pytest.fixture()
def warehouse():
    """(hdfs, metastore) with small `emp` and `dept` tables."""
    return build_warehouse()


@pytest.fixture()
def local_session(warehouse):
    hdfs, metastore = warehouse
    return connect(engine="local", hdfs=hdfs, metastore=metastore)


def build_big_warehouse():
    """A larger random table for engine-level tests (deterministic)."""
    rng = random.Random(99)
    schema = Schema.parse("k int, grp string, val double")
    rows = [
        (i, f"g{rng.randrange(25)}", round(rng.uniform(0, 100), 3))
        for i in range(4000)
    ]
    hdfs = HDFS(num_workers=7)
    metastore = Metastore(hdfs)
    table = metastore.create_table("facts", schema, format_name="text")
    hdfs.write(f"{table.location}/part-0", schema, rows, scale=2e5)
    return hdfs, metastore


@pytest.fixture()
def big_warehouse():
    return build_big_warehouse()


@pytest.fixture()
def big_warehouse_factory():
    """For tests that need several pristine copies of the warehouse."""
    return build_big_warehouse
