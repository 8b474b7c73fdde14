"""Absolute golden for encoded bytes: ORC chunks, Sequence and Text sizes.

Encoded sizes are cost-model inputs — the simulated disk is charged the
compressed ORC streams, block boundaries come from the Sequence/Text
prefix sums — so an encoder change must emit exactly the same bytes.
``data/orc_golden.json`` pins, for the eight TPC-H tables
(``fresh_tpch(2, lineitem_sample=6000)``), a NULL-injected lineitem
slice and a hand-made corpus (NULLs in every type, all-NULL and empty
columns, non-ASCII and empty strings, ints that are negative / >= 2^14 /
>= 2^28 / beyond 64 bits, run-heavy and run-free int columns, string
columns exactly at and just below ``_DICT_THRESHOLD``, booleans, last
stripes of one row):

* per ORC chunk ``[encoding, uncompressed_bytes, len(compressed),
  crc32(compressed), null bitmap]`` (an all-zero bitmap of *n* bytes is
  written ``"0*n"``, any other as hex), per stripe its ``stats`` (as
  ``repr``), ``total_bytes`` and the container type of every decoded
  column, per file ``total_bytes``;
* per Sequence and Text file the prefix-sum total and three mid-file
  ``bytes_for_range`` probes.

The values were captured at ``682c24c`` (the parent of the PR that made
the write path column-primary and the encoders bulk passes) and must not
move without a declared format change.  Re-capture, only after such a
declared change, with ``PYTHONPATH=src python tests/test_orc_golden.py``.
"""

import json
import os
import random
import zlib
from array import array

import pytest

from repro.bench import fresh_tpch
from repro.common.rows import Schema
from repro.storage.formats.base import get_format
from repro.storage.formats.orc import OrcFormat
from repro.workloads.tpch import TPCH_SCHEMAS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "orc_golden.json")

TPCH_SF = 2
TPCH_LINEITEM_SAMPLE = 6000

_WORDS = ("alpha", "", "naïve", "日本語テキスト", "Ünïcödé ☃", "x" * 130,
          "tab\tsep", "plain ascii words", "🙂 emoji", "z")


def _with_nulls(rows, rng, rate):
    return [
        tuple(None if rng.random() < rate else value for value in row)
        for row in rows
    ]


def _mixed_rows(count, rng):
    rows = []
    for index in range(count):
        rows.append((
            rng.choice((index, -index, index * 40_000, 2**28 + index)),
            rng.randrange(-(2**40), 2**40),
            rng.uniform(-1e6, 1e6) if index % 5 else float(index),
            rng.choice(_WORDS) + str(index % 9),
            f"19{90 + index % 9}-{1 + index % 12:02d}-{1 + index % 28:02d}",
            index % 3 == 0,
        ))
    return rows


def _int_rows(count, rng):
    return [
        (
            index % 100,                          # every varint one byte
            2**14 + rng.randrange(2**20),         # three-byte deltas
            rng.choice((1, -1)) * (2**28 + rng.randrange(2**34)),
            2**70 + index * 3,                    # beyond 64 bits: list column
            index // 5,                           # run-heavy -> rle
            index * 7 - 3 * (index % 2),          # run-free -> delta
            -(2**31) - index,
            7,                                    # one long run
        )
        for index in range(count)
    ]


def _string_rows(count):
    # ndv/rows: exactly 0.5 (direct), just below (dict), ~1 (direct),
    # 300 distinct non-ASCII values (two-byte dictionary indices)
    half = count // 2
    return [
        (
            f"k{index % half}",
            f"k{index % (half - 1)}",
            f"unique-{index:06d}-" + _WORDS[index % len(_WORDS)],
            f"ü{index % 300}",
            "",
            None,
            f"1995-{1 + index % 12:02d}-01",
        )
        for index in range(count)
    ]


def handmade_cases():
    """``[(name, Schema, rows, ORC stripe rows)]`` — seeded, hash-order
    independent."""
    rng = random.Random(20)
    mixed = Schema.parse(
        "i int, b bigint, d double, s string, t date, f boolean"
    )
    ints = Schema.parse(
        "small int, mid bigint, big bigint, huge bigint, runs int, "
        "norun int, neg bigint, const int"
    )
    strings = Schema.parse(
        "at_threshold string, below string, direct string, uni string, "
        "empty string, allnull string, d date"
    )
    bools = Schema.parse("f boolean, g boolean")
    return [
        ("mixed", mixed, _mixed_rows(2049, rng), 1024),
        ("mixed_nulls", mixed,
         _with_nulls(_mixed_rows(2049, rng), rng, 0.12), 1024),
        ("mixed_small_stripes", mixed,
         _with_nulls(_mixed_rows(97, rng), rng, 0.3), 16),
        ("ints", ints, _int_rows(1500, rng), 1024),
        ("ints_nulls", ints, _with_nulls(_int_rows(700, rng), rng, 0.2), 256),
        ("strings", strings, _string_rows(1000), 1024),
        ("strings_small", strings, _string_rows(100), 1024),
        ("bools", bools,
         _with_nulls([(i % 3 == 0, i % 7 < 3) for i in range(77)], rng, 0.25),
         20),
        ("all_null", mixed, [(None,) * 6] * 5, 1024),
        ("one_row", mixed, _mixed_rows(1, rng), 1024),
        ("empty", mixed, [], 1024),
    ]


def corpus():
    """Every pinned file as ``(name, Schema, rows, ORC stripe rows)``."""
    hdfs, metastore = fresh_tpch(TPCH_SF, lineitem_sample=TPCH_LINEITEM_SAMPLE)
    cases = []
    for table in sorted(TPCH_SCHEMAS):
        rows = hdfs.dir_rows(metastore.get_table(table).location)
        cases.append((f"tpch/{table}", TPCH_SCHEMAS[table], rows, 1024))
    lineitem = cases[[name for name, *_ in cases].index("tpch/lineitem")][2]
    cases.append((
        "tpch/lineitem_nulls", TPCH_SCHEMAS["lineitem"],
        _with_nulls(lineitem[:2100], random.Random(7), 0.03), 1024,
    ))
    return cases + handmade_cases()


def _bitmap(data: bytes) -> str:
    return data.hex() if any(data) else f"0*{len(data)}"


def _container(column) -> str:
    if isinstance(column, array):
        return f"array:{column.typecode}"
    return type(column).__name__


def _probes(stored, count):
    return [
        stored.bytes_for_range(count // 4, count // 2),
        stored.bytes_for_range(count // 3, 1),
        stored.bytes_for_range(count // 2, count),  # clipped at the end
    ]


def measure(schema, rows, stripe_rows):
    """The pinned quantities of one corpus file under all three formats."""
    stored = OrcFormat(stripe_rows=stripe_rows).build(schema, rows)
    stripes = []
    for index, stripe in enumerate(stored.stripes):
        stripes.append({
            "rows": [stripe.row_start, stripe.row_count],
            "total_bytes": stripe.total_bytes,
            "stats": {
                name: [repr(low), repr(high)]
                for name, (low, high) in stripe.stats.items()
            },
            "containers": [
                _container(column)
                for column in stored.decoded_stripe_columns(index)
            ],
            "chunks": {
                name: [
                    chunk.encoding, chunk.uncompressed_bytes,
                    len(chunk.compressed), zlib.crc32(chunk.compressed),
                    _bitmap(chunk.null_bitmap),
                ]
                for name, chunk in stripe.chunks.items()
            },
        })
    out = {"orc": {"total_bytes": stored.total_bytes, "stripes": stripes}}
    for name in ("sequence", "text"):
        flat = get_format(name).build(schema, rows)
        out[name] = {
            "total": flat._offsets[-1],
            "probes": _probes(flat, len(rows)),
        }
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def cases():
    return {name: rest for name, *rest in corpus()}


def test_corpus_is_the_pinned_one(golden, cases):
    assert sorted(cases) == sorted(golden)


@pytest.mark.parametrize("name", [
    f"tpch/{table}" for table in sorted(TPCH_SCHEMAS)
] + ["tpch/lineitem_nulls"] + [name for name, *_ in handmade_cases()])
def test_encoded_bytes_match_golden(golden, cases, name):
    measured = measure(*cases[name])
    # one assertion per format keeps a failure's diff readable
    assert measured["sequence"] == golden[name]["sequence"]
    assert measured["text"] == golden[name]["text"]
    assert measured["orc"]["total_bytes"] == golden[name]["orc"]["total_bytes"]
    for index, (got, want) in enumerate(
        zip(measured["orc"]["stripes"], golden[name]["orc"]["stripes"])
    ):
        assert got == want, f"stripe {index}"
    assert len(measured["orc"]["stripes"]) == len(golden[name]["orc"]["stripes"])


if __name__ == "__main__":
    # one line per corpus file, so a re-capture diffs file by file
    lines = [
        f"{json.dumps(name)}:"
        + json.dumps(measure(*rest), separators=(",", ":"), sort_keys=True)
        for name, *rest in sorted(corpus())
    ]
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
