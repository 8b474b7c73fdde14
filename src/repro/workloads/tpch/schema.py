"""TPC-H table schemas and the fixed nation/region content."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.rows import Schema

#: in load (and HDFS write) order, which decides the block placement
TPCH_SCHEMAS: Dict[str, Schema] = {
    "region": Schema.parse("r_regionkey int, r_name string, r_comment string"),
    "nation": Schema.parse(
        "n_nationkey int, n_name string, n_regionkey int, n_comment string"
    ),
    "supplier": Schema.parse(
        "s_suppkey int, s_name string, s_address string, s_nationkey int, "
        "s_phone string, s_acctbal double, s_comment string"
    ),
    "customer": Schema.parse(
        "c_custkey int, c_name string, c_address string, c_nationkey int, "
        "c_phone string, c_acctbal double, c_mktsegment string, c_comment string"
    ),
    "part": Schema.parse(
        "p_partkey int, p_name string, p_mfgr string, p_brand string, "
        "p_type string, p_size int, p_container string, p_retailprice double, "
        "p_comment string"
    ),
    "partsupp": Schema.parse(
        "ps_partkey int, ps_suppkey int, ps_availqty int, "
        "ps_supplycost double, ps_comment string"
    ),
    "orders": Schema.parse(
        "o_orderkey int, o_custkey int, o_orderstatus string, "
        "o_totalprice double, o_orderdate date, o_orderpriority string, "
        "o_clerk string, o_shippriority int, o_comment string"
    ),
    "lineitem": Schema.parse(
        "l_orderkey int, l_partkey int, l_suppkey int, l_linenumber int, "
        "l_quantity double, l_extendedprice double, l_discount double, "
        "l_tax double, l_returnflag string, l_linestatus string, "
        "l_shipdate date, l_commitdate date, l_receiptdate date, "
        "l_shipinstruct string, l_shipmode string, l_comment string"
    ),
}

REGIONS: List[str] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

#: (nationkey, name, regionkey) — spec Appendix A.
NATIONS: List[Tuple[int, str, int]] = [
    (0, "ALGERIA", 0), (1, "ARGENTINA", 1), (2, "BRAZIL", 1), (3, "CANADA", 1),
    (4, "EGYPT", 4), (5, "ETHIOPIA", 0), (6, "FRANCE", 3), (7, "GERMANY", 3),
    (8, "INDIA", 2), (9, "INDONESIA", 2), (10, "IRAN", 4), (11, "IRAQ", 4),
    (12, "JAPAN", 2), (13, "JORDAN", 4), (14, "KENYA", 0), (15, "MOROCCO", 0),
    (16, "MOZAMBIQUE", 0), (17, "PERU", 1), (18, "CHINA", 2),
    (19, "ROMANIA", 3), (20, "SAUDI ARABIA", 4), (21, "VIETNAM", 2),
    (22, "RUSSIA", 3), (23, "UNITED KINGDOM", 3), (24, "UNITED STATES", 1),
]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_INSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
CONTAINERS_1 = ["SM", "MED", "LG", "JUMBO", "WRAP"]
CONTAINERS_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
TYPES_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPES_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPES_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
    "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
    "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive",
    "orange", "orchid", "pale", "papaya", "peach", "peru", "pink", "plum",
    "powder", "puff", "purple", "red", "rose", "rosy", "royal", "saddle",
    "salmon", "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow",
    "spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet",
    "wheat", "white", "yellow",
]
NOISE_WORDS = [
    "carefully", "quickly", "furiously", "slyly", "blithely", "even",
    "regular", "final", "ironic", "pending", "bold", "express", "special",
    "silent", "daring", "unusual", "idle", "busy", "packages", "deposits",
    "requests", "accounts", "instructions", "theodolites", "platelets",
    "foxes", "pinto", "beans", "asymptotes", "dependencies", "waters",
    "sleep", "haggle", "nag", "boost", "cajole", "detect", "wake", "sauternes",
]
