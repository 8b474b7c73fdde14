"""Table II — TPC-H with 40 GB data sets: Text vs ORCFile x Hadoop vs
DataMPI (all 22 queries).

Paper: ORCFile is ~22 % faster than Text for both engines; DataMPI
improves on Hadoop by ~20 % (Text) and ~32 % (ORC) on average.
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_tpch, improvement_percent, run_script
from repro.reporting.figures import write_csv
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_query

SF = 40
SAMPLE = 5000


def _experiment():
    table = {"HAD-TEXT": [], "HAD-ORC": [], "DM-TEXT": [], "DM-ORC": []}
    for format_name, suffix in (("text", "TEXT"), ("orc", "ORC")):
        hdfs, metastore = fresh_tpch(SF, lineitem_sample=SAMPLE, format_name=format_name)
        for query in TPCH_QUERY_IDS:
            script = tpch_query(query, SF)
            for engine, prefix in (("hadoop", "HAD"), ("datampi", "DM")):
                run = run_script(engine, hdfs, metastore, script, label=f"q{query}")
                table[f"{prefix}-{suffix}"].append(run.breakdown.total)
    return table


def test_table2_tpch_text_vs_orc():
    table = _experiment()

    header = "case    " + "".join(f"{'Q%d' % q:>9}" for q in TPCH_QUERY_IDS)
    lines = ["== Table II: TPC-H 40 GB (seconds) ==", header, "-" * len(header)]
    for label, values in table.items():
        lines.append(f"{label:<8}" + "".join(f"{value:>9.1f}" for value in values))
    emit("\n".join(lines))
    write_csv(results_path("table2_tpch_formats.csv"),
              ["case"] + [f"q{q}" for q in TPCH_QUERY_IDS],
              [[label] + [round(v, 2) for v in values] for label, values in table.items()])

    text_improvements = [
        improvement_percent(h, d)
        for h, d in zip(table["HAD-TEXT"], table["DM-TEXT"])
    ]
    orc_improvements = [
        improvement_percent(h, d)
        for h, d in zip(table["HAD-ORC"], table["DM-ORC"])
    ]
    orc_gain_hadoop = [
        improvement_percent(t, o)
        for t, o in zip(table["HAD-TEXT"], table["HAD-ORC"])
    ]
    avg = lambda xs: sum(xs) / len(xs)
    emit(f"DataMPI over Hadoop: text {avg(text_improvements):.1f}% (paper ~20%), "
         f"ORC {avg(orc_improvements):.1f}% (paper ~32%)")
    emit(f"ORC over Text on Hadoop: {avg(orc_gain_hadoop):.1f}% (paper ~22%)")

    # shape assertions: who wins and in roughly what band
    assert 10.0 < avg(text_improvements) < 40.0
    assert 15.0 < avg(orc_improvements) < 45.0
    assert avg(orc_gain_hadoop) > 5.0, "ORC must beat Text on average"
    assert all(d < h for h, d in zip(table["HAD-ORC"], table["DM-ORC"])), \
        "DataMPI wins every ORC query"
