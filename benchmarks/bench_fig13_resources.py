"""Fig 13 — resource utilization of TPC-H Q9 (40 GB, enhanced).

Paper: DataMPI finishes Q9 in 598 s vs Hadoop's 802 s with slightly
higher CPU utilization, similar disk write bandwidth (~24-25 MB/s avg),
an earlier climb to the memory-footprint ceiling (it caches intermediate
data), and higher average network bandwidth (30 vs 20 MB/s) thanks to
the non-blocking shuffle.
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_tpch, run_script
from repro.common.units import MB
from repro.reporting.figures import write_csv
from repro.workloads.tpch import tpch_query


def _experiment():
    hdfs, metastore = fresh_tpch(40, lineitem_sample=8000, format_name="orc")
    runs = {}
    for engine in ("hadoop", "datampi"):
        runs[engine] = run_script(
            engine, hdfs, metastore, tpch_query(9, 40),
            conf={"hive.datampi.parallelism": "enhanced"}, with_metrics=True,
        )
    return runs


def _series_stats(samples, attribute):
    values = [getattr(sample, attribute) for sample in samples]
    if not values:
        return 0.0, 0.0
    return sum(values) / len(values), max(values)


def test_fig13_resource_utilization():
    runs = _experiment()

    csv_rows = []
    stats = {}
    for engine, run in runs.items():
        samples = run.metrics
        total = run.breakdown.total
        cpu_avg, cpu_peak = _series_stats(samples, "cpu_utilization")
        wait_avg, _ = _series_stats(samples, "io_wait")
        read_avg, read_peak = _series_stats(samples, "disk_read_bps")
        write_avg, write_peak = _series_stats(samples, "disk_write_bps")
        net_avg, net_peak = _series_stats(samples, "net_tx_bps")
        mem_peak = max((sample.memory_used for sample in samples), default=0.0)
        stats[engine] = dict(total=total, cpu_avg=cpu_avg, net_avg=net_avg,
                             write_avg=write_avg, mem_peak=mem_peak)
        emit(
            f"== Fig 13 Q9 on {engine} ({total:.0f}s, {len(samples)} samples) ==\n"
            f"  CPU avg {100 * cpu_avg:.1f}% peak {100 * cpu_peak:.1f}%  "
            f"io-wait avg {100 * wait_avg:.1f}%\n"
            f"  disk read avg {read_avg / MB:.1f} MB/s peak {read_peak / MB:.1f}  "
            f"write avg {write_avg / MB:.1f} MB/s peak {write_peak / MB:.1f}\n"
            f"  net tx avg {net_avg / MB:.1f} MB/s peak {net_peak / MB:.1f}  "
            f"mem peak {mem_peak / MB:.0f} MB"
        )
        for sample in samples:
            csv_rows.append([
                engine, round(sample.time, 1), round(sample.cpu_utilization, 4),
                round(sample.io_wait, 4), round(sample.disk_read_bps / MB, 3),
                round(sample.disk_write_bps / MB, 3), round(sample.net_tx_bps / MB, 3),
                round(sample.memory_used / MB, 1),
            ])
    write_csv(results_path("fig13_resources.csv"),
              ["engine", "time_s", "cpu", "io_wait", "disk_read_mbps",
               "disk_write_mbps", "net_tx_mbps", "memory_mb"], csv_rows)

    # paper shapes: DataMPI faster overall, >= CPU utilization, higher
    # average network bandwidth (overlapped shuffle pushes data sooner)
    assert stats["datampi"]["total"] < stats["hadoop"]["total"]
    assert stats["datampi"]["net_avg"] >= stats["hadoop"]["net_avg"] * 0.9
    assert stats["datampi"]["cpu_avg"] >= stats["hadoop"]["cpu_avg"] * 0.8
