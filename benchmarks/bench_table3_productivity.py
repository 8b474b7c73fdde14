"""Table III — productivity: size of the DataMPI plug-in vs the stack.

Paper: supporting all Hive workloads on DataMPI required only ~0.3K
changed lines (plus ~1.1K inherited and ~2.6K refactored), because the
compiler and the operator runtime are reused verbatim.  The analogous
split in this reproduction: the shared compiler + operator runtime vs
the DataMPI-specific engine package.
"""

from benchhelpers import emit

from repro.reporting.productivity import (
    format_productivity_table,
    productivity_report,
)


def test_table3_productivity():
    report = productivity_report()
    emit(format_productivity_table(report))

    shared = (
        report["compiler (shared)"].lines
        + report["execution shared (operators, tasks)"].lines
    )
    datampi = report["engine for DataMPI (main changes)"].lines
    hadoop = report["engine for Hadoop"].lines
    llap = report["engine for LLAP"].lines

    # paper shape: the engine-specific deltas are small relative to the
    # shared substrate both engines reuse
    assert shared > 2 * datampi, "the plug-in must be small vs the shared stack"
    assert datampi > 0 and hadoop > 0 and llap > 0
    emit(
        f"shared substrate {shared} lines; DataMPI-specific {datampi} lines "
        f"({100 * datampi / (shared + datampi):.1f}%) — paper: ~0.3K changed "
        "lines on top of Hive's reused compiler/operators"
    )
