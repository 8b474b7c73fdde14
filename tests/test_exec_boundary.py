"""The two execution paths stay apart (checked on source, and for the
shuffle at runtime).

Production — every engine task — runs the column kernels of
``exec/vectorized.py``, shuffles column runs (``exec/shuffle.py``) and
reduces over column slices (``exec/column_reduce.py``); the reference —
``engines/local.py`` only — runs the row operators of
``exec/operators.py`` with closure-compiled expressions, shuffles one
``KeyValue`` per pair and reduces with the row logics of
``exec/reduce.py``.  The oracle is only worth something while the two
share no evaluation logic, so this test parses the sources and fails
when a name from one side shows up on the other.
"""

import ast
import gc
import pathlib

import pytest

import repro
import repro.engines.datampi.engine as datampi_module
import repro.engines.hadoop.engine as hadoop_module
import repro.engines.llap.engine as llap_module
import repro.engines.local as local_module
from repro import connect
from repro.bench import fresh_hibench
from repro.common.kv import KeyValue
from repro.common.rows import ColumnBatch
from repro.storage.formats.base import FileFormat
from repro.workloads.hibench import HIBENCH_JOIN, hibench_ddl

PACKAGE = pathlib.Path(repro.__file__).parent

REFERENCE_ONLY = {
    "build_pipeline", "compile_many", "compile_expression", "scan_split",
    "KeyValue", "sort_pairs", "group_sorted_pairs", "build_reduce_logic",
}
#: the columnar reduce's entry points, which the reference never names
COLUMNAR_REDUCE = {"reduce_segments", "sort_permutation", "gather_parts", "merge_parts"}


def names_in(path: pathlib.Path) -> set:
    """Every identifier the module mentions: names, attributes, imports.
    Function/class *definitions* and string contents (docstrings) are
    not references."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def compile_method_calls(path: pathlib.Path) -> list:
    """Line numbers of ``<expression>.compile(...)`` calls (``re.compile``
    is the regex compiler, not the closure compiler)."""
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "compile"
        and not (isinstance(node.func.value, ast.Name)
                 and node.func.value.id == "re")
    ]


def is_kernel_name(name: str) -> bool:
    return name == "build_vector_pipeline" or name in COLUMNAR_REDUCE or (
        name.startswith("codegen_") and name.endswith("_kernel")
    )


def production_modules():
    engines = PACKAGE / "engines"
    yield from (p for p in engines.rglob("*.py") if p != engines / "local.py")
    yield from (PACKAGE / "datampi").glob("*.py")  # the engines' MPI-D library
    for module in ("vectorized.py", "shuffle.py", "column_reduce.py"):
        yield PACKAGE / "exec" / module


def test_production_never_touches_the_reference_path():
    for path in production_modules():
        leaked = names_in(path) & REFERENCE_ONLY
        assert not leaked, f"{path.relative_to(PACKAGE)} references {sorted(leaked)}"
        calls = compile_method_calls(path)
        assert not calls, (
            f"{path.relative_to(PACKAGE)} calls .compile() at lines {calls}"
        )


def test_reference_never_touches_the_kernels():
    for relative in ("engines/local.py", "exec/operators.py", "exec/reduce.py"):
        leaked = {n for n in names_in(PACKAGE / relative) if is_kernel_name(n)}
        assert not leaked, f"{relative} references {sorted(leaked)}"


def test_only_the_task_drivers_know_both_pipelines():
    for both in ({"build_pipeline", "build_vector_pipeline"},  # map
                 {"sort_pairs", "reduce_segments"}):           # reduce
        knows_both = {
            str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
            if both <= names_in(path)
        }
        assert knows_both == {"exec/mapper.py"}, both


# ---------------------------------------------------------------------------
# the shuffle at runtime (in the style of test_write_boundary.py)
# ---------------------------------------------------------------------------

@pytest.fixture
def census(monkeypatch):
    """While installed, counts ``KeyValue`` constructions, the
    ``KeyValue`` instances alive whenever a reduce task starts (its whole
    shuffle input is, however the pairs were made), and row
    materializations (``ColumnBatch.to_rows``, ``FileFormat.build``)."""
    counts = {"constructed": 0, "alive_at_reduce": 0, "reduce_tasks": 0,
              "row_builds": 0}
    init = KeyValue.__init__

    def counted_init(pair, *args, **kwargs):
        counts["constructed"] += 1
        init(pair, *args, **kwargs)

    monkeypatch.setattr(KeyValue, "__init__", counted_init)
    for owner, name in ((ColumnBatch, "to_rows"), (FileFormat, "build")):
        original = getattr(owner, name)

        def counted(*args, original=original, **kwargs):
            counts["row_builds"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for module in (hadoop_module, datampi_module, llap_module, local_module):
        reduce = module.run_reducer_functionally

        def counted_reduce(*args, reduce=reduce, **kwargs):
            counts["reduce_tasks"] += 1
            counts["alive_at_reduce"] += sum(
                type(found) is KeyValue for found in gc.get_objects()
            )
            return reduce(*args, **kwargs)

        monkeypatch.setattr(module, "run_reducer_functionally", counted_reduce)
    return counts


def _hibench_join(engine, census):
    """Runs HiBench JOIN (an INSERT: no result fetch) on *engine* with
    the census counting from zero; returns the pairs its map tasks
    emitted."""
    hdfs, metastore = fresh_hibench(1, sample_uservisits=3000)
    with connect(engine=engine, hdfs=hdfs, metastore=metastore) as session:
        session.execute(hibench_ddl())
        census.update(dict.fromkeys(census, 0))  # loading builds from rows
        results = session.execute(HIBENCH_JOIN)
    return sum(
        task.kv_pairs for result in results
        for job in result.execution.jobs
        for task in job.tasks if task.kind in ("map", "o")
    )


@pytest.mark.parametrize("engine", ["hadoop", "datampi", "llap"])
def test_engines_shuffle_no_pair_objects_and_reduce_to_columns(engine, census):
    assert _hibench_join(engine, census) > 1000
    assert census["reduce_tasks"] >= 3  # join, aggregate, order by
    assert census["constructed"] == census["alive_at_reduce"] == 0
    # nor does a reduce task (or any other) turn its output into rows
    assert census["row_builds"] == 0


def test_the_oracle_still_moves_one_pair_object_per_pair(census):
    _hibench_join("local", census)
    pairs = census["constructed"]
    assert census["alive_at_reduce"] >= pairs > 1000
    assert _hibench_join("hadoop", census) == pairs  # the same pairs, as columns
    assert census["constructed"] == 0
