"""The cost model as one declared object: its size, its fingerprint and
the docs that describe it.

``SETTABLE_FIELDS`` counts every independently settable value of
``CostModel()`` (recursively, one per leaf field); like the option pins
in ``tests/test_config.py`` it is edited downward only.  The fingerprint
is what every simulated-time golden records (``tests/goldens.py``), so
it must tell any two different models apart and never depend on the
hash seed (``scripts/check.sh`` runs this file under
``PYTHONHASHSEED=1`` too).
"""

import dataclasses
import pathlib
import re

import pytest

import repro
from repro.common.units import GB, KB, MB
from repro.simulate import CostModel
from repro.storage.hdfs import DEFAULT_BLOCK_SIZE, DEFAULT_REPLICATION

REPO = pathlib.Path(__file__).resolve().parent.parent

SETTABLE_FIELDS = 38

#: the docs/cost_model.md sections whose tables are held equal to the model
DOC_TABLES = (
    "Cluster resources",
    "Per-engine latencies",
    "CPU rates",
    "Shuffle constants",
)
#: a field reference in a table cell: `block.field` value [unit]
REFERENCE = re.compile(r"`(\w+)\.(\w+)` \+?(\d+(?:\.\d+)?)(?: (MB/s|GB|KB))?")
UNITS = {None: 1, "MB/s": MB, "GB": GB, "KB": KB}


def leaf_paths(block, prefix=""):
    """``"block.field"`` for every leaf field under *block*."""
    paths = []
    for item in dataclasses.fields(block):
        value = getattr(block, item.name)
        if dataclasses.is_dataclass(value):
            paths += leaf_paths(value, f"{prefix}{item.name}.")
        else:
            paths.append(prefix + item.name)
    return paths


def replaced(model, path, value):
    """*model* with the leaf at ``"block.field"`` set to *value*."""
    block_name, name = path.split(".")
    block = dataclasses.replace(getattr(model, block_name), **{name: value})
    return dataclasses.replace(model, **{block_name: block})


def test_settable_fields_are_pinned():
    assert len(leaf_paths(CostModel())) == SETTABLE_FIELDS


def test_every_block_is_frozen():
    model = CostModel()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.cpu = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.hadoop.job_submit = 0.0


def test_equal_models_fingerprint_equal():
    first, second = CostModel(), CostModel()
    assert first.fingerprint() == second.fingerprint()
    assert re.fullmatch(r"[0-9a-f]{16}", first.fingerprint())
    # an int where the default is a float is the same model
    assert replaced(first, "cpu.map_ms_per_mb", 35).fingerprint() == \
        first.fingerprint()


@pytest.mark.parametrize("path", leaf_paths(CostModel()))
def test_any_single_field_moves_the_fingerprint(path):
    model = CostModel()
    block_name, name = path.split(".")
    value = getattr(getattr(model, block_name), name)
    assert replaced(model, path, value + 1).fingerprint() != model.fingerprint()


def test_model_is_part_of_the_public_api():
    assert repro.CostModel is CostModel
    assert "CostModel" in repro.__all__


def _section(text, heading):
    section = text.split(f"\n## {heading}", 1)[1]
    return section.split("\n## ", 1)[0]


def _table_rows(section):
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return rows[2:]  # header and rule


def test_docs_tables_equal_the_model():
    """Every row of the documented tables names at least one field, each
    named field carries its ``CostModel()`` value, and every field is
    named somewhere."""
    text = (REPO / "docs" / "cost_model.md").read_text()
    model = CostModel()
    documented = set()
    for heading in DOC_TABLES:
        rows = _table_rows(_section(text, heading))
        assert rows, heading
        for row in rows:
            references = REFERENCE.findall(row)
            assert references, row
            for block_name, name, number, unit in references:
                value = getattr(getattr(model, block_name), name)
                assert float(number) * UNITS[unit or None] == value, (
                    f"{block_name}.{name}", row)
                documented.add(f"{block_name}.{name}")
    assert documented == set(leaf_paths(model))


def test_docs_hdfs_layout_matches_storage():
    text = (REPO / "docs" / "cost_model.md").read_text()
    section = _section(text, "Cluster resources")
    block_mb, replication = re.search(
        r"(\d+) MB blocks\s+with replication (\d+)", section).groups()
    assert int(block_mb) * MB == DEFAULT_BLOCK_SIZE
    assert int(replication) == DEFAULT_REPLICATION
