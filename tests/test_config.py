"""Tests for repro.common.config.Configuration."""

import ast
import pathlib
import re

import pytest

import repro
from repro import engines
from repro.cli import build_parser
from repro.common import config
from repro.common.config import Configuration
from repro.common.errors import ConfigError

REPO = pathlib.Path(__file__).resolve().parent.parent

# The option surface, pinned.  Edit these downward only: a change that
# raises one says which option it retires in exchange.
DECLARED_KEYS = 27
CLI_FLAGS = 16
LLAP_OPTIONS = 2


class TestConfiguration:
    def test_get_default(self):
        conf = Configuration()
        assert conf.get("missing") is None
        assert conf.get("missing", "x") == "x"

    def test_set_and_get(self):
        conf = Configuration()
        conf.set("a.b", "value")
        assert conf.get("a.b") == "value"

    def test_constructor_values(self):
        conf = Configuration({"k": "v"})
        assert conf.get("k") == "v"

    def test_int_accessor(self):
        conf = Configuration({"n": "6"})
        assert conf.get_int("n", 1) == 6
        assert conf.get_int("missing", 4) == 4

    def test_int_accessor_bad_value(self):
        conf = Configuration({"n": "abc"})
        with pytest.raises(ConfigError):
            conf.get_int("n", 1)

    def test_float_accessor(self):
        conf = Configuration({"f": "0.4"})
        assert conf.get_float("f", 0.0) == pytest.approx(0.4)

    def test_bool_accessor_truthy(self):
        for text in ("true", "1", "yes", "on", "TRUE"):
            conf = Configuration({"b": text})
            assert conf.get_bool("b", False) is True

    def test_bool_accessor_falsy(self):
        for text in ("false", "0", "no", "off"):
            conf = Configuration({"b": text})
            assert conf.get_bool("b", True) is False

    def test_bool_accessor_invalid(self):
        conf = Configuration({"b": "maybe"})
        with pytest.raises(ConfigError):
            conf.get_bool("b", True)

    def test_bool_set_normalizes(self):
        conf = Configuration()
        conf.set("b", True)
        assert conf.get("b") == "true"

    def test_numeric_set_stringifies(self):
        conf = Configuration()
        conf.set("n", 42)
        assert conf.get("n") == "42"

    def test_copy_is_independent(self):
        conf = Configuration({"k": "v"})
        clone = conf.copy()
        clone.set("k", "other")
        assert conf.get("k") == "v"

    def test_contains_and_len(self):
        conf = Configuration({"a": "1", "b": "2"})
        assert "a" in conf
        assert len(conf) == 2

    def test_iter_sorted(self):
        conf = Configuration({"b": "2", "a": "1"})
        assert list(conf) == [("a", "1"), ("b", "2")]

    def test_empty_key_rejected(self):
        conf = Configuration()
        with pytest.raises(ConfigError):
            conf.set("", "v")


def _declared_keys():
    """Key constant name -> key string, for every key the module declares."""
    return {
        name: value for name, value in vars(config).items()
        if name.isupper() and isinstance(value, str)
    }


def test_every_declared_key_is_read_by_the_package():
    """A key constant nothing imports is a knob that silently does
    nothing when set."""
    declared = set(_declared_keys())
    imported = set()
    package = pathlib.Path(repro.__file__).parent
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "repro.common.config"):
                imported.update(alias.name for alias in node.names)
    assert declared - imported == set()


def test_every_declared_key_is_set_by_a_test_bench_or_example():
    """A key nothing outside the package sets is a knob nobody has
    shown to work at a non-default value."""
    corpus = "".join(
        path.read_text()
        for folder in ("tests", "benchmarks", "hostbench", "examples")
        for path in (REPO / folder).rglob("*.py")
    )
    unset = {
        name for name, key in _declared_keys().items()
        if name not in corpus and key not in corpus
    }
    assert unset == set()


def test_option_surface_is_pinned():
    flags = [
        action for action in build_parser()._actions
        if action.option_strings and action.dest != "help"
    ]
    assert len(_declared_keys()) == DECLARED_KEYS
    assert len(flags) == CLI_FLAGS
    assert len(engines.get_spec("llap").options) == LLAP_OPTIONS


def test_harness_surface_is_pinned():
    """scripts/check.sh reads no environment gate, no bench has a CLI or
    reads a clock (hostbench/ alone measures wall time), and the test
    extra is exactly pytest + hypothesis."""
    check = (REPO / "scripts" / "check.sh").read_text()
    assert re.findall(r"\$\{?[A-Z_][A-Z0-9_]*", check) == []
    banned = {"argparse", "time.perf_counter", "time.monotonic", "time.time"}
    for path in (REPO / "benchmarks").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {f"{node.value.id}.{node.attr}"}
            else:
                continue
            assert names.isdisjoint(banned), f"{path.name}: {names & banned}"
    pyproject = (REPO / "pyproject.toml").read_text()
    extra = re.search(r"^test = (\[.*\])$", pyproject, re.MULTILINE).group(1)
    assert ast.literal_eval(extra) == ["pytest", "hypothesis"]


def test_sql_reference_lists_exactly_the_declared_keys():
    text = (REPO / "docs" / "sql_reference.md").read_text()
    section = text.split("## Session configuration keys", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(_declared_keys().values())
