"""Tests for repro.common.config.Configuration."""

import ast
import pathlib

import pytest

import repro
from repro.common import config
from repro.common.config import Configuration
from repro.common.errors import ConfigError


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


def test_every_declared_key_is_read_by_the_package():
    """A key constant nothing imports is a knob that silently does
    nothing when set."""
    declared = {
        name for name, value in vars(config).items()
        if name.isupper() and isinstance(value, str)
    }
    imported = set()
    package = pathlib.Path(repro.__file__).parent
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "repro.common.config"):
                imported.update(alias.name for alias in node.names)
    assert declared - imported == set()
