"""MPI-D stays a library (checked on source): ``repro/datampi/`` imports
only ``repro.common``, ``repro.simulate``, ``repro.obs`` and itself, so
it runs with no Hive at all; the Hive side reaches it only through the
plug-in (``repro/engines/datampi/``).  The standalone library job
(``test_datampi_library.py``) is held to the same imports.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
LIBRARY_MAY_IMPORT = ("repro.common", "repro.simulate", "repro.obs", "repro.datampi")


def repro_imports(path: pathlib.Path) -> set:
    """Every ``repro`` module *path* imports, with its line number."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            raise AssertionError(f"{path.name}:{node.lineno}: relative import")
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name == "repro" or name.startswith("repro."))
    return found


def forbidden(path: pathlib.Path) -> list:
    return sorted(
        f"{path.name}:{line} imports {name}" for name, line in repro_imports(path)
        if not any(name == allowed or name.startswith(allowed + ".")
                   for allowed in LIBRARY_MAY_IMPORT)
    )


def test_the_library_imports_no_hive():
    modules = sorted((PACKAGE / "datampi").glob("*.py"))
    assert {path.name for path in modules} >= {
        "__init__.py", "bipartite.py", "buffers.py", "mpi.py", "mpidrun.py",
    }
    for path in modules:
        assert not forbidden(path)


def test_the_standalone_job_imports_no_hive():
    path = pathlib.Path(__file__).parent / "test_datampi_library.py"
    assert repro_imports(path)  # it does use the library
    assert not forbidden(path)


def test_the_check_sees_a_forbidden_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.common.kv import Segments\n"
        "import repro.exec.shuffle\n"
        "from repro.engines.base import JobRun\n"
    )
    assert forbidden(probe) == [
        "probe.py:2 imports repro.exec.shuffle",
        "probe.py:3 imports repro.engines.base",
    ]


def test_only_the_plug_in_imports_the_library():
    importers = {
        str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
        if path.parent != PACKAGE / "datampi"
        and any(name.startswith("repro.datampi") for name, _line in repro_imports(path))
    }
    assert importers == {"engines/datampi/engine.py"}
