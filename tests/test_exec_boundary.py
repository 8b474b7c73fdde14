"""The two execution paths stay apart (checked on source, not at runtime).

Production — every engine task — runs the column kernels of
``exec/vectorized.py``; the reference — ``engines/local.py`` only — runs
the row operators of ``exec/operators.py`` with closure-compiled
expressions.  The oracle is only worth something while the two share no
evaluation logic, so this test parses the sources and fails when a name
from one side shows up on the other.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent

REFERENCE_ONLY = {"build_pipeline", "compile_many", "compile_expression", "scan_split"}


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
    return name == "build_vector_pipeline" or (
        name.startswith("codegen_") and name.endswith("_kernel")
    )


def production_modules():
    engines = PACKAGE / "engines"
    yield from (p for p in engines.rglob("*.py") if p != engines / "local.py")
    yield PACKAGE / "exec" / "vectorized.py"


def test_production_never_touches_the_reference_path():
    for path in production_modules():
        leaked = names_in(path) & REFERENCE_ONLY
        assert not leaked, f"{path.relative_to(PACKAGE)} references {sorted(leaked)}"
        calls = compile_method_calls(path)
        assert not calls, (
            f"{path.relative_to(PACKAGE)} calls .compile() at lines {calls}"
        )


def test_reference_never_touches_the_kernels():
    for relative in ("engines/local.py", "exec/operators.py"):
        leaked = {n for n in names_in(PACKAGE / relative) if is_kernel_name(n)}
        assert not leaked, f"{relative} references {sorted(leaked)}"


def test_only_the_task_drivers_know_both_pipelines():
    both = {"build_pipeline", "build_vector_pipeline"}
    knows_both = {
        str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
        if both <= names_in(path)
    }
    assert knows_both == {"exec/mapper.py"}
