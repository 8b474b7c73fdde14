"""Productivity analysis (paper Table III).

The paper's argument: supporting a whole data-warehouse system on
DataMPI needed only ~0.3K changed lines because the plug-in design
reuses Hive's compiler and operators.  The same structural split exists
in this reproduction, so we count it the same way:

* **compiler** — shared planning code (used verbatim by both engines);
* **execution engine, shared** — the functional task bodies
  (ExecMapper/ExecReducer, operators) inherited by every engine, plus
  the engine base and the task-attempt job lifecycle;
* **engine-specific** — the Hadoop, DataMPI and LLAP engine packages:
  the DataMPI-specific lines are this reproduction's analogue of the
  paper's "main changes".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List

import repro


@dataclass
class CodeCount:
    files: int
    lines: int  # non-blank, non-comment source lines


def count_code_lines(relative_paths: List[str]) -> CodeCount:
    """Count source lines of the given paths (relative to the package)."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    files = 0
    lines = 0
    for rel in relative_paths:
        target = os.path.join(root, rel)
        if os.path.isdir(target):
            candidates = [
                os.path.join(base, name)
                for base, _dirs, names in os.walk(target)
                for name in names
                if name.endswith(".py")
            ]
        else:
            candidates = [target]
        for path in candidates:
            files += 1
            in_docstring = False
            with open(path, "r") as handle:
                for raw in handle:
                    stripped = raw.strip()
                    if not stripped:
                        continue
                    if in_docstring:
                        if '"""' in stripped:
                            in_docstring = False
                        continue
                    if stripped.startswith('"""'):
                        if stripped.count('"""') < 2:
                            in_docstring = True
                        continue
                    if stripped.startswith("#"):
                        continue
                    lines += 1
    return CodeCount(files=files, lines=lines)


def productivity_report() -> Dict[str, CodeCount]:
    """Line counts per component, mirroring Table III's rows."""
    return {
        "compiler (shared)": count_code_lines(["sql", "plan"]),
        "execution shared (operators, tasks)": count_code_lines([
            "exec", "engines/base.py", "engines/lifecycle.py",
            "engines/local.py",
        ]),
        "engine for Hadoop": count_code_lines(["engines/hadoop"]),
        "engine for DataMPI (main changes)": count_code_lines(["engines/datampi"]),
        "engine for LLAP": count_code_lines(["engines/llap"]),
        "driver plug-in (core)": count_code_lines(["core"]),
    }


def format_productivity_table(report: Dict[str, CodeCount]) -> str:
    header = f"{'component':<40} {'files':>6} {'lines':>8}"
    lines = ["== Productivity (Table III equivalent) ==", header, "-" * len(header)]
    for label, count in report.items():
        lines.append(f"{label:<40} {count.files:>6} {count.lines:>8}")
    shared = sum(
        count.lines for label, count in report.items() if "shared" in label or "compiler" in label
    )
    datampi = report["engine for DataMPI (main changes)"].lines
    lines.append("-" * len(header))
    lines.append(
        f"DataMPI-specific lines vs shared substrate: {datampi} vs {shared} "
        f"({100.0 * datampi / max(1, shared + datampi):.1f}% of the engine stack)"
    )
    return "\n".join(lines)
