"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def results_path(name: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return os.path.join(RESULTS_DIR, name)


def emit(text: str) -> None:
    """Print a benchmark table (visible with -s, captured otherwise)."""
    print("\n" + text)


def write_report(name: str, report) -> None:
    """Write a JSON report under ``results/``: sorted keys, two-space
    indent, no trailing newline — the committed bytes."""
    with open(results_path(name), "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
