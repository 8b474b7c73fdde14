"""The cost-model fingerprint every simulated-time golden carries.

Each golden under ``tests/data/`` that pins simulated seconds (or what
they are made of) records ``CostModel().fingerprint()`` under
``"cost_model"`` when it is captured.  :func:`load_golden` compares that
first: a mismatch means the cost model was changed, and the golden must
be re-captured and the change declared; a match followed by a diff is a
behaviour bug.  Byte goldens (ORC streams, shuffle pairs, lexer tokens)
do not depend on the cost model and carry no fingerprint.
"""

import json
import os

import pytest

from repro.simulate import CostModel

FINGERPRINT_KEY = "cost_model"


def load_golden(path):
    """The golden at *path* without its fingerprint; fails the test
    when it was captured under another cost model."""
    with open(path) as handle:
        golden = json.load(handle)
    recorded = golden.pop(FINGERPRINT_KEY, None)
    current = CostModel().fingerprint()
    if recorded != current:
        pytest.fail(
            f"{os.path.basename(path)}: cost model changed "
            f"({recorded} -> {current}): re-capture and declare it"
        )
    return golden


def write_golden(path, golden, indent=1):
    """Capture *golden* at *path*, stamped with the current fingerprint."""
    with open(path, "w") as handle:
        json.dump(dict(golden, **{FINGERPRINT_KEY: CostModel().fingerprint()}),
                  handle, indent=indent, sort_keys=True)
        handle.write("\n")
