"""Hive driver layer: the plug-in point of the paper.

:class:`~repro.core.driver.Driver` plays Hive's Driver role: it compiles
HiveQL statements through the shared analyzer/physical compiler and then
hands the *same* physical plan to whichever execution engine the session
is bound to (``connect(engine=...)``, Hive's ``hive.execution.engine``) —
mirroring the paper's plug-in design where only the execution engine is
swapped (§IV-A/B, Table III).
"""

from repro.core.driver import Driver, QueryResult, make_warehouse

__all__ = ["Driver", "QueryResult", "make_warehouse"]
