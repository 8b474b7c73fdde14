"""Execution engines + the engine registry.

* :mod:`repro.engines.base` — engine interface, shared functional job
  machinery (splits, broadcasts, reducer policy, output writing) and the
  timing record model every benchmark consumes.
* :mod:`repro.engines.lifecycle` — the task-attempt job lifecycle the
  hadoop and llap engines share; they contribute policy hooks only.
* :mod:`repro.engines.local` — in-process reference executor (no cluster
  simulation); the correctness oracle for the cluster engines.  It alone
  runs the row operators; the engines run the column kernels.
* :mod:`repro.engines.hadoop` — simulated Hadoop 1.x MapReduce engine.
* :mod:`repro.engines.datampi` — the paper's contribution: the DataMPI
  engine with bipartite O/A communicators and the optimized shuffle.
* :mod:`repro.engines.llap` — LLAP-style persistent-daemon engine with
  node-local columnar caches and driver result-cache support.

The registry is the public extension point.  It maps names to
:class:`Engine` subclasses, and the class is an engine's whole
declaration: ``name``, ``aliases``, ``result_cache`` (the driver's
result cache) and ``degrades_to`` (the engine a failed plan goes to);
engine knobs are ordinary conf keys.  A third-party engine plugs in
with ``repro.engines.register(MyEngine)`` and becomes reachable through
``repro.connect(engine=MyEngine.name)`` and the CLI, exactly like the
built-ins; every engine is built as ``cls(hdfs, model=model)``.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.engines.base import (
    Engine,
    JobTiming,
    TaskTiming,
    PlanResult,
    decide_num_reducers,
)
from repro.engines.datampi import DataMPIEngine
from repro.engines.hadoop import HadoopEngine
from repro.engines.llap import LlapEngine
from repro.engines.local import LocalEngine

_REGISTRY: Dict[str, Type[Engine]] = {}
_ALIASES: Dict[str, str] = {}


def register(cls: Type[Engine], replace: bool = False) -> Type[Engine]:
    """Make the engine class *cls* constructible by its ``name`` and
    ``aliases``.  Re-registering an existing name requires
    ``replace=True``.  Returns *cls*."""
    key = cls.name.strip().lower()
    if not key:
        raise ValueError("engine name must be non-empty")
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"engine {cls.name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[key] = cls
    for alias in cls.aliases:
        _ALIASES[alias.strip().lower()] = key
    return cls


def unregister(name: str) -> None:
    """Remove an engine (and any aliases pointing at it)."""
    key = resolve(name)
    _REGISTRY.pop(key, None)
    for alias in [a for a, target in _ALIASES.items() if target == key]:
        del _ALIASES[alias]


def resolve(name: str) -> str:
    """Canonical registry key for *name* (alias-aware; no existence check)."""
    key = name.strip().lower()
    return _ALIASES.get(key, key)


def available() -> List[str]:
    """Sorted canonical names of every registered engine."""
    return sorted(_REGISTRY)


def engine_class(name: str) -> Type[Engine]:
    """The engine class registered under *name* (or an alias)."""
    key = resolve(name)
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown engine {name!r} (available: {', '.join(available())})"
        )
    return _REGISTRY[key]


def create(name: str, hdfs, model=None) -> Engine:
    """Instantiate the engine registered under *name* (or an alias).

    *model* is the :class:`~repro.simulate.CostModel` it runs under
    (``None``: the default model).
    """
    return engine_class(name)(hdfs, model=model)


register(DataMPIEngine)
register(HadoopEngine)
register(LocalEngine)
register(LlapEngine)

__all__ = [
    "Engine",
    "JobTiming",
    "TaskTiming",
    "PlanResult",
    "decide_num_reducers",
    "LocalEngine",
    "HadoopEngine",
    "DataMPIEngine",
    "LlapEngine",
    "register",
    "unregister",
    "resolve",
    "available",
    "engine_class",
    "create",
]
