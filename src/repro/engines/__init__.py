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

The registry is the public extension point.  Every engine is described
by an :class:`EngineSpec`: a factory and declared
:class:`~repro.engines.base.EngineCapabilities` (what the driver and
scheduler branch on — result_cache, shared_runtime); engine knobs are
ordinary conf keys.  Third-party
engines plug in with ``repro.engines.register(EngineSpec(...))`` — or
the legacy ``register("mine", MyEngine)`` form — and become reachable
through ``repro.connect(engine="mine")`` and the CLI, exactly like the
built-ins.  A factory is either an :class:`Engine` subclass or any
callable accepting ``(hdfs, model=...)`` — factories without a ``model``
parameter are called with ``hdfs`` alone (and ``connect(model=...)``
refuses them).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.engines.base import (
    Engine,
    EngineCapabilities,
    JobTiming,
    TaskTiming,
    PlanResult,
    decide_num_reducers,
)
from repro.engines.datampi import DataMPIEngine
from repro.engines.hadoop import HadoopEngine
from repro.engines.llap import LlapEngine
from repro.engines.local import LocalEngine


@dataclass(frozen=True)
class EngineSpec:
    """Registry entry describing one engine: how to build it and what
    it can do."""

    name: str
    factory: Callable
    aliases: Tuple[str, ...] = ()
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)
    description: str = ""
    #: declared fallback chain, most-preferred first — the scheduler's
    #: circuit breaker degrades a query along this list when the engine
    #: keeps failing (docs/fault_model.md)
    degrades_to: Tuple[str, ...] = ()


_REGISTRY: Dict[str, EngineSpec] = {}
_ALIASES: Dict[str, str] = {}


def register(
    spec_or_name,
    factory: Optional[Callable] = None,
    aliases: Iterable[str] = (),
    replace: bool = False,
    capabilities: Optional[EngineCapabilities] = None,
    description: str = "",
) -> EngineSpec:
    """Make an engine constructible by name.

    Preferred form: ``register(EngineSpec(...))``.  The legacy form
    ``register(name, factory, aliases=...)`` still works and builds a
    spec on the caller's behalf — its capabilities default to the
    factory's declared ``Engine.capabilities`` when the factory is an
    :class:`Engine` subclass, else to all-off.  Re-registering an
    existing name requires ``replace=True``.  Returns the stored spec.
    """
    if isinstance(spec_or_name, EngineSpec):
        spec = spec_or_name
    else:
        name = spec_or_name
        if factory is None:
            raise ValueError("register(name, ...) requires a factory")
        if capabilities is None:
            declared = getattr(factory, "capabilities", None)
            if isinstance(declared, EngineCapabilities):
                capabilities = declared
            else:
                capabilities = EngineCapabilities()
        spec = EngineSpec(
            name=name,
            factory=factory,
            aliases=tuple(aliases),
            capabilities=capabilities,
            description=description,
        )
    key = spec.name.strip().lower()
    if not key:
        raise ValueError("engine name must be non-empty")
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"engine {spec.name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[key] = spec
    for alias in spec.aliases:
        _ALIASES[alias.strip().lower()] = key
    return spec


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


def get_spec(name: str) -> EngineSpec:
    """The :class:`EngineSpec` registered under *name* (or an alias)."""
    key = resolve(name)
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown engine {name!r} (available: {', '.join(available())})"
        )
    return _REGISTRY[key]


def capabilities(name: str) -> EngineCapabilities:
    """Declared capabilities of the engine registered under *name*.

    Public API: the stable way to ask what an engine supports without
    instantiating it — ``repro.engines.capabilities("llap").result_cache``.
    """
    return get_spec(name).capabilities


def create(name: str, hdfs, model=None, **kwargs) -> Engine:
    """Instantiate the engine registered under *name* (or an alias).

    *model* is the :class:`~repro.simulate.CostModel` handed to cluster
    engines (``None``: the default model).
    """
    factory = get_spec(name).factory
    target = factory.__init__ if inspect.isclass(factory) else factory
    parameters = inspect.signature(target).parameters
    takes_model = "model" in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    if takes_model:
        return factory(hdfs, model=model, **kwargs)
    return factory(hdfs, **kwargs)


register(EngineSpec(
    name="datampi",
    factory=DataMPIEngine,
    aliases=("dm",),
    capabilities=DataMPIEngine.capabilities,
    description="gang-scheduled MPI engine (the paper's contribution)",
    degrades_to=("hadoop",),
))
register(EngineSpec(
    name="hadoop",
    factory=HadoopEngine,
    aliases=("mr",),
    capabilities=HadoopEngine.capabilities,
    description="simulated Hadoop 1.x MapReduce baseline",
    degrades_to=("local",),
))
register(EngineSpec(
    name="local",
    factory=LocalEngine,
    capabilities=LocalEngine.capabilities,
    description="in-process reference executor (correctness oracle)",
))
register(EngineSpec(
    name="llap",
    factory=LlapEngine,
    aliases=("live",),
    capabilities=LlapEngine.capabilities,
    description="LLAP-style persistent daemons with node-local columnar "
                "cache and driver result cache",
    degrades_to=("hadoop", "local"),
))

__all__ = [
    "Engine",
    "EngineCapabilities",
    "EngineSpec",
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
    "capabilities",
    "get_spec",
    "create",
]
