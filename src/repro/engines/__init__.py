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
by an :class:`EngineSpec`: a factory, declared
:class:`~repro.engines.base.EngineCapabilities` (what the driver and
scheduler branch on — speculative, gang_scheduling, persistent,
result_cache, shared_runtime) and a typed per-engine
configuration namespace (:class:`EngineOption`) that
``repro.connect(engine_config=...)`` validates against.  Third-party
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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.config import LLAP_CACHE_MB, RESULT_CACHE_ENABLED
from repro.common.errors import EngineConfigError
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
from repro.engines.llap.engine import DEFAULT_CACHE_MB
from repro.engines.local import LocalEngine


@dataclass(frozen=True)
class EngineOption:
    """One typed knob in an engine's configuration namespace.

    *name* is the short key users pass in ``engine_config``; *key* is
    the full :mod:`repro.common.config` key the validated value lands
    under, so engines read it back with the ordinary typed getters.
    """

    name: str
    key: str
    type: type = str
    default: object = None
    description: str = ""

    def parse(self, engine: str, value: object) -> object:
        """Coerce *value* to the declared type, raising the typed
        :class:`EngineConfigError` on mismatch."""
        if self.type is bool:
            if isinstance(value, bool):
                return value
            lowered = str(value).strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise EngineConfigError(
                f"engine {engine!r} option {self.name!r}={value!r} is not a bool",
                engine=engine, key=self.name,
            )
        if self.type in (int, float) and isinstance(value, bool):
            raise EngineConfigError(
                f"engine {engine!r} option {self.name!r}={value!r} is not "
                f"a {self.type.__name__}",
                engine=engine, key=self.name,
            )
        try:
            return self.type(value)
        except (TypeError, ValueError) as exc:
            raise EngineConfigError(
                f"engine {engine!r} option {self.name!r}={value!r} is not "
                f"a {self.type.__name__}",
                engine=engine, key=self.name,
            ) from exc


@dataclass(frozen=True)
class EngineSpec:
    """Registry entry describing one engine: how to build it, what it
    can do, and which configuration options it understands."""

    name: str
    factory: Callable
    aliases: Tuple[str, ...] = ()
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)
    options: Tuple[EngineOption, ...] = ()
    description: str = ""
    #: declared fallback chain, most-preferred first — the scheduler's
    #: circuit breaker degrades a query along this list when the engine
    #: keeps failing (docs/fault_model.md)
    degrades_to: Tuple[str, ...] = ()

    def option(self, name: str) -> Optional[EngineOption]:
        for candidate in self.options:
            if candidate.name == name:
                return candidate
        return None

    def validate_config(self, config: Mapping[str, object]) -> Dict[str, object]:
        """Validate an ``engine_config`` mapping against this engine's
        declared options.

        Returns ``{full config key: coerced value}`` ready to apply to a
        :class:`~repro.common.config.Configuration`.  Unknown option
        names and mis-typed values raise :class:`EngineConfigError`.
        """
        validated: Dict[str, object] = {}
        for name, value in config.items():
            option = self.option(name)
            if option is None:
                known = ", ".join(sorted(o.name for o in self.options)) or "none"
                raise EngineConfigError(
                    f"engine {self.name!r} has no config option {name!r} "
                    f"(valid options: {known})",
                    engine=self.name, key=name,
                )
            validated[option.key] = option.parse(self.name, value)
        return validated


_REGISTRY: Dict[str, EngineSpec] = {}
_ALIASES: Dict[str, str] = {}


def register(
    spec_or_name,
    factory: Optional[Callable] = None,
    aliases: Iterable[str] = (),
    replace: bool = False,
    capabilities: Optional[EngineCapabilities] = None,
    options: Iterable[EngineOption] = (),
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
            options=tuple(options),
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
    instantiating it — ``repro.engines.capabilities("llap").persistent``.
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
    options=(
        EngineOption(
            name="cache_mb", key=LLAP_CACHE_MB, type=float,
            default=DEFAULT_CACHE_MB,
            description="per-node decoded-stripe cache capacity in MB",
        ),
        EngineOption(
            name="result_cache", key=RESULT_CACHE_ENABLED, type=bool,
            default=True,
            description="serve repeated identical queries from the driver "
                        "result cache",
        ),
    ),
    description="LLAP-style persistent daemons with node-local columnar "
                "cache and driver result cache",
    degrades_to=("hadoop", "local"),
))

__all__ = [
    "Engine",
    "EngineCapabilities",
    "EngineOption",
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
