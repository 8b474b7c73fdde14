"""A Hadoop ``JobConf``-style string-keyed configuration.

Hive, Hadoop and DataMPI all communicate tuning knobs through one loosely
typed key-value configuration object, so we model the same thing: every
value is stored as a string and read back through typed getters.  The
well-known keys used throughout the reproduction are declared as constants
so call sites cannot typo them.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.common.errors import ConfigError

# -- Hive on DataMPI knobs (paper, section IV-D) ---------------------------
HIVE_DATAMPI_PARALLELISM = "hive.datampi.parallelism"  # "default" | "enhanced"
HIVE_DATAMPI_MEM_USED_PERCENT = "hive.datampi.memusedpercent"  # float in (0,1)
HIVE_DATAMPI_SEND_QUEUE = "hive.datampi.sendqueue"  # int >= 1
HIVE_MAPJOIN_SMALLTABLE_BYTES = "hive.mapjoin.smalltable.filesize"
HIVE_REDUCERS_BYTES_PER_REDUCER = "hive.exec.reducers.bytes.per.reducer"  # default 1 GB

# -- cluster / engine knobs -------------------------------------------------
MAPRED_COMPRESS_MAP_OUTPUT = "mapred.compress.map.output"  # bool (mr intermediate data)
DATAMPI_NONBLOCKING = "datampi.shuffle.nonblocking"  # bool
DATAMPI_OVERLAP = "datampi.shuffle.overlap"  # bool; False = send only at O end
HIVE_DATAMPI_DAG = "hive.datampi.dag"  # bool; True = pipeline stages (future work §VII.3)

# -- fault injection / recovery knobs ---------------------------------------
FAULT_SPEC = "repro.faults"  # declarative fault plan (see docs/fault_model.md)
RETRY_MAX = "repro.retry.max"  # whole-job resubmissions (dm)
RETRY_BACKOFF = "repro.retry.backoff"  # base backoff seconds, doubles per retry
SPECULATIVE_EXECUTION = "repro.speculative.execution"  # bool (mr stragglers)

# -- membership / health knobs (docs/fault_model.md) -------------------------
HEARTBEAT_ENABLED = "repro.heartbeat.enabled"  # bool; failure detector
QUERY_DEADLINE = "repro.query.deadline"  # seconds per query (0 = no deadline)
LEASE_AUDIT = "repro.lease.audit"  # record the per-slot lease event trail
BREAKER_THRESHOLD = "repro.breaker.threshold"  # consecutive failures (0 = off)

# -- llap persistent-daemon engine knobs (docs/llap_engine.md) ---------------
LLAP_CACHE_MB = "repro.llap.cache.mb"  # per-node decoded-stripe cache capacity
RESULT_CACHE_ENABLED = "repro.result.cache.enabled"  # bool; driver result cache

# -- statistics / skew-join knobs (docs/optimizer.md) -----------------------
STATS_ENABLED = "repro.stats.enabled"  # bool; stats-driven planning
STATS_AUTO = "repro.stats.auto"  # bool; basic-stats autogather on INSERT/CTAS
SKEWJOIN_THRESHOLD = "repro.skewjoin.threshold"  # heavy-key share; <=0 disables

# -- workload scheduler knobs (docs/scheduling.md) --------------------------
SCHED_POLICY = "repro.sched.policy"  # "fifo" | "fair" | "capacity"
SCHED_MAX_CONCURRENT = "repro.sched.max.concurrent"  # global cap (0 = unlimited)
SCHED_POOLS = "repro.sched.pools"  # "etl:weight=2,cap=1,queue=4; adhoc:weight=1"
SCHED_DEFAULT_POOL = "repro.sched.pool"  # pool for submits that don't name one


class Configuration:
    """String-keyed configuration with typed accessors and defaults.

    >>> conf = Configuration({"hive.datampi.sendqueue": "6"})
    >>> conf.get_int("hive.datampi.sendqueue", 4)
    6
    """

    def __init__(self, values: Optional[Mapping[str, str]] = None):
        self._values: Dict[str, str] = {}
        if values:
            for key, value in values.items():
                self.set(key, value)

    # -- mutation -----------------------------------------------------------
    def set(self, key: str, value: object) -> None:
        """Store *value* under *key*; any value is stringified."""
        if not key:
            raise ConfigError("configuration key must be non-empty")
        if isinstance(value, bool):
            self._values[key] = "true" if value else "false"
        else:
            self._values[key] = str(value)

    def update(self, other: Mapping[str, str]) -> None:
        for key, value in other.items():
            self.set(key, value)

    # -- typed access ---------------------------------------------------------
    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self._values.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r} is not an int") from exc

    def get_float(self, key: str, default: float) -> float:
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}={raw!r} is not a float") from exc

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self._values.get(key)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}={raw!r} is not a bool")

    # -- protocol -------------------------------------------------------------
    def copy(self) -> "Configuration":
        return Configuration(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(sorted(self._values.items()))

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"Configuration({self._values!r})"
