"""The cost model: every calibrated simulated-time constant, in one object.

Simulated seconds are the paper's numbers; they may move only when this
object changes.  A :class:`CostModel` is frozen and travels with the
simulated world it prices — :class:`~repro.engines.base.EngineRuntime`
carries it, and every engine reads its costs from ``runtime.model`` —
so a sweep or an alternative testbed is one ``dataclasses.replace``
away, never a monkeypatch.

The blocks:

* ``cluster`` — the testbed's hardware (:class:`ClusterSpec`);
* ``cpu`` — the per-MB rates of the functional work, identical for
  every engine because they run the same operators on the same
  hardware, plus the compute/I-O interleave granularity;
* ``compile`` — the modeled HiveQL compile latency the driver charges
  (shared compiler, §IV-A principle 1);
* ``hadoop`` / ``datampi`` / ``llap`` — what differs per engine: job
  control, shuffle buffers and the knobs of each engine's own design.

Paper knobs with a conf key (``hive.datampi.sendqueue``,
``hive.datampi.memusedpercent``, ``hive.exec.reducers.bytes.per.reducer``)
are not calibration: their defaults live next to their conf readers,
so each has exactly one way to be set.

:meth:`CostModel.fingerprint` names a model; every simulated-time golden
under ``tests/data/`` records the fingerprint it was captured under.
docs/cost_model.md documents every field, and a tier-1 test holds its
tables equal to ``CostModel()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, is_dataclass

from repro.simulate.cluster import ClusterSpec


@dataclass(frozen=True)
class CpuModel:
    """CPU rates in milliseconds per logical MB, shared by every engine."""

    map_ms_per_mb: float = 35.0  # deserialize + operator pipeline, text-rate
    reduce_ms_per_mb: float = 14.0
    sort_ms_per_mb: float = 7.0  # per merge pass
    orc_decode_ms_per_mb: float = 14.0  # extra per encoded MB (decompression)
    batch_target_mb: float = 8.0  # compute/I-O interleave granularity
    min_batch_rows: int = 200


@dataclass(frozen=True)
class CompileModel:
    """Modeled HiveQL compile latency: a base plus a share per job."""

    base_seconds: float = 0.6
    per_job_seconds: float = 0.15


@dataclass(frozen=True)
class HadoopModel:
    """Hadoop 1.2.1's job control and shuffle (testbed §V-A)."""

    job_submit: float = 2.2  # JobClient staging + JobTracker admission
    schedule_delay: float = 1.4  # TaskTracker heartbeat pickup, per wave start
    task_jvm_start: float = 1.3  # child JVM spawn per task attempt
    job_cleanup: float = 0.8  # commit + JobTracker retirement
    io_sort_mb: float = 100.0  # map-output buffer before spill (logical MB)
    shuffle_memory_mb: float = 450.0  # reducer in-memory shuffle budget (logical MB)
    # mapred.compress.map.output=true: intermediate data shrinks to this
    # fraction on disk/wire at a CPU cost per (uncompressed) MB
    compress_ratio: float = 0.40
    cpu_compress_ms_per_mb: float = 4.0
    cpu_decompress_ms_per_mb: float = 1.5
    parallel_copies: int = 5  # mapred.reduce.parallel.copies
    speculative_check_seconds: float = 5.0  # straggler-watch polling period


@dataclass(frozen=True)
class DataMPIModel:
    """DataMPI's launcher and shuffle engine."""

    mpidrun_spawn: float = 1.2  # mpidrun + hostfile + plan/conf staging
    process_launch: float = 1.6  # CommonProcess bring-up across the nodes
    task_setup: float = 0.35  # dispatch a scheduled task into a live process
    job_cleanup: float = 0.5
    # SPL send-partition size (logical) at the default memusedpercent
    partition_buffer_bytes: float = 512 * 1024
    gc_coefficient: float = 0.55  # GC-pressure shaping (Fig 8 left)
    send_setup_seconds: float = 0.004  # per-message request setup in the engine
    blocking_round_buffers: int = 10  # sends per synchronized round (blocking style)


@dataclass(frozen=True)
class LlapModel:
    """LLAP's daemon control plane; that difference *is* the daemon model."""

    daemon_spawn: float = 2.8  # whole-fleet bring-up, once per session
    daemon_restart: float = 2.0  # relaunch one daemon after a node crash
    job_submit: float = 0.3  # AM admits the fragment DAG
    fragment_dispatch: float = 0.08  # enqueue into a warm executor
    job_cleanup: float = 0.3


@dataclass(frozen=True)
class CostModel:
    """Every calibrated constant behind a simulated second."""

    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    cpu: CpuModel = field(default_factory=CpuModel)
    compile: CompileModel = field(default_factory=CompileModel)
    hadoop: HadoopModel = field(default_factory=HadoopModel)
    datampi: DataMPIModel = field(default_factory=DataMPIModel)
    llap: LlapModel = field(default_factory=LlapModel)

    def fingerprint(self) -> str:
        """16 hex digits naming this model: BLAKE2b (8-byte digest) of
        its canonical repr, so equal models (``==``) fingerprint equal
        whether a field was given as an int or a float."""
        text = _canonical_repr(self).encode()
        return hashlib.blake2b(text, digest_size=8).hexdigest()


def _canonical_repr(block) -> str:
    parts = []
    for item in fields(block):
        value = getattr(block, item.name)
        text = _canonical_repr(value) if is_dataclass(value) else repr(float(value))
        parts.append(f"{item.name}={text}")
    return f"{type(block).__name__}({', '.join(parts)})"
