"""Reference executor: runs a physical plan functionally, no simulation.

Used as the correctness oracle — integration tests assert that the
hadoop, datampi and llap engines produce exactly the rows this engine
produces — and by unit tests that only care about query semantics.

The oracle is independent by construction: it always runs the row
operators with closure-compiled expressions (``vectorized=False``
everywhere below, whatever the configuration says), while the engines
always run the generated column kernels; the two share no evaluation
logic, so a kernel bug cannot hide from it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.config import Configuration
from repro.common.kv import KeyValue
from repro.engines.base import (
    Engine,
    EngineRuntime,
    JobTiming,
    TaggedSplit,
    decide_num_reducers,
    load_job_inputs,
    run_reducer_functionally,
    write_task_output,
)
from repro.exec.mapper import ExecMapper
from repro.exec.operators import Collector
from repro.plan.physical import PhysicalPlan
from repro.simulate import LeaseOwner

# the slot count that clamps the reducer heuristic: the default
# testbed's 7 workers x 4 slots (the oracle has no cluster to ask)
MAX_SLOTS = 28

Row = Tuple[object, ...]


def scan_split(tagged: TaggedSplit) -> List[Row]:
    """The oracle's read of a split: the stored file's full-width
    ``scan`` (ORC still skips the stripes the hints' conjuncts rule
    out), as row tuples for the row operators."""
    split = tagged.split
    hints = tagged.map_input.hints
    return split.stored.scan(
        split.row_start, split.row_count,
        columns=hints.columns,
        stats_conjuncts=hints.stats_conjuncts or None,
    ).batch.to_rows()


class _PartitionedCollector(Collector):
    def __init__(self, num_partitions: int):
        self.partitions: List[List[KeyValue]] = [[] for _ in range(num_partitions)]

    def collect(self, partition: int, pair: KeyValue) -> None:
        self.partitions[partition].append(pair)


class LocalEngine(Engine):
    """Single-process, zero-latency execution of a physical plan."""

    name = "local"

    def plan_process(
        self,
        runtime: EngineRuntime,
        plan: PhysicalPlan,
        conf: Optional[Configuration] = None,
        owner: Optional[LeaseOwner] = None,
    ):
        """Generator that never waits: the reference executor has no
        clock, so the plan runs at the runtime's current instant and its
        job spans take zero time — ``QueryResult.trace`` keeps a uniform
        shape across engines."""
        conf = conf or Configuration()
        now = runtime.sim.now
        timings: List[JobTiming] = []
        for index, job in enumerate(plan.jobs):
            is_last = index == len(plan.jobs) - 1
            timing = self._run_job(job, conf, is_last)
            timing.span = runtime.tracer.start(
                job.job_id, start=now, category="job",
                engine=self.name, job_id=job.job_id,
                num_maps=timing.num_maps, num_reducers=timing.num_reducers,
            ).finish(now)
            timings.append(timing)
        return timings
        yield  # a generator, driven like every engine's

    def _run_job(self, job, conf: Configuration, is_last: bool) -> JobTiming:
        hdfs = self.hdfs
        splits, small_tables, scale, total_bytes = load_job_inputs(
            job, hdfs, vectorized=False
        )
        num_reducers = decide_num_reducers(
            job, len(splits), total_bytes, conf, is_last, MAX_SLOTS
        )
        timing = JobTiming(job_id=job.job_id, num_maps=len(splits), num_reducers=num_reducers)

        if job.is_map_only:
            for task_index, tagged in enumerate(splits):
                rows = scan_split(tagged)
                mapper = ExecMapper(
                    tagged.operators, collector=None, num_partitions=1,
                    small_tables=small_tables, vectorized=False,
                )
                mapper.process_batch(rows)
                result = mapper.close()
                write_task_output(job, hdfs, task_index, result.output, scale)
            if not splits:
                write_task_output(job, hdfs, 0, [], scale)
            return timing

        collector = _PartitionedCollector(num_reducers)
        for tagged in splits:
            rows = scan_split(tagged)
            mapper = ExecMapper(
                tagged.operators,
                collector=collector,
                num_partitions=num_reducers,
                small_tables=small_tables,
                vectorized=False,
            )
            mapper.process_batch(rows)
            mapper.close()

        for partition in range(num_reducers):
            output = run_reducer_functionally(
                job, collector.partitions[partition], small_tables,
                vectorized=False,
            )
            write_task_output(job, hdfs, partition, output, scale)
        return timing
