"""Span recorder and the wrappers hostbench installs around layer seams.

Layers are measured from outside: :func:`installed` replaces the public
functions listed in ``SEAMS`` (README.md, "Pinned seams") with wrappers
that record one span per call — name, start, end, parent, pass id — or,
for the three per-event ``Simulator`` primitives, only bump a counter.
Leaving the ``with`` block puts every original back, so untraced passes
never pay for a wrapper.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; per pass, the self times of all spans
(the pass root included) add up to the pass's duration.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# span record layout (a list, mutated once on close)
NAME, START, END, PARENT, PASS = range(5)

ROOT = "pass"  # the span the harness opens around one traced pass


class Recorder:
    """In-memory spans and counts, grouped by pass id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.pass_id = 0
        self._open: List[int] = []
        self._counter = self.counts[0]

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._counter = self.counts[pass_id]

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, self.pass_id])
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][NAME]!r} closed out of order"
            )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def current(self) -> Optional[str]:
        return self.spans[self._open[-1]][NAME] if self._open else None

    def count(self, name: str, amount: float = 1) -> None:
        self._counter[name] += amount

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{pass id: {span name: summed self seconds}}``."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]].append((span[START], span[END]))
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            covered = _covered(children.get(index, ()), span[START], span[END])
            out[span[PASS]][span[NAME]] += span[END] - span[START] - covered
        return out

    def durations(self) -> Dict[int, Dict[str, float]]:
        """``{pass id: {span name: summed inclusive seconds}}``."""
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            out[span[PASS]][span[NAME]] += span[END] - span[START]
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT],
                    "pass": span[PASS],
                }) + "\n")
            for pass_id, counter in sorted(self.counts.items()):
                handle.write(json.dumps(
                    {"pass": pass_id, "counts": dict(sorted(counter.items()))}
                ) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _spanned(recorder: Recorder, name: str, function, after=None):
    """Wrap *function* in a span; ``after(recorder, args, kwargs, result,
    error)`` records counts.  A call made while a span of the same name
    is already the innermost one (a public method delegating to its
    sibling, e.g. ``scan_batch`` -> ``scan``) passes straight through,
    so the work is counted once."""

    def wrapper(*args, **kwargs):
        if recorder.current() == name:
            return function(*args, **kwargs)
        index = recorder.open(name)
        result = error = None
        try:
            result = function(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            recorder.close(index)
            if after is not None:
                after(recorder, args, kwargs, result, error)

    wrapper.__wrapped__ = function
    return wrapper


def _counted(recorder: Recorder, name: str, function):
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return function(*args, **kwargs)

    wrapper.__wrapped__ = function
    return wrapper


def _after_parse(recorder, args, kwargs, result, error):
    if result is not None:
        recorder.count("sql.statements", len(result))


def _after_prepare(recorder, args, kwargs, result, error):
    recorder.count("plan.compiles")


def _after_scan(recorder, args, kwargs, result, error):
    if result is None:
        return
    payload = result.batch if hasattr(result, "batch") else result.rows
    recorder.count("storage.scan_calls")
    recorder.count("storage.scan_rows", len(payload))
    recorder.count("storage.scan_bytes", result.bytes_read)
    recorder.count("storage.rows_skipped", result.rows_skipped)


def _after_write(recorder, args, kwargs, result, error):
    if result is not None:
        recorder.count("storage.write_rows", result.row_count)
        recorder.count("storage.write_bytes", result.stored.total_bytes)


def _after_map_build(recorder, args, kwargs, result, error):
    if error is not None:
        return
    # ExecMapper.__init__(self, descriptors, collector, num_partitions,
    #                     small_tables, vectorized)
    recorder.count("exec.map_tasks")
    if kwargs.get("vectorized", args[5] if len(args) > 5 else False):
        recorder.count("exec.vectorizable_tasks")
        if args[0].vector_pipeline is not None:
            recorder.count("exec.vectorized_tasks")


def _after_collect(recorder, args, kwargs, result, error):
    recorder.count("engines.collect_pairs")


def _after_collect_batch(recorder, args, kwargs, result, error):
    recorder.count("engines.collect_pairs", len(args[2]))


def _after_reduce(recorder, args, kwargs, result, error):
    recorder.count("exec.reduce_calls")
    recorder.count("exec.reduce_pairs", len(args[1]))
    if result is not None:
        recorder.count("exec.reduce_rows_out", len(result))


def _after_lease(recorder, args, kwargs, result, error):
    recorder.count("simulate.lease_ops")


def _after_submit(recorder, args, kwargs, result, error):
    from repro.common.errors import AdmissionRejectedError

    if error is None:
        recorder.count("sched.submitted")
    elif isinstance(error, AdmissionRejectedError):
        recorder.count("sched.rejected")


def _mapper_close(recorder: Recorder, function):
    """``ExecMapper.close`` span; the task's row/pair totals are taken
    from its first close only (a second close returns them again)."""

    def wrapper(mapper):
        first = not mapper._closed
        with recorder.span("exec.map"):
            result = function(mapper)
        if first:
            recorder.count("exec.map_rows", result.rows_read)
            recorder.count("exec.map_kv_pairs", result.kv_pairs)
            recorder.count("exec.map_kv_bytes", result.kv_bytes)
        return result

    wrapper.__wrapped__ = function
    return wrapper


def _sim_cancel(recorder: Recorder, function):
    def wrapper(sim, handle):
        if not (handle.cancelled or handle.executed):
            recorder.count("simulate.events_cancelled")
        return function(sim, handle)

    wrapper.__wrapped__ = function
    return wrapper


def _seams(recorder: Recorder):
    """``(owner, attribute, wrapper factory)`` for every pinned seam."""
    import repro.core.driver as driver_module
    import repro.engines.datampi.engine as datampi_module
    import repro.engines.hadoop.engine as hadoop_module
    import repro.engines.llap.engine as llap_module
    import repro.sched.scheduler as scheduler_module
    from repro.engines.base import MapOutputCollector
    from repro.exec.mapper import ExecMapper
    from repro.simulate.events import Simulator
    from repro.simulate.leases import LeaseManager
    from repro.storage.formats.orc import OrcStoredFile
    from repro.storage.formats.sequence import SequenceStoredFile
    from repro.storage.formats.text import TextStoredFile
    from repro.storage.hdfs import HDFS

    def spanned(name, after=None):
        return lambda function: _spanned(recorder, name, function, after)

    def counted(name):
        return lambda function: _counted(recorder, name, function)

    seams = [
        # Session.submit parses through the scheduler module's binding
        (driver_module, "parse_script", spanned("sql.parse", _after_parse)),
        (scheduler_module, "parse_script", spanned("sql.parse", _after_parse)),
        (driver_module.Driver, "prepare",
         spanned("plan.compile", _after_prepare)),
        (Simulator, "run", spanned("sim.run")),
        (Simulator, "call_at", counted("simulate.events_scheduled")),
        (Simulator, "call_soon", counted("simulate.events_scheduled")),
        (Simulator, "cancel", lambda f: _sim_cancel(recorder, f)),
        (HDFS, "write", spanned("storage.write", _after_write)),
        (ExecMapper, "__init__", spanned("exec.map_build", _after_map_build)),
        (ExecMapper, "process_batch", spanned("exec.map")),
        (ExecMapper, "close", lambda f: _mapper_close(recorder, f)),
        (scheduler_module.WorkloadScheduler, "submit",
         spanned("sched.submit", _after_submit)),
    ]
    for stored in (TextStoredFile, SequenceStoredFile, OrcStoredFile):
        for method in ("scan", "scan_batch"):
            seams.append((stored, method, spanned("storage.scan", _after_scan)))
    for collector in (MapOutputCollector, datampi_module.DataMPICollector):
        seams.append(
            (collector, "collect", spanned("engines.collect", _after_collect))
        )
        seams.append((collector, "collect_batch",
                      spanned("engines.collect", _after_collect_batch)))
    for module, engine in (
        (hadoop_module, hadoop_module.HadoopEngine),
        (datampi_module, datampi_module.DataMPIEngine),
        (llap_module, llap_module.LlapEngine),
    ):
        seams.append(
            (engine, "run_plan", spanned(f"engine.run_plan.{engine.name}"))
        )
        seams.append((module, "run_reducer_functionally",
                      spanned("exec.reduce", _after_reduce)))
    for method in ("acquire", "release", "acquire_gang", "cancel",
                   "cancel_gang"):
        seams.append(
            (LeaseManager, method, spanned("simulate.lease", _after_lease))
        )
    return seams


_MISSING = object()


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every seam for the duration of the block, then restore."""
    undo = []
    try:
        for owner, attribute, wrap in _seams(recorder):
            # an inherited method is restored by deleting the override
            own = vars(owner).get(attribute, _MISSING)
            undo.append((owner, attribute, own))
            setattr(owner, attribute, wrap(getattr(owner, attribute)))
        yield recorder
    finally:
        for owner, attribute, own in reversed(undo):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
