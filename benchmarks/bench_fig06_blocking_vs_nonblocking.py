"""Fig 6 — blocking vs non-blocking communication styles.

Paper: HiBench AGGREGATE over 20 GB; O tasks take 61 s with the
non-blocking shuffle engine vs 120 s blocking, because the blocking
style's synchronized rounds make every task wait for the slowest
participant (data skew), fragmenting the send timelines.
"""

from benchhelpers import emit, results_path

from repro.bench import fresh_hibench, run_hibench_query
from repro.reporting.figures import write_csv


def _o_tasks(run):
    """``(O task, its plan's start)``: a statement's cluster clock starts
    with the statement, and its plan after the modeled compile."""
    return [
        (task, result.compile_seconds)
        for result in run.results
        if result.execution
        for job in result.execution.jobs
        for task in job.tasks
        if task.kind == "o"
    ]


def _o_phase(run):
    tasks = [task for task, _plan_start in _o_tasks(run)]
    start = min(task.started for task in tasks)
    end = max(task.finished for task in tasks)
    return tasks, end - start


def _experiment():
    hdfs, metastore = fresh_hibench(20, sample_uservisits=16000)
    runs = {}
    for style, flag in (("non-blocking", True), ("blocking", False)):
        runs[style] = run_hibench_query(
            "datampi", hdfs, metastore, "aggregate",
            conf={"datampi.shuffle.nonblocking": flag},
        )
    return runs


def test_fig06_blocking_vs_nonblocking():
    runs = _experiment()
    spans = {}
    rows = []
    for style, run in runs.items():
        tasks, span = _o_phase(run)
        spans[style] = span
        sends = sum(len(task.send_events) for task in tasks)
        emit(
            f"Fig 6 {style}: O-phase {span:.1f}s, total {run.breakdown.total:.1f}s, "
            f"{sends} send operations across {len(tasks)} O tasks"
        )
        for task, plan_start in _o_tasks(run):
            for when in task.send_events:
                rows.append([style, task.task_id, round(when - plan_start, 3)])
    write_csv(results_path("fig06_send_events.csv"), ["style", "task", "time_s"], rows)

    ratio = spans["blocking"] / spans["non-blocking"]
    emit(f"blocking / non-blocking O-phase ratio: {ratio:.2f}x (paper: 120/61 = 1.97x)")
    assert ratio > 1.4, "blocking style must pay visible synchronization overhead"

    # blocking timelines are fragmented: large gaps between successive sends
    def max_gap(task):
        events = task.send_events
        return max(
            (b - a for a, b in zip(events, events[1:])), default=0.0
        )

    blocking_tasks, _ = _o_phase(runs["blocking"])
    nonblocking_tasks, _ = _o_phase(runs["non-blocking"])
    blocking_gap = max(max_gap(task) for task in blocking_tasks)
    nonblocking_gap = max(max_gap(task) for task in nonblocking_tasks)
    emit(f"largest inter-send gap: blocking {blocking_gap:.2f}s vs "
         f"non-blocking {nonblocking_gap:.2f}s")
    assert blocking_gap > nonblocking_gap
