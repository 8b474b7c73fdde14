"""Exception hierarchy for the repro package.

Each layer raises its own subclass so callers can distinguish a query-text
problem (:class:`ParseError`), a schema problem (:class:`SemanticError`),
a planning problem (:class:`PlanError`) and a runtime failure
(:class:`ExecutionError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """Invalid or missing configuration value."""


class ParseError(ReproError):
    """The HiveQL text could not be tokenized or parsed.

    Carries the offending line/column when known.
    """

    def __init__(self, message: str, line: int = -1, column: int = -1):
        location = f" at line {line}:{column}" if line >= 0 else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SemanticError(ReproError):
    """The query parsed but references unknown tables/columns or mis-typed
    expressions."""


class PlanError(ReproError):
    """Logical or physical plan construction failed."""


class ExecutionError(ReproError):
    """A task failed at runtime inside one of the execution engines."""


class JobAbortedError(ExecutionError):
    """A gang-scheduled job was torn down because one of its ranks was
    interrupted (node crash, injected task failure).

    The DataMPI engine raises this per attempt; the driver-level retry
    loop consumes it and resubmits the job under exponential backoff.
    """

    def __init__(self, message: str, job_id: str = "", cause: object = None):
        super().__init__(message)
        self.job_id = job_id
        self.cause = cause


class RetryExhaustedError(ExecutionError):
    """Every resubmission of a gang-scheduled job failed.

    Carries the attempt count.  The driver then re-runs the plan on the
    engine the failing one names in ``degrades_to`` (DataMPI: hadoop),
    or lets the error surface when it names none.
    """

    def __init__(self, message: str, job_id: str = "", attempts: int = 0):
        super().__init__(message)
        self.job_id = job_id
        self.attempts = attempts


class QueryTimeoutError(ExecutionError):
    """A query missed its deadline and was cancelled by the scheduler.

    Carries the query id and the deadline (simulated seconds) so SLO
    accounting can distinguish deadline misses from genuine failures.
    """

    def __init__(self, message: str, query_id: str = "", deadline: float = 0.0):
        super().__init__(message)
        self.query_id = query_id
        self.deadline = deadline


class AdmissionRejectedError(ReproError):
    """The workload scheduler refused to admit a submitted query.

    Raised synchronously by ``Session.submit`` under the ``capacity``
    policy when the target pool is running at its concurrency cap *and*
    its bounded wait queue is full.  Carries the pool state so callers
    can shed load or resubmit elsewhere.
    """

    def __init__(self, message: str, pool: str = "", running: int = 0,
                 queued: int = 0, max_concurrent: int = 0, max_queue: int = 0):
        super().__init__(message)
        self.pool = pool
        self.running = running
        self.queued = queued
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue


class QueryCancelledError(ReproError):
    """``QueryHandle.result()`` was called on a query cancelled before it
    started executing."""

    def __init__(self, message: str, query_id: str = ""):
        super().__init__(message)
        self.query_id = query_id


class StorageError(ReproError):
    """HDFS-simulation or file-format failure (missing path, corrupt
    stripe, bad split)."""
