"""Serving workload tests + regressions for bugs exposed at scale.

Covers the open-loop arrival generator (determinism, arrival-process
shape, Zipf skew, validation), the serving runner's SLO accounting, the
histogram reservoir fix (first-N bias froze percentiles at warm-up),
and a soak asserting scheduler liveness, a clean lease ledger and
stable memory across thousands of queries with mixed deadlines and
cancellations.
"""

import gc
import json

import pytest

import repro
from repro.common.config import (
    HEARTBEAT_ENABLED,
    SCHED_MAX_CONCURRENT,
    SCHED_POLICY,
    SCHED_POOLS,
)
from repro.common.errors import AdmissionRejectedError, ConfigError
from repro.obs.metrics import Histogram
from repro.simulate.chaos import assert_clean_ledger
from repro.workloads.serving import (
    SERVING_CATALOG,
    Arrival,
    ServingConfig,
    generate_arrivals,
    load_serving_warehouse,
    run_serving,
)


class TestArrivalGenerator:
    def test_same_config_same_schedule(self):
        config = ServingConfig(num_queries=200, seed=3)
        assert generate_arrivals(config) == generate_arrivals(config)

    def test_seed_changes_schedule(self):
        base = ServingConfig(num_queries=200, seed=3)
        other = ServingConfig(num_queries=200, seed=4)
        assert generate_arrivals(base) != generate_arrivals(other)

    def test_poisson_mean_interarrival_matches_rate(self):
        config = ServingConfig(num_queries=5000, rate=4.0, seed=1)
        arrivals = generate_arrivals(config)
        mean_gap = arrivals[-1].when / len(arrivals)
        assert mean_gap == pytest.approx(1.0 / 4.0, rel=0.1)

    def test_bursty_bursts_are_denser_than_lulls(self):
        config = ServingConfig(
            num_queries=5000, process="bursty", rate=4.0,
            burst_factor=3.0, burst_fraction=0.25, burst_cycle=40.0, seed=1,
        )
        arrivals = generate_arrivals(config)
        burst_window = config.burst_fraction * config.burst_cycle
        in_burst = sum(
            1 for a in arrivals if a.when % config.burst_cycle < burst_window
        )
        in_lull = len(arrivals) - in_burst
        # burst phase is 1/4 of the time at 3x rate: its *density*
        # (arrivals per second of phase) must clearly exceed the lull's
        burst_density = in_burst / burst_window
        lull_density = in_lull / (config.burst_cycle - burst_window)
        assert burst_density > 2.0 * lull_density

    def test_zipf_popularity_is_head_heavy(self):
        config = ServingConfig(num_queries=3000, zipf_s=1.1, seed=5)
        counts = {}
        for arrival in generate_arrivals(config):
            counts[arrival.query_index] = counts.get(arrival.query_index, 0) + 1
        assert max(counts, key=counts.get) == 0
        assert counts[0] > 3 * counts.get(len(SERVING_CATALOG) - 1, 1)

    def test_sessions_pin_pools(self):
        config = ServingConfig(
            num_queries=2000, num_sessions=40,
            pool_weights={"bi": 3.0, "etl": 1.0}, seed=9,
        )
        arrivals = generate_arrivals(config)
        by_session = {}
        for arrival in arrivals:
            by_session.setdefault(arrival.session, set()).add(arrival.pool)
        assert all(len(pools) == 1 for pools in by_session.values())
        assert {a.pool for a in arrivals} == {"bi", "etl"}

    def test_deadline_fraction_is_respected(self):
        config = ServingConfig(
            num_queries=2000, deadline=30.0, deadline_fraction=0.25, seed=2,
        )
        arrivals = generate_arrivals(config)
        tagged = sum(1 for a in arrivals if a.deadline == 30.0)
        assert tagged == pytest.approx(500, rel=0.2)

    @pytest.mark.parametrize("kwargs", [
        {"num_queries": 0},
        {"num_sessions": 0},
        {"process": "weibull"},
        {"rate": 0.0},
        {"catalog": ()},
        {"pool_weights": {}},
        {"pool_weights": {"bi": -1.0}},
        {"deadline_fraction": 1.5},
        {"deadline_fraction": 0.5},  # fraction without a deadline
        {"process": "bursty", "burst_factor": 1.0},
        {"process": "bursty", "burst_fraction": 1.0},
        {"process": "bursty", "burst_factor": 5.0, "burst_fraction": 0.25},
    ])
    def test_invalid_configs_are_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)


def _serving_session(conf=None):
    base = {
        HEARTBEAT_ENABLED: False,
        SCHED_POLICY: "fair",
        SCHED_MAX_CONCURRENT: 8,
        SCHED_POOLS: "bi:weight=2; etl:weight=1",
    }
    base.update(conf or {})
    session = repro.connect(engine="llap", num_workers=4, conf=base)
    load_serving_warehouse(session.hdfs, session.metastore,
                           nominal_gb=0.25, sample_uservisits=600)
    return session


class TestRunServing:
    def test_report_accounting_is_consistent(self):
        config = ServingConfig(
            num_queries=120, num_sessions=30, rate=20.0,
            pool_weights={"bi": 2.0, "etl": 1.0}, seed=13,
        )
        arrivals = generate_arrivals(config)
        with _serving_session() as session:
            report = run_serving(session, arrivals)
        assert report.offered == 120
        assert report.submitted + report.rejected == report.offered
        assert (report.succeeded + report.failed + report.cancelled
                == report.submitted)
        assert report.succeeded > 0
        assert report.latency_p50 is not None
        assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
        assert report.queue_depth_peak >= 0
        assert sum(report.per_pool_submitted.values()) == report.submitted
        # the report must be JSON-serialisable as-is for the bench file
        encoded = json.loads(json.dumps(report.to_dict()))
        assert encoded["offered"] == 120

    def test_bounded_pools_reject_overload(self):
        config = ServingConfig(
            num_queries=150, num_sessions=20, rate=500.0,  # near-simultaneous
            pool_weights={"bi": 1.0}, seed=7,
        )
        arrivals = generate_arrivals(config)
        with _serving_session({
            SCHED_POOLS: "bi:weight=1,cap=2,queue=4",
            SCHED_MAX_CONCURRENT: 2,
        }) as session:
            report = run_serving(session, arrivals)
        assert report.rejected > 0
        assert report.rejection_rate == report.rejected / 150
        assert report.submitted + report.rejected == 150

    def test_deadline_misses_are_counted(self):
        config = ServingConfig(
            num_queries=60, num_sessions=10, rate=200.0,
            pool_weights={"bi": 1.0},
            deadline=0.05, deadline_fraction=1.0, seed=21,
        )
        arrivals = generate_arrivals(config)
        with _serving_session({SCHED_MAX_CONCURRENT: 2}) as session:
            report = run_serving(session, arrivals)
        assert report.deadline_misses > 0
        assert report.deadline_miss_rate > 0

    def test_queue_depth_series_is_decimated(self):
        config = ServingConfig(num_queries=200, rate=50.0, seed=3,
                               pool_weights={"bi": 1.0})
        arrivals = generate_arrivals(config)
        with _serving_session() as session:
            report = run_serving(session, arrivals, max_queue_samples=32)
        assert len(report.queue_depth_series) <= 33  # limit + final sample
        times = [when for when, _depth in report.queue_depth_series]
        assert times == sorted(times)


class TestHistogramReservoir:
    def test_reservoir_tracks_distribution_shift(self):
        """Keeping only the first N samples froze percentiles at warm-up;
        Algorithm R must let a later latency shift move p99."""
        hist = Histogram("serving.latency.test", max_samples=100)
        for _ in range(100):
            hist.observe(1.0)  # warm-up: fills the reservoir
        for _ in range(10_000):
            hist.observe(100.0)  # the real steady state
        assert hist.count == 10_100
        # ~99% of the stream is 100.0: a uniform reservoir is dominated
        # by it.  The pre-fix reservoir held only the hundred 1.0s.
        assert hist.percentile(99) == 100.0
        assert hist.percentile(50) == 100.0
        assert hist.max == 100.0

    def test_reservoir_is_deterministic_per_name(self):
        def build(name):
            hist = Histogram(name, max_samples=50)
            for value in range(1000):
                hist.observe(float(value))
            return hist._samples

        assert build("a") == build("a")
        assert build("a") != build("b")

    def test_reservoir_stays_bounded(self):
        hist = Histogram("bounded", max_samples=64)
        for value in range(5000):
            hist.observe(float(value))
        assert len(hist._samples) == 64
        assert hist.count == 5000


class TestServingSoak:
    def test_soak_liveness_ledger_and_memory(self):
        """>=5k queries with mixed deadlines and cancellations: the
        scheduler must stay live (every accepted query reaches a terminal
        state), the lease ledger must balance, and memory must not creep
        batch over batch (the agenda-compaction / callback-detach /
        aggregate-ledger fixes are exactly what this pins)."""
        import resource

        def run_batch(session, seed):
            config = ServingConfig(
                num_queries=2600, num_sessions=400, process="bursty",
                rate=40.0, pool_weights={"bi": 2.0, "etl": 1.0},
                deadline=20.0, deadline_fraction=0.3, seed=seed,
            )
            arrivals = generate_arrivals(config)
            scheduler = session.scheduler
            sim = scheduler.runtime.sim
            handles = []

            def dispatcher():
                for index, arrival in enumerate(arrivals):
                    delay = arrival.when - sim.now
                    if delay > 0:
                        yield sim.timeout(delay)
                    try:
                        handle = session.submit(arrival.sql, pool=arrival.pool,
                                                deadline=arrival.deadline)
                    except AdmissionRejectedError:
                        continue
                    handles.append(handle)
                    if index % 7 == 0:
                        handle.cancel()  # cancel-heavy: exercises compaction

            sim.spawn(dispatcher(), f"soak-dispatcher-{seed}")
            scheduler.drain()
            assert all(handle.done() for handle in handles), "liveness"
            assert_clean_ledger(scheduler.runtime.leases.ledger)
            return len(handles)

        with _serving_session({SCHED_MAX_CONCURRENT: 16}) as session:
            accepted = run_batch(session, seed=1)
            gc.collect()
            rss_after_first = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            accepted += run_batch(session, seed=2)
            gc.collect()
            rss_after_second = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # a second identical batch must not grow peak RSS much: the
            # agenda, event callbacks and ledger all stay bounded
            growth = rss_after_second - rss_after_first  # KiB on Linux
            assert growth < 64 * 1024, f"RSS grew {growth} KiB batch-over-batch"
            assert accepted >= 4000
            assert session.scheduler.queue_depth == 0
