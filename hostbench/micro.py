"""Standalone loops over the two substrate layers every query pays.

Three discrete-event kernels (timeout churn, processor-shared transfers
on one ``Bandwidth``, a schedule-then-cancel agenda) and three kv serde
loops over a HiBench-shaped pair corpus.  Each loop repeats a fixed
round of work until its time budget is spent and reports operations per
wall second.  Only public names of ``repro.simulate`` and
``repro.common.kv`` are used.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from repro.common.kv import KeyValue, deserialize_kv, kv_size, serialize_kv
from repro.simulate import Bandwidth, Simulator

LOOP_SECONDS = 2.0
ROUND = 2000  # operations per round; a round takes a few milliseconds


def _rate(round_fn: Callable[[], int], seconds: float) -> float:
    """Operations per second of *round_fn* (returns its operation count),
    repeated until *seconds* have passed."""
    operations = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        operations += round_fn()
        now = time.perf_counter()
        if now >= deadline:
            return operations / (now - start)


def _timeout_churn() -> int:
    """20 processes each sleeping through their share of ROUND timeouts."""
    sim = Simulator()
    sleepers = 20
    naps = ROUND // sleepers

    def sleeper(step: float):
        for _ in range(naps):
            yield sim.timeout(step)

    for index in range(sleepers):
        sim.spawn(sleeper(0.5 + index * 0.01))
    sim.run()
    return sleepers * naps


def _bandwidth_transfers() -> int:
    """40 flows keep one link shared 40 ways; every completion re-shares
    the link, which is the cost the shuffle pays."""
    sim = Simulator()
    link = Bandwidth(sim, 100e6)
    flows = 40
    transfers = ROUND // flows

    def flow(index: int):
        for step in range(transfers):
            yield link.transfer(1e5 * (1 + (index + step) % 7))

    for index in range(flows):
        sim.spawn(flow(index))
    sim.run()
    return flows * transfers


def _cancel_agenda() -> int:
    """Deadline-timer pattern: schedule ROUND far timers, cancel all but
    every tenth before they fire, then drain."""
    sim = Simulator()
    handles = [
        sim.call_at(10.0 + index * 0.001, _noop) for index in range(ROUND)
    ]
    for index, handle in enumerate(handles):
        if index % 10:
            sim.cancel(handle)
    sim.run()
    return ROUND


def _noop() -> None:
    pass


def _corpus(seed: int):
    """Pairs shaped like HiBench's shuffles: (sourceip) -> (adrevenue)
    for AGGREGATE and (desturl) -> (tag, sourceip, adrevenue) for JOIN."""
    rng = random.Random(seed)
    pairs = []
    for index in range(ROUND):
        ip = ".".join(str(rng.randrange(256)) for _ in range(4))
        revenue = round(rng.uniform(0.0, 1000.0), 4)
        if index % 2:
            pairs.append(KeyValue((ip,), (revenue,)))
        else:
            url = f"http://site{rng.randrange(50000)}.example/page{index}"
            pairs.append(KeyValue((url,), (1, ip, revenue)))
    return pairs


def run(seed: int, seconds: float = LOOP_SECONDS) -> Dict[str, float]:
    """Every micro metric, each loop run for *seconds*."""
    pairs = _corpus(seed)
    buffers = [serialize_kv(pair) for pair in pairs]

    def serialize() -> int:
        for pair in pairs:
            serialize_kv(pair)
        return len(pairs)

    def deserialize() -> int:
        for buffer in buffers:
            deserialize_kv(buffer)
        return len(buffers)

    def size() -> int:
        # kv_size, not KeyValue.serialized_size: the latter memoizes
        for pair in pairs:
            kv_size(pair)
        return len(pairs)

    return {
        "simulate.micro.timeout_events_per_s": _rate(_timeout_churn, seconds),
        "simulate.micro.bandwidth_transfers_per_s":
            _rate(_bandwidth_transfers, seconds),
        "simulate.micro.cancel_events_per_s": _rate(_cancel_agenda, seconds),
        "kv.micro.serialize_pairs_per_s": _rate(serialize, seconds),
        "kv.micro.deserialize_pairs_per_s": _rate(deserialize, seconds),
        "kv.micro.size_pairs_per_s": _rate(size, seconds),
    }
