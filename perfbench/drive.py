"""Single-thread load generators and the memory sampler.

One client thread generates, submits and collects every request; the
service's own flush thread (and shard workers) do the serving.  Closed loop
keeps N futures outstanding and submits the next one as each completes;
open loop submits on a seeded Poisson schedule and times each request from
when it was due, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.errors import ServingError

#: Seconds between memory samples taken from the client loop.
_SAMPLE_EVERY = 0.5
#: An open-loop client samples memory only with at least this much slack
#: before the next request is due.
_SAMPLE_SLACK = 0.01
#: Requests a closed-loop client keeps in flight (32 robots).
OUTSTANDING = 32
#: Seconds a closed loop runs before measuring starts (see ``closed_loop``).
WARMUP_S = 1.0


@dataclass
class Record:
    """One attempted request: when it started counting, how it ended."""

    index: int
    label: str
    start: float  # submit time (closed loop) or due time (open loop)
    submitted: float = 0.0
    done: float = 0.0
    answer: Any = None
    error: str | None = None  # "rejected" | "failed: <exception>"

    def collect(self, future: Future) -> None:
        try:
            self.answer = future.result()
        except Exception as exc:  # the service resolved the request with an error
            self.error = f"failed: {type(exc).__name__}"

    @property
    def latency_s(self) -> float:
        return self.done - self.start


class MemorySampler:
    """Peak summed proportional set size of this process and its workers.

    PSS splits pages shared between the front end and its forked shard
    workers, so the sum counts each resident page once.  The clients
    sample between requests, never while one is due.
    """

    def __init__(self) -> None:
        self.peak_kb = 0
        self._last = 0.0

    def due(self) -> bool:
        return time.perf_counter() - self._last >= _SAMPLE_EVERY

    def sample(self) -> None:
        self._last = time.perf_counter()
        pids = [os.getpid(), *(child.pid for child in multiprocessing.active_children())]
        total = sum(_pss_kb(pid) for pid in pids)
        self.peak_kb = max(self.peak_kb, total)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass  # exited while we looked
    return 0


class _Flight:
    """Requests in flight, keyed by their futures.

    Each future's done-callback stamps its record and queues the future, so
    the client finds finished requests without locking every future in
    flight, which would contend with the service resolving them.
    """

    def __init__(self) -> None:
        self.pending: dict[Future, Record] = {}
        self._finished: deque[Future] = deque()
        self._wake = threading.Event()

    def submit(self, submit: Callable[[Any], Future], record: Record, query: Any) -> None:
        record.submitted = time.perf_counter()
        try:
            future = submit(query)
        except ServingError:
            record.error = "rejected"
            record.done = record.submitted
            return
        self.pending[future] = record
        future.add_done_callback(partial(self._resolved, record))

    def _resolved(self, record: Record, future: Future) -> None:
        # Runs on the thread that resolves the future, at resolution time.
        record.done = time.perf_counter()
        self._finished.append(future)
        self._wake.set()

    def drain(self, block: bool) -> list[Record]:
        """Collect finished requests; if *block*, first wait for one.

        May return none even when blocking; callers loop until
        ``pending`` is empty.
        """
        if block and self.pending and not self._finished:
            self._wake.wait()
        self._wake.clear()
        finished = []
        while self._finished:
            future = self._finished.popleft()
            record = self.pending.pop(future)
            record.collect(future)
            finished.append(record)
        return finished


@dataclass
class Drive:
    """What a client saw: every attempted request, when measuring started,
    and how late each submission was against when it was due, in seconds.

    ``warmup`` holds the requests submitted before measuring started, and
    ``began`` is when the first of them was.
    """

    records: list[Record]
    started: float
    lateness: list[float]
    warmup: list[Record] = field(default_factory=list)
    began: float = 0.0


def closed_loop(
    submit: Callable[[Any], Future],
    make_query: Callable[[int], Any],
    seconds: float,
    sampler: MemorySampler,
    first_index: int = 0,
    on_submit: Callable[[float], None] | None = None,
) -> Drive:
    """Keep ``OUTSTANDING`` requests in flight for ``WARMUP_S`` + *seconds*.

    Only requests submitted after the warm-up are measured: the first
    flushes after an idle spell carry a burst of N requests at once, and
    that start-up transient would otherwise set the tail latency.
    Requests submitted before the deadline are all collected.  While
    requests are in flight the client generates the next refills ahead, so
    a freed slot is refilled at once and generation does not compete with
    the service at the moment a batch completes.  A refill is due when the
    request it replaces finished, so lateness measures how long the client
    took to notice and resubmit.  *on_submit* sees how many seconds
    measuring has run, just before each measured request is submitted.
    """
    records: list[Record] = []
    warm: list[Record] = []
    lateness: list[float] = []
    flight = _Flight()
    freed: list[float] = []
    ahead: deque[tuple[int, Any]] = deque()
    index = first_index

    def generate() -> None:
        nonlocal index
        ahead.append((index, make_query(index)))
        index += 1

    began = time.perf_counter()
    started = began + WARMUP_S
    deadline = started + seconds
    while True:
        while len(flight.pending) < OUTSTANDING and time.perf_counter() < deadline:
            if not ahead:
                generate()
            position, query = ahead.popleft()
            now = time.perf_counter()
            if now >= started and on_submit is not None:
                on_submit(now - started)
            record = Record(index=position, label=query.label, start=time.perf_counter())
            (records if now >= started else warm).append(record)
            flight.submit(submit, record, query)
            if freed:
                late = record.submitted - freed.pop()
                if now >= started:
                    lateness.append(max(0.0, late))
        if not flight.pending:
            break
        finished: list[Record] = []
        while not finished and len(ahead) < OUTSTANDING and time.perf_counter() < deadline:
            generate()
            finished = flight.drain(block=False)
        if not finished and sampler.due():
            sampler.sample()
            finished = flight.drain(block=False)
        if not finished:
            finished = flight.drain(block=True)
        freed = sorted((r.done for r in finished), reverse=True)
    return Drive(records, started, lateness, warm, began)


def open_loop(
    submit: Callable[[Any], Future],
    make_query: Callable[[int], Any],
    rate_hz: float,
    seconds: float,
    seed: int,
    sampler: MemorySampler,
    first_index: int = 0,
) -> Drive:
    """Submit ``rate_hz * seconds`` requests on a seeded Poisson schedule.

    Each record's ``start`` is its due time.  Each query is generated
    before it is due, so generation never delays a submission.
    """
    # A Poisson process conditioned on its arrival count: the count is
    # fixed, so throughput does not swing with the seed, and the arrival
    # times are sorted uniform draws over the phase.
    count = max(1, round(rate_hz * seconds))
    offsets = np.sort(
        np.random.default_rng([seed, first_index, 0xA11]).uniform(0.0, seconds, count)
    )
    records: list[Record] = []
    lateness: list[float] = []
    flight = _Flight()
    started = time.perf_counter()
    for position, offset in enumerate(offsets):
        due = started + float(offset)
        query = make_query(first_index + position)
        while True:
            flight.drain(block=False)
            wait_s = due - time.perf_counter()
            if wait_s <= 0:
                break
            if wait_s > _SAMPLE_SLACK and sampler.due():
                sampler.sample()
                continue
            time.sleep(min(wait_s, 0.002))
        record = Record(index=first_index + position, label=query.label, start=due)
        records.append(record)
        flight.submit(submit, record, query)
        lateness.append(max(0.0, record.submitted - due))
    while flight.pending:
        flight.drain(block=True)
    return Drive(records, started, lateness, began=started)
