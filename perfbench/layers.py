"""Per-layer tracing from outside the program.

The traced run wraps calls into each layer's public functions and objects
(the service's stats recorder, the pipeline's ``stopwatch``, the
retriever, ``merge_champions``, ``build_store`` and ``swap_store``) and
restores every one of them afterwards.  Nothing inside
``src/`` records spans; spans recorded in the program are a later change.
"""

from __future__ import annotations

import time
from typing import Any, Callable

_MISSING = object()


class Tracer:
    """Wraps layer entry points and keeps what they saw in memory."""

    def __init__(self) -> None:
        self.flush_events: list[tuple[str, float, int]] = []
        self.index_calls: list[tuple[float, int, bool]] = []
        self.merge_s: list[float] = []
        self.build_s: list[float] = []
        self.swap_s: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, name: str, wrap: Callable[[Any], Any]) -> None:
        before = vars(owner).get(name, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        setattr(owner, name, wrap(getattr(owner, name)))
        self._undo.append((owner, name, before))

    def restore(self) -> None:
        while self._undo:
            owner, name, before = self._undo.pop()
            if before is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, before)

    # -- serving.batcher / flush path ---------------------------------------

    def watch_service(self, service: Any) -> None:
        """Flush spans from the stats calls that open and close a flush."""
        events = self.flush_events

        def on_batch(original: Callable) -> Callable:
            def record_batch(size: int) -> None:
                events.append(("start", time.perf_counter(), size))
                original(size)

            return record_batch

        def on_done(original: Callable) -> Callable:
            def record_completed_many(latencies: list) -> None:
                original(latencies)
                events.append(("end", time.perf_counter(), len(latencies)))

            return record_completed_many

        self._patch(service.stats, "record_batch", on_batch)
        self._patch(service.stats, "record_completed_many", on_done)

    def flush_spans(self) -> list[float]:
        """Seconds from each flush's start to its completion record."""
        spans = []
        opened: float | None = None
        for kind, at, _ in self.flush_events:
            if kind == "start":
                opened = at
            elif opened is not None:
                spans.append(at - opened)
                opened = None
        return spans

    def batch_sizes(self) -> list[int]:
        return [size for kind, _, size in self.flush_events if kind == "start"]

    def queue_waits(self, records: list) -> list[float]:
        """Seconds from each request's submit to the start of its flush.

        The batcher flushes its queue first in, first out and nothing is
        shed, so the flushes, in order, carry the admitted requests in the
        order the single client thread submitted them.
        """
        admitted = iter(sorted((r for r in records if r.error != "rejected"), key=lambda r: r.submitted))
        waits = []
        for kind, at, size in self.flush_events:
            if kind == "start":
                for _ in range(size):
                    record = next(admitted, None)
                    if record is not None:
                        waits.append(at - record.submitted)
        return waits

    # -- index ---------------------------------------------------------------

    def watch_retriever(self, retriever: Any) -> None:
        calls = self.index_calls

        def wrap(original: Callable) -> Callable:
            def champion(features: Any) -> Any:
                started = time.perf_counter()
                hit = original(features)
                calls.append((time.perf_counter() - started, hit.candidates, hit.exhaustive))
                return hit

            return champion

        self._patch(retriever, "champion", wrap)

    # -- serving.shards and store -------------------------------------------

    def watch_shards(self, service: Any) -> None:
        import repro.serving.shards as shards
        import repro.store.builder as builder

        self._patch(shards, "merge_champions", self._timed(self.merge_s))
        # enroll() imports build_store at call time, so the module
        # attribute is what it calls.
        self._patch(builder, "build_store", self._timed(self.build_s))
        self._patch(service, "swap_store", self._timed(self.swap_s))

    @staticmethod
    def _timed(sink: list[float]) -> Callable[[Callable], Callable]:
        def wrap(original: Callable) -> Callable:
            def timed(*args: Any, **kwargs: Any) -> Any:
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    sink.append(time.perf_counter() - started)

            return timed

        return wrap
