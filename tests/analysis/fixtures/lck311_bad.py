"""Mutant of the error log with its RLock demoted to a Lock:
record_error holds it and calls _trip, which takes it again — the first
recorded error hangs the caller."""

import threading


class ErrorLog:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.tripped = False

    def record_error(self) -> None:
        with self._lock:
            self._trip()

    def _trip(self) -> None:
        with self._lock:
            self.tripped = True
