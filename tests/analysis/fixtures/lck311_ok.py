"""Clean twin: a lock-owning error log whose RLock re-enters safely."""

import threading


class ErrorLog:
    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.tripped = False

    def record_error(self) -> None:
        with self._lock:
            self._trip()

    def _trip(self) -> None:
        with self._lock:
            self.tripped = True
