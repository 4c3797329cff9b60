"""Per-shard health accounting: rolling windows and a breaker state machine.

Every shard worker the :class:`~repro.serving.shards.ShardedRecognitionService`
scatters to gets one :class:`ShardHealth` tracker.  The tracker is fed the
outcome of each dispatch (success + latency, or error) and answers the one
question the scatter path asks before every flush: *may this shard be
dispatched to right now?*

The state machine::

    HEALTHY ──(errors accumulate in the window)──> DEGRADED
    DEGRADED ──(window clears)──> HEALTHY
    DEGRADED/HEALTHY ──(consecutive errors)──> EJECTED   (breaker open)
    EJECTED ──(probation_after skipped rounds)──> PROBATION  (half-open)
    PROBATION ──(recover_successes probes pass)──> HEALTHY
    PROBATION ──(a probe fails)──> EJECTED

is deliberately **counter-based**: transitions depend only on the sequence
of recorded outcomes and the number of dispatch rounds, never on the
wall clock, so a health trajectory replays bit-identically in tests and
under any scheduler interleaving.  Latencies are recorded for observability
(window percentiles feed the health report) but never drive transitions.

While a shard is EJECTED its breaker is *open*: the scatter path skips it
(no stalled barrier) and serves its rows through the certified in-process
rescue path with degraded-flagged predictions.  PROBATION is the half-open
breaker: exactly one dispatch round is let through per probe; a success
stream closes the breaker, a failure re-opens it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from repro.errors import ServingError
from repro.serving.stats import nearest_rank


class ShardState(Enum):
    """Breaker states of one serving shard."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    EJECTED = "ejected"
    PROBATION = "probation"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds of the :class:`ShardHealth` state machine.

    ``window`` bounds the rolling outcome/latency record.  A shard turns
    DEGRADED once ``degrade_errors`` errors sit in the window, and EJECTED
    (breaker open) after ``eject_consecutive`` consecutive errors.  An
    ejected shard sits out ``probation_after`` dispatch rounds, then gets
    probe rounds; ``recover_successes`` consecutive probe successes close
    the breaker and reset the window.
    """

    window: int = 16
    degrade_errors: int = 2
    eject_consecutive: int = 3
    probation_after: int = 3
    recover_successes: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ServingError(f"window must be >= 1, got {self.window}")
        if self.degrade_errors < 1:
            raise ServingError(
                f"degrade_errors must be >= 1, got {self.degrade_errors}"
            )
        if self.eject_consecutive < 1:
            raise ServingError(
                f"eject_consecutive must be >= 1, got {self.eject_consecutive}"
            )
        if self.probation_after < 1:
            raise ServingError(
                f"probation_after must be >= 1, got {self.probation_after}"
            )
        if self.recover_successes < 1:
            raise ServingError(
                f"recover_successes must be >= 1, got {self.recover_successes}"
            )


class ShardHealth:
    """Rolling-window health tracker and circuit breaker for one shard.

    The service's flush thread drives :meth:`allow_dispatch` /
    :meth:`record_success` / :meth:`record_error`; swap and report paths
    read snapshots from other threads, so every touch of the mutable state
    happens under the tracker's lock.
    """

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy or HealthPolicy()
        self._lock = threading.RLock()  # helpers re-enter under the public methods
        self._state = ShardState.HEALTHY
        #: Rolling 0/1 outcome window, newest last (1 = success).
        self._outcomes: list[int] = []
        #: Rolling success-latency window (seconds), newest last.
        self._latencies: list[float] = []
        self._consecutive_errors = 0
        self._consecutive_successes = 0
        self._rounds_ejected = 0
        self._dispatches = 0
        self._errors_total = 0
        self._ejections = 0
        self._probes = 0

    # -- dispatch gate --------------------------------------------------------

    @property
    def state(self) -> ShardState:
        with self._lock:
            return self._state

    def allow_dispatch(self) -> bool:
        """Whether the scatter may dispatch to this shard this round.

        Every call counts one dispatch round — this is the state machine's
        clock.  An EJECTED shard answers ``False`` for ``probation_after``
        rounds, then flips itself to PROBATION and lets probes through.
        """
        with self._lock:
            if self._state is not ShardState.EJECTED:
                return True
            self._rounds_ejected += 1
            if self._rounds_ejected >= self.policy.probation_after:
                self._state = ShardState.PROBATION
                self._consecutive_successes = 0
                self._probes += 1
                return True
            return False

    # -- outcome recording ----------------------------------------------------

    def record_success(self, latency_s: float = 0.0) -> ShardState:
        """One dispatch to this shard returned a result."""
        with self._lock:
            self._dispatches += 1
            self._consecutive_errors = 0
            self._push(1, latency_s)
            if self._state is ShardState.PROBATION:
                self._consecutive_successes += 1
                if self._consecutive_successes >= self.policy.recover_successes:
                    self._reset_to_healthy()
            elif self._state is ShardState.DEGRADED:
                if self._window_errors() < self.policy.degrade_errors:
                    self._state = ShardState.HEALTHY
            return self._state

    def record_error(self) -> ShardState:
        """One dispatch to this shard failed (fault, crash, corruption)."""
        with self._lock:
            self._dispatches += 1
            self._errors_total += 1
            self._consecutive_errors += 1
            self._consecutive_successes = 0
            self._push(0, None)
            if self._state is ShardState.PROBATION:
                self._eject()
            elif self._consecutive_errors >= self.policy.eject_consecutive:
                self._eject()
            elif self._window_errors() >= self.policy.degrade_errors:
                self._state = ShardState.DEGRADED
            return self._state

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of the tracker (the service report's shape)."""
        with self._lock:
            return {
                "state": self._state.value,
                "dispatches": self._dispatches,
                "errors": self._errors_total,
                "ejections": self._ejections,
                "probes": self._probes,
                "window_errors": self._window_errors(),
                "window_latency_p95_ms": round(
                    nearest_rank(self._latencies, (0.95,))[0] * 1000.0, 3
                ),
            }

    # -- internals (re-entrant under the public methods' lock) ----------------

    def _push(self, outcome: int, latency_s: float | None) -> None:
        with self._lock:
            self._outcomes.append(outcome)
            if len(self._outcomes) > self.policy.window:
                del self._outcomes[0]
            if latency_s is not None:
                self._latencies.append(latency_s)
                if len(self._latencies) > self.policy.window:
                    del self._latencies[0]

    def _window_errors(self) -> int:
        return len(self._outcomes) - sum(self._outcomes)

    def _eject(self) -> None:
        with self._lock:
            self._state = ShardState.EJECTED
            self._ejections += 1
            self._rounds_ejected = 0
            self._consecutive_successes = 0

    def _reset_to_healthy(self) -> None:
        with self._lock:
            self._state = ShardState.HEALTHY
            self._outcomes.clear()
            self._latencies.clear()
            self._consecutive_errors = 0
            self._consecutive_successes = 0
            self._rounds_ejected = 0
