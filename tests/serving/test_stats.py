"""The serving stats collector: bounded memory, one percentile rule.

:class:`ServiceStats` keeps only the most recent ``LATENCY_WINDOW``
latencies, so a service that runs for days holds a fixed-size window, and
its percentiles use the same nearest-rank rule as the shard health board.
"""

from repro.serving.stats import LATENCY_WINDOW, ServiceStats, nearest_rank


def nearest_rank_oracle(values, fraction):
    ordered = sorted(values)
    return ordered[int(fraction * (len(ordered) - 1) + 0.5)]


def test_window_holds_the_most_recent_completions_only():
    # A deterministic, non-monotone sequence with the lifetime maximum first,
    # so it falls out of the window before the snapshot.
    latencies = [5.0] + [(i * 37 % 1009) / 1000.0 for i in range(LATENCY_WINDOW + 1500)]
    stats = ServiceStats()
    half = len(latencies) // 2
    for latency in latencies[:half]:
        stats.record_completed(latency)
    stats.record_completed_many(latencies[half:])

    assert len(stats._latencies) == LATENCY_WINDOW
    recent = latencies[-LATENCY_WINDOW:]
    report = stats.snapshot()
    assert report.completed == len(latencies)
    assert report.latency_p50_ms == nearest_rank_oracle(recent, 0.50) * 1000.0
    assert report.latency_p95_ms == nearest_rank_oracle(recent, 0.95) * 1000.0
    assert report.latency_p99_ms == nearest_rank_oracle(recent, 0.99) * 1000.0
    # The maximum is a lifetime figure, not a window one.
    assert report.latency_max_ms == 5000.0
    assert report.latency_p99_ms < report.latency_max_ms


def test_empty_collector_reports_zero_latencies():
    report = ServiceStats().snapshot()
    assert (report.latency_p50_ms, report.latency_p99_ms, report.latency_max_ms) == (
        0.0,
        0.0,
        0.0,
    )
    assert nearest_rank([], (0.5, 0.99)) == [0.0, 0.0]


def test_nearest_rank_picks_a_recorded_value_without_interpolation():
    values = [0.040, 0.010, 0.030, 0.020]
    assert nearest_rank(values, (0.0, 0.5, 0.95, 1.0)) == [0.010, 0.030, 0.040, 0.040]
