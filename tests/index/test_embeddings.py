"""Row embeddings behind the exact histogram bounds.

For Hellinger (square-root-normalised rows) and Correlation (centred rows
scaled to unit norm) :class:`~repro.index.HistogramBound` embeds every row
so that one inner product is the kernel's own score: the bound ranks the
library exactly as the kernel does.  A row the embedding cannot represent
takes the trivial bound.
"""

import numpy as np
import pytest

from repro.imaging.histogram import HistogramMetric, compare_histograms_batch
from repro.index import HistogramBound


def _unit_histograms(rng, rows=12, bins=24):
    matrix = rng.random((rows, bins)) ** 3
    return matrix / matrix.sum(axis=1)[:, None]


class TestExactHistogramRankings:
    @pytest.mark.parametrize(
        "metric, higher_is_better",
        [
            (HistogramMetric.HELLINGER, False),
            (HistogramMetric.CORRELATION, True),
        ],
    )
    def test_ranking_matches_kernel(self, rng, metric, higher_is_better):
        assert metric.higher_is_better == higher_is_better
        refs = _unit_histograms(rng, rows=30)
        query = _unit_histograms(rng, rows=1)
        bound = HistogramBound(refs, metric)(query)[0]
        exact = compare_histograms_batch(query[0], refs, metric)
        sign = -1.0 if higher_is_better else 1.0
        assert list(np.argsort(sign * bound)) == list(np.argsort(sign * exact))


class TestDegenerateRows:
    def test_zero_variance_correlation_row_is_degenerate(self):
        refs = np.full((2, 8), 0.125)
        refs[1] = np.linspace(0.0, 1.0, 8)
        bound = HistogramBound(refs, HistogramMetric.CORRELATION)(refs[1:])
        assert bound[0, 0] == np.inf
        assert np.isfinite(bound[0, 1])
