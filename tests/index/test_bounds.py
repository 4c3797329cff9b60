"""Certified score bounds: they never beat the score the kernel computes."""

import numpy as np
import pytest

from repro.errors import RetrievalIndexError
from repro.imaging.histogram import HistogramMetric, compare_histograms_batch
from repro.imaging.match_shapes import (
    ShapeDistance,
    hu_signature_matrix,
    match_shapes_batch,
)
from repro.index import TAU_PER_BIN, HistogramBound
from repro.pipelines.hybrid import HybridPipeline
from repro.pipelines.shape_only import ShapeOnlyPipeline

METRICS = list(HistogramMetric)


def _unit_histograms(rng, rows=12, bins=24):
    matrix = rng.random((rows, bins)) ** 3
    return matrix / matrix.sum(axis=1)[:, None]


def _kernel(queries, refs, metric):
    return np.vstack([compare_histograms_batch(q, refs, metric) for q in queries])


def _assert_holds(queries, refs, metric):
    """The bound is on the losing side of every computed kernel score."""
    bound = HistogramBound(refs, metric)(queries)
    exact = _kernel(queries, refs, metric)
    finite = np.isfinite(exact)
    if metric.higher_is_better:
        assert np.all(bound[finite] >= exact[finite])
    else:
        assert np.all(bound[finite] <= exact[finite])
    return bound, exact


def _near_duplicates(rng, base):
    """*base*, exact copies, and copies 1-3 ulp away in one bin."""
    rows = [base, base.copy()]
    for index in rng.choice(base.shape[0], size=8, replace=False):
        for direction in (np.inf, -np.inf):
            for steps in (1, 2, 3):
                row = base.copy()
                for _ in range(steps):
                    row[index] = np.nextafter(row[index], direction)
                rows.append(row)
    return np.vstack(rows)


class TestBoundHolds:
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_bound_holds_on_random_histograms(self, rng, metric):
        _assert_holds(_unit_histograms(rng, rows=9), _unit_histograms(rng, rows=40), metric)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_bound_holds_on_near_duplicates(self, rng, metric):
        refs = np.vstack([_near_duplicates(rng, row) for row in _unit_histograms(rng, rows=6)])
        _assert_holds(refs[::7], refs, metric)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_bound_holds_on_unnormalised_rows(self, rng, metric):
        counts = np.floor(rng.random((30, 16)) * 50.0)
        _assert_holds(counts[:6], counts, metric)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_bound_holds_on_sparse_rows(self, rng, metric):
        matrix = _unit_histograms(rng, rows=30, bins=48)
        matrix[rng.random(matrix.shape) < 0.7] = 0.0
        matrix = matrix[matrix.sum(axis=1) > 0]
        matrix /= matrix.sum(axis=1)[:, None]
        _assert_holds(matrix[:8], matrix, metric)


class TestExactFamilies:
    """Hellinger and Correlation bounds are the kernel's own formula as a
    matmul: equal to the score up to the rounding slack."""

    @pytest.mark.parametrize(
        "metric", [HistogramMetric.HELLINGER, HistogramMetric.CORRELATION], ids=lambda m: m.value
    )
    def test_bound_is_the_kernel_up_to_tau(self, rng, metric):
        bound, exact = _assert_holds(
            _unit_histograms(rng, rows=5), _unit_histograms(rng, rows=30), metric
        )
        np.testing.assert_allclose(bound, exact, rtol=0.0, atol=1e-10)

    def test_identical_row_bound_is_zero(self, rng):
        # The kernel scores an identical row about 1e-8, not 0 (the sqrt of
        # a rounding residue); the slack before the sqrt keeps the bound at 0.
        refs = _unit_histograms(rng, rows=10, bins=48)
        bound = HistogramBound(refs, HistogramMetric.HELLINGER)(refs)
        assert np.all(np.diag(bound) == 0.0)


class TestTrivialBounds:
    """Where a derivation does not hold the row always survives: -inf for
    a distance, +inf for a similarity."""

    @staticmethod
    def _trivial(metric):
        return np.inf if metric.higher_is_better else -np.inf

    def test_zero_mass_rows_are_trivial(self, rng):
        refs = _unit_histograms(rng, rows=4)
        refs[2] = 0.0
        bound = HistogramBound(refs, HistogramMetric.HELLINGER)(refs[:1])
        assert bound[0, 2] == -np.inf
        assert np.isfinite(bound[0, [0, 1, 3]]).all()

    def test_negative_rows_are_trivial(self, rng):
        refs = _unit_histograms(rng, rows=4)
        refs[1, 3] = -0.01
        bound = HistogramBound(refs, HistogramMetric.HELLINGER)(refs[:1])
        assert bound[0, 1] == -np.inf

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_nonfinite_library_rows_are_trivial(self, rng, metric):
        refs = _unit_histograms(rng, rows=6)
        refs[1, 0] = np.nan
        refs[3, 2] = np.inf
        refs[5] *= 1e200  # its squares overflow
        bound = HistogramBound(refs, metric)(refs[[0]])
        assert list(bound[0, [1, 3, 5]]) == [self._trivial(metric)] * 3
        assert np.isfinite(bound[0, [0, 2, 4]]).all()

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
    def test_nonfinite_query_is_trivial_everywhere(self, rng, metric):
        refs = _unit_histograms(rng, rows=5)
        queries = _unit_histograms(rng, rows=2)
        queries[1, 4] = np.nan
        bound = HistogramBound(refs, metric)(queries)
        assert np.all(bound[1] == self._trivial(metric))
        assert np.isfinite(bound[0]).all()

    def test_chi_square_query_without_positive_bin_is_trivial(self, rng):
        refs = _unit_histograms(rng, rows=5)
        bound = HistogramBound(refs, HistogramMetric.CHI_SQUARE)(np.zeros((1, 24)))
        assert np.all(bound == -np.inf)


class TestValidation:
    def test_empty_matrix_rejected(self):
        with pytest.raises(RetrievalIndexError):
            HistogramBound(np.zeros((0, 4)), HistogramMetric.HELLINGER)
        with pytest.raises(RetrievalIndexError):
            HistogramBound(np.zeros((4, 0)), HistogramMetric.HELLINGER)

    def test_bin_count_mismatch_rejected(self, rng):
        bound = HistogramBound(_unit_histograms(rng, rows=4), HistogramMetric.HELLINGER)
        with pytest.raises(RetrievalIndexError):
            bound(np.ones((2, 5)))

    def test_single_query_vector_is_accepted(self, rng):
        refs = _unit_histograms(rng, rows=4)
        bound = HistogramBound(refs, HistogramMetric.INTERSECTION)
        np.testing.assert_array_equal(bound(refs[0]), bound(refs[:1]))

    def test_tau_covers_the_rounding_budget(self, rng):
        # DESIGN.md derives a float error below (5B + 19) u, u = 2**-53.
        bound = HistogramBound(_unit_histograms(rng, rows=3, bins=48), HistogramMetric.HELLINGER)
        assert bound.tau == TAU_PER_BIN * 48
        for bins in (2, 16, 48, 96):
            assert TAU_PER_BIN * bins >= (5 * bins + 19) * 2.0**-53


class TestShapeAndHybridBounds:
    def test_shape_bound_is_the_exact_block_score(self, sns1, sns2):
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3).fit(sns1)
        pipeline.attach_index(4)
        features = [pipeline.extract_features(q) for q in list(sns2)[:10]]
        keys = np.vstack([q.keys for q in pipeline.retriever.bounded(features)])
        exact = np.vstack([pipeline._score_features(f) for f in features])
        np.testing.assert_array_equal(keys, exact)

    def test_sub_eps_hu_rows_are_bounded_exactly(self, rng):
        # The kernel skips sub-eps terms, so such a row scores over fewer
        # terms; its bound is still its exact score.
        refs = hu_signature_matrix(rng.random((6, 7)) * 1e-3 + 1e-4)
        refs[2, [1, 4]] = 0.0
        query = rng.random(7) * 1e-3 + 1e-4
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3)
        pipeline._reference_matrix = refs
        bound = pipeline._score_block([query])[0]
        np.testing.assert_array_equal(bound, match_shapes_batch(hu_signature_matrix(query)[0], refs, ShapeDistance.L3))

    def test_nan_hu_rows_bound_to_inf(self, sns1, sns2):
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3).fit(sns1)
        pipeline._reference_matrix = np.vstack([pipeline._reference_matrix, np.full(7, np.nan)])
        pipeline._references = sns1.subset(list(range(len(sns1))) + [0])
        pipeline.attach_index(4)
        query = pipeline.retriever.bounded([pipeline.extract_features(sns2[0])])[0]
        assert query.keys[-1] == np.inf

    def test_hybrid_bound_holds_on_every_row(self, config, sns1, sns2):
        pipeline = HybridPipeline(
            alpha=config.alpha, beta=config.beta, bins=config.histogram_bins
        ).fit(sns1)
        pipeline.attach_index(4)
        features = [pipeline.extract_features(q) for q in list(sns2)[:20] + list(sns1)[:5]]
        keys = np.vstack([q.keys for q in pipeline.retriever.bounded(features)])
        exact = np.vstack([pipeline._score_features(f) for f in features])
        assert np.all(keys <= exact)
