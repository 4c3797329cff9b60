"""Bit-identity of the cross-query block kernels.

``match_shapes_block`` / ``compare_histograms_block`` score a whole query
block against the reference matrix at once; they back the serving fast path,
whose contract is that micro-batched answers equal sequential ones *bit for
bit*.  So unlike the per-query batch kernels (tolerance-tested against the
scalar loop), every row of a block result must be ``np.array_equal`` to the
corresponding single-query batch call — including NaN rows, degenerate
histograms and blocks that cross the kernels' cache-sized tiles.  The
tile-boundary cases also compare against a local oracle: the broadcast
expressions the kernels used before they were tiled, copied verbatim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ImageError
from repro.imaging.histogram import (
    HistogramMetric,
    compare_histograms_batch,
    compare_histograms_block,
    stack_histograms,
)
from repro.imaging.match_shapes import (
    _EPS,
    ShapeDistance,
    hu_signature_matrix,
    match_shapes_batch,
    match_shapes_block,
)
from repro.imaging.tiles import TILE_ELEMENTS, tile_steps

from tests.imaging.test_batch_kernels import random_histograms, random_hu_rows

DISTANCES = tuple(ShapeDistance)
METRICS = tuple(HistogramMetric)

#: Block sizes straddling 32, the serving batcher's default flush size.
CHUNK_STRADDLE = (1, 2, 31, 32, 33, 70)

#: Query counts of the tile-boundary cases.
TILE_QUERIES = (1, 16, 32, 33, 70)

#: Reference counts of the tile-boundary cases, as functions of the
#: reference rows per tile (``step``, derived from ``TILE_ELEMENTS``).
TILE_VIEWS = {
    "1": lambda step: 1,
    "step-1": lambda step: step - 1,
    "step": lambda step: step,
    "step+1": lambda step: step + 1,
    "3step+5": lambda step: 3 * step + 5,
    "10000": lambda step: 10_000,
}

#: The served colour width: 16 bins per RGB channel.
HIST_WIDTH = 48


def views_per_tile(queries: int, width: int) -> int:
    return tile_steps(queries, width)[1]


def adversarial_histograms(
    rng: np.random.Generator, count: int, width: int, step: int, degenerate: bool = True
):
    """Normalised rows with zero bins, plus zero-mass, constant and
    duplicate rows placed on both sides of the first tile boundary.
    Without *degenerate* the specials are duplicates only."""
    rows = rng.random((count, width)) ** 4
    rows[rng.random((count, width)) < 0.3] = 0.0
    rows[:, 0] += 1e-3  # no accidental zero-mass rows
    rows /= rows.sum(axis=1, keepdims=True)
    marks = sorted({0, step - 1, step, count - 1} & set(range(count)))
    for position, index in enumerate(marks):
        if degenerate and position % 3 == 0:
            rows[index] = 0.0
        elif degenerate and position % 3 == 1:
            rows[index] = 1.0 / width
        else:
            rows[index] = rows[marks[0]]
    if count > 2:
        rows[count // 2] = rows[(count // 2) - 1]
    return rows


def adversarial_hu_rows(rng: np.random.Generator, count: int, step: int):
    """Hu rows with sub-eps and NaN terms, NaN rows and duplicates, the
    specials again on both sides of the first tile boundary."""
    rows = random_hu_rows(rng, count)
    marks = sorted({0, step - 1, step, count - 1} & set(range(count)))
    for position, index in enumerate(marks):
        if position % 3 == 0:
            rows[index, 2] = np.nan
        elif position % 3 == 1:
            rows[index, :3] = _EPS / 10.0
        else:
            rows[index] = rows[marks[0] - 1] if marks[0] > 0 else rows[-1]
    if count > 2:
        rows[count // 2] = rows[(count // 2) - 1]
    return rows


def oracle_histograms_block(queries, refs, metric):
    """The pre-tiling ``compare_histograms_block``, query by query in
    chunks of 8 (rows are independent) so the broadcast stays small."""
    if metric == HistogramMetric.CHI_SQUARE:
        return np.vstack(
            [compare_histograms_batch(row, refs, metric) for row in queries]
        )
    if queries.shape[0] > 8:
        return np.vstack(
            [
                oracle_histograms_block(queries[i : i + 8], refs, metric)
                for i in range(0, queries.shape[0], 8)
            ]
        )

    if metric == HistogramMetric.CORRELATION:
        d1 = queries - queries.mean(axis=1)[:, None]
        d2 = refs - refs.mean(axis=1)[:, None]
        denom = np.sqrt((d1**2).sum(axis=1)[:, None] * (d2**2).sum(axis=1)[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (d1[:, None, :] * d2[None, :, :]).sum(axis=2) / denom
        degenerate = denom == 0
        if degenerate.any():
            for qi, ri in np.argwhere(degenerate):
                scores[qi, ri] = 1.0 if np.allclose(queries[qi], refs[ri]) else 0.0
        return scores

    if metric == HistogramMetric.INTERSECTION:
        return np.minimum(queries[:, None, :], refs[None, :, :]).sum(axis=2)

    if metric == HistogramMetric.HELLINGER:
        mean1 = queries.mean(axis=1)
        means = refs.mean(axis=1)
        denom = np.sqrt(mean1[:, None] * means[None, :]) * queries.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            bc = np.sqrt(queries[:, None, :] * refs[None, :, :]).sum(axis=2) / denom
            scores = np.sqrt(np.maximum(0.0, 1.0 - bc))
        degenerate = denom == 0
        if degenerate.any():
            for qi, ri in np.argwhere(degenerate):
                scores[qi, ri] = 0.0 if np.allclose(queries[qi], refs[ri]) else 1.0
        return scores
    raise AssertionError(metric)


def oracle_shapes_block(queries, refs, method):
    """The pre-tiling ``match_shapes_block``, in query chunks of 8."""
    if queries.shape[0] > 8:
        return np.vstack(
            [
                oracle_shapes_block(queries[i : i + 8], refs, method)
                for i in range(0, queries.shape[0], 8)
            ]
        )
    nan_queries = np.isnan(queries).any(axis=1)
    nan_refs = np.isnan(refs).any(axis=1)
    usable = (np.abs(queries) > _EPS)[:, None, :] & (np.abs(refs) > _EPS)[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if method == ShapeDistance.L1:
            terms = np.abs(1.0 / queries[:, None, :] - 1.0 / refs[None, :, :])
            scores = np.where(usable, terms, 0.0).sum(axis=2)
        elif method == ShapeDistance.L2:
            terms = np.abs(queries[:, None, :] - refs[None, :, :])
            scores = np.where(usable, terms, 0.0).sum(axis=2)
        elif method == ShapeDistance.L3:
            terms = (
                np.abs(queries[:, None, :] - refs[None, :, :])
                / np.abs(queries)[:, None, :]
            )
            scores = np.where(usable, terms, -np.inf).max(axis=2)
        else:
            raise AssertionError(method)
    scores = np.asarray(scores, dtype=np.float64)
    scores[~usable.any(axis=2)] = 0.0
    scores[:, nan_refs] = np.inf
    scores[nan_queries, :] = np.inf
    return scores


class TestMatchShapesBlock:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), distance=st.sampled_from(DISTANCES))
    def test_rows_bitwise_equal_per_query_batch(self, seed, distance):
        rng = np.random.default_rng(seed)
        queries = int(rng.integers(1, 40))
        views = int(rng.integers(1, 25))
        query_matrix = hu_signature_matrix(random_hu_rows(rng, queries))
        ref_matrix = hu_signature_matrix(random_hu_rows(rng, views))

        block = match_shapes_block(query_matrix, ref_matrix, distance)
        assert block.shape == (queries, views)
        for row_index in range(queries):
            expected = match_shapes_batch(
                query_matrix[row_index], ref_matrix, distance
            )
            assert np.array_equal(block[row_index], expected, equal_nan=True)

    @pytest.mark.parametrize("queries", CHUNK_STRADDLE)
    def test_chunking_is_invisible(self, queries):
        # Blocks of any size must score identically to per-row calls —
        # how the kernel splits a block cannot change a single bit.
        rng = np.random.default_rng(queries)
        query_matrix = hu_signature_matrix(random_hu_rows(rng, queries))
        ref_matrix = hu_signature_matrix(random_hu_rows(rng, 9))
        for distance in DISTANCES:
            block = match_shapes_block(query_matrix, ref_matrix, distance)
            rows = np.vstack(
                [
                    match_shapes_batch(query_matrix[i], ref_matrix, distance)
                    for i in range(queries)
                ]
            )
            assert np.array_equal(block, rows, equal_nan=True)

    @pytest.mark.parametrize("distance", DISTANCES)
    def test_nan_rows_score_inf_both_ways(self, distance):
        query_matrix = hu_signature_matrix(
            np.vstack([np.full(7, 0.25), np.full(7, np.nan)])
        )
        ref_matrix = hu_signature_matrix(
            np.vstack([np.full(7, 0.5), np.full(7, np.nan)])
        )
        block = match_shapes_block(query_matrix, ref_matrix, distance)
        assert np.isinf(block[1]).all()  # NaN query row
        assert np.isinf(block[:, 1]).all()  # NaN reference row
        assert np.isfinite(block[0, 0])

    def test_shape_validation(self):
        refs = hu_signature_matrix(np.ones((2, 7)))
        with pytest.raises(ImageError):
            match_shapes_block(np.ones(7), refs)  # 1-D query matrix
        with pytest.raises(ImageError):
            match_shapes_block(np.ones((2, 5)), refs)  # wrong width


class TestCompareHistogramsBlock:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), metric=st.sampled_from(METRICS))
    def test_rows_bitwise_equal_per_query_batch(self, seed, metric):
        rng = np.random.default_rng(seed)
        queries = int(rng.integers(1, 40))
        views = int(rng.integers(1, 20))
        width = int(rng.integers(1, 64))
        query_matrix = stack_histograms(random_histograms(rng, queries, width))
        ref_matrix = stack_histograms(random_histograms(rng, views, width))

        block = compare_histograms_block(query_matrix, ref_matrix, metric)
        assert block.shape == (queries, views)
        for row_index in range(queries):
            expected = compare_histograms_batch(
                query_matrix[row_index], ref_matrix, metric
            )
            assert np.array_equal(block[row_index], expected, equal_nan=True)

    @pytest.mark.parametrize("queries", CHUNK_STRADDLE)
    def test_chunking_is_invisible(self, queries):
        rng = np.random.default_rng(queries)
        query_matrix = stack_histograms(random_histograms(rng, queries, 24))
        ref_matrix = stack_histograms(random_histograms(rng, 7, 24))
        for metric in METRICS:
            block = compare_histograms_block(query_matrix, ref_matrix, metric)
            rows = np.vstack(
                [
                    compare_histograms_batch(query_matrix[i], ref_matrix, metric)
                    for i in range(queries)
                ]
            )
            assert np.array_equal(block, rows, equal_nan=True)

    @pytest.mark.parametrize("metric", METRICS)
    def test_degenerate_rows_match_per_query_exactly(self, metric):
        # Zero-mass and constant rows exercise every degenerate branch on
        # both the query and the reference axis simultaneously.
        width = 12
        rows = np.vstack(
            [
                np.zeros(width),
                np.full(width, 0.25),
                np.ones(width) / width,
                np.linspace(0.0, 1.0, width),
            ]
        )
        block = compare_histograms_block(
            stack_histograms(rows), stack_histograms(rows), metric
        )
        for row_index in range(len(rows)):
            expected = compare_histograms_batch(
                rows[row_index], stack_histograms(rows), metric
            )
            assert np.array_equal(block[row_index], expected, equal_nan=True)

    def test_shape_validation(self):
        refs = stack_histograms(np.ones((2, 5)))
        with pytest.raises(ImageError):
            compare_histograms_block(np.ones(5), refs)
        with pytest.raises(ImageError):
            compare_histograms_block(np.ones((2, 4)), refs)


class TestTileBoundaries:
    """Blocks that start, end and cross the kernels' cache-sized tiles score
    exactly what the per-query batch kernels and the pre-tiling broadcast
    score, cell for cell."""

    @pytest.mark.parametrize("views", tuple(TILE_VIEWS))
    @pytest.mark.parametrize("queries", TILE_QUERIES)
    @pytest.mark.parametrize("metric", METRICS)
    def test_histogram_block(self, metric, queries, views):
        step = views_per_tile(queries, HIST_WIDTH)
        count = TILE_VIEWS[views](step)
        rng = np.random.default_rng([queries, count])
        refs = stack_histograms(adversarial_histograms(rng, count, HIST_WIDTH, step))
        # A degenerate query resolves one cell per reference row in Python;
        # at 10,000 rows only the reference side carries degenerate rows.
        query_rows = adversarial_histograms(
            rng, queries, HIST_WIDTH, step, degenerate=count < 10_000
        )
        query_rows[-1] = refs[count // 2]  # an exact match
        query_matrix = stack_histograms(query_rows)

        block = compare_histograms_block(query_matrix, refs, metric)
        assert block.shape == (queries, count)
        assert np.array_equal(
            block, oracle_histograms_block(query_matrix, refs, metric), equal_nan=True
        )
        for row in range(queries):
            expected = compare_histograms_batch(query_matrix[row], refs, metric)
            assert np.array_equal(block[row], expected, equal_nan=True)

    @pytest.mark.parametrize("queries", TILE_QUERIES[1:])
    @pytest.mark.parametrize("metric", METRICS)
    def test_histogram_query_tiles(self, metric, queries):
        # Wide enough that 16 query rows alone exceed the tile budget, so
        # the query axis is tiled as well.
        width = TILE_ELEMENTS // 16 + 1
        query_step, step = tile_steps(queries, width)
        assert query_step < queries
        rng = np.random.default_rng(queries)
        refs = stack_histograms(adversarial_histograms(rng, 2 * step + 1, width, step))
        query_matrix = stack_histograms(
            adversarial_histograms(rng, queries, width, query_step)
        )
        block = compare_histograms_block(query_matrix, refs, metric)
        assert np.array_equal(
            block, oracle_histograms_block(query_matrix, refs, metric), equal_nan=True
        )
        for row in range(queries):
            expected = compare_histograms_batch(query_matrix[row], refs, metric)
            assert np.array_equal(block[row], expected, equal_nan=True)

    @pytest.mark.parametrize("views", tuple(TILE_VIEWS))
    @pytest.mark.parametrize("queries", TILE_QUERIES)
    @pytest.mark.parametrize("distance", DISTANCES)
    def test_shape_block(self, distance, queries, views):
        step = views_per_tile(queries, 7)
        count = TILE_VIEWS[views](step)
        rng = np.random.default_rng([queries, count, 7])
        refs = hu_signature_matrix(adversarial_hu_rows(rng, count, step))
        query_rows = adversarial_hu_rows(rng, queries, step)
        query_rows[-1] = adversarial_hu_rows(rng, 1, 1)[0]
        query_matrix = hu_signature_matrix(query_rows)
        query_matrix[-1] = refs[-1]  # an exact match, NaN when the row is

        block = match_shapes_block(query_matrix, refs, distance)
        assert block.shape == (queries, count)
        assert np.array_equal(
            block, oracle_shapes_block(query_matrix, refs, distance), equal_nan=True
        )
        for row in range(queries):
            expected = match_shapes_batch(query_matrix[row], refs, distance)
            assert np.array_equal(block[row], expected, equal_nan=True)
