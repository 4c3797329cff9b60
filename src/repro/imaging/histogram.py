"""Colour histograms and the four comparison metrics of the paper's
colour-only pipeline (Sec. 3.2): Correlation, Chi-square, Intersection and
Hellinger — OpenCV's ``HISTCMP_CORREL``, ``HISTCMP_CHISQR``,
``HISTCMP_INTERSECT`` and ``HISTCMP_BHATTACHARYYA``.

Correlation and Intersection are *similarities* (higher is better);
Chi-square and Hellinger are *distances* (lower is better).  The hybrid
pipeline (:mod:`repro.pipelines.hybrid`) inverts the former before combining
with shape scores, exactly as the paper describes.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import as_float, ensure_gray
from repro.imaging.tiles import tiled_sums


class HistogramMetric(str, Enum):
    """Histogram comparison metrics evaluated in the paper."""

    CORRELATION = "correlation"
    CHI_SQUARE = "chi_square"
    INTERSECTION = "intersection"
    HELLINGER = "hellinger"

    @property
    def higher_is_better(self) -> bool:
        """True for similarity metrics, False for distances."""
        return self in (HistogramMetric.CORRELATION, HistogramMetric.INTERSECTION)


def rgb_histogram(
    image: np.ndarray,
    bins: int = 32,
    mask: np.ndarray | None = None,
    normalise: bool = True,
) -> np.ndarray:
    """Concatenated per-channel RGB histogram of *image*.

    With *mask* given, only foreground pixels contribute — the paper crops to
    the object contour for the same reason (suppressing marginal background).
    The result is a flat ``(3 * bins,)`` vector, L1-normalised by default.
    """
    data = as_float(image)
    if data.ndim != 3:
        raise ImageError(f"rgb_histogram expects an RGB image, got shape {data.shape}")
    if bins < 2:
        raise ImageError(f"need at least 2 bins, got {bins}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != data.shape[:2]:
            raise ImageError(
                f"mask shape {mask.shape} does not match image {data.shape[:2]}"
            )
        if not mask.any():
            raise ImageError("mask selects no pixels")

    parts = []
    for channel in range(3):
        values = data[..., channel]
        if mask is not None:
            values = values[mask]
        counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
        parts.append(counts.astype(np.float64))
    hist = np.concatenate(parts)
    if normalise:
        total = hist.sum()
        if total > 0:
            hist = hist / total
    return hist


def gray_histogram(
    image: np.ndarray,
    bins: int = 32,
    mask: np.ndarray | None = None,
    normalise: bool = True,
) -> np.ndarray:
    """Luma histogram of *image* as a ``(bins,)`` vector."""
    gray = ensure_gray(image)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        gray = gray[mask]
        if gray.size == 0:
            raise ImageError("mask selects no pixels")
    counts, _ = np.histogram(gray, bins=bins, range=(0.0, 1.0))
    hist = counts.astype(np.float64)
    if normalise:
        total = hist.sum()
        if total > 0:
            hist = hist / total
    return hist


def compare_histograms(
    h1: np.ndarray,
    h2: np.ndarray,
    metric: HistogramMetric = HistogramMetric.HELLINGER,
) -> float:
    """Compare two histograms with *metric*, following OpenCV's formulas.

    * Correlation: Pearson correlation of the two bin vectors (in [-1, 1]).
    * Chi-square: ``sum((h1 - h2)^2 / h1)`` over bins with ``h1 > 0``.
    * Intersection: ``sum(min(h1, h2))``.
    * Hellinger (Bhattacharyya): ``sqrt(1 - sum(sqrt(h1 h2)) / sqrt(mean1 * mean2 * N^2))``.
    """
    h1 = np.asarray(h1, dtype=np.float64).ravel()
    h2 = np.asarray(h2, dtype=np.float64).ravel()
    if h1.shape != h2.shape:
        raise ImageError(f"histogram shapes differ: {h1.shape} vs {h2.shape}")
    if h1.size == 0:
        raise ImageError("histograms are empty")

    if metric == HistogramMetric.CORRELATION:
        d1, d2 = h1 - h1.mean(), h2 - h2.mean()
        denom = np.sqrt((d1**2).sum() * (d2**2).sum())
        if denom == 0:
            return 1.0 if np.allclose(h1, h2) else 0.0
        return float((d1 * d2).sum() / denom)

    if metric == HistogramMetric.CHI_SQUARE:
        valid = h1 > 0
        return float(((h1[valid] - h2[valid]) ** 2 / h1[valid]).sum())

    if metric == HistogramMetric.INTERSECTION:
        return float(np.minimum(h1, h2).sum())

    if metric == HistogramMetric.HELLINGER:
        mean1, mean2 = h1.mean(), h2.mean()
        denom = np.sqrt(mean1 * mean2) * h1.size
        if denom == 0:
            return 0.0 if np.allclose(h1, h2) else 1.0
        bc = np.sqrt(h1 * h2).sum() / denom
        return float(np.sqrt(max(0.0, 1.0 - bc)))

    raise ImageError(f"unknown histogram metric {metric!r}")


def compare_histograms_block(
    query_matrix: np.ndarray,
    ref_matrix: np.ndarray,
    metric: HistogramMetric = HistogramMetric.HELLINGER,
) -> np.ndarray:
    """``(Q, V)`` comparisons of a query block against all reference rows.

    Row *i* is bit-identical to ``compare_histograms_batch(query_matrix[i],
    ref_matrix, metric)``: the same elementwise expressions, reduced over
    the trailing bin axis through cache-sized tiles
    (:func:`~repro.imaging.tiles.tiled_sums`), with degenerate
    (zero-variance / zero-mass) cells resolved per pair exactly as the
    scalar kernel resolves them.  Chi-square keeps the per-row path: its
    summation runs over a per-query compacted column subset (``h1 > 0``),
    and re-summing a zero-padded full-width row would round differently.
    """
    queries = np.asarray(query_matrix, dtype=np.float64)
    refs = np.asarray(ref_matrix, dtype=np.float64)
    if queries.ndim != 2 or refs.ndim != 2 or queries.shape[1] != refs.shape[1]:
        raise ImageError(f"histogram shapes differ: {queries.shape} vs {refs.shape}")
    if queries.shape[1] == 0:
        raise ImageError("histograms are empty")
    shape = (queries.shape[0], refs.shape[0], queries.shape[1])

    if metric == HistogramMetric.CHI_SQUARE:
        return np.vstack(
            [compare_histograms_batch(row, refs, metric) for row in queries]
        )

    if metric == HistogramMetric.CORRELATION:
        d1 = queries - queries.mean(axis=1)[:, None]
        d2 = refs - refs.mean(axis=1)[:, None]
        denom = np.sqrt((d1**2).sum(axis=1)[:, None] * (d2**2).sum(axis=1)[None, :])

        def products(rows: slice, cols: slice, out: np.ndarray) -> None:
            np.multiply(d1[rows, None, :], d2[None, cols, :], out=out)

        scores = tiled_sums(*shape, products)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(scores, denom, out=scores)
        degenerate = denom == 0
        if degenerate.any():
            for qi, ri in np.argwhere(degenerate):
                scores[qi, ri] = 1.0 if np.allclose(queries[qi], refs[ri]) else 0.0
        return scores

    if metric == HistogramMetric.INTERSECTION:

        def minima(rows: slice, cols: slice, out: np.ndarray) -> None:
            np.minimum(queries[rows, None, :], refs[None, cols, :], out=out)

        return tiled_sums(*shape, minima)

    if metric == HistogramMetric.HELLINGER:
        mean1 = queries.mean(axis=1)
        means = refs.mean(axis=1)
        denom = mean1[:, None] * means[None, :]
        np.sqrt(denom, out=denom)
        denom *= queries.shape[1]

        def root_products(rows: slice, cols: slice, out: np.ndarray) -> None:
            np.multiply(queries[rows, None, :], refs[None, cols, :], out=out)
            np.sqrt(out, out=out)

        # Finish bc -> sqrt(max(0, 1 - bc)) in place on the (Q, V) sums.
        scores = tiled_sums(*shape, root_products)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(scores, denom, out=scores)
            np.subtract(1.0, scores, out=scores)
            np.maximum(0.0, scores, out=scores)
            np.sqrt(scores, out=scores)
        degenerate = denom == 0
        if degenerate.any():
            for qi, ri in np.argwhere(degenerate):
                scores[qi, ri] = 0.0 if np.allclose(queries[qi], refs[ri]) else 1.0
        return scores

    raise ImageError(f"unknown histogram metric {metric!r}")


def stack_histograms(histograms) -> np.ndarray:
    """Stack per-view histograms into a contiguous ``(V, B)`` float64 matrix
    — the reference-library layout of :func:`compare_histograms_batch`."""
    matrix = np.ascontiguousarray(
        np.vstack([np.asarray(h, dtype=np.float64).ravel() for h in histograms])
    )
    if matrix.shape[1] == 0:
        raise ImageError("histograms are empty")
    return matrix


def compare_histograms_batch(
    h1: np.ndarray,
    ref_matrix: np.ndarray,
    metric: HistogramMetric = HistogramMetric.HELLINGER,
) -> np.ndarray:
    """Compare one query histogram against all ``V`` rows of *ref_matrix*.

    Numerically identical to calling :func:`compare_histograms` per row,
    including the zero-variance (Correlation) and zero-mass (Hellinger)
    edge cases, which are resolved per row exactly as the scalar kernel
    resolves them.
    """
    h1 = np.asarray(h1, dtype=np.float64).ravel()
    refs = np.asarray(ref_matrix, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[1] != h1.shape[0]:
        raise ImageError(
            f"histogram shapes differ: {h1.shape} vs {refs.shape}"
        )
    if h1.size == 0:
        raise ImageError("histograms are empty")

    if metric == HistogramMetric.CORRELATION:
        d1 = h1 - h1.mean()
        d2 = refs - refs.mean(axis=1)[:, None]
        denom = np.sqrt((d1**2).sum() * (d2**2).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (d1[None, :] * d2).sum(axis=1) / denom
        degenerate = denom == 0
        if degenerate.any():
            identical = np.isclose(h1[None, :], refs[degenerate]).all(axis=1)
            scores[degenerate] = np.where(identical, 1.0, 0.0)
        return scores

    if metric == HistogramMetric.CHI_SQUARE:
        valid = h1 > 0
        q = h1[valid]
        diff = q[None, :] - refs[:, valid]
        # Column by column, left to right, at every row count.  The
        # boolean column mask yields a Fortran-ordered block, which NumPy
        # reduces in this order for two or more rows but pairwise for one,
        # so a one-row call would round differently from the same row of
        # a full call.
        scores = np.zeros(refs.shape[0])
        for column in (diff**2 / q[None, :]).T:
            scores += column
        return scores

    if metric == HistogramMetric.INTERSECTION:
        return np.minimum(h1[None, :], refs).sum(axis=1)

    if metric == HistogramMetric.HELLINGER:
        mean1 = h1.mean()
        means = refs.mean(axis=1)
        denom = np.sqrt(mean1 * means) * h1.size
        with np.errstate(divide="ignore", invalid="ignore"):
            bc = np.sqrt(h1[None, :] * refs).sum(axis=1) / denom
            scores = np.sqrt(np.maximum(0.0, 1.0 - bc))
        degenerate = denom == 0
        if degenerate.any():
            identical = np.isclose(h1[None, :], refs[degenerate]).all(axis=1)
            scores[degenerate] = np.where(identical, 0.0, 1.0)
        return scores

    raise ImageError(f"unknown histogram metric {metric!r}")
