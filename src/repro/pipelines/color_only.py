"""Colour-only matching (Sec. 3.2).

    "Colour-only matching comparing the RGB histograms of the input image
    pairs … we relied on the OpenCV library and tested different comparison
    metrics, namely Correlation, Chi-square, Intersection and Hellinger
    distance."

Features are masked RGB histograms of the preprocessed object crop (the
background mask keeps white/black margins out of the histograms, which is
the point of the paper's cropping step).  Correlation and Intersection are
similarities (argmax); Chi-square and Hellinger distances (argmin).
"""

from __future__ import annotations

import numpy as np

from repro.config import HISTOGRAM_BINS
from repro.datasets.dataset import LabelledImage
from repro.errors import ImageError
from repro.imaging.histogram import (
    HistogramMetric,
    compare_histograms,
    compare_histograms_batch,
    compare_histograms_block,
    rgb_histogram,
    stack_histograms,
)
from repro.pipelines.base import MatchingPipeline
from repro.pipelines.preprocess import ObjectCrop, object_crop_or_none


#: Cache version of :func:`color_features`; the namespace additionally
#: encodes the bin count (see :func:`color_feature_namespace`).
COLOR_FEATURE_VERSION = "v1"


def color_feature_namespace(bins: int) -> str:
    """Cache namespace of :func:`color_features` at *bins* bins per channel.

    Shared by every consumer of the histogram extraction (the four
    ColorOnly metrics and the hybrid's colour term).
    """
    return f"color-hist{bins}"


def crop_histogram(
    image: np.ndarray, object_crop: ObjectCrop | None, bins: int = HISTOGRAM_BINS
) -> np.ndarray:
    """Masked RGB histogram of *object_crop*, segmented from *image*.

    Degenerate inputs (no contour) fall back to the whole-image histogram,
    mirroring what an OpenCV pipeline would do with an empty mask.
    """
    if object_crop is not None:
        try:
            return rgb_histogram(object_crop.image, bins=bins, mask=object_crop.mask)
        except ImageError:
            pass
    return rgb_histogram(image, bins=bins)


def color_features(item: LabelledImage, bins: int = HISTOGRAM_BINS) -> np.ndarray:
    """Masked RGB histogram of *item*'s object crop.

    An image that fails segmentation's validation would fail the
    whole-image fallback's identical validation, so that error propagates.
    """
    return crop_histogram(item.image, object_crop_or_none(item.image), bins)


class ColorOnlyPipeline(MatchingPipeline):
    """RGB-histogram matching with a selectable comparison metric."""

    feature_version = COLOR_FEATURE_VERSION

    def feature_namespace(self) -> str:
        # The histogram extraction depends only on the bin count, so all
        # four comparison metrics share one namespace per bin setting.
        return color_feature_namespace(self.bins)

    def __init__(
        self,
        metric: HistogramMetric = HistogramMetric.HELLINGER,
        bins: int = HISTOGRAM_BINS,
    ) -> None:
        super().__init__()
        self.metric = HistogramMetric(metric)
        self.bins = bins
        self.name = f"color-only-{self.metric.value}"
        self.higher_is_better = self.metric.higher_is_better

    def _extract(self, item: LabelledImage) -> np.ndarray:
        return color_features(item, bins=self.bins)

    def _score(self, query_features: np.ndarray, reference_features: np.ndarray) -> float:
        return compare_histograms(query_features, reference_features, self.metric)

    def _stack_references(self, features) -> np.ndarray:
        # (V, 3*bins) histogram matrix; metric-independent, so all four
        # comparison metrics (and the hybrid's colour term) share the stack.
        return stack_histograms(features)

    def _score_batch(self, query_features: np.ndarray) -> np.ndarray:
        return compare_histograms_batch(
            query_features, self._reference_matrix, self.metric
        )

    def _score_block(self, features) -> np.ndarray:
        # One broadcasted kernel call for a whole micro-batch; rows are
        # bit-identical to the per-query _score_batch path.
        return compare_histograms_block(
            stack_histograms(features), self._reference_matrix, self.metric
        )

    def certifiable(self) -> bool:
        from repro.index.bounds import TIGHT_METRICS

        return self.metric in TIGHT_METRICS

    def _champion_bound(self):
        from repro.index.bounds import HistogramBound

        bound = HistogramBound(self._stacked_matrix(), self.metric)
        return lambda features: bound(stack_histograms(features))

    def _rerank_rows(self, query_features: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # compare_histograms_batch computes each reference row from the query
        # and that row alone (per-row means/denominators), so the sliced call
        # equals _score_batch(...)[rows] bit for bit.
        return compare_histograms_batch(
            query_features, self._reference_matrix[rows], self.metric
        )
