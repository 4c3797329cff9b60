"""Shape-only matching (Sec. 3.2).

    "Contours extracted from input samples were matched through the OpenCV
    built-in similarity function based on Hu moments … We tested three
    different variants of this method, with distance metric between image
    moments set to be the L1, L2, or L3 norm respectively."

Features are the seven Hu invariants of the object crop's largest-component
mask with its interior holes filled; scores are the matchShapes distances
of :mod:`repro.imaging.match_shapes` (lower = more similar).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.datasets.dataset import LabelledImage
from repro.imaging.match_shapes import (
    ShapeDistance,
    hu_signature,
    hu_signature_matrix,
    match_shapes,
    match_shapes_batch,
    match_shapes_block,
)
from repro.imaging.moments import hu_moments
from repro.pipelines.base import MatchingPipeline
from repro.pipelines.preprocess import ObjectCrop, object_crop_or_none

#: Hu vector used when preprocessing finds no contour at all (degenerate
#: query); it is maximally distant from any real shape under all metrics.
_DEGENERATE_HU = np.full(7, np.nan)

#: Cache namespace/version of :func:`shape_features` — shared by every
#: consumer of the Hu extraction (the three ShapeOnly distances and the
#: hybrid's shape term), so they all hit the same cache entries.
SHAPE_FEATURE_NAMESPACE = "shape-hu"
SHAPE_FEATURE_VERSION = "v1"


def crop_hu(object_crop: ObjectCrop | None) -> np.ndarray:
    """Hu-moment vector of *object_crop*'s mask with its holes filled.

    Moments are taken over the *filled outer polygon* of the contour, which
    is what ``cv2.matchShapes`` sees: OpenCV integrates contour moments via
    Green's theorem, so interior holes (window panes, mug handles) are
    invisible at the moment level.  Everything outside the crop window is
    background that reaches the frame border, so filling the crop padded by
    one background pixel equals filling the whole frame.  ``None`` (no
    contour) maps to the degenerate all-NaN vector.
    """
    if object_crop is None:
        return _DEGENERATE_HU
    filled = ndimage.binary_fill_holes(np.pad(object_crop.mask, 1))[1:-1, 1:-1]
    return hu_moments(filled.astype(np.float64))


def shape_features(item: LabelledImage) -> np.ndarray:
    """Hu-moment vector of the largest foreground contour of *item*."""
    return crop_hu(object_crop_or_none(item.image))


class ShapeOnlyPipeline(MatchingPipeline):
    """Hu-moment shape matching with a selectable matchShapes distance."""

    higher_is_better = False
    feature_version = SHAPE_FEATURE_VERSION

    def __init__(self, distance: ShapeDistance = ShapeDistance.L1) -> None:
        super().__init__()
        self.distance = ShapeDistance(distance)
        self.name = f"shape-only-{self.distance.value}"

    def feature_namespace(self) -> str:
        # The Hu extraction is identical for L1/L2/L3 (only scoring differs),
        # so all three variants share one cache namespace.
        return SHAPE_FEATURE_NAMESPACE

    def _extract(self, item: LabelledImage) -> np.ndarray:
        return shape_features(item)

    def _score(self, query_features: np.ndarray, reference_features: np.ndarray) -> float:
        if np.isnan(query_features).any() or np.isnan(reference_features).any():
            return float("inf")
        return match_shapes(query_features, reference_features, self.distance)

    def _stack_references(self, features) -> np.ndarray:
        # (V, 7) log-signature matrix; metric-independent, so L1/L2/L3 (and
        # the hybrid's shape term) all share the cached stack.
        return hu_signature_matrix(np.vstack(features))

    def _score_batch(self, query_features: np.ndarray) -> np.ndarray:
        return match_shapes_batch(
            hu_signature(query_features), self._reference_matrix, self.distance
        )

    def _score_block(self, features) -> np.ndarray:
        # One broadcasted kernel call for a whole micro-batch; rows are
        # bit-identical to the per-query _score_batch path.
        return match_shapes_block(
            hu_signature_matrix(np.vstack(features)),
            self._reference_matrix,
            self.distance,
        )

    def _champion_bound(self):
        self._stacked_matrix()
        # The exact block scores are bit-identical per row to _rerank_rows:
        # the tightest bound there is, and no dearer than looser ones.
        return self._score_block

    def _rerank_rows(self, query_features: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # match_shapes_batch computes each reference row from the query and
        # that row alone, so the sliced call equals _score_batch(...)[rows]
        # bit for bit.
        return match_shapes_batch(
            hu_signature(query_features), self._reference_matrix[rows], self.distance
        )
