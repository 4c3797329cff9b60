"""Unit tests for contour extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import repro.imaging.contours as contours_module
from repro.errors import ContourError
from repro.imaging.contours import (
    _trace_boundary,
    bounding_rect,
    contour_area,
    contour_perimeter,
    find_contours,
    largest_contour,
)


def square_mask(size=12, top=3, left=4, side=5):
    mask = np.zeros((size, size), dtype=bool)
    mask[top : top + side, left : left + side] = True
    return mask


class TestFindContours:
    def test_single_square(self):
        contours = find_contours(square_mask())
        assert len(contours) == 1
        assert contours[0].area == 25

    def test_bounding_box(self):
        contour = largest_contour(square_mask(top=3, left=4, side=5))
        assert bounding_rect(contour) == (3, 4, 5, 5)

    def test_multiple_components_sorted_by_area(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[1:4, 1:4] = True  # area 9
        mask[8:16, 8:16] = True  # area 64
        contours = find_contours(mask)
        assert len(contours) == 2
        assert contours[0].area == 64
        assert contours[1].area == 9

    def test_min_area_filter(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True
        mask[4:8, 4:8] = True
        contours = find_contours(mask, min_area=2)
        assert len(contours) == 1
        assert contours[0].area == 16

    def test_diagonal_pixels_are_8_connected(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, 1] = mask[2, 2] = mask[3, 3] = True
        contours = find_contours(mask)
        assert len(contours) == 1
        assert contours[0].area == 3

    def test_empty_mask_gives_no_contours(self):
        assert find_contours(np.zeros((5, 5), dtype=bool)) == []

    def test_largest_contour_raises_on_empty(self):
        with pytest.raises(ContourError):
            largest_contour(np.zeros((5, 5), dtype=bool))

    def test_rejects_non_2d(self):
        with pytest.raises(ContourError):
            find_contours(np.zeros((2, 2, 3)))

    def test_full_frame_component(self):
        mask = np.ones((7, 7), dtype=bool)
        contour = largest_contour(mask)
        assert contour.area == 49
        assert bounding_rect(contour) == (0, 0, 7, 7)

    def test_single_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 3] = True
        contour = largest_contour(mask)
        assert contour.area == 1
        assert len(contour.points) == 1


class TestContourProperties:
    def test_boundary_points_lie_on_component(self):
        contour = largest_contour(square_mask())
        for row, col in contour.points:
            assert contour.mask[row, col]

    def test_perimeter_of_square(self):
        contour = largest_contour(square_mask(side=5))
        # 5x5 square: boundary trace has 16 points, arc length 16.
        assert contour_perimeter(contour) == pytest.approx(16.0)

    def test_area_helper(self):
        contour = largest_contour(square_mask(side=4))
        assert contour_area(contour) == 16

    def test_filled_mask_fills_holes(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[2:10, 2:10] = True
        mask[4:8, 4:8] = False  # a hole
        contour = largest_contour(mask)
        assert contour.area == 64 - 16
        assert contour.filled_mask.sum() == 64

    def test_filled_mask_no_hole_is_identity(self):
        contour = largest_contour(square_mask())
        assert (contour.filled_mask == contour.mask).all()

    def test_uint8_mask_accepted(self):
        mask = square_mask().astype(np.uint8) * 255
        assert largest_contour(mask).area == 25


def eager_largest(mask):
    """The largest component by the per-component rule: label, build every
    component, stable-sort by descending area, take the first."""
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    components = [labels == label_id for label_id in range(1, count + 1)]
    components.sort(key=lambda component: component.sum(), reverse=True)
    return components[0]


def eager_trace(component):
    start = divmod(int(np.argmax(component)), component.shape[1])
    return _trace_boundary(component, start)


@st.composite
def masks_with_ties(draw):
    """A random tile repeated side by side, so areas tie across copies."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    cells = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    tile = np.array(cells, dtype=bool).reshape(rows, cols)
    copies = draw(st.integers(1, 3))
    gap = np.zeros((rows, 1), dtype=bool)
    return np.hstack([tile, gap] * copies)[:, :-1]


class TestLargestWithoutTracing:
    @settings(max_examples=200, deadline=None)
    @given(masks_with_ties())
    def test_matches_the_per_component_rule(self, mask):
        if not mask.any():
            with pytest.raises(ContourError):
                largest_contour(mask)
            return
        expected = eager_largest(mask)
        largest = largest_contour(mask)
        assert np.array_equal(largest.mask, expected)
        assert np.array_equal(find_contours(mask)[0].mask, expected)
        assert np.array_equal(largest.points, eager_trace(expected))

    def test_equal_areas_go_to_the_first_in_raster_order(self):
        mask = np.zeros((6, 9), dtype=bool)
        mask[3:5, 1:3] = True  # area 4, starts lower
        mask[0:2, 6:8] = True  # area 4, first in raster order
        assert largest_contour(mask).bounding_box == (0, 6, 2, 2)

    def test_points_are_traced_lazily(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("boundary traced")

        monkeypatch.setattr(contours_module, "_trace_boundary", refuse)
        contour = largest_contour(square_mask())
        assert contour.area == 25 and find_contours(square_mask())[0].area == 25
        with pytest.raises(AssertionError, match="boundary traced"):
            contour.points


def test_the_served_path_never_traces(monkeypatch, tmp_path):
    from repro.engine.cache import FeatureCache, ReferenceMatrixCache
    from repro.pipelines.hybrid import HybridPipeline
    from repro.store import build_store

    from tests.engine.synthetic import make_image_set

    def refuse(*args):
        raise AssertionError("boundary traced on the served path")

    monkeypatch.setattr(contours_module, "_trace_boundary", refuse)
    references = make_image_set(seed=41, count=6, name="refs")
    queries = list(make_image_set(seed=42, count=3, name="q", source="sns2"))
    pipeline = HybridPipeline(bins=8)
    pipeline.cache = FeatureCache()
    pipeline.matrix_cache = ReferenceMatrixCache()
    pipeline.fit(references)
    pipeline.predict(queries[0])
    assert len(pipeline.predict_batch(queries)) == 3
    built = build_store(
        references, tmp_path / "store", bins=8, families=("shape", "color"),
        cache=FeatureCache(),
    )
    assert built.created
