"""Contour extraction on binary masks.

Replaces ``cv2.findContours`` for the paper's preprocessing routine
(Sec. 3.2): threshold, *contour detection on cascade*, then crop to the
contour of largest area.

Connected foreground components are located with ``scipy.ndimage.label``
(8-connectivity, matching OpenCV's default) and their areas counted in one
``np.bincount`` over the label image.  Area is the filled pixel count, which
is what the paper's "largest area" selection needs, so picking the largest
component never looks at a boundary.  A contour's ordered boundary polygon
is traced with Moore-neighbour tracing only when ``points`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import ndimage

from repro.errors import ContourError

#: 8-connected structuring element used for component labelling.
_STRUCT8 = np.ones((3, 3), dtype=bool)

#: Moore neighbourhood in clockwise order starting east: (dr, dc).
_MOORE = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]


@dataclass(frozen=True)
class Contour:
    """An extracted object contour.

    ``mask`` is the filled component as a boolean image of the same shape as
    the source; ``points`` is its ordered ``(N, 2)`` array of (row, col)
    boundary coordinates, traced on first access.
    """

    mask: np.ndarray = field(repr=False)

    @cached_property
    def points(self) -> np.ndarray:
        """Moore-traced outer boundary, starting at the first pixel in raster order."""
        start_flat = int(np.argmax(self.mask))
        start = divmod(start_flat, self.mask.shape[1])
        return _trace_boundary(self.mask, start)

    @property
    def area(self) -> float:
        """Filled area in pixels."""
        return float(self.mask.sum())

    @property
    def filled_mask(self) -> np.ndarray:
        """The outer-polygon region with interior holes filled.

        This is what OpenCV's contour moments describe: ``cv2.matchShapes``
        on an outer contour integrates over the enclosed polygon via Green's
        theorem, so holes inside the outline (a window's panes) do not
        exist at the moment level.
        """
        return ndimage.binary_fill_holes(self.mask)

    @property
    def perimeter(self) -> float:
        """Polygonal arc length of the traced boundary."""
        if len(self.points) < 2:
            return 0.0
        diffs = np.diff(
            np.vstack([self.points, self.points[:1]]).astype(np.float64), axis=0
        )
        return float(np.hypot(diffs[:, 0], diffs[:, 1]).sum())

    @property
    def bounding_box(self) -> tuple[int, int, int, int]:
        """(top, left, height, width) of the tight bounding rectangle."""
        rows = np.flatnonzero(self.mask.any(axis=1))
        cols = np.flatnonzero(self.mask.any(axis=0))
        top, bottom = int(rows[0]), int(rows[-1])
        left, right = int(cols[0]), int(cols[-1])
        return top, left, bottom - top + 1, right - left + 1


def _trace_boundary(mask: np.ndarray, start: tuple[int, int]) -> np.ndarray:
    """Moore-neighbour boundary trace of the component containing *start*.

    *start* must be the first foreground pixel in raster order, which
    guarantees the pixel above it is background — the canonical entry
    condition for Moore tracing with Jacob's stopping criterion.
    """
    rows, cols = mask.shape

    def on(r: int, c: int) -> bool:
        return 0 <= r < rows and 0 <= c < cols and bool(mask[r, c])

    boundary = [start]
    # Backtrack direction: we entered `start` coming from the pixel above.
    prev_dir = 6  # index of (-1, 0) in _MOORE
    current = start
    for _ in range(4 * mask.size + 8):  # hard bound; trace must terminate
        found = False
        # Scan clockwise starting just after the backtrack direction.
        for step in range(1, 9):
            idx = (prev_dir + step) % 8
            dr, dc = _MOORE[idx]
            nr, nc = current[0] + dr, current[1] + dc
            if on(nr, nc):
                # New backtrack points from the neighbour to the pixel we
                # scanned just before finding it.
                prev_dir = (idx + 4) % 8
                current = (nr, nc)
                found = True
                break
        if not found:  # isolated single pixel
            break
        if current == start:
            break
        boundary.append(current)
    return np.array(boundary, dtype=np.intp)


def _label(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """8-connected labels of *mask* and each label's area (index 0 = background)."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ContourError(f"mask must be 2-D, got shape {mask.shape}")
    labels, _ = ndimage.label(mask.astype(bool), structure=_STRUCT8)
    return labels, np.bincount(labels.ravel())


def find_contours(mask: np.ndarray, min_area: float = 1.0) -> list[Contour]:
    """Extract outer contours of all foreground components in *mask*.

    Components smaller than *min_area* pixels are dropped.  Contours are
    returned sorted by descending area, ties in label (raster) order, so
    ``find_contours(m)[0]`` is the paper's "contour of largest area".
    """
    labels, areas = _label(mask)
    order = sorted(range(1, len(areas)), key=lambda label_id: -areas[label_id])
    return [
        Contour(mask=labels == label_id)
        for label_id in order
        if areas[label_id] >= min_area
    ]


def largest_contour(mask: np.ndarray) -> Contour:
    """Return the largest-area contour, raising if the mask is empty.

    Equal areas go to the lowest label, the first in raster order, which
    is ``find_contours(mask)[0]``; only the winner's mask is built.
    """
    labels, areas = _label(mask)
    if len(areas) < 2:
        raise ContourError("no foreground component found in mask")
    return Contour(mask=labels == int(np.argmax(areas[1:])) + 1)


def contour_area(contour: Contour) -> float:
    """Area of *contour* in pixels (filled-region count)."""
    return contour.area


def contour_perimeter(contour: Contour) -> float:
    """Arc length of *contour*'s traced boundary polygon."""
    return contour.perimeter


def bounding_rect(contour: Contour) -> tuple[int, int, int, int]:
    """(top, left, height, width) bounding rectangle of *contour*."""
    return contour.bounding_box
