"""The paper's preprocessing routine (Sec. 3.2).

    "we (i) first converted to grayscale, (ii) applied global binary
    thresholding (or its inverse, depending on whether the input background
    was black or white respectively), (iii) contour detection on cascade,
    and (iv) cropped the original RGB image to the contour of largest area."

:func:`extract_object_crop` performs exactly these four steps and returns the
cropped RGB image together with the foreground mask and contour.  The
largest contour is found from component areas alone; no boundary is traced.
One crop feeds both of the hybrid's features: the shape pipeline takes Hu
moments of its hole-filled mask, the colour pipeline a masked histogram of
its pixels (:func:`object_crop_or_none` is the entry point both use).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ContourError, PipelineError
from repro.imaging.contours import Contour, largest_contour
from repro.imaging.image import as_float, crop
from repro.imaging.threshold import threshold_binary

#: Global threshold for black-background inputs (NYU segmented crops):
#: anything brighter than the mask black is foreground.
BLACK_BG_THRESHOLD = 0.02

#: Global threshold for white-background inputs (ShapeNet views), applied in
#: inverse mode: anything darker than near-white is foreground.
WHITE_BG_THRESHOLD = 0.97


@dataclass(frozen=True)
class ObjectCrop:
    """Result of the four-step preprocessing routine.

    ``image`` is the RGB crop around the largest contour; ``mask`` the
    foreground pixels inside the crop; ``contour`` the full-frame contour it
    was derived from; ``bbox`` the (top, left, height, width) crop window.
    """

    image: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    contour: Contour = field(repr=False)
    bbox: tuple[int, int, int, int]


def detect_background(image: np.ndarray) -> str:
    """Guess whether *image* lies on a black or white background.

    Looks at the mean luma of the one-pixel border, which is pure mask black
    for NYU crops and near white for ShapeNet views.  Only the border pixels
    are averaged over their channels.
    """
    data = as_float(image)
    border = np.concatenate([data[0, :], data[-1, :], data[1:-1, 0], data[1:-1, -1]])
    if border.ndim == 2:
        border = border.mean(axis=-1)
    return "black" if border.mean() < 0.5 else "white"


def extract_object_crop(image: np.ndarray, background: str = "auto") -> ObjectCrop:
    """Run the paper's grayscale → threshold → contour → crop cascade.

    *background* is ``"black"``, ``"white"`` or ``"auto"`` (border
    inspection).  Raises :class:`~repro.errors.ContourError` if thresholding
    finds no foreground at all.
    """
    if background not in ("black", "white", "auto"):
        raise PipelineError(f"unknown background mode {background!r}")
    if background == "auto":
        background = detect_background(image)

    if background == "black":
        mask = threshold_binary(image, BLACK_BG_THRESHOLD, inverse=False)
    else:
        mask = threshold_binary(image, WHITE_BG_THRESHOLD, inverse=True)
    if not mask.any():
        raise ContourError(f"no foreground found against {background} background")

    contour = largest_contour(mask)
    top, left, height, width = contour.bounding_box
    rgb = as_float(image)
    return ObjectCrop(
        image=crop(rgb, top, left, height, width),
        mask=contour.mask[top : top + height, left : left + width].copy(),
        contour=contour,
        bbox=(top, left, height, width),
    )


def object_crop_or_none(image: np.ndarray) -> ObjectCrop | None:
    """:func:`extract_object_crop` with auto background, or None when the
    image has no foreground (a degenerate query the features map to their
    fallbacks)."""
    try:
        return extract_object_crop(image, background="auto")
    except ContourError:
        return None
