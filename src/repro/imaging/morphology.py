"""Binary morphology: erosion, dilation, opening, closing, hole filling.

Thin, validated wrappers over ``scipy.ndimage`` used by the NYU mask
coarsening (polygon masks fuse fine structure) and available to downstream
users cleaning their own segmentation masks.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.errors import ImageError


def _validate_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ImageError(f"morphology expects a 2-D mask, got shape {mask.shape}")
    return mask.astype(bool)


def _structure(connectivity: int) -> np.ndarray:
    if connectivity == 4:
        return ndimage.generate_binary_structure(2, 1)
    if connectivity == 8:
        return np.ones((3, 3), dtype=bool)
    raise ImageError(f"connectivity must be 4 or 8, got {connectivity}")


def erode(mask: np.ndarray, iterations: int = 1, connectivity: int = 8) -> np.ndarray:
    """Binary erosion: shrink foreground by *iterations* pixels."""
    if iterations < 1:
        raise ImageError(f"iterations must be >= 1, got {iterations}")
    return ndimage.binary_erosion(
        _validate_mask(mask), structure=_structure(connectivity), iterations=iterations
    )


def dilate(mask: np.ndarray, iterations: int = 1, connectivity: int = 8) -> np.ndarray:
    """Binary dilation: grow foreground by *iterations* pixels."""
    if iterations < 1:
        raise ImageError(f"iterations must be >= 1, got {iterations}")
    return ndimage.binary_dilation(
        _validate_mask(mask), structure=_structure(connectivity), iterations=iterations
    )


def opening(mask: np.ndarray, iterations: int = 1, connectivity: int = 8) -> np.ndarray:
    """Erosion then dilation: removes small specks, keeps gross shape."""
    if iterations < 1:
        raise ImageError(f"iterations must be >= 1, got {iterations}")
    return ndimage.binary_opening(
        _validate_mask(mask), structure=_structure(connectivity), iterations=iterations
    )


def closing(mask: np.ndarray, iterations: int = 1, connectivity: int = 8) -> np.ndarray:
    """Dilation then erosion: bridges small gaps, fuses fine structure."""
    if iterations < 1:
        raise ImageError(f"iterations must be >= 1, got {iterations}")
    return ndimage.binary_closing(
        _validate_mask(mask), structure=_structure(connectivity), iterations=iterations
    )


def fill_holes(mask: np.ndarray) -> np.ndarray:
    """Fill background regions not 4-connected to the border.

    A one-pixel background frame joins every background pixel that
    reaches the border into the one component at ``[0, 0]``, so a single
    labelling of the framed background fills exactly the set
    ``ndimage.binary_fill_holes`` fills with its iterated dilation.
    """
    mask = _validate_mask(mask)
    background = np.ones((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    np.logical_not(mask, out=background[1:-1, 1:-1])
    labels, _ = ndimage.label(background, structure=_structure(4))
    return labels[1:-1, 1:-1] != labels[0, 0]
