"""Image moments and the seven Hu moment invariants (Hu, 1962).

The shape-only pipeline of the paper matches contours "through the OpenCV
built-in similarity function based on Hu moments, i.e. moments invariant to
translation, rotation and scale".  This module provides the moment machinery;
:mod:`repro.imaging.match_shapes` implements the three distance variants.

Moments are computed over a (weighted) 2-D region — for shape matching the
region is a filled contour mask, which matches OpenCV's behaviour when
``cv2.moments`` is applied to a rasterised contour with ``binaryImage=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ImageError


@dataclass(frozen=True)
class Moments:
    """Raw, central and normalised central moments up to order 3.

    Field naming follows OpenCV: ``m<pq>`` raw, ``mu<pq>`` central,
    ``nu<pq>`` scale-normalised central moments.
    """

    m00: float
    m10: float
    m01: float
    m20: float
    m11: float
    m02: float
    m30: float
    m21: float
    m12: float
    m03: float
    mu20: float
    mu11: float
    mu02: float
    mu30: float
    mu21: float
    mu12: float
    mu03: float
    nu20: float
    nu11: float
    nu02: float
    nu30: float
    nu21: float
    nu12: float
    nu03: float

    @property
    def centroid(self) -> tuple[float, float]:
        """(row, col) centroid of the region."""
        return self.m01 / self.m00, self.m10 / self.m00


def image_moments(image: np.ndarray) -> Moments:
    """Compute moments of a grayscale or boolean image region.

    The x axis is columns and the y axis is rows, following the usual image
    moment convention (``m10`` sums x, ``m01`` sums y).
    """
    data = np.asarray(image, dtype=np.float64)
    if data.ndim != 2:
        raise ImageError(f"moments expect a 2-D image, got shape {data.shape}")
    m00 = data.sum()
    if m00 <= 0:
        raise ImageError("cannot compute moments of an all-zero region")

    ys = np.arange(data.shape[0], dtype=np.float64)[:, None]
    xs = np.arange(data.shape[1], dtype=np.float64)[None, :]

    # One fused pass: the x/y power tables are built once, the
    # ``data * x^p`` products are shared across every q, and each family's
    # ``(data * x^p) * y^q`` planes are written into one stacked array that
    # a single row-wise sum reduces.  Each plane is one contiguous row, so
    # every moment is summed exactly as the one-moment-at-a-time
    # ``plane.sum()`` summed it, and values are bit-identical.  The power
    # tables use ``x**p`` with a Python int exponent, as before: an array
    # of exponents would take a different ``pow`` and round differently.
    raw = _moment_sums(
        data, [xs**p for p in range(4)], [ys**q for q in range(4)], _RAW_GROUPS
    )
    m10, m01 = raw[(1, 0)], raw[(0, 1)]
    cx, cy = m10 / m00, m01 / m00
    dx, dy = xs - cx, ys - cy
    mu = _moment_sums(
        data, [dx**p for p in range(4)], [dy**q for q in range(4)], _CENTRAL_GROUPS
    )

    def normalised(p: int, q: int) -> float:
        return mu[(p, q)] / m00 ** (1.0 + (p + q) / 2.0)

    nu = {key: normalised(*key) for key in mu}

    return Moments(
        m00=float(m00),
        m10=m10,
        m01=m01,
        m20=raw[(2, 0)],
        m11=raw[(1, 1)],
        m02=raw[(0, 2)],
        m30=raw[(3, 0)],
        m21=raw[(2, 1)],
        m12=raw[(1, 2)],
        m03=raw[(0, 3)],
        mu20=mu[(2, 0)],
        mu11=mu[(1, 1)],
        mu02=mu[(0, 2)],
        mu30=mu[(3, 0)],
        mu21=mu[(2, 1)],
        mu12=mu[(1, 2)],
        mu03=mu[(0, 3)],
        nu20=nu[(2, 0)],
        nu11=nu[(1, 1)],
        nu02=nu[(0, 2)],
        nu30=nu[(3, 0)],
        nu21=nu[(2, 1)],
        nu12=nu[(1, 2)],
        nu03=nu[(0, 3)],
    )


#: ``(p, first q, stop q)`` groups of the nine raw moments past ``m00`` and
#: of the seven central moments.  The qs of one p are consecutive, so each
#: group is one multiply against a slice of the y power table.
_RAW_GROUPS = ((0, 1, 4), (1, 0, 3), (2, 0, 2), (3, 0, 1))
_CENTRAL_GROUPS = ((0, 2, 4), (1, 1, 3), (2, 0, 2), (3, 0, 1))


def _moment_sums(
    data: np.ndarray,
    x_pow: list[np.ndarray],
    y_pow: list[np.ndarray],
    groups: tuple[tuple[int, int, int], ...],
) -> dict[tuple[int, int], float]:
    """``sum(data * x^p * y^q)`` for every ``(p, q)`` of *groups*.

    *x_pow* holds the ``(1, W)`` powers 0..3 of the (centred) x
    coordinates and *y_pow* the ``(H, 1)`` powers of the y coordinates.
    """
    orders = [(p, q) for p, start, stop in groups for q in range(start, stop)]
    planes = np.zeros((len(orders),) + data.shape)
    y_table = np.array(y_pow)
    row = 0
    for p, start, stop in groups:
        np.multiply(data * x_pow[p], y_table[start:stop], out=planes[row : row + stop - start])
        row += stop - start
    sums = planes.reshape(len(orders), -1).sum(axis=1).tolist()
    return dict(zip(orders, sums))


def hu_moments(moments: Moments | np.ndarray) -> np.ndarray:
    """The seven Hu invariants of a region (translation/rotation/scale
    invariant), in OpenCV's ordering.

    Accepts either a :class:`Moments` record or a raw 2-D image, in which
    case moments are computed first.
    """
    if isinstance(moments, np.ndarray):
        moments = image_moments(moments)
    n20, n02, n11 = moments.nu20, moments.nu02, moments.nu11
    n30, n21, n12, n03 = moments.nu30, moments.nu21, moments.nu12, moments.nu03

    h1 = n20 + n02
    h2 = (n20 - n02) ** 2 + 4.0 * n11**2
    h3 = (n30 - 3.0 * n12) ** 2 + (3.0 * n21 - n03) ** 2
    h4 = (n30 + n12) ** 2 + (n21 + n03) ** 2
    h5 = (n30 - 3.0 * n12) * (n30 + n12) * (
        (n30 + n12) ** 2 - 3.0 * (n21 + n03) ** 2
    ) + (3.0 * n21 - n03) * (n21 + n03) * (3.0 * (n30 + n12) ** 2 - (n21 + n03) ** 2)
    h6 = (n20 - n02) * ((n30 + n12) ** 2 - (n21 + n03) ** 2) + 4.0 * n11 * (
        n30 + n12
    ) * (n21 + n03)
    h7 = (3.0 * n21 - n03) * (n30 + n12) * (
        (n30 + n12) ** 2 - 3.0 * (n21 + n03) ** 2
    ) - (n30 - 3.0 * n12) * (n21 + n03) * (3.0 * (n30 + n12) ** 2 - (n21 + n03) ** 2)

    return np.array([h1, h2, h3, h4, h5, h6, h7], dtype=np.float64)
