"""The per-view extraction steps equal the NumPy/SciPy formulations they
replace, bit for bit.

* :func:`rgb_histogram` counts all three channels with one ``np.bincount``;
  its counts must equal per-channel ``np.histogram(range=(0, 1))`` on
  every value, including values exactly on a bin edge, their ``nextafter``
  neighbours, signed zeros, NaN, infinities and out-of-range values.
* :func:`fill_holes` labels the framed background once; it must fill the
  set ``ndimage.binary_fill_holes`` fills, holes and border-touching bays
  alike, and ``crop_hu`` must give the Hu vector of that set.
* :func:`image_moments` reduces stacked product planes; every moment must
  equal the one-moment-at-a-time formula kept below as the reference.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.imaging.histogram import rgb_histogram
from repro.imaging.moments import hu_moments, image_moments
from repro.imaging.morphology import fill_holes
from repro.pipelines.shape_only import crop_hu

#: 7 and 10 bins put some values on the far side of a linspace edge from
#: where ``v * bins`` truncates them, so NumPy's increment (7) and
#: decrement (10) corrections both fire; 2, 3, 16 and 64 never need them.
BINS = (2, 3, 7, 10, 16, 64)
SPECIALS = (0.0, -0.0, 1.0, np.nan, np.inf, -np.inf, -0.5, 1.5, -1e-300, 2.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _reference_counts(image, bins, mask=None):
    """The per-channel ``np.histogram`` counts ``rgb_histogram`` replaced."""
    parts = []
    for channel in range(3):
        values = image[..., channel]
        if mask is not None:
            values = values[mask]
        counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
        parts.append(counts.astype(np.float64))
    return np.concatenate(parts)


def _edge_values(bins):
    """Every bin edge ``k / bins``, both its float neighbours, and the
    special values."""
    edges = np.arange(bins + 1) / bins
    near = np.concatenate(
        [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
    )
    return np.concatenate([near, np.linspace(0.0, 1.0, 7 * bins + 1), SPECIALS])


def _as_image(values, rng):
    """A ``(n, 1, 3)`` image whose every channel holds all of *values*, each
    in its own order."""
    values = np.asarray(values, dtype=np.float64)
    channels = [rng.permutation(values) for _ in range(3)]
    return np.stack(channels, axis=-1)[:, None, :]


class TestFusedHistogram:
    @pytest.mark.parametrize("bins", BINS)
    def test_edges_neighbours_and_specials(self, bins, rng):
        image = _as_image(_edge_values(bins), rng)
        counts = rgb_histogram(image, bins=bins, normalise=False)
        assert _bits(counts) == _bits(_reference_counts(image, bins))

    @pytest.mark.parametrize("bins", BINS)
    def test_masked_and_normalised(self, bins, rng):
        image = _as_image(_edge_values(bins), rng)
        mask = rng.random(image.shape[:2]) < 0.6
        mask[0, 0] = True
        reference = _reference_counts(image, bins, mask)
        hist = rgb_histogram(image, bins=bins, mask=mask)
        assert _bits(hist) == _bits(reference / reference.sum())

    def test_only_out_of_range_values_count_nothing(self):
        image = np.full((4, 4, 3), np.nan)
        image[0, 0] = (np.inf, -1.0, 1.5)
        counts = rgb_histogram(image, bins=16, normalise=False)
        assert _bits(counts) == _bits(np.zeros(48))
        assert _bits(rgb_histogram(image, bins=16)) == _bits(np.zeros(48))

    def test_uint8_image(self, rng):
        image = rng.integers(0, 256, size=(13, 11, 3), dtype=np.uint8)
        for bins in BINS:
            counts = rgb_histogram(image, bins=bins, normalise=False)
            assert _bits(counts) == _bits(_reference_counts(image / 255.0, bins))

    @settings(max_examples=60, deadline=None)
    @given(
        bins=st.sampled_from(BINS),
        values=st.lists(
            st.one_of(
                st.floats(min_value=-0.1, max_value=1.1),
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from(SPECIALS),
                st.integers(min_value=0, max_value=64).map(lambda k: k / 64),
            ),
            min_size=3,
            max_size=90,
        ),
    )
    def test_any_values(self, bins, values):
        values = values[: len(values) - len(values) % 3]
        image = np.asarray(values, dtype=np.float64).reshape(-1, 1, 3)
        counts = rgb_histogram(image, bins=bins, normalise=False)
        assert _bits(counts) == _bits(_reference_counts(image, bins))


def _random_masks(rng):
    masks = []
    for size in ((1, 1), (1, 7), (5, 1), (9, 9), (17, 23), (40, 31)):
        for density in (0.2, 0.5, 0.8):
            masks.append(rng.random(size) < density)
    ring = np.zeros((12, 12), dtype=bool)
    ring[2:10, 2:10] = True
    ring[4:8, 4:8] = False  # one hole
    ring[5, 5] = True  # an island inside it
    masks.append(ring)
    bay = ring.copy()
    bay[4:8, 0:5] = False  # a background bay that reaches the border
    masks.append(bay)
    frame = np.ones((10, 14), dtype=bool)
    frame[3:7, 3:11] = False  # a hole enclosed by border-touching foreground
    masks.append(frame)
    diagonal = np.zeros((6, 6), dtype=bool)
    diagonal[[1, 2, 3, 2], [2, 1, 2, 3]] = True  # 4-connected hole of one pixel
    masks.append(diagonal)
    return masks


class TestLabelFill:
    def test_equals_binary_fill_holes(self, rng):
        for mask in _random_masks(rng):
            assert np.array_equal(fill_holes(mask), ndimage.binary_fill_holes(mask))

    @settings(max_examples=80, deadline=None)
    @given(
        height=st.integers(min_value=1, max_value=24),
        width=st.integers(min_value=1, max_value=24),
        density=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_masks(self, height, width, density, seed):
        mask = np.random.default_rng(seed).random((height, width)) < density
        assert np.array_equal(fill_holes(mask), ndimage.binary_fill_holes(mask))

    def test_crop_hu_is_hu_of_the_filled_mask(self, rng):
        for mask in _random_masks(rng):
            if not mask.any():
                continue
            crop = _Crop(mask)
            filled = ndimage.binary_fill_holes(np.pad(mask, 1))[1:-1, 1:-1]
            assert _bits(crop_hu(crop)) == _bits(hu_moments(filled.astype(np.float64)))


@dataclasses.dataclass
class _Crop:
    """The one field of an ``ObjectCrop`` that ``crop_hu`` reads."""

    mask: np.ndarray


def _reference_moments(image):
    """The one-moment-at-a-time formula ``image_moments`` replaced."""
    data = np.asarray(image, dtype=np.float64)
    m00 = data.sum()
    ys = np.arange(data.shape[0], dtype=np.float64)[:, None]
    xs = np.arange(data.shape[1], dtype=np.float64)[None, :]
    data_xp = [data * xs**p for p in range(4)]
    ys_pow = [ys**q for q in range(4)]

    def raw(p, q):
        return float((data_xp[p] * ys_pow[q]).sum())

    cx, cy = raw(1, 0) / m00, raw(0, 1) / m00
    dx, dy = xs - cx, ys - cy
    data_dxp = [data * dx**p for p in range(4)]
    dy_pow = [dy**q for q in range(4)]

    def central(p, q):
        return float((data_dxp[p] * dy_pow[q]).sum())

    fields = {"m00": float(m00)}
    for p in range(4):
        for q in range(4):
            if 1 <= p + q <= 3:
                fields[f"m{p}{q}"] = raw(p, q)
            if 2 <= p + q <= 3:
                mu = central(p, q)
                fields[f"mu{p}{q}"] = mu
                fields[f"nu{p}{q}"] = mu / m00 ** (1.0 + (p + q) / 2.0)
    return fields


class TestStackedMoments:
    def _check(self, image):
        got = dataclasses.asdict(image_moments(image))
        want = _reference_moments(image)
        assert got.keys() == want.keys()
        assert _bits([got[k] for k in want]) == _bits(list(want.values()))

    def test_random_masks(self, rng):
        for mask in _random_masks(rng):
            if mask.any():
                self._check(mask.astype(np.float64))

    def test_weighted_image(self, rng):
        self._check(rng.random((37, 29)))

    @settings(max_examples=60, deadline=None)
    @given(
        height=st.integers(min_value=1, max_value=64),
        width=st.integers(min_value=1, max_value=64),
        density=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_masks_up_to_64(self, height, width, density, seed):
        mask = np.random.default_rng(seed).random((height, width)) < density
        mask.flat[0] = True
        self._check(mask)
