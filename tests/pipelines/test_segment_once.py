"""Segment once: the hybrid and the store builder crop each item one time.

The shape and colour features both come from the same object crop.  These
tests count calls to ``extract_object_crop`` and check the feature cache's
accounting: a fresh hybrid query is segmented once and records one miss in
each of its two namespaces, a repeated query is not segmented at all, and
entries stay shared with the shape-only and colour-only pipelines.
"""

import dataclasses

import numpy as np
import pytest

import repro.pipelines.preprocess as preprocess
from repro.engine.cache import FeatureCache, ReferenceMatrixCache
from repro.errors import ImageError
from repro.imaging.match_shapes import ShapeDistance
from repro.pipelines.color_only import (
    COLOR_FEATURE_VERSION,
    color_feature_namespace,
    color_features,
)
from repro.pipelines.hybrid import HybridPipeline
from repro.pipelines.shape_only import (
    SHAPE_FEATURE_NAMESPACE,
    SHAPE_FEATURE_VERSION,
    ShapeOnlyPipeline,
    shape_features,
)
from repro.store import ReferenceStore, build_store

from tests.engine.synthetic import make_image_set

BINS = 8
REFERENCES = make_image_set(seed=51, count=6, name="refs")
QUERIES = list(make_image_set(seed=52, count=3, name="q", source="sns2"))


@pytest.fixture()
def segmentations(monkeypatch):
    """The number of ``extract_object_crop`` calls made so far."""
    calls = []
    original = preprocess.extract_object_crop

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(preprocess, "extract_object_crop", counted)
    return calls


def fresh_hybrid(cache=None):
    pipeline = HybridPipeline(bins=BINS)
    pipeline.cache = cache if cache is not None else FeatureCache()
    pipeline.matrix_cache = ReferenceMatrixCache()
    return pipeline


def assert_cached_in_both_namespaces(cache, image):
    def absent():
        raise AssertionError("feature missing from the cache")

    cache.get_or_compute(SHAPE_FEATURE_NAMESPACE, SHAPE_FEATURE_VERSION, image, absent)
    cache.get_or_compute(
        color_feature_namespace(BINS), COLOR_FEATURE_VERSION, image, absent
    )


class TestHybridQueries:
    def test_fresh_query_segments_once_and_misses_once_per_namespace(self, segmentations):
        pipeline = fresh_hybrid().fit(REFERENCES)
        cache = pipeline.cache
        for query in QUERIES:
            before, misses, entries = len(segmentations), cache.stats.misses, len(cache)
            pipeline.predict(query)
            assert len(segmentations) - before == 1
            assert cache.stats.misses - misses == 2
            assert len(cache) - entries == 2
            assert_cached_in_both_namespaces(cache, query.image)

    def test_repeated_query_does_not_segment(self, segmentations):
        pipeline = fresh_hybrid().fit(REFERENCES)
        pipeline.predict_batch(QUERIES)
        before, misses = len(segmentations), pipeline.cache.stats.misses
        pipeline.predict_batch(QUERIES)
        pipeline.theta_scores(QUERIES[0])
        assert len(segmentations) == before
        assert pipeline.cache.stats.misses == misses

    def test_every_entry_point_segments_each_query_once(self, segmentations):
        pipeline = fresh_hybrid().fit(REFERENCES)
        for shade, run in enumerate((
            lambda q: pipeline.theta_scores(q),
            lambda q: pipeline.theta_scores_batch([q]),
            lambda q: pipeline.champion_batch([q]),
            lambda q: pipeline.extract_features(q),
        )):
            query = dataclasses.replace(QUERIES[0], image=QUERIES[0].image.copy())
            query.image[0, 0] = 0.98 + 0.005 * shade  # new content, new cache key
            before = len(segmentations)
            run(query)
            assert len(segmentations) - before == 1

    def test_features_equal_the_single_feature_functions(self):
        pipeline = fresh_hybrid()
        for query in QUERIES:
            shape, color = pipeline.extract_features(query)
            assert np.array_equal(shape, shape_features(query))
            assert np.array_equal(color, color_features(query, bins=BINS))

    def test_fit_segments_each_view_once(self, segmentations):
        fresh_hybrid().fit(REFERENCES)
        assert len(segmentations) == len(REFERENCES)


def test_hybrid_after_shape_only_fit_computes_only_colour(segmentations, monkeypatch):
    import repro.pipelines.hybrid as hybrid

    cache = FeatureCache()
    shape_only = ShapeOnlyPipeline(ShapeDistance.L3)
    shape_only.cache = cache
    shape_only.matrix_cache = ReferenceMatrixCache()
    shape_only.fit(REFERENCES)
    assert len(segmentations) == len(REFERENCES)

    computed = []
    for name in ("crop_hu", "crop_histogram"):
        original = getattr(hybrid, name)
        monkeypatch.setattr(
            hybrid,
            name,
            lambda *args, name=name, original=original: (
                computed.append(name) or original(*args)
            ),
        )
    hits, misses = cache.stats.hits, cache.stats.misses
    fresh_hybrid(cache).fit(REFERENCES)
    assert computed == ["crop_histogram"] * len(REFERENCES)
    assert len(segmentations) == 2 * len(REFERENCES)
    assert cache.stats.hits - hits == len(REFERENCES)
    assert cache.stats.misses - misses == len(REFERENCES)


class TestStoreBuild:
    def test_both_families_segment_each_view_once(self, segmentations, tmp_path):
        built = build_store(
            REFERENCES, tmp_path, bins=BINS, families=("shape", "color"),
            cache=FeatureCache(),
        )
        assert len(segmentations) == len(REFERENCES)
        attached = fresh_hybrid().attach_store(ReferenceStore.attach(tmp_path))
        fitted = fresh_hybrid().fit(REFERENCES)
        assert np.array_equal(
            attached.theta_scores_batch(QUERIES), fitted.theta_scores_batch(QUERIES)
        )
        assert {shard.namespace for shard in built.manifest.shards} == {
            SHAPE_FEATURE_NAMESPACE,
            color_feature_namespace(BINS),
        }

    @pytest.mark.parametrize("family", ["shape", "color"])
    def test_one_family_still_builds(self, segmentations, tmp_path, family):
        built = build_store(
            REFERENCES, tmp_path, bins=BINS, families=(family,), cache=FeatureCache()
        )
        assert len(segmentations) == len(REFERENCES)
        assert [shard.namespace for shard in built.manifest.shards] == [
            SHAPE_FEATURE_NAMESPACE if family == "shape" else color_feature_namespace(BINS)
        ]


def test_shape_failure_raises_before_any_colour_is_cached():
    pipeline = fresh_hybrid()
    malformed = dataclasses.replace(QUERIES[0], image=np.zeros((8, 8, 4)))
    with pytest.raises(ImageError):
        pipeline.extract_features(malformed)
    assert len(pipeline.cache) == 0
    assert pipeline.cache.stats.misses == 1
    # The colour-only extraction fails on the same validation.
    with pytest.raises(ImageError):
        color_features(malformed, bins=BINS)
