"""The forked store build: equal to the one-view-at-a-time build, and tidy.

``build_store`` hashes unmemoised views and extracts cold views in pools
forked from the building process, chunk by chunk, then replays every cache
lookup in view order with the extracted values.  These tests shrink the
chunk so that an SNS1 build runs in two workers, and pin that the pooled
build leaves the same store bytes, manifest, version id, digests, cache
tiers and ``CacheStats`` as the serial one, that a warm rebuild forks
nothing, and that no worker process or staging directory survives a
build, whether it returns or raises.
"""

import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

from repro.datasets.dataset import ImageDataset
from repro.engine.cache import FeatureCache, content_hash, memoised_hash
from repro.errors import ImageError, StoreError
from repro.pipelines.hybrid import HybridPipeline
from repro.store import DEFAULT_FAMILIES, build_store
from repro.store import builder

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pooled build forks",
)

#: SNS1's 82 views cut into two chunks.
HALF = 41


@pytest.fixture()
def pools(monkeypatch):
    """Worker counts of the pools the builds start, on a two-CPU view of
    this host (so a one-CPU runner still forks)."""
    started = []
    fork_pool = builder._fork_pool

    def spy(workers, job):
        started.append(workers)
        return fork_pool(workers, job)

    monkeypatch.setattr(builder, "_fork_pool", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return started


def build(references, root, families, chunk, monkeypatch, cache=None):
    monkeypatch.setattr(builder, "CHUNK_VIEWS", chunk)
    cache = cache if cache is not None else FeatureCache(disk_dir=root / "cache")
    result = build_store(references, root / "store", families=families, cache=cache)
    return result, cache


def fresh_pixels(references):
    """*references* with new pixel arrays, so no digest is memoised."""
    items = tuple(
        dataclasses.replace(item, image=np.array(item.image)) for item in references
    )
    return ImageDataset(name=references.name, items=items)


def files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def entries(cache):
    return [(key, value.dtype, value.tobytes()) for key, value in cache._entries.items()]


class TestPooledEqualsSerial:
    @pytest.mark.parametrize(
        "families", [("shape", "color"), DEFAULT_FAMILIES], ids=["matrices", "all"]
    )
    def test_same_store_cache_and_stats(self, sns1, tmp_path, monkeypatch, pools, families):
        serial, serial_cache = build(sns1, tmp_path / "serial", families, 10**6, monkeypatch)
        assert pools == []
        pooled, pooled_cache = build(sns1, tmp_path / "pooled", families, HALF, monkeypatch)
        assert pools == [2]  # the serial build memoised every digest
        assert pooled.store_version == serial.store_version
        assert pooled.manifest == serial.manifest
        assert files(pooled.path) == files(serial.path)
        assert entries(pooled_cache) == entries(serial_cache)
        assert pooled_cache.stats == serial_cache.stats
        assert serial_cache.stats.misses == len(families) * len(sns1)
        assert files(tmp_path / "pooled" / "cache") == files(tmp_path / "serial" / "cache")

    def test_digests_hashed_in_the_pool_are_content_hashes(
        self, sns1, tmp_path, monkeypatch, pools
    ):
        references = fresh_pixels(sns1)
        pooled, _ = build(references, tmp_path, ("shape", "color"), HALF, monkeypatch)
        assert pools == [2, 2]  # hashing, then extraction
        assert pooled.store_version == builder.store_version_id(
            sns1, builder.HISTOGRAM_BINS, ("shape", "color")
        )
        digests = [memoised_hash(item.image) for item in references]
        assert digests == [content_hash(np.array(item.image)) for item in references]

    def test_disk_tier_hits_match(self, sns1, tmp_path, monkeypatch, pools):
        # Warm disk, cold memory: both builds read every entry from disk,
        # so the pooled one has nothing to extract.
        build(sns1, tmp_path / "warm", ("shape", "color"), 10**6, monkeypatch)
        stats = []
        for chunk, name in ((10**6, "serial"), (HALF, "pooled")):
            cache = FeatureCache(disk_dir=tmp_path / "warm" / "cache")
            build(sns1, tmp_path / name, ("shape", "color"), chunk, monkeypatch, cache)
            stats.append(cache.stats)
        assert pools == []
        assert stats[0] == stats[1]
        assert stats[1].disk_hits == stats[1].hits == 2 * len(sns1)

    def test_rebuild_after_fit_starts_no_pool(self, sns1, tmp_path, monkeypatch, pools):
        cache = FeatureCache()
        pipeline = HybridPipeline()
        pipeline.cache = cache
        pipeline.fit(sns1)
        before = (cache.stats.hits, cache.stats.misses)
        build(sns1, tmp_path, ("shape", "color"), HALF, monkeypatch, cache)
        assert pools == []
        assert cache.stats.misses == before[1]
        assert cache.stats.hits == before[0] + 2 * len(sns1)

    def test_one_chunk_builds_inline(self, sns1, tmp_path, monkeypatch, pools):
        # An 82-view library is one chunk at the module's chunk size.
        build(sns1, tmp_path, ("shape", "color"), builder.CHUNK_VIEWS, monkeypatch)
        assert pools == []


def with_bad_view(references, at):
    """*references* with a 4-D image at index *at*: extraction raises."""
    bad = dataclasses.replace(references[0], image=np.zeros((4, 4, 3, 2)), view_id=999)
    items = list(references.items)
    items.insert(at, bad)
    return ImageDataset(name="sns1+bad", items=tuple(items))


class TestProcessHygiene:
    def test_no_worker_outlives_a_build(self, sns1, tmp_path, monkeypatch, pools):
        build(fresh_pixels(sns1), tmp_path, ("shape", "color"), HALF, monkeypatch)
        assert pools == [2, 2]
        assert multiprocessing.active_children() == []
        assert not list((tmp_path / "store").glob(".staging-*"))

    @pytest.mark.parametrize("chunk", [10**6, HALF], ids=["serial", "pooled"])
    def test_a_bad_view_raises_and_leaves_nothing(
        self, sns1, tmp_path, monkeypatch, pools, chunk
    ):
        references = with_bad_view(sns1, at=60)  # in the second chunk
        with pytest.raises(ImageError):
            build(references, tmp_path, ("shape", "color"), chunk, monkeypatch)
        assert (2 in pools) == (chunk < len(references))
        assert multiprocessing.active_children() == []
        assert [path.name for path in (tmp_path / "store").iterdir()] == []

    @pytest.mark.parametrize("chunk", [10**6, HALF], ids=["serial", "pooled"])
    def test_a_failed_save_removes_its_staging(
        self, sns1, tmp_path, monkeypatch, pools, chunk
    ):
        def fail(*args, **kwargs):
            raise StoreError("disk full")

        monkeypatch.setattr(builder, "_save_matrix", fail)
        with pytest.raises(StoreError, match="disk full"):
            build(sns1, tmp_path, ("shape", "color"), chunk, monkeypatch)
        assert [path.name for path in (tmp_path / "store").iterdir()] == []
