"""Unit tests for the two-tier feature cache."""

import pickle

import numpy as np
import pytest

from repro.engine.cache import FeatureCache, content_hash, default_cache, set_default_cache
from repro.errors import EngineError


def image(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(8, 8, 3))


class TestContentHash:
    def test_deterministic(self):
        assert content_hash(image(1)) == content_hash(image(1))

    def test_sensitive_to_pixels(self):
        assert content_hash(image(1)) != content_hash(image(2))

    def test_sensitive_to_shape_and_dtype(self):
        flat = np.zeros(12)
        assert content_hash(flat) != content_hash(flat.reshape(3, 4))
        assert content_hash(flat) != content_hash(flat.astype(np.float32))

    def test_ignores_memory_layout(self):
        data = image(3)
        transposed_back = np.asfortranarray(data)
        assert content_hash(data) == content_hash(transposed_back)


def _tobytes_digest(data) -> str:
    """``content_hash`` as formulated with a ``tobytes()`` copy."""
    import hashlib

    array = np.ascontiguousarray(data)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(array.dtype).encode("ascii"))
    digest.update(str(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


class TestContentHashBuffer:
    """Hashing the contiguous buffer gives the ``tobytes()`` digest, so no
    cache entry or store version is re-keyed."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.random((6, 5, 3)),
            lambda rng: np.asfortranarray(rng.random((6, 5, 3))),
            lambda rng: rng.random((12, 10, 3))[::2, 1::3],
            lambda rng: rng.random((7, 9)).T,
            lambda rng: np.float64(rng.random()).reshape(()),
            lambda rng: rng.random((5, 4)) > 0.5,
            lambda rng: rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8),
            lambda rng: rng.random((6, 5, 3)).astype(np.float32),
            lambda rng: np.zeros((0, 3)),
        ],
        ids=["c", "fortran", "strided", "transposed", "0-d", "bool", "uint8", "float32", "empty"],
    )
    def test_digest_equals_the_tobytes_digest(self, make, rng):
        data = make(rng)
        assert content_hash(data) == _tobytes_digest(data)

    def test_store_version_id_is_unchanged(self, sns1):
        from repro.config import HISTOGRAM_BINS
        from repro.store.builder import DEFAULT_FAMILIES, store_version_id

        assert store_version_id(sns1, HISTOGRAM_BINS, DEFAULT_FAMILIES) == "ae85d932102d02fe"


class TestContentHashMemo:
    """The per-object digest memo: hash once, reuse across namespaces."""

    def test_repeat_lookups_reuse_the_memoised_digest(self):
        from repro.engine.cache import _CONTENT_HASH_MEMO

        data = image(11)
        first = content_hash(data)
        assert _CONTENT_HASH_MEMO.get(id(data)) == first
        assert content_hash(data) == first

    def test_memo_entry_evicted_when_the_array_is_collected(self):
        import gc

        from repro.engine.cache import _CONTENT_HASH_MEMO

        data = image(12)
        key = id(data)
        content_hash(data)
        assert key in _CONTENT_HASH_MEMO
        del data
        gc.collect()
        assert key not in _CONTENT_HASH_MEMO

    def test_distinct_objects_with_equal_content_agree(self):
        # The memo is an optimisation, never a semantic change: two arrays
        # with identical content still produce one digest.
        assert content_hash(image(13)) == content_hash(image(13))

    def test_non_weakrefable_inputs_still_hash(self):
        # Plain nested lists cannot carry a weakref; the memo is skipped but
        # the digest is still computed (and matches the ndarray form).
        payload = [[0.0, 1.0], [2.0, 3.0]]
        assert content_hash(payload) == content_hash(np.asarray(payload))


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = FeatureCache()
        calls = []
        value = cache.get_or_compute("ns", "v1", image(1), lambda: calls.append(1) or 7)
        again = cache.get_or_compute("ns", "v1", image(1), lambda: calls.append(1) or 8)
        assert value == 7 and again == 7
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_namespace_and_version_separate_entries(self):
        cache = FeatureCache()
        a = cache.get_or_compute("ns-a", "v1", image(1), lambda: "a")
        b = cache.get_or_compute("ns-b", "v1", image(1), lambda: "b")
        c = cache.get_or_compute("ns-a", "v2", image(1), lambda: "c")
        assert (a, b, c) == ("a", "b", "c")
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_lru_eviction_drops_oldest(self):
        cache = FeatureCache(capacity=2)
        cache.get_or_compute("ns", "v1", image(1), lambda: 1)
        cache.get_or_compute("ns", "v1", image(2), lambda: 2)
        # Touch image(1) so image(2) becomes the LRU entry.
        cache.get_or_compute("ns", "v1", image(1), lambda: -1)
        cache.get_or_compute("ns", "v1", image(3), lambda: 3)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # image(2) was evicted: recompute happens.
        assert cache.get_or_compute("ns", "v1", image(2), lambda: 22) == 22

    def test_invalid_capacity_rejected(self):
        with pytest.raises(EngineError):
            FeatureCache(capacity=0)

    def test_clear_resets_entries_and_stats(self):
        cache = FeatureCache()
        cache.get_or_compute("ns", "v1", image(1), lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 0 and cache.stats.misses == 0


class TestDiskTier:
    def test_survives_new_instance(self, tmp_path):
        first = FeatureCache(disk_dir=tmp_path)
        value = first.get_or_compute("ns", "v1", image(1), lambda: np.arange(7.0))
        second = FeatureCache(disk_dir=tmp_path)
        loaded = second.get_or_compute(
            "ns", "v1", image(1), lambda: pytest.fail("should load from disk")
        )
        np.testing.assert_array_equal(value, loaded)
        assert second.stats.disk_hits == 1 and second.stats.hits == 1

    def test_version_bump_invalidates(self, tmp_path):
        first = FeatureCache(disk_dir=tmp_path)
        first.get_or_compute("ns", "v1", image(1), lambda: "old")
        second = FeatureCache(disk_dir=tmp_path)
        fresh = second.get_or_compute("ns", "v2", image(1), lambda: "new")
        assert fresh == "new"
        assert second.stats.misses == 1

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = FeatureCache(disk_dir=tmp_path)
        cache.get_or_compute("ns", "v1", image(1), lambda: "good")
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        fresh = FeatureCache(disk_dir=tmp_path)
        assert fresh.get_or_compute("ns", "v1", image(1), lambda: "recomputed") == "recomputed"


class TestQuarantine:
    """Torn writes and garbled bytes become plain misses, never crashes."""

    def _sole_pickle(self, tmp_path):
        paths = list(tmp_path.glob("*.pkl"))
        assert len(paths) == 1
        return paths[0]

    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path):
        from repro.engine.chaos import truncate_file

        cache = FeatureCache(disk_dir=tmp_path)
        cache.get_or_compute("ns", "v1", image(1), lambda: np.arange(64.0))
        truncate_file(self._sole_pickle(tmp_path))
        fresh = FeatureCache(disk_dir=tmp_path)
        value = fresh.get_or_compute("ns", "v1", image(1), lambda: "recomputed")
        assert value == "recomputed"
        assert fresh.stats.corrupt == 1
        # The bad entry is moved aside (not deleted) for post-mortems, and
        # no longer shadows the key.
        assert list(tmp_path.glob("*.corrupt"))
        assert fresh.get_or_compute(
            "ns", "v1", image(1), lambda: pytest.fail("should hit memory")
        ) == "recomputed"

    def test_garbled_entry_quarantined(self, tmp_path):
        from repro.engine.chaos import garble_file

        cache = FeatureCache(disk_dir=tmp_path)
        cache.get_or_compute("ns", "v1", image(2), lambda: {"k": 3})
        garble_file(self._sole_pickle(tmp_path), seed=5)
        fresh = FeatureCache(disk_dir=tmp_path)
        assert fresh.get_or_compute("ns", "v1", image(2), lambda: "again") == "again"
        assert fresh.stats.corrupt == 1

    def test_healthy_entries_unaffected_by_a_corrupt_neighbour(self, tmp_path):
        from repro.engine.chaos import garble_file

        cache = FeatureCache(disk_dir=tmp_path)
        cache.get_or_compute("ns", "v1", image(3), lambda: "healthy")
        cache.get_or_compute("ns", "v1", image(4), lambda: "doomed")
        victim = sorted(tmp_path.glob("*.pkl"))[0]
        garble_file(victim, seed=1)
        fresh = FeatureCache(disk_dir=tmp_path)
        first = fresh.get_or_compute("ns", "v1", image(3), lambda: "recomputed-3")
        second = fresh.get_or_compute("ns", "v1", image(4), lambda: "recomputed-4")
        # Exactly one of the two entries was corrupted; the other loads.
        assert {first, second} & {"healthy", "doomed"}
        assert fresh.stats.corrupt == 1


class TestPickling:
    def test_cache_roundtrips_and_stays_functional(self):
        cache = FeatureCache()
        cache.get_or_compute("ns", "v1", image(1), lambda: 42)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get_or_compute(
            "ns", "v1", image(1), lambda: pytest.fail("entry lost")
        ) == 42


class TestDefaultCache:
    def test_set_default_swaps_and_returns_previous(self):
        replacement = FeatureCache(capacity=4)
        previous = set_default_cache(replacement)
        try:
            assert default_cache() is replacement
        finally:
            set_default_cache(previous)
        assert default_cache() is previous
