"""Reference-feature memoisation keyed by image content.

Every matching pipeline re-derives per-image features (Hu moments, RGB
histograms, keypoint descriptors) from the raw pixels, and ``fit()`` used to
recompute them on every call.  :class:`FeatureCache` memoises extraction
behind a key of

    ``(namespace, version, content_hash(image))``

where *namespace* identifies the extractor family (e.g. ``shape-hu``,
``color-hist16``, ``desc-sift``), *version* is bumped whenever the extraction
algorithm changes (the invalidation rule — stale entries simply stop being
addressed), and the content hash covers the pixel bytes, shape and dtype.
Pipelines that share an extractor (shape-only L1/L2/L3, the hybrid's shape
term) therefore share cache entries.

Two tiers are provided: an in-memory LRU (always on) and an optional
on-disk tier (one pickle per entry under ``disk_dir``) that survives across
processes, so repeated ``fit()``/ablation runs skip re-extraction entirely.
"""

from __future__ import annotations

import hashlib
import pickle
import re
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.errors import EngineError

#: Default in-memory LRU capacity (entries).  Features are small — seven Hu
#: floats, a few-KB histogram — so even the full 6,934-image NYU sweep with
#: several namespaces fits comfortably.
DEFAULT_CAPACITY = 65536

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


#: Content-hash memo keyed by array object id.  Serving and the hybrid
#: pipeline look the *same* image up under several namespaces (shape, colour)
#: and across repeated requests; hashing ~100KB of pixels per lookup was the
#: single largest per-query cost.  A ``weakref.finalize`` evicts each entry
#: when its array is collected, so a recycled id can never serve a stale
#: digest.  (Like every cache in this module, the memo assumes images are
#: not mutated in place once they enter a pipeline.)
_CONTENT_HASH_MEMO: dict[int, str] = {}


def content_hash(image: np.ndarray) -> str:
    """Stable digest of an image's dtype, shape and pixel bytes.

    Memoised per array *object*: repeated lookups of the same image (the
    hybrid's shape + colour namespaces, every re-served query) hash the
    pixels once, not once per lookup.
    """
    memoised = memoised_hash(image)
    if memoised is not None:
        return memoised
    array = np.ascontiguousarray(image)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(array.dtype).encode("ascii"))
    digest.update(str(array.shape).encode("ascii"))
    # The C-contiguous buffer holds the bytes tobytes() would copy out.
    digest.update(array.data)
    return remember_hash(image, digest.hexdigest())


def memoised_hash(image: np.ndarray) -> str | None:
    """*image*'s :func:`content_hash` if it is memoised, without hashing."""
    return _CONTENT_HASH_MEMO.get(id(image))


def remember_hash(image: np.ndarray, digest: str) -> str:
    """Memoise *digest*, computed elsewhere (say, in a forked worker), as
    *image*'s :func:`content_hash`; returns it."""
    key = id(image)
    try:
        weakref.finalize(image, _CONTENT_HASH_MEMO.pop, key, None)
    except TypeError:
        return digest  # not weakref-able (e.g. a plain list): skip the memo
    _CONTENT_HASH_MEMO[key] = digest
    return digest


@dataclass
class CacheStats:
    """Lookup counters; ``disk_hits`` is the subset of hits served from disk,
    ``corrupt`` counts on-disk entries quarantined as unreadable."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> tuple[int, int]:
        """(hits, misses) — used to diff counters across a run."""
        return self.hits, self.misses


class FeatureCache:
    """Two-tier (memory LRU + optional disk) memoiser for extracted features.

    Thread-safe: executor threads may probe concurrently.  ``compute`` runs
    outside the lock, so two threads missing on the same key may both
    compute; extraction is deterministic, so the duplicated work is benign
    and the last writer wins.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        disk_dir: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise EngineError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[str, str, str], Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key(self, namespace: str, version: str, image: np.ndarray) -> tuple[str, str, str]:
        """The full cache key of *image* under *namespace*/*version*."""
        return (namespace, version, content_hash(image))

    def get_or_compute(
        self,
        namespace: str,
        version: str,
        image: np.ndarray,
        compute: Callable[[], Any],
    ) -> Any:
        """The memoised value of ``compute()`` for *image*."""
        key = self.key(namespace, version, image)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
        value, from_disk = self._load_from_disk(key)
        if from_disk:
            with self._lock:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._store(key, value)
            return value
        with self._lock:
            self.stats.misses += 1
        value = compute()
        with self._lock:
            self._store(key, value)
        self._write_to_disk(key, value)
        return value

    def holds(self, key: tuple[str, str, str]) -> bool:
        """Whether a lookup of *key* would hit a tier now (counts nothing)."""
        with self._lock:
            if key in self._entries:
                return True
        return self.disk_dir is not None and self._disk_path(key).is_file()

    def clear(self) -> None:
        """Drop the in-memory tier and reset counters (disk files remain)."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def invalidate_namespace(self, namespace: str) -> int:
        """Drop every in-memory entry of *namespace*, returning the count.

        The targeted eviction live enrollment needs: the swapped-in
        reference set re-addresses everything through content hashes, so
        stale entries could never be *served* — but the old namespace
        entries would pin memory until LRU pressure found them.  Disk-tier
        files stay (they are content-addressed and still valid).
        """
        with self._lock:
            doomed = [key for key in self._entries if key[0] == namespace]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    # -- internals ----------------------------------------------------------

    def _store(self, key: tuple[str, str, str], value: Any) -> None:
        # Private helper: every call site in get() already holds self._lock,
        # so the mutations below are lock-protected despite the lexical shape.
        # reprolint: disable=LCK301 -- _store is only called with self._lock held
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            # reprolint: disable=LCK301 -- _store is only called with self._lock held
            self._entries.popitem(last=False)
            # reprolint: disable=LCK301,LCK302 -- _store is only called with self._lock held
            self.stats.evictions += 1

    def _disk_path(self, key: tuple[str, str, str]) -> Path:
        namespace, version, digest = key
        safe = _SAFE_NAME.sub("_", f"{namespace}-{version}")
        assert self.disk_dir is not None
        return self.disk_dir / f"{safe}-{digest}.pkl"

    def _load_from_disk(self, key: tuple[str, str, str]) -> tuple[Any, bool]:
        if self.disk_dir is None:
            return None, False
        path = self._disk_path(key)
        if not path.is_file():
            return None, False
        try:
            with path.open("rb") as handle:
                return pickle.load(handle), True
        except OSError:
            return None, False  # unreadable right now: treat as a plain miss
        except Exception:
            # Truncated or garbled entry: unpickling can fail with anything
            # from EOFError to AttributeError depending on where the bytes
            # tear.  Quarantine the file (so the recompute's rewrite never
            # races a half-read) and treat the lookup as a miss.
            self._quarantine(path)
            return None, False

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside with a ``.corrupt`` suffix."""
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass  # a concurrent reader may have quarantined it already
        with self._lock:
            self.stats.corrupt += 1

    def _write_to_disk(self, key: tuple[str, str, str], value: Any) -> None:
        if self.disk_dir is None:
            return
        path = self._disk_path(key)
        tmp = path.with_suffix(".tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)  # atomic publish: readers never see partial files
        except OSError:
            tmp.unlink(missing_ok=True)

    # Locks don't pickle; the process backend ships pipelines (holding their
    # cache) to workers.  Workers get a functional copy whose counters and
    # entries diverge from the parent — acceptable, since parent-side results
    # are what the run reports.
    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "disk_dir": self.disk_dir,
                "entries": dict(self._entries),
                "stats": self.stats,
            }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.disk_dir = state["disk_dir"]
        self.stats = state["stats"]
        self._entries = OrderedDict(state["entries"])
        self._lock = threading.Lock()


#: Fingerprint memo keyed by dataset object id.  A ``weakref.finalize``
#: evicts each entry when its dataset is collected, so a recycled id can
#: never serve a stale digest.
_FINGERPRINT_MEMO: dict[int, str] = {}


def dataset_fingerprint(dataset: Any) -> str:
    """Stable digest of an ordered image collection's pixel content.

    Keyed on every item's :func:`content_hash`, so two datasets holding the
    same images in the same order share a fingerprint regardless of how they
    were built — the identity the reference-matrix cache needs.  Memoised
    per dataset *object*: refitting pipeline variants against the same
    reference set hashes the pixels once, not once per fit.  (The memo
    assumes images are not mutated in place after the first fingerprint,
    the same immutability every cache in this module relies on.)
    """
    key = id(dataset)
    memoised = _FINGERPRINT_MEMO.get(key)
    if memoised is not None:
        return memoised
    digest = hashlib.blake2b(digest_size=16)
    for item in dataset:
        digest.update(content_hash(item.image).encode("ascii"))
    fingerprint = digest.hexdigest()
    try:
        weakref.finalize(dataset, _FINGERPRINT_MEMO.pop, key, None)
    except TypeError:
        return fingerprint  # not weakref-able: skip the memo
    _FINGERPRINT_MEMO[key] = fingerprint
    return fingerprint


class ReferenceMatrixCache:
    """LRU memoiser for *stacked* reference-feature matrices.

    Batch scoring needs the whole reference library as one contiguous matrix
    (Hu log-signatures as ``(V, 7)``, histograms as ``(V, 3*bins)``).  The
    stack depends only on the extraction namespace/version, the reference
    images and the matrix dtype — not on the scoring metric — so the three
    shape distances share one matrix, the four colour metrics share another,
    and the hybrid reuses both.  Keys are ``(namespace, version,
    dataset_fingerprint, dtype)``: the dtype leg keeps a reduced-precision
    stack (a float32 scoring path) from colliding with — and silently
    serving — the float64 entries built for the exact kernels.

    Thread-safe with the same relaxed semantics as :class:`FeatureCache`:
    ``build`` runs outside the lock and the last writer wins.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise EngineError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[str, str, str, str], Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(
        self,
        namespace: str,
        version: str,
        references: Any,
        build: Callable[[], Any],
        dtype: str = "float64",
    ) -> Any:
        """The memoised value of ``build()`` for *references*.

        *dtype* names the matrix precision ``build()`` produces; callers
        stacking anything other than the default float64 must pass it so
        differently-typed stacks of the same references get distinct entries.
        """
        key = (namespace, version, dataset_fingerprint(references), dtype)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = build()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return value

    def clear(self) -> None:
        """Drop all entries and reset counters."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def invalidate_namespace(self, namespace: str) -> int:
        """Drop every stacked matrix of *namespace*, returning the count.

        Enrollment republishes the reference set under a new fingerprint,
        so old-fingerprint stacks can never be re-addressed; evicting them
        eagerly frees the ``(V, D)`` float64 blocks instead of waiting for
        LRU pressure.
        """
        with self._lock:
            doomed = [key for key in self._entries if key[0] == namespace]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    # Locks don't pickle; the process backend ships pipelines (holding their
    # matrix cache) to workers — same copy semantics as FeatureCache.
    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": dict(self._entries),
                "stats": self.stats,
            }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.stats = state["stats"]
        self._entries = OrderedDict(state["entries"])
        self._lock = threading.Lock()


#: Process-wide default cache shared by every pipeline that doesn't get an
#: explicit one — this is what makes repeated fits across table sweeps warm.
_DEFAULT_CACHE = FeatureCache()


def default_cache() -> FeatureCache:
    """The process-wide shared feature cache."""
    return _DEFAULT_CACHE


def set_default_cache(cache: FeatureCache) -> FeatureCache:
    """Replace the process-wide cache; returns the previous one (for tests)."""
    global _DEFAULT_CACHE
    previous = _DEFAULT_CACHE
    _DEFAULT_CACHE = cache
    return previous


#: Process-wide default reference-matrix cache, shared so the L1/L2/L3 shape
#: variants and the four colour metrics stack each reference set only once.
_DEFAULT_MATRIX_CACHE = ReferenceMatrixCache()


def default_matrix_cache() -> ReferenceMatrixCache:
    """The process-wide shared reference-matrix cache."""
    return _DEFAULT_MATRIX_CACHE


def set_default_matrix_cache(cache: ReferenceMatrixCache) -> ReferenceMatrixCache:
    """Replace the process-wide matrix cache; returns the previous one."""
    global _DEFAULT_MATRIX_CACHE
    previous = _DEFAULT_MATRIX_CACHE
    _DEFAULT_MATRIX_CACHE = cache
    return previous
