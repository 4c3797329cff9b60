"""Build columnar store versions from a reference image dataset.

:func:`build_store` extracts every reference feature family once — through
the shared :class:`~repro.engine.cache.FeatureCache`, under the exact
namespace/version keys the pipelines use, so a build after a fit (or vice
versa) is all cache hits, and segmenting each view once for both the shape
and colour families — stacks them into the contiguous matrices the
batch kernels consume, and publishes them as one immutable, content-
addressed store version:

* ``shape-hu/v1`` — the ``(V, 7)`` Hu log-signature matrix
  (:func:`~repro.imaging.match_shapes.hu_signature_matrix`), shared by the
  three shape distances and the hybrid's shape term;
* ``color-hist<bins>/v1`` — the ``(V, 3*bins)`` stacked histogram matrix,
  shared by the four colour metrics and the hybrid's colour term;
* ``desc-sift/v1`` — ragged float64 SIFT descriptors (concatenated rows +
  offsets);
* ``desc-orb/v1`` — ragged binary ORB descriptors, bit-packed with
  ``np.packbits`` (8x smaller on disk; the attach path unpacks rows back to
  the 0/1 uint8 layout the Hamming matcher consumes, bit for bit).

Views whose content digest is not memoised are hashed, and views the
feature cache cannot answer are extracted, in a pool forked from the
building process: :data:`CHUNK_VIEWS` contiguous views per task, one worker
per usable CPU (DESIGN.md, "Parallel store build").  Workers read the
inherited references, so no pixels are pickled, and take no cache lock;
this process then replays every cache lookup in view order, so the store,
the cache and its counters are those of a one-view-at-a-time build.

Because the stacked matrices are produced by the *same* functions the
in-process ``fit()`` path runs, a pipeline attached to the store scores
bit-identically to one fitted from pixels — the equivalence suite pins this
for every pipeline family.

The version id is a digest of the reference-dataset fingerprint plus the
build parameters, so rebuilding unchanged references is a no-op republish
and any change to the references (or bins, or store format) yields a fresh
version directory — the same invalidation-by-addressing rule as the
feature cache.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.config import HISTOGRAM_BINS
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.cache import (
    FeatureCache,
    content_hash,
    dataset_fingerprint,
    default_cache,
    memoised_hash,
    remember_hash,
)
from repro.errors import FeatureError, StoreError
from repro.imaging.histogram import stack_histograms
from repro.imaging.match_shapes import hu_signature_matrix
from repro.store.manifest import (
    MANIFEST_NAME,
    STORE_FORMAT,
    ShardSpec,
    StoreManifest,
    _remove_tree,
    file_digest,
    publish_version,
)

#: The feature families a default build materialises.  ``shape`` and
#: ``color`` are matrix shards; the descriptor families are ragged.
DEFAULT_FAMILIES = ("shape", "color", "desc-sift", "desc-orb")


@dataclass(frozen=True)
class StoreBuildResult:
    """Outcome of one :func:`build_store` call.

    ``created`` is False when the content-addressed version already existed
    and the build only re-pointed ``CURRENT`` at it.
    """

    store_dir: Path
    store_version: str
    path: Path
    manifest: StoreManifest
    created: bool


#: Views per pool task.  A build with no more cold views than this runs
#: inline, so a small enrollment republish never forks.
CHUNK_VIEWS = 256

#: What a chunk task reads: ``(references, bins, families)``.
Job = tuple[ImageDataset, int, tuple[str, ...]]

#: A forked worker's job, inherited through the fork, never pickled, so
#: memory-mapped pixels are never copied.
_FORKED_JOB: Job | None = None


def _family_keys(bins: int, families: Sequence[str]) -> list[tuple[str, str]]:
    """The feature-cache ``(namespace, version)`` of each of *families*: the
    keys the pipelines fit under, so builds and fits share entries."""
    from repro.pipelines.color_only import COLOR_FEATURE_VERSION, color_feature_namespace
    from repro.pipelines.shape_only import SHAPE_FEATURE_NAMESPACE, SHAPE_FEATURE_VERSION

    keys = {
        "shape": (SHAPE_FEATURE_NAMESPACE, SHAPE_FEATURE_VERSION),
        "color": (color_feature_namespace(bins), COLOR_FEATURE_VERSION),
        "desc-sift": ("desc-sift", "v1"),
        "desc-orb": ("desc-orb", "v1"),
    }
    return [keys[family] for family in families]


def _descriptors(item: LabelledImage, method: str) -> np.ndarray:
    from repro.features.orb import OrbExtractor
    from repro.features.sift import SiftExtractor

    extractor = OrbExtractor() if method == "orb" else SiftExtractor()
    try:
        _, descriptors = extractor.detect_and_compute(item.image)
    except FeatureError:
        descriptors = np.zeros((0, extractor.descriptor_size))
    return descriptors


def _hash_chunk(job: Job, indices: Sequence[int]) -> list[str]:
    return [content_hash(job[0][index].image) for index in indices]


def _extract_chunk(job: Job, indices: Sequence[int]) -> list[tuple[np.ndarray, ...]]:
    """Every family of the views at *indices*, each view segmented once,
    with no cache and so no lock: a build may fork while a serving thread
    holds the cache lock, and a worker must never take a lock it inherited
    held."""
    from repro.pipelines.hybrid import cached_features

    references, bins, families = job
    extracted = []
    for index in indices:
        item = references[index]
        values = cached_features(None, item, bins, families)
        for family in families:
            if family.startswith("desc-"):
                values[family] = _descriptors(item, family[len("desc-") :])
        extracted.append(tuple(values[family] for family in families))
    return extracted


def _adopt(job: Job) -> None:
    global _FORKED_JOB
    _FORKED_JOB = job


def _forked_chunk(task: tuple[Callable[[Job, Sequence[int]], list], list[int]]) -> list:
    run, indices = task
    assert _FORKED_JOB is not None
    return run(_FORKED_JOB, indices)


def _fork_pool(workers: int, job: Job):
    """*workers* processes forked from this one, each holding *job*."""
    return multiprocessing.get_context("fork").Pool(
        workers, initializer=_adopt, initargs=(job,)
    )


def _run_chunks(
    run: Callable[[Job, Sequence[int]], list], job: Job, indices: list[int]
) -> list:
    """``run(job, chunk)`` over *indices* in chunks of :data:`CHUNK_VIEWS`,
    on one forked worker per usable CPU, or inline when that is one; the
    results in view order.  The first error in view order propagates, and
    no worker outlives the call."""
    chunks = [indices[at : at + CHUNK_VIEWS] for at in range(0, len(indices), CHUNK_VIEWS)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(chunks))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        blocks = [run(job, chunk) for chunk in chunks]
    else:
        pool = _fork_pool(workers, job)
        try:
            blocks = list(pool.imap(_forked_chunk, [(run, chunk) for chunk in chunks]))
            pool.close()
        finally:
            pool.terminate()
            pool.join()
    return [result for block in blocks for result in block]


def _memoise_hashes(job: Job) -> None:
    """Hash every reference view whose content digest is not memoised yet,
    across the pool, and memoise the digests here."""
    images = [item.image for item in job[0]]
    cold = [index for index, image in enumerate(images) if memoised_hash(image) is None]
    for index, digest in zip(cold, _run_chunks(_hash_chunk, job, cold)):
        remember_hash(images[index], digest)


def _extract(job: Job, cache: FeatureCache) -> dict[str, list[np.ndarray]]:
    """Every view's value of each of the job's families, through *cache*.

    Views the cache cannot answer are extracted first, across the pool.
    Every lookup is then replayed here in the order of a one-view-at-a-time
    build (shape and colour view by view, then each descriptor family),
    with the extracted values as the computes, so the cache's tiers and
    :class:`CacheStats` end as that build leaves them.
    """
    references, bins, families = job
    keys = _family_keys(bins, families)
    cold = [
        index
        for index, item in enumerate(references)
        if not all(cache.holds(cache.key(*key, item.image)) for key in keys)
    ]
    extracted = dict(zip(cold, _run_chunks(_extract_chunk, job, cold)))

    def lookup(index: int, slot: int) -> np.ndarray:
        def compute() -> np.ndarray:
            # A held entry evicted since the probe is extracted here.
            values = extracted.get(index) or _extract_chunk(job, [index])[0]
            return values[slot]

        return cache.get_or_compute(*keys[slot], references[index].image, compute)

    passes = [[slot for slot, family in enumerate(families) if family in ("shape", "color")]]
    passes += [[slot] for slot, family in enumerate(families) if family.startswith("desc-")]
    columns: list[list[np.ndarray]] = [[] for _ in families]
    for slots in filter(None, passes):
        for index in range(len(references)):
            for slot in slots:
                columns[slot].append(lookup(index, slot))
    return dict(zip(families, columns))


def _save_matrix(
    staging: Path, namespace: str, version: str, matrix: np.ndarray
) -> ShardSpec:
    filename = f"{namespace}-{version}.npy"
    path = staging / filename
    array = np.ascontiguousarray(matrix)
    np.save(path, array, allow_pickle=False)
    return ShardSpec(
        namespace=namespace,
        version=version,
        kind="matrix",
        dtype=array.dtype.name,
        shape=tuple(array.shape),
        filename=filename,
        digest=file_digest(path),
    )


def _save_ragged(
    staging: Path,
    namespace: str,
    version: str,
    rows: Sequence[np.ndarray],
    packed_bits: int | None = None,
) -> ShardSpec:
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for index, row in enumerate(rows):
        offsets[index + 1] = offsets[index] + len(row)
    if packed_bits is not None:
        width = (packed_bits + 7) // 8
        parts = [
            np.packbits(np.asarray(row, dtype=np.uint8) != 0, axis=1)
            if len(row)
            else np.zeros((0, width), dtype=np.uint8)
            for row in rows
        ]
        data = np.concatenate(parts, axis=0) if parts else np.zeros((0, width), np.uint8)
    else:
        widths = {row.shape[1] for row in rows if len(row)}
        if len(widths) > 1:
            raise StoreError(f"ragged shard {namespace} has mixed widths: {widths}")
        width = widths.pop() if widths else 0
        parts = [np.asarray(row, dtype=np.float64) for row in rows if len(row)]
        data = (
            np.concatenate(parts, axis=0)
            if parts
            else np.zeros((0, width), dtype=np.float64)
        )
    data = np.ascontiguousarray(data)
    data_name = f"{namespace}-{version}-data.npy"
    offsets_name = f"{namespace}-{version}-offsets.npy"
    np.save(staging / data_name, data, allow_pickle=False)
    np.save(staging / offsets_name, offsets, allow_pickle=False)
    return ShardSpec(
        namespace=namespace,
        version=version,
        kind="ragged",
        dtype=data.dtype.name,
        shape=tuple(data.shape),
        filename=data_name,
        digest=file_digest(staging / data_name),
        offsets_filename=offsets_name,
        offsets_digest=file_digest(staging / offsets_name),
        packed_bits=packed_bits,
    )


def store_version_id(
    references: ImageDataset, bins: int, families: Sequence[str]
) -> str:
    """Content-addressed version id: dataset fingerprint + build params."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(dataset_fingerprint(references).encode("ascii"))
    digest.update(f":{STORE_FORMAT}:{bins}:{','.join(sorted(families))}".encode("ascii"))
    return digest.hexdigest()


def build_store(
    references: ImageDataset,
    store_dir: str | Path,
    bins: int = HISTOGRAM_BINS,
    families: Sequence[str] = DEFAULT_FAMILIES,
    cache: FeatureCache | None = None,
) -> StoreBuildResult:
    """Extract, stack and publish one store version of *references*.

    Idempotent: an already-published identical version is re-pointed, not
    rebuilt.  *cache* defaults to the process-wide feature cache so builds
    share extraction work with fits; pass an isolated cache (or ``None``
    semantics via a fresh :class:`FeatureCache`) to measure cold builds.
    """
    unknown = set(families) - set(DEFAULT_FAMILIES)
    if unknown:
        raise StoreError(
            f"unknown store families {sorted(unknown)}; expected from {DEFAULT_FAMILIES}"
        )
    if not families:
        raise StoreError("a store build needs at least one feature family")
    root = Path(store_dir)
    root.mkdir(parents=True, exist_ok=True)
    if cache is None:
        cache = default_cache()
    job = (references, bins, tuple(f for f in DEFAULT_FAMILIES if f in families))
    _memoise_hashes(job)
    version = store_version_id(references, bins, families)
    target = root / version
    if (target / MANIFEST_NAME).is_file():
        # Content-addressed hit: the version already exists; just republish.
        publish_version(root, target, version)
        from repro.store.manifest import read_manifest

        return StoreBuildResult(
            store_dir=root,
            store_version=version,
            path=target,
            manifest=read_manifest(target),
            created=False,
        )

    columns = _extract(job, cache)
    staging = root / f".staging-{version}-{os.getpid()}"
    staging.mkdir(parents=True, exist_ok=True)
    try:
        shards: list[ShardSpec] = []
        if "shape" in columns:
            matrix = hu_signature_matrix(np.vstack(columns["shape"]))
            shards.append(_save_matrix(staging, "shape-hu", "v1", matrix))
        if "color" in columns:
            matrix = stack_histograms(columns["color"])
            shards.append(_save_matrix(staging, f"color-hist{bins}", "v1", matrix))
        if "desc-sift" in columns:
            shards.append(_save_ragged(staging, "desc-sift", "v1", columns["desc-sift"]))
        if "desc-orb" in columns:
            rows = columns["desc-orb"]
            bits = max((row.shape[1] for row in rows if len(row)), default=256)
            shards.append(_save_ragged(staging, "desc-orb", "v1", rows, packed_bits=bits))
        manifest = StoreManifest(
            format=STORE_FORMAT,
            store_version=version,
            dataset_name=references.name,
            fingerprint=dataset_fingerprint(references),
            histogram_bins=bins,
            labels=tuple(item.label for item in references),
            model_ids=tuple(item.model_id for item in references),
            view_ids=tuple(item.view_id for item in references),
            sources=tuple(item.source for item in references),
            shards=tuple(shards),
        )
        (staging / MANIFEST_NAME).write_text(manifest.to_json() + "\n")
        path = publish_version(root, staging, version)
    except BaseException:
        _remove_tree(staging)
        raise
    return StoreBuildResult(
        store_dir=root,
        store_version=version,
        path=path,
        manifest=manifest,
        created=True,
    )
