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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.config import HISTOGRAM_BINS
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.cache import FeatureCache, dataset_fingerprint, default_cache
from repro.errors import FeatureError, StoreError
from repro.imaging.histogram import stack_histograms
from repro.imaging.match_shapes import hu_signature_matrix
from repro.store.manifest import (
    MANIFEST_NAME,
    STORE_FORMAT,
    ShardSpec,
    StoreManifest,
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


def _cached(
    cache: FeatureCache | None,
    namespace: str,
    version: str,
    item: LabelledImage,
    compute: Callable[[], np.ndarray],
) -> np.ndarray:
    if cache is None:
        return compute()
    return cache.get_or_compute(namespace, version, item.image, compute)


def _matrices(
    references: ImageDataset,
    bins: int,
    families: Sequence[str],
    cache: FeatureCache | None,
) -> dict[str, np.ndarray]:
    """The stacked shape and/or colour matrix of each of *families*.

    Every view is segmented at most once, however many of the two
    families are built.
    """
    from repro.pipelines.hybrid import cached_features

    rows = [cached_features(cache, item, bins, families) for item in references]
    matrices: dict[str, np.ndarray] = {}
    if "shape" in families:
        matrices["shape"] = hu_signature_matrix(np.vstack([row["shape"] for row in rows]))
    if "color" in families:
        matrices["color"] = stack_histograms([row["color"] for row in rows])
    return matrices


def _descriptor_rows(
    references: ImageDataset, method: str, cache: FeatureCache | None
) -> list[np.ndarray]:
    from repro.features.orb import OrbExtractor
    from repro.features.sift import SiftExtractor

    extractor = OrbExtractor() if method == "orb" else SiftExtractor()

    def compute(item: LabelledImage) -> np.ndarray:
        try:
            _, descriptors = extractor.detect_and_compute(item.image)
        except FeatureError:
            descriptors = np.zeros((0, extractor.descriptor_size))
        return descriptors

    # Same cache keyspace as DescriptorPipeline, so builds and fits share.
    return [
        _cached(cache, f"desc-{method}", "v1", item, lambda item=item: compute(item))
        for item in references
    ]


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

    staging = root / f".staging-{version}-{os.getpid()}"
    staging.mkdir(parents=True, exist_ok=True)
    shards: list[ShardSpec] = []
    matrices = _matrices(references, bins, families, cache)
    if "shape" in matrices:
        shards.append(_save_matrix(staging, "shape-hu", "v1", matrices["shape"]))
    if "color" in matrices:
        shards.append(
            _save_matrix(staging, f"color-hist{bins}", "v1", matrices["color"])
        )
    if "desc-sift" in families:
        shards.append(
            _save_ragged(
                staging, "desc-sift", "v1", _descriptor_rows(references, "sift", cache)
            )
        )
    if "desc-orb" in families:
        rows = _descriptor_rows(references, "orb", cache)
        bits = max((row.shape[1] for row in rows if len(row)), default=256)
        shards.append(
            _save_ragged(staging, "desc-orb", "v1", rows, packed_bits=bits)
        )
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
    return StoreBuildResult(
        store_dir=root,
        store_version=version,
        path=path,
        manifest=manifest,
        created=True,
    )
