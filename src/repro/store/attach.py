"""Zero-copy attach: memory-map a published store version.

Where :func:`~repro.store.builder.build_store` pays the full extraction
cost once, :meth:`ReferenceStore.attach` pays almost nothing: it reads one
small manifest and opens each shard with ``np.load(..., mmap_mode="r")``,
so a worker process is serving-ready in milliseconds and N workers share
one physical copy of the reference matrices through the page cache.

Integrity model (the chaos suite pins all three legs):

* a missing/truncated/undecodable shard — or, under ``verify="full"``, a
  digest mismatch — is **quarantined** (renamed aside with a ``.corrupt``
  suffix, mirroring :class:`~repro.engine.cache.FeatureCache`) and raises
  :class:`~repro.errors.StoreIntegrityError`: the store degrades loudly,
  it never serves wrong bytes silently;
* the manifest itself can never be *torn*, because versions publish by
  atomic rename (see :mod:`repro.store.manifest`) — a reader either sees
  the old complete version or the new complete version;
* attached arrays are read-only memmaps; writers never mutate a published
  version, they publish a new one and flip ``CURRENT``.

:class:`StoreReferences` is the image-free stand-in for the reference
:class:`~repro.datasets.dataset.ImageDataset`: it carries exactly the
label/model/view identity predictions need, so attach paths never touch
pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import StoreError, StoreIntegrityError
from repro.store.manifest import (
    ShardSpec,
    StoreManifest,
    current_version,
    file_digest,
    quarantine,
    read_manifest,
    resolve_version,
)

VERIFY_MODES = ("size", "full")


@dataclass(frozen=True)
class StoreReference:
    """One reference view's identity, without its pixels.

    Duck-types the slice of :class:`~repro.datasets.dataset.LabelledImage`
    the prediction paths touch (``label`` / ``model_id`` / ``view_id`` /
    ``source`` / ``key``); ``image`` is deliberately absent — anything that
    needs pixels must use the real dataset.
    """

    label: str
    model_id: str
    view_id: int
    source: str

    @property
    def key(self) -> str:
        return f"{self.source}/{self.model_id}/v{self.view_id}"


@dataclass(frozen=True)
class StoreReferences:
    """An ordered, image-free reference collection backed by a manifest.

    Implements the read-only :class:`~repro.datasets.dataset.ImageDataset`
    surface the pipelines' prediction paths use (len / iter / getitem /
    ``labels`` / ``classes``), so an attached pipeline can resolve argmin
    winners to labels without the reference images existing in the process
    at all.
    """

    name: str
    items: tuple[StoreReference, ...]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[StoreReference]:
        return iter(self.items)

    def __getitem__(self, index: int) -> StoreReference:
        return self.items[index]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(item.label for item in self.items)

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))

    def slice(self, start: int, stop: int) -> "StoreReferences":
        """The contiguous sub-range ``[start, stop)`` (a serving shard)."""
        return StoreReferences(
            name=f"{self.name}[{start}:{stop}]", items=self.items[start:stop]
        )


class ReferenceStore:
    """One attached (read-only, memory-mapped) store version.

    ``verify="size"`` (default) validates manifest-declared dtype/shape
    against each shard as it is first mapped — cheap, catches truncation
    and header garbling.  ``verify="full"`` additionally re-hashes every
    shard against its manifest digest at attach time — the paranoid mode
    ``store verify`` and the chaos tests use; it catches bit flips that
    leave the npy header intact.
    """

    def __init__(
        self,
        store_dir: str | Path,
        version_dir: Path,
        manifest: StoreManifest,
        verify: str = "size",
    ) -> None:
        if verify not in VERIFY_MODES:
            raise StoreError(f"unknown verify mode {verify!r}, expected {VERIFY_MODES}")
        self.store_dir = Path(store_dir)
        self.path = version_dir
        self.manifest = manifest
        self.verify_mode = verify
        self._matrices: dict[tuple[str, str], np.ndarray] = {}
        self._ragged: dict[tuple[str, str], list[np.ndarray]] = {}
        self._references: StoreReferences | None = None
        #: Times a shard memmap open hit a transient ``OSError`` and
        #: succeeded (or was condemned) on the single retry — surfaced so
        #: a caller can tell flaky I/O from real corruption.
        self.transient_retries = 0

    @classmethod
    def attach(
        cls,
        store_dir: str | Path,
        version: str | None = None,
        verify: str = "size",
    ) -> "ReferenceStore":
        """Attach the ``CURRENT`` (or an explicit) version of *store_dir*."""
        version_dir = resolve_version(Path(store_dir), version)
        manifest = read_manifest(version_dir)
        store = cls(store_dir, version_dir, manifest, verify=verify)
        if verify == "full":
            problems = store.verify()
            if problems:
                raise StoreIntegrityError(
                    f"store version {manifest.store_version} failed verification: "
                    + "; ".join(problems)
                )
        return store

    @property
    def store_version(self) -> str:
        return self.manifest.store_version

    def __len__(self) -> int:
        return len(self.manifest)

    def is_current(self) -> bool:
        """Whether this attached version is still the published CURRENT."""
        return current_version(self.store_dir) == self.store_version

    def references(self) -> StoreReferences:
        """The image-free reference identity collection, in view order."""
        if self._references is None:
            manifest = self.manifest
            self._references = StoreReferences(
                name=f"store:{manifest.dataset_name}@{manifest.store_version}",
                items=tuple(
                    StoreReference(
                        label=manifest.labels[i],
                        model_id=manifest.model_ids[i],
                        view_id=manifest.view_ids[i],
                        source=manifest.sources[i],
                    )
                    for i in range(len(manifest))
                ),
            )
        return self._references

    # -- shard access ---------------------------------------------------------

    def matrix(self, namespace: str, version: str) -> np.ndarray:
        """The memmapped ``(V, D)`` matrix shard of ``namespace/version``."""
        key = (namespace, version)
        if key not in self._matrices:
            spec = self.manifest.shard(namespace, version)
            if spec.kind != "matrix":
                raise StoreError(
                    f"shard {namespace}/{version} is {spec.kind!r}, not a matrix"
                )
            self._matrices[key] = self._map(spec, spec.filename, spec.digest)
        return self._matrices[key]

    def ragged(self, namespace: str, version: str) -> list[np.ndarray]:
        """Per-view rows of a ragged shard (views into one shared memmap).

        Bit-packed shards (``packed_bits``) are unpacked back to their 0/1
        uint8 layout per view — identical bytes to what the extractor
        produced, minus empty-row dtype (empty rows come back uint8).
        """
        key = (namespace, version)
        if key not in self._ragged:
            spec = self.manifest.shard(namespace, version)
            if spec.kind != "ragged":
                raise StoreError(
                    f"shard {namespace}/{version} is {spec.kind!r}, not ragged"
                )
            data = self._map(spec, spec.filename, spec.digest)
            assert spec.offsets_filename is not None  # enforced by the builder
            offsets = self._map(
                spec, spec.offsets_filename, spec.offsets_digest or ""
            )
            if offsets.ndim != 1 or len(offsets) != len(self.manifest) + 1:
                self._quarantine(spec, spec.offsets_filename)
                raise StoreIntegrityError(
                    f"shard {namespace}/{version}: offsets length "
                    f"{offsets.shape} does not match {len(self.manifest)} views"
                )
            if len(offsets) and int(offsets[-1]) != data.shape[0]:
                self._quarantine(spec, spec.offsets_filename)
                raise StoreIntegrityError(
                    f"shard {namespace}/{version}: offsets end at "
                    f"{int(offsets[-1])} but data has {data.shape[0]} rows"
                )
            rows: list[np.ndarray] = []
            for index in range(len(self.manifest)):
                row = data[int(offsets[index]) : int(offsets[index + 1])]
                if spec.packed_bits is not None:
                    row = (
                        np.unpackbits(row, axis=1)[:, : spec.packed_bits]
                        if len(row)
                        else np.zeros((0, spec.packed_bits), dtype=np.uint8)
                    )
                rows.append(row)
            self._ragged[key] = rows
        return self._ragged[key]

    # -- integrity ------------------------------------------------------------

    def verify(self) -> list[str]:
        """Re-hash every shard file against the manifest; returns problems.

        A digest mismatch quarantines the offending file before reporting,
        so a corrupt shard can never be re-attached by a later reader.
        """
        problems: list[str] = []
        for spec in self.manifest.shards:
            for filename, digest in (
                (spec.filename, spec.digest),
                (spec.offsets_filename, spec.offsets_digest),
            ):
                if filename is None:
                    continue
                path = self.path / filename
                if not path.is_file():
                    problems.append(f"{filename}: missing")
                    continue
                actual = file_digest(path)
                if actual != digest:
                    quarantine(path)
                    problems.append(
                        f"{filename}: digest mismatch "
                        f"(manifest {digest}, file {actual}) — quarantined"
                    )
        return problems

    def _quarantine(self, spec: ShardSpec, filename: str) -> None:
        quarantine(self.path / filename)

    def _map(self, spec: ShardSpec, filename: str, digest: str) -> np.ndarray:
        path = self.path / filename
        if self.verify_mode == "full" and digest:
            if not path.is_file() or file_digest(path) != digest:
                quarantine(path)
                raise StoreIntegrityError(
                    f"shard file {filename} failed its digest check — quarantined"
                )
        try:
            array = np.load(path, mmap_mode="r", allow_pickle=False)
        except OSError:
            # A memmap open can fail transiently (EINTR, NFS attribute
            # churn, a racing page-cache eviction) with the file perfectly
            # intact; retry exactly once before condemning the shard — a
            # ValueError (garbled npy header) is never transient and gets
            # no retry.
            self.transient_retries += 1
            try:
                array = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                quarantine(path)
                raise StoreIntegrityError(
                    f"cannot map shard file {filename} (after one retry): "
                    f"{exc} — quarantined"
                ) from exc
        except ValueError as exc:
            # Missing, truncated, or a garbled npy header: quarantine the
            # file so a rebuild never races a half-read, then degrade loudly.
            quarantine(path)
            raise StoreIntegrityError(
                f"cannot map shard file {filename}: {exc} — quarantined"
            ) from exc
        if filename == spec.filename:
            if array.dtype.name != spec.dtype or tuple(array.shape) != spec.shape:
                quarantine(path)
                raise StoreIntegrityError(
                    f"shard file {filename} is {array.dtype.name}{array.shape}, "
                    f"manifest says {spec.dtype}{spec.shape} — quarantined"
                )
        return array


def attach_or_fit(
    pipeline: object,
    store_dir: str | Path,
    references: object | None = None,
    verify: str = "size",
) -> tuple[object, str]:
    """Attach *pipeline* to the store, falling back to a cold ``fit``.

    The degradation rung below a corrupt store is the in-process path: when
    attach raises :class:`StoreIntegrityError` (or the store has no
    published version) and *references* is given, the pipeline is fitted
    from pixels instead — slower, never wrong.  Returns
    ``(pipeline, mode)`` with mode ``"attached"`` or ``"cold"``.
    """
    try:
        store = ReferenceStore.attach(store_dir, verify=verify)
        pipeline.attach_store(store)  # type: ignore[attr-defined]
        return pipeline, "attached"
    except (StoreError, StoreIntegrityError):
        if references is None:
            raise
        pipeline.fit(references)  # type: ignore[attr-defined]
        return pipeline, "cold"
