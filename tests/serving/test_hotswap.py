"""Live artifact hot-swap: epoch-guarded store repointing.

The contracts pinned here: a committed ``swap_store`` leaves the service
answering **bit-identically to a cold attach** of the new version (a swap
is pure plumbing — it must never perturb the math); a swap whose target
fails verification raises :class:`SwapError` and rolls back with the old
epoch untouched and still serving; and ``wait_drained`` resolves the
moment no pre-swap flush is in flight.

The v2 store appends a duplicate of the last reference under a shifted
``view_id``: a distinct content-addressed version whose predictions are
provably bit-identical to v1's (the duplicate row can only tie, and the
first-index rule keeps the original winner) — so identity assertions stay
exact across the swap.
"""

import dataclasses
import threading

import pytest

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset
from repro.engine.cache import FeatureCache
from repro.engine.chaos import truncate_file
from repro.errors import SwapError
from repro.serving.registry import default_registry
from repro.serving.shards import ShardedRecognitionService
from repro.store import build_store
from repro.store.attach import ReferenceStore
from repro.store.manifest import resolve_version

from tests.engine.synthetic import make_image_set

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

SETTINGS = ServingSettings(max_batch_size=4, max_wait_ms=5.0)


def grouped_set(seed: int, count: int, name: str, source: str = "sns1"):
    items = sorted(
        make_image_set(seed, count, name, source=source), key=lambda i: i.label
    )
    return ImageDataset(name=name, items=tuple(items))


@pytest.fixture(scope="module")
def swappable(tmp_path_factory):
    """One store holding v1, an augmented v2, and a corrupted version."""
    config = ExperimentConfig(seed=7, nyu_scale=0.01)
    references = grouped_set(seed=31, count=18, name="swap-refs")
    queries = list(
        make_image_set(seed=32, count=8, name="swap-queries", source="sns2")
    )
    root = tmp_path_factory.mktemp("hotswap")
    store_dir = root / "store"
    cache = FeatureCache(disk_dir=str(root / "cache"))
    kwargs = dict(bins=config.histogram_bins, families=("shape", "color"))
    v1 = build_store(references, store_dir, cache=cache, **kwargs).store_version
    last = references.items[-1]
    augmented = ImageDataset(
        name="swap-refs+1",
        items=references.items
        + (dataclasses.replace(last, view_id=last.view_id + 1_000_000),),
    )
    v2 = build_store(augmented, store_dir, cache=cache, **kwargs).store_version
    # A third version, torn on disk after publish: the rollback target.
    other = grouped_set(seed=33, count=6, name="swap-corrupt")
    corrupt = build_store(other, store_dir, **kwargs).store_version
    for shard_file in sorted(resolve_version(store_dir, corrupt).glob("*.npy")):
        truncate_file(shard_file, keep_bytes=8)
    return config, references, queries, str(store_dir), v1, v2, corrupt


def make_service(swappable, **overrides):
    config, _, _, store_dir, v1, _, _ = swappable
    kwargs = dict(
        workers=2,
        settings=SETTINGS,
        config=config,
        store_version=v1,
    )
    kwargs.update(overrides)
    return ShardedRecognitionService("shape-only", store_dir, **kwargs)


def cold_expected(swappable, version):
    """The ground truth: a cold attach of *version*, no serving stack."""
    config, _, queries, store_dir, _, _, _ = swappable
    pipeline = default_registry().build("shape-only", config)
    store = ReferenceStore.attach(store_dir, version=version, verify="full")
    pipeline.attach_store(store)
    return pipeline.predict_batch(queries)


def identity(predictions):
    return [(p.label, p.model_id, p.score, p.degraded) for p in predictions]


class TestStoreSwap:
    def test_swap_under_load_is_bit_identical_to_cold_attach(self, swappable):
        config, _, queries, store_dir, v1, v2, _ = swappable
        service = make_service(swappable)
        with service:
            # Load in flight while the swap lands: the epoch guard snapshots
            # tasks per flush, so these resolve on whichever epoch they
            # started under — and both versions answer identically.
            futures = [service.submit(query) for query in queries * 3]
            report = service.swap_store(version=v2, verify="full")
            assert service.wait_drained(timeout=10.0) is True
            pre_swap = [future.result(timeout=60.0) for future in futures]
            post_swap = [service.recognize(query) for query in queries]
            assert (report.kind, report.old, report.new) == ("store", v1, v2)
            assert report.epoch == 1
            assert service.epoch == 1
            assert service.store_version == v2
        want = identity(cold_expected(swappable, v2))
        assert identity(post_swap) == want
        assert identity(pre_swap) == want * 3  # v1 == v2 by construction
        served = service.report()
        assert (served.degraded, served.rejected, served.failed) == (0, 0, 0)
        assert served.swaps == 1

    def test_corrupt_target_raises_and_rolls_back(self, swappable):
        config, _, queries, store_dir, v1, _, corrupt = swappable
        service = make_service(swappable)
        with service:
            with pytest.raises(SwapError, match="old[- ]epoch kept"):
                service.swap_store(version=corrupt, verify="full")
            # Nothing moved: same epoch, same version, still serving exactly.
            assert service.epoch == 0
            assert service.store_version == v1
            got = [service.recognize(query) for query in queries]
        assert identity(got) == identity(cold_expected(swappable, v1))

    def test_swap_with_the_pool_down_is_refused(self, swappable):
        _, _, _, _, _, v2, _ = swappable
        service = make_service(swappable)
        service.start()
        service.stop()
        with pytest.raises(SwapError, match="pool is down"):
            service.swap_store(version=v2)

    def test_wait_drained_with_nothing_in_flight_returns_immediately(
        self, swappable
    ):
        service = make_service(swappable)
        with service:
            assert service.wait_drained(timeout=0.0) is True

    def test_wait_drained_returns_only_after_pre_swap_futures_settle(
        self, swappable
    ):
        # Flush 0 is held in the front end before it scatters, so the pool
        # is free for the swap probe and the swap commits mid-flush.  The
        # flush may leave its epoch only after settling its block: once
        # wait_drained() is True, every future submitted before the swap
        # must be done.
        _, _, queries, _, _, v2, _ = swappable
        service = make_service(
            swappable,
            settings=ServingSettings(max_batch_size=4, max_wait_ms=500.0),
        )
        entered, released = threading.Event(), threading.Event()
        scatter_gather = service._scatter_gather

        def held_scatter_gather(*args):
            entered.set()
            released.wait(timeout=30.0)
            return scatter_gather(*args)

        service._scatter_gather = held_scatter_gather
        with service:
            futures = [service.submit(query) for query in queries[:4]]
            assert entered.wait(timeout=30.0)
            service.swap_store(version=v2)
            assert not any(future.done() for future in futures)
            release = threading.Timer(0.5, released.set)
            release.start()
            assert service.wait_drained(timeout=30.0) is True
            assert all(future.done() for future in futures)
            release.join()
        assert service.report().completed == 4
