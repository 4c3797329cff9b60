"""Multi-process sharded serving: flush splitting, reassembly, end-to-end.

Three layers, increasingly integrated: :func:`split_flush` chunking
invariants (contiguous, disjoint, covering, in order, never empty),
:func:`merge_champions` putting the chunks back in flush order, and
:class:`ShardedRecognitionService` serving real queries through real
worker processes — bit-identical to the single-process pipeline, with
exact admission/served accounting and one pool rebuild after a worker is
killed mid-run.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.cache import FeatureCache
from repro.errors import ImageError, ServingError, StoreError
from repro.serving.registry import default_registry
from repro.serving.shards import (
    ShardedRecognitionService,
    merge_champions,
    split_flush,
)
from repro.store import build_store

from tests.engine.synthetic import make_image_set

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def grouped_set(seed: int, count: int, name: str, source: str = "sns1"):
    """A synthetic dataset re-ordered class-grouped, the store row layout."""
    items = sorted(make_image_set(seed, count, name, source=source), key=lambda i: i.label)
    return ImageDataset(name=name, items=tuple(items))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """References, queries and a built store shared by the service tests."""
    config = ExperimentConfig(seed=7, nyu_scale=0.01)
    references = grouped_set(seed=11, count=18, name="shard-refs")
    queries = list(make_image_set(seed=12, count=8, name="shard-queries", source="sns2"))
    root = tmp_path_factory.mktemp("sharded")
    cache = FeatureCache(disk_dir=str(root / "cache"))
    build_store(
        references,
        root / "store",
        bins=config.histogram_bins,
        families=("shape", "color"),
        cache=cache,
    )
    return config, references, queries, str(root / "store")


class TestMergeChampions:
    def test_a_failed_slot_stays_failed_and_leaves_the_rest(self):
        fault = ImageError("bad query")
        blocks = [[(0.5, 0, "a", "m0"), fault], [(0.1, 7, "b", "m7")]]
        merged = merge_champions(blocks)
        assert merged == [(0.5, 0, "a", "m0"), fault, (0.1, 7, "b", "m7")]
        assert merged[1] is fault

    def test_empty_champion_blocks_are_skipped(self):
        blocks = [[], [(0.3, 5, "b", "m5")], []]
        assert merge_champions(blocks) == [(0.3, 5, "b", "m5")]

    def test_all_blocks_empty_merges_to_nothing(self):
        assert merge_champions([[], [], []]) == []
        assert merge_champions([]) == []

    def test_merge_agrees_with_numpy_argmin_for_random_score_matrices(self):
        # Each chunk of queries takes its argmin over every row, as a
        # worker does; reassembled, the winners are the whole matrix's.
        rng = np.random.default_rng(42)
        scores = rng.integers(0, 4, size=(7, 12)).astype(np.float64)  # many ties
        for workers in (2, 3):
            blocks = []
            for chunk in split_flush(scores.shape[0], workers):
                block = scores[chunk.start : chunk.stop]
                winners = np.argmin(block, axis=1)
                blocks.append(
                    [(float(row[w]), int(w), "x", "m") for row, w in zip(block, winners)]
                )
            merged = merge_champions(blocks)
            assert [index for _, index, _, _ in merged] == np.argmin(scores, axis=1).tolist()


class TestShardedService:
    @pytest.mark.parametrize("pipeline_name", ["shape-only", "hybrid"])
    def test_bitwise_identical_to_single_process(self, served, pipeline_name):
        config, references, queries, store_dir = served
        single = default_registry().build(pipeline_name, config).fit(references)
        expected = single.predict_batch(queries)
        service = ShardedRecognitionService(
            pipeline_name,
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=4, max_wait_ms=5.0),
            config=config,
        )
        with service:
            assert service.workers == 2
            futures = [service.submit(query) for query in queries]
            served_predictions = [future.result(timeout=60.0) for future in futures]
        for want, got in zip(expected, served_predictions):
            assert (got.label, got.model_id, got.score) == (
                want.label,
                want.model_id,
                want.score,
            )

    def test_admission_and_served_counts_are_exact(self, served):
        config, _, queries, store_dir = served
        service = ShardedRecognitionService(
            "shape-only", store_dir, workers=2, config=config
        )
        with service:
            futures = [service.submit(query) for query in queries * 2]
            for future in futures:
                future.result(timeout=60.0)
            report = service.report()
        assert report.submitted == len(queries) * 2
        assert report.completed == len(queries) * 2
        assert report.rejected == 0
        assert report.degraded == 0
        assert report.queue_depth == 0

    def test_worker_death_rebuilds_the_pool_once_and_replays(self, served):
        config, references, queries, store_dir = served
        single = default_registry().build("shape-only", config).fit(references)
        expected = single.predict_batch(queries)
        service = ShardedRecognitionService(
            "shape-only",
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=4, max_wait_ms=5.0),
            config=config,
        )
        with service:
            # Kill a worker out from under the pool: the next scatter hits
            # BrokenProcessPool, rebuilds once, and replays the batch.  Wait
            # until the pool has seen the death, or a fast batch can finish
            # on the surviving worker first and never observe it.
            kill = service._pool.submit(os._exit, 1)
            assert isinstance(kill.exception(timeout=60.0), BrokenProcessPool)
            futures = [service.submit(query) for query in queries]
            got = [future.result(timeout=60.0) for future in futures]
            rebuilds = service.pool_rebuilds
        assert rebuilds == 1
        assert [(p.label, p.model_id, p.score) for p in got] == [
            (p.label, p.model_id, p.score) for p in expected
        ]

    def test_refuses_pipelines_without_an_attach_path(self, served):
        config, _, _, store_dir = served
        with pytest.raises(StoreError, match="attach_store"):
            ShardedRecognitionService("most-frequent", store_dir, config=config)

    def test_refuses_pipelines_without_a_certified_champion(self, served, monkeypatch):
        # A hybrid averaging strategy aggregates every view's theta, so it
        # has no per-view bound: construction fails before a worker starts.
        from repro.pipelines.hybrid import HybridPipeline, HybridStrategy
        from repro.serving import registry

        config, _, _, store_dir = served
        averaging = registry.default_registry()
        averaging.register(
            "hybrid",
            lambda cfg: HybridPipeline(HybridStrategy.MACRO_AVERAGE),
            overwrite=True,
        )
        monkeypatch.setattr(registry, "default_registry", lambda: averaging)
        with pytest.raises(ServingError, match="certified"):
            ShardedRecognitionService("hybrid", store_dir, config=config)

    def test_refuses_a_loose_colour_bound(self, served, monkeypatch):
        # Each worker re-ranks every row the bound leaves, over the whole
        # library: a loose Intersection bound is refused up front.
        from repro.imaging.histogram import HistogramMetric
        from repro.pipelines.color_only import ColorOnlyPipeline
        from repro.serving import registry

        config, _, _, store_dir = served
        loose = registry.default_registry()
        loose.register(
            "color-only",
            lambda cfg: ColorOnlyPipeline(HistogramMetric.INTERSECTION),
            overwrite=True,
        )
        monkeypatch.setattr(registry, "default_registry", lambda: loose)
        with pytest.raises(ServingError, match="certified"):
            ShardedRecognitionService("color-only", store_dir, config=config)


class TestShardedFailureIsolation:
    def test_malformed_query_fails_alone(self, served):
        # Sharded twin of the in-process batch isolation test: a block
        # holding one 4-channel image fails only that request.  The shards
        # re-score the block query by query and return the failure in its
        # slot, so no dispatch errors and nothing is rescued in process.
        config, references, queries, store_dir = served
        good = queries[:7]
        bad = LabelledImage(
            image=np.zeros((8, 8, 4)),
            label="bad",
            source="nyu",
            model_id="bad",
            view_id=0,
        )
        single = default_registry().build("hybrid", config).fit(references)
        expected = single.predict_batch(good)
        service = ShardedRecognitionService(
            "hybrid",
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=8, max_wait_ms=50.0),
            config=config,
        )
        failures = 0
        answers = []
        with service:
            for flush in range(4):
                block = good[:flush] + [bad] + good[flush:]
                futures = [service.submit(query) for query in block]
                for query, future in zip(block, futures):
                    if query is bad:
                        with pytest.raises(ImageError):
                            future.result(timeout=60.0)
                        failures += 1
                    else:
                        answers.append(future.result(timeout=60.0))
            report = service.report()
        assert failures == 4 and report.failed == 4
        assert [(p.label, p.model_id, p.score, p.degraded) for p in answers] == [
            (p.label, p.model_id, p.score, False) for p in expected
        ] * 4
        assert report.rescued == 0 and report.shard_errors == 0
