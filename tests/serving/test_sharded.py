"""Multi-process sharded serving: planning, merge semantics, end-to-end.

Three layers, increasingly integrated: :func:`plan_shards` partitioning
invariants (cover, no overlap, class alignment, never empty),
:func:`merge_champions`' exact reproduction of NumPy's first-index tie
rule, and :class:`ShardedRecognitionService` serving real queries through
real worker processes — bit-identical to the single-process pipeline, with
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
    plan_shards,
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


class TestPlanShards:
    def test_cover_no_overlap_class_aligned(self, served):
        _, references, _, _ = served
        labels = references.labels
        shards = plan_shards(labels, 2)
        assert shards[0].start == 0 and shards[-1].stop == len(labels)
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start  # contiguous, no gap, no overlap
        owners = [shard.classes for shard in shards]
        flat = [label for classes in owners for label in classes]
        assert len(flat) == len(set(flat))  # each class in exactly one shard
        assert set(flat) == set(labels)

    def test_more_workers_than_classes_caps_at_class_runs(self, served):
        _, references, _, _ = served
        shards = plan_shards(references.labels, 10)
        assert 1 <= len(shards) <= 10
        assert all(len(shard) > 0 for shard in shards)
        assert shards[-1].stop == len(references)

    def test_single_worker_owns_everything(self, served):
        _, references, _, _ = served
        (only,) = plan_shards(references.labels, 1)
        assert (only.start, only.stop) == (0, len(references))
        assert set(only.classes) == set(references.labels)

    def test_rejects_nonsense(self):
        with pytest.raises(ServingError):
            plan_shards(["a"], 0)
        with pytest.raises(ServingError):
            plan_shards([], 2)


class TestMergeChampions:
    def test_minimizing_merge_keeps_the_lower_index_on_ties(self):
        per_shard = [
            [(0.5, 0, "a", "m0"), (0.2, 1, "a", "m1")],
            [(0.5, 7, "b", "m7"), (0.1, 8, "b", "m8")],
        ]
        merged = merge_champions(per_shard, higher_is_better=False)
        # Query 0 ties 0.5/0.5: the lower global index (earlier shard) wins —
        # exactly np.argmin's first-index rule over the concatenated row.
        assert merged[0] == (0.5, 0, "a", "m0")
        assert merged[1] == (0.1, 8, "b", "m8")

    def test_maximizing_merge_mirrors_argmax(self):
        per_shard = [
            [(0.9, 2, "a", "m2")],
            [(0.9, 5, "b", "m5")],
            [(0.95, 9, "c", "m9")],
        ]
        merged = merge_champions(per_shard, higher_is_better=True)
        assert merged == [(0.95, 9, "c", "m9")]

    def test_a_failed_slot_stays_failed_and_leaves_the_rest(self):
        fault = ImageError("bad query")
        per_shard = [
            [(0.5, 0, "a", "m0"), fault],
            [(0.1, 7, "b", "m7"), (0.2, 8, "b", "m8")],
        ]
        assert merge_champions(per_shard) == [(0.1, 7, "b", "m7"), fault]
        later = ImageError("bad query on the second shard")
        per_shard = [[(0.5, 0, "a", "m0"), fault], [(0.1, 7, "b", "m7"), later]]
        assert merge_champions(per_shard)[1] is fault

    def test_empty_champion_blocks_are_skipped(self):
        # A shard whose rows were all served elsewhere (ejected upstream)
        # contributes an empty block; the merge must seed from the first
        # non-empty one rather than indexing into nothing.
        per_shard = [[], [(0.3, 5, "b", "m5")], []]
        assert merge_champions(per_shard) == [(0.3, 5, "b", "m5")]

    def test_all_blocks_empty_merges_to_nothing(self):
        assert merge_champions([[], [], []]) == []
        assert merge_champions([]) == []

    def test_empty_block_preserves_the_first_index_tie_rule(self):
        per_shard = [
            [(0.5, 0, "a", "m0")],
            [],
            [(0.5, 9, "c", "m9")],  # ties the first block's score
        ]
        # The tie still resolves to the lower global index, exactly as if
        # the empty middle shard had never existed.
        assert merge_champions(per_shard) == [(0.5, 0, "a", "m0")]

    def test_merge_agrees_with_numpy_argmin_for_random_score_matrices(self):
        rng = np.random.default_rng(42)
        scores = rng.integers(0, 4, size=(6, 12)).astype(np.float64)  # many ties
        bounds = [(0, 5), (5, 9), (9, 12)]
        per_shard = []
        for start, stop in bounds:
            block = scores[:, start:stop]
            local = np.argmin(block, axis=1)
            per_shard.append(
                [
                    (float(block[q, local[q]]), start + int(local[q]), "x", "m")
                    for q in range(scores.shape[0])
                ]
            )
        merged = merge_champions(per_shard, higher_is_better=False)
        winners = np.argmin(scores, axis=1)
        assert [index for _, index, _, _ in merged] == [int(w) for w in winners]


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


class TestShardedFailureIsolation:
    def test_malformed_query_fails_alone(self, served):
        # Sharded twin of the in-process batch isolation test: a block
        # holding one 4-channel image fails only that request.  The shards
        # re-score the block query by query, count a success, and stay
        # healthy (breaker closed), so nothing is rescued in process.
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
            for flush in range(4):  # more flushes than health_eject_consecutive
                block = good[:flush] + [bad] + good[flush:]
                futures = [service.submit(query) for query in block]
                for query, future in zip(block, futures):
                    if query is bad:
                        with pytest.raises(ImageError):
                            future.result(timeout=60.0)
                        failures += 1
                    else:
                        answers.append(future.result(timeout=60.0))
            health = service.health_report()
            report = service.report()
        assert failures == 4 and report.failed == 4
        assert [(p.label, p.model_id, p.score, p.degraded) for p in answers] == [
            (p.label, p.model_id, p.score, False) for p in expected
        ] * 4
        assert [snapshot["state"] for snapshot in health.values()] == ["healthy"] * 2
        assert report.rescued == 0 and report.shard_errors == 0
