"""Sharded serving through the certified champion: identity and validation.

Every shard worker scores its row range through the certified index, so
the merged answer equals the in-process brute-force answer in label,
model and float64 score, whatever the shortlist size.  Duplicate reference
rows on both sides of the shard boundary send the cross-shard first-index
tie through the real workers, and a rescued block equals its worker's
block bit for bit.
"""

import dataclasses

import pytest

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset
from repro.engine.cache import FeatureCache
from repro.errors import ServingError
from repro.serving.registry import default_registry
from repro.serving.shards import ShardedRecognitionService, ShardTask, _score_shard
from repro.store import build_store

from tests.serving.test_sharded import grouped_set, make_image_set

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    config = ExperimentConfig(seed=7, nyu_scale=0.01)
    references = grouped_set(seed=31, count=18, name="idx-refs")
    queries = list(
        make_image_set(seed=32, count=8, name="idx-queries", source="sns2")
    )
    root = tmp_path_factory.mktemp("sharded-index")
    cache = FeatureCache(disk_dir=str(root / "cache"))
    build_store(
        references,
        root / "store",
        bins=config.histogram_bins,
        families=("shape", "color"),
        cache=cache,
    )
    return config, references, queries, str(root / "store")


class TestShardedIndexedService:
    @pytest.mark.parametrize("pipeline_name", ["shape-only", "hybrid"])
    def test_full_shortlist_matches_unindexed_service(self, served, pipeline_name):
        config, references, queries, store_dir = served
        single = default_registry().build(pipeline_name, config).fit(references)
        expected = single.predict_batch(queries)
        service = ShardedRecognitionService(
            pipeline_name,
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=4, max_wait_ms=5.0),
            config=config,
            shortlist_k=len(references),  # full K: identity is guaranteed
        )
        with service:
            futures = [service.submit(query) for query in queries]
            got = [future.result(timeout=60.0) for future in futures]
        for want, answer in zip(expected, got):
            assert (answer.label, answer.model_id, answer.score) == (
                want.label,
                want.model_id,
                want.score,
            )

    def test_small_shortlist_still_serves(self, served):
        config, _, queries, store_dir = served
        service = ShardedRecognitionService(
            "shape-only", store_dir, workers=2, config=config, shortlist_k=2
        )
        with service:
            futures = [service.submit(query) for query in queries]
            answers = [future.result(timeout=60.0) for future in futures]
            report = service.report()
        assert all(answer is not None for answer in answers)
        assert report.completed == len(queries)

    def test_shortlist_k_validated(self, served):
        config, _, _, store_dir = served
        with pytest.raises(ServingError):
            ShardedRecognitionService(
                "shape-only", store_dir, config=config, shortlist_k=0
            )

    def test_shard_task_default_stays_unindexed(self):
        task = ShardTask(
            store_dir="somewhere",
            store_version="v0",
            pipeline="shape-only",
            config=ExperimentConfig(seed=7),
            start=0,
            stop=4,
        )
        assert task.shortlist_k is None


def _bits(label, model_id, score):
    """Answer identity down to the float64 bits (``hex`` tells -0.0 apart)."""
    return label, model_id, float(score).hex()


@pytest.fixture(scope="module")
def tied(tmp_path_factory):
    """A store whose shard boundary splits duplicated reference views.

    Each tie image appears twice: last in the ``box`` run, which closes
    shard 0, and first in the ``disc`` run, which opens shard 1.  Served
    as queries, they score bit-identically against both copies, so only
    the first-index rule picks the ``box`` copy.
    """
    config = ExperimentConfig(seed=7, nyu_scale=0.01)
    base = grouped_set(seed=51, count=18, name="tie-refs")
    fresh = list(make_image_set(seed=52, count=6, name="tie-queries", source="sns2"))
    ties = fresh[:4]

    def copies(label):
        return [
            dataclasses.replace(query, label=label, source="sns1", model_id=f"{label}-tie{i}")
            for i, query in enumerate(ties)
        ]

    items = list(base)
    boundary = max(i for i, item in enumerate(items) if item.label == "box") + 1
    items[boundary:boundary] = copies("box") + copies("disc")
    references = ImageDataset(name="tie-refs", items=tuple(items))
    root = tmp_path_factory.mktemp("sharded-ties")
    build_store(
        references,
        root / "store",
        bins=config.histogram_bins,
        families=("shape", "color"),
        cache=FeatureCache(disk_dir=str(root / "cache")),
    )
    return config, references, ties + fresh[4:], str(root / "store")


class TestCertifiedShardTies:
    @pytest.mark.parametrize("pipeline_name", ["shape-only", "color-only", "hybrid"])
    def test_cross_shard_ties_match_in_process(self, tied, pipeline_name):
        config, references, queries, store_dir = tied
        single = default_registry().build(pipeline_name, config).fit(references)
        expected = single.predict_batch(queries)
        service = ShardedRecognitionService(
            pipeline_name,
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=8, max_wait_ms=5.0),
            config=config,
        )
        with service:
            first, second = service._tasks
            futures = [service.submit(query) for query in queries]
            got = [future.result(timeout=60.0) for future in futures]
            workers = [
                service._pool.submit(_score_shard, task, queries).result(timeout=60.0)
                for task in (first, second)
            ]
            rescued = [service._rescue_shard(task, queries) for task in (first, second)]
        # The duplicates straddle the boundary, and every tie query's two
        # shard champions tie to the bit: the merge alone breaks the tie.
        assert first.stop == second.start
        for query in range(4):  # the tie queries come first
            low, high = workers[0][query], workers[1][query]
            assert low[1] < first.stop <= high[1]
            assert float(low[0]).hex() == float(high[0]).hex()
            assert (low[2], high[2]) == ("box", "disc")
        assert [_bits(p.label, p.model_id, p.score) for p in got] == [
            _bits(p.label, p.model_id, p.score) for p in expected
        ]
        assert all(not p.degraded for p in got)
        for worker, rescue in zip(workers, rescued):
            assert [(*_bits(c[2], c[3], c[0]), c[1]) for c in rescue] == [
                (*_bits(c[2], c[3], c[0]), c[1]) for c in worker
            ]
