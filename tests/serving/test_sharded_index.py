"""Sharded serving through the certified champion: identity and validation.

Every worker scores its chunk of the flush over the whole library through
the certified index, so each answer equals the in-process brute-force
answer in label, model and float64 score.  Duplicate reference views send
the first-index tie through a real worker, and a rescued chunk equals its
worker's chunk bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset
from repro.engine.cache import FeatureCache
from repro.serving.registry import default_registry
from repro.serving.shards import ShardedRecognitionService, _score_shard
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


def _bits(label, model_id, score):
    """Answer identity down to the float64 bits (``hex`` tells -0.0 apart)."""
    return label, model_id, float(score).hex()


@pytest.fixture(scope="module")
def tied(tmp_path_factory):
    """A store holding duplicated reference views.

    Each tie image appears twice: last in the ``box`` run and first in the
    ``disc`` run.  Served as queries, they score bit-identically against
    both copies, so only the first-index rule picks the ``box`` copy.
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
    def test_within_worker_ties_match_in_process(self, tied, pipeline_name):
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
            task = service._task
            futures = [service.submit(query) for query in queries]
            got = [future.result(timeout=60.0) for future in futures]
            worker = service._pool.submit(_score_shard, task, queries).result(timeout=60.0)
            rescued = service._rescue_shard(task, queries)
        # Every tie query scores its two copies to the same bit inside one
        # worker, whose certified champion keeps the first (``box``) row.
        box = [i for i, item in enumerate(references) if item.model_id.startswith("box-tie")]
        disc = [i for i, item in enumerate(references) if item.model_id.startswith("disc-tie")]
        for query in range(4):  # the tie queries come first
            scores = single._score_features(single.extract_features(queries[query]))
            assert float(scores[box[query]]).hex() == float(scores[disc[query]]).hex()
            assert float(scores[box[query]]).hex() == float(scores.min()).hex()
            assert worker[query][1] == int(np.argmin(scores)) < disc[query]
            assert worker[query][2] == "box"
        assert [_bits(p.label, p.model_id, p.score) for p in got] == [
            _bits(p.label, p.model_id, p.score) for p in expected
        ]
        assert all(not p.degraded for p in got)
        assert [(*_bits(c[2], c[3], c[0]), c[1]) for c in rescued] == [
            (*_bits(c[2], c[3], c[0]), c[1]) for c in worker
        ]
