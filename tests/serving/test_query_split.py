"""The sharded service splits each flush by query.

:func:`split_flush` cuts a flush into contiguous chunks, one per worker
position, and every worker answers its chunk over the whole library.  The
contract pinned here: whatever the flush size and the worker count, each
served answer equals the in-process certified ``champion_batch`` answer in
label, model and float64 score bits.
"""

import pytest

from repro.config import ServingSettings
from repro.serving.registry import default_registry
from repro.serving.shards import ShardedRecognitionService, split_flush
from repro.store.attach import ReferenceStore

from tests.engine.synthetic import make_image_set
from tests.serving.test_sharded import served  # noqa: F401 - the small store

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

FLUSHES = (1, 3, 17, 33)


class TestSplitFlush:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 16, 17, 33])
    def test_chunks_are_contiguous_disjoint_covering_and_ordered(self, count, workers):
        chunks = split_flush(count, workers)
        assert [i for chunk in chunks for i in chunk] == list(range(count))
        assert all(chunk.step == 1 for chunk in chunks)
        assert len(chunks) == min(count, workers)
        assert all(len(chunk) > 0 for chunk in chunks)  # empty chunks skipped
        sizes = [len(chunk) for chunk in chunks]
        assert sizes == sorted(sizes, reverse=True)
        assert not sizes or max(sizes) - min(sizes) <= 1

    def test_a_flush_smaller_than_the_pool_uses_fewer_workers(self):
        assert split_flush(1, 3) == [range(0, 1)]
        assert split_flush(2, 3) == [range(0, 1), range(1, 2)]
        assert split_flush(5, 2) == [range(0, 3), range(3, 5)]


def _bits(label, model_id, score):
    """Answer identity down to the float64 bits (``hex`` tells -0.0 apart)."""
    return label, model_id, float(score).hex()


class TestShardedEqualsChampionBatch:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("pipeline_name", ["shape-only", "hybrid"])
    def test_every_flush_size_answers_in_process_bits(self, served, pipeline_name, workers):
        config, _, _, store_dir = served
        queries = list(make_image_set(seed=41, count=sum(FLUSHES), name="split", source="sns2"))
        pipeline = default_registry().build(pipeline_name, config)
        store = ReferenceStore.attach(store_dir)
        pipeline.attach_store(store)
        pipeline.attach_index(len(store))
        hits = pipeline.champion_batch(queries)
        winners = [pipeline.references[hit.row] for hit in hits]
        expected = [_bits(w.label, w.model_id, hit.score) for w, hit in zip(winners, hits)]
        service = ShardedRecognitionService(
            pipeline_name,
            store_dir,
            workers=workers,
            settings=ServingSettings(max_batch_size=max(FLUSHES), max_wait_ms=500.0),
            config=config,
        )
        got = []
        with service:
            start = 0
            for size in FLUSHES:
                futures = [service.submit(query) for query in queries[start : start + size]]
                got.extend(future.result(timeout=60.0) for future in futures)
                start += size
            report = service.report()
        assert report.batch_histogram == {size: 1 for size in FLUSHES}
        assert [_bits(p.label, p.model_id, p.score) for p in got] == expected
        assert not any(p.degraded for p in got)
        assert report.rescued == 0
