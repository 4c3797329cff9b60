"""Service-level chaos: scheduled worker kills, shard faults and
mid-flight store corruption.

The invariant every scenario asserts — the resilience tier's whole
contract — is that a prediction is either **bit-identical to the
fault-free run** or **flagged degraded**; a fault never produces a quietly
wrong answer.  Fault placement is scheduled (:class:`ShardChaos` names
exact flush indexes), so each trajectory replays deterministically:
requests are submitted one at a time, making the flush index — the chaos
schedule's clock — equal to the request index.  A flush of fewer queries
than workers is cut into fewer chunks, so a test that wants every flush
cut into ``workers`` chunks sends each flush one query per worker.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.cache import FeatureCache
from repro.engine.chaos import ShardChaos, truncate_file
from repro.errors import ImageError
from repro.serving.registry import default_registry
from repro.serving.shards import ShardedRecognitionService
from repro.store import build_store
from repro.store.manifest import resolve_version

from tests.engine.synthetic import make_image_set

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: Settings shared by the chaos runs: one request per flush (submissions
#: are sequential).
SETTINGS = ServingSettings(max_batch_size=4, max_wait_ms=5.0)


def grouped_set(seed: int, count: int, name: str, source: str = "sns1"):
    items = sorted(
        make_image_set(seed, count, name, source=source), key=lambda i: i.label
    )
    return ImageDataset(name=name, items=tuple(items))


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """References, queries, expected answers and a built store."""
    config = ExperimentConfig(seed=7, nyu_scale=0.01)
    references = grouped_set(seed=21, count=18, name="chaos-refs")
    queries = list(
        make_image_set(seed=22, count=6, name="chaos-queries", source="sns2")
    )
    root = tmp_path_factory.mktemp("chaos")
    cache = FeatureCache(disk_dir=str(root / "cache"))
    build_store(
        references,
        root / "store",
        bins=config.histogram_bins,
        families=("shape", "color"),
        cache=cache,
    )
    single = default_registry().build("shape-only", config).fit(references)
    expected = single.predict_batch(queries)
    return config, references, queries, expected, str(root / "store")


def malformed_query():
    """A 4-channel image: extraction raises ImageError for it alone."""
    return LabelledImage(
        image=np.zeros((8, 8, 4)), label="bad", source="nyu", model_id="bad", view_id=0
    )


def serve_all(service, queries):
    """One request per flush: sequential submit-and-wait."""
    return [service.recognize(query) for query in queries]


def serve_each_to_every_worker(service, queries):
    """One flush per query carrying one copy per worker, so every flush is
    cut into ``workers`` one-query chunks.  The copies must agree; returns
    one answer per flush."""
    answers = []
    for query in queries:
        futures = [service.submit(query) for _ in range(service.workers)]
        copies = [future.result(timeout=60.0) for future in futures]
        assert len({(p.label, p.model_id, p.score, p.degraded) for p in copies}) == 1
        answers.append(copies[0])
    return answers


def assert_no_silent_wrong_answers(got, expected):
    """The chaos contract: every answer is exact or flagged degraded."""
    for answer, want in zip(got, expected):
        if not answer.degraded:
            assert (answer.label, answer.model_id, answer.score) == (
                want.label,
                want.model_id,
                want.score,
            )


class TestSeededWorkerKill:
    def test_kill_on_flush_zero_rebuilds_replays_and_stays_exact(self, served):
        config, _, queries, expected, store_dir = served
        service = ShardedRecognitionService(
            "shape-only",
            store_dir,
            workers=2,
            settings=SETTINGS,
            config=config,
            chaos=ShardChaos(kill_flushes=(0,)),
        )
        with service:
            got = serve_all(service, queries)
            rebuilds = service.pool_rebuilds
            report = service.report()
        # The kill broke the pool exactly once; the replay leg is exempt
        # from the schedule, so the batch was re-scored cleanly.
        assert rebuilds == 1
        assert report.degraded == 0
        assert_no_silent_wrong_answers(got, expected)
        assert [(p.label, p.model_id, p.score) for p in got] == [
            (p.label, p.model_id, p.score) for p in expected
        ]

    def test_same_plan_is_reproducible(self, served):
        config, _, queries, expected, store_dir = served

        def run():
            service = ShardedRecognitionService(
                "shape-only",
                store_dir,
                workers=2,
                settings=SETTINGS,
                config=config,
                chaos=ShardChaos(kill_flushes=(0,)),
            )
            with service:
                got = serve_all(service, queries)
                return (
                    [(p.label, p.model_id, p.score, p.degraded) for p in got],
                    service.pool_rebuilds,
                )

        assert run() == run()


class TestInjectedShardFaults:
    def test_each_errored_chunk_is_rescued_exact_and_counted_once(self, served):
        config, _, queries, expected, store_dir = served
        # Errors on flushes 0-2 fail both chunks of each flush; the
        # in-process rescue serves each failed chunk, so those answers are
        # the exact certified champion but flagged degraded.  Each flush
        # carries one query per worker, so it is cut into two chunks.
        service = ShardedRecognitionService(
            "shape-only",
            store_dir,
            workers=2,
            settings=dataclasses.replace(SETTINGS, max_batch_size=2, max_wait_ms=500.0),
            config=config,
            chaos=ShardChaos(error_flushes=(0, 1, 2)),
        )
        with service:
            got = serve_each_to_every_worker(service, queries)
            report = service.report()
        assert_no_silent_wrong_answers(got, expected)
        # Flushes 0-2 were rescued (degraded, still exact); 3+ served clean.
        assert [p.degraded for p in got] == [True, True, True, False, False, False]
        for answer, want in zip(got, expected):
            assert (answer.label, answer.model_id, answer.score) == (
                want.label,
                want.model_id,
                want.score,
            )
        assert report.rescued == report.shard_errors == 6

    def test_the_first_clean_flush_after_faults_is_served_by_the_pool(self, served):
        # Under default settings a fault leaves nothing behind: flush 3,
        # the first one off the schedule, is answered by the workers and
        # not flagged, so exactly the six failed chunks are rescued.
        config, _, queries, expected, store_dir = served
        service = ShardedRecognitionService(
            "shape-only",
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=2, max_wait_ms=500.0),
            config=config,
            chaos=ShardChaos(error_flushes=(0, 1, 2)),
        )
        with service:
            got = serve_each_to_every_worker(service, queries)
            report = service.report()
        assert [p.degraded for p in got] == [True, True, True, False, False, False]
        assert [(p.label, p.model_id, p.score) for p in got] == [
            (p.label, p.model_id, p.score) for p in expected
        ]
        assert report.rescued == report.shard_errors == 6

    def test_every_flush_errored_is_rescued_without_stalling(self, served):
        config, _, queries, expected, store_dir = served
        # An error on every primary dispatch; the service must still answer
        # every request (rescue path) rather than stalling the gather
        # barrier.
        service = ShardedRecognitionService(
            "shape-only",
            store_dir,
            workers=2,
            settings=SETTINGS,
            config=config,
            chaos=ShardChaos(error_flushes=tuple(range(len(queries)))),
        )
        with service:
            got = serve_all(service, queries)
            report = service.report()
        assert len(got) == len(queries)
        assert all(p.degraded for p in got)
        assert_no_silent_wrong_answers(got, expected)
        # Rescue is the worker's certified champion over the same rows: the
        # answers match the fault-free run bit-for-bit even though every
        # one is flagged.
        for answer, want in zip(got, expected):
            assert (answer.label, answer.model_id, answer.score) == (
                want.label,
                want.model_id,
                want.score,
            )
        assert report.completed == len(queries)
        assert report.failed == 0
        # One query per flush is one chunk per flush.
        assert report.rescued == report.shard_errors == len(queries)

    def test_rescue_fails_a_malformed_query_alone(self, served):
        # The one flush's primaries error, so the in-process rescue scores
        # it.  A flush holding a malformed query and a good one fails only the
        # malformed one; the good answer is exact and flagged degraded.
        config, _, queries, expected, store_dir = served
        service = ShardedRecognitionService(
            "shape-only",
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=2, max_wait_ms=500.0),
            config=config,
            chaos=ShardChaos(error_flushes=(0,)),
        )
        with service:
            bad = service.submit(malformed_query())
            good = service.submit(queries[0])
            with pytest.raises(ImageError):
                bad.result(timeout=60.0)
            answer = good.result(timeout=60.0)
            report = service.report()
        assert report.batches == 1 and report.rescued > 0
        assert report.failed == 1 and report.completed == 1
        assert answer.degraded
        assert (answer.label, answer.model_id, answer.score) == (
            expected[0].label,
            expected[0].model_id,
            expected[0].score,
        )


class TestMidFlightCorruption:
    def test_corrupt_store_degrades_loudly_never_silently(
        self, served, tmp_path
    ):
        config, references, queries, expected, _ = served
        # A private store copy: corruption must not leak into other tests.
        build_store(
            references,
            tmp_path / "store",
            bins=config.histogram_bins,
            families=("shape", "color"),
        )
        fallback = (
            default_registry().build("most-frequent", config).fit(references)
        )
        service = ShardedRecognitionService(
            "shape-only",
            str(tmp_path / "store"),
            workers=2,
            settings=SETTINGS,
            config=config,
            fallback=fallback,
            chaos=ShardChaos(kill_flushes=(0,)),
        )
        with service:
            # Mid-flight: workers hold their memmaps, then every shard file
            # is torn on disk.  The scheduled kill forces a pool rebuild,
            # whose fresh workers must re-attach — and hit the corruption.
            version_dir = resolve_version(tmp_path / "store")
            for shard_file in sorted(version_dir.glob("*.npy")):
                truncate_file(shard_file, keep_bytes=8)
            got = serve_all(service, queries)
            report = service.report()
        # Every answer came from the fallback, flagged degraded — zero
        # silent wrong answers, zero raw failures surfaced to callers.
        assert all(p.degraded for p in got)
        assert report.degraded == len(queries)
        assert report.failed == 0
        assert_no_silent_wrong_answers(got, expected)
