"""Open-set behaviour of the sharded serving tier.

Three guarantees, increasingly integrated: :func:`merge_champions` stays
deterministic when chunks come back empty, the front-end threshold is
applied after the chunks are reassembled (so detaching restores
bit-identical closed-set answers), and a live
enrollment committed *while the workload is in flight* never moves a
pre-existing champion — the self-match workload makes that exact: every
library view's champion is its own row at distance zero, and ties resolve
to the original lower index.  Coordination is by events, futures and
joins — no sleeps.
"""

import dataclasses
import threading

import pytest

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset
from repro.engine.cache import FeatureCache
from repro.errors import CalibrationError, EnrollmentError
from repro.imaging.histogram import HistogramMetric
from repro.openset import ThresholdModel
from repro.pipelines.base import UNKNOWN_LABEL
from repro.pipelines.color_only import ColorOnlyPipeline
from repro.serving.shards import ShardedRecognitionService, merge_champions
from repro.store import build_store

from tests.engine.synthetic import make_image_set

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

TOKEN = "stress-secret"


def grouped_set(seed, count, name):
    items = sorted(make_image_set(seed, count, name), key=lambda item: item.label)
    return ImageDataset(name=name, items=tuple(items))


def reject_all_model(higher=False):
    return ThresholdModel(
        pipeline="color-only-hellinger",
        threshold=-1e12 if not higher else 1e12,
        higher_is_better=higher,
        target_far=0.05,
        auroc=1.0,
        far=0.0,
        frr=1.0,
        genuine_count=1,
        imposter_count=1,
    )


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    config = ExperimentConfig(seed=7, nyu_scale=0.01)
    references = grouped_set(seed=11, count=18, name="openset-refs")
    root = tmp_path_factory.mktemp("openset-serving")
    cache = FeatureCache(disk_dir=str(root / "cache"))
    build_store(
        references,
        root / "store",
        bins=config.histogram_bins,
        families=("shape", "color"),
        cache=cache,
    )
    return config, references, str(root / "store")


class TestMergeChampionsEmptyBlocks:
    def test_all_blocks_empty_yields_no_champions(self):
        assert merge_champions([[], [], []]) == []
        assert merge_champions([]) == []

    def test_empty_block_is_skipped_not_mislabelled(self):
        full = [(0.2, 3, "a", "m3"), (0.9, 4, "b", "m4")]
        merged = merge_champions([[], full, []])
        assert merged == full


class TestShardedThresholds:
    def test_reject_all_marks_every_answer_unknown(self, world):
        config, references, store_dir = world
        service = ShardedRecognitionService(
            "color-only",
            store_dir,
            workers=2,
            settings=ServingSettings(max_batch_size=4, max_wait_ms=5.0),
            config=config,
        )
        queries = list(references)[:6]
        single = ColorOnlyPipeline(
            HistogramMetric.HELLINGER, bins=config.histogram_bins
        ).fit(references)
        expected = single.predict_batch(queries)
        with service:
            service.attach_thresholds(reject_all_model())
            assert service.thresholds_attached
            futures = [service.submit(query) for query in queries]
            rejected = [future.result(timeout=60.0) for future in futures]
            for want, got in zip(expected, rejected):
                assert got.unknown and got.label == UNKNOWN_LABEL
                assert not got.degraded
                # The merged champion survives rejection for introspection.
                assert (got.model_id, got.score) == (want.model_id, want.score)
            service.detach_thresholds()
            futures = [service.submit(query) for query in queries]
            restored = [future.result(timeout=60.0) for future in futures]
        for want, got in zip(expected, restored):
            assert not got.unknown and got.margin is None
            assert (got.label, got.model_id, got.score) == (
                want.label,
                want.model_id,
                want.score,
            )

    def test_direction_mismatch_rejected_at_attach(self, world):
        config, _, store_dir = world
        service = ShardedRecognitionService(
            "color-only", store_dir, workers=2, config=config
        )
        with service:
            with pytest.raises(CalibrationError, match="higher_is_better"):
                service.attach_thresholds(reject_all_model(higher=True))
            assert not service.thresholds_attached


class TestShardedEnrollAuth:
    def test_enrollment_disabled_without_token(self, world):
        config, references, store_dir = world
        novel = [dataclasses.replace(references[0], label="novel")]
        service = ShardedRecognitionService(
            "color-only", store_dir, workers=2, config=config
        )
        with service:
            with pytest.raises(EnrollmentError, match="disabled"):
                service.enroll(novel, token=TOKEN)

    def test_wrong_token_and_missing_references_rejected(self, world):
        config, references, store_dir = world
        novel = [dataclasses.replace(references[0], label="novel")]
        service = ShardedRecognitionService(
            "color-only", store_dir, workers=2, config=config, enroll_token=TOKEN
        )
        with service:
            with pytest.raises(EnrollmentError, match="rejected"):
                service.enroll(novel, token="wrong")
            # Right token, but the service holds no pixel reference set to
            # merge into: refused loudly instead of serving a stale store.
            with pytest.raises(EnrollmentError):
                service.enroll(novel, token=TOKEN)


class TestEnrollWhileScoring:
    def test_live_enrollment_never_moves_a_known_champion(self, world, tmp_path):
        config, references, _ = world
        # A private store: enrollment republishes new versions into it.
        store_dir = tmp_path / "store"
        cache = FeatureCache(disk_dir=str(tmp_path / "cache"))
        build_store(
            references,
            store_dir,
            bins=config.histogram_bins,
            families=("shape", "color"),
            cache=cache,
        )
        single = ColorOnlyPipeline(
            HistogramMetric.HELLINGER, bins=config.histogram_bins
        ).fit(references)
        queries = list(references) * 3  # self-match workload, 54 requests
        baseline = single.predict_batch(queries)

        novel = [
            dataclasses.replace(item, label="novel")
            for item in make_image_set(99, 2, "novel-src").items
        ]
        service = ShardedRecognitionService(
            "color-only",
            str(store_dir),
            workers=2,
            settings=ServingSettings(max_batch_size=4, max_wait_ms=2.0),
            config=config,
            references=references,
            enroll_token=TOKEN,
        )
        answers = [None] * len(queries)
        first_wave = threading.Event()

        def drive(offset):
            futures = []
            for index in range(offset, len(queries), 2):
                futures.append((index, service.submit(queries[index])))
                if index >= len(references):
                    first_wave.set()
            for index, future in futures:
                answers[index] = future.result(timeout=60.0)

        with service:
            drivers = [threading.Thread(target=drive, args=(k,)) for k in range(2)]
            for thread in drivers:
                thread.start()
            # Commit the enrollment while the drivers are mid-stream.
            first_wave.wait(timeout=30.0)
            report = service.enroll(novel, token=TOKEN)
            assert report.views_added == 2
            assert report.new_classes == ("novel",)
            assert report.old_version != report.new_version
            assert report.invalidated_features > 0
            for thread in drivers:
                thread.join(timeout=60.0)
            service.wait_drained(timeout=30.0)
            # The new class is recognizable immediately after the swap
            # commit (well within the two-flush acceptance bound).
            taught = [service.recognize(view) for view in novel]
            assert [(t.label, t.degraded) for t in taught] == [("novel", False)] * 2
            # And not a single in-flight pre-existing champion moved: every
            # answer is bit-identical to the single-process baseline.
            mismatches = [
                (want.label, got.label)
                for want, got in zip(baseline, answers)
                if got is None
                or got.degraded
                or (got.label, got.model_id, got.score)
                != (want.label, want.model_id, want.score)
            ]
            assert mismatches == []
