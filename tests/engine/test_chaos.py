"""Chaos suite: deterministic fault injection against the whole engine.

The acceptance bar of the fault-tolerance layer:

* a seeded 10% fault rate over a 200-query sweep completes, yielding
  exactly one :class:`~repro.engine.faults.FailureRecord` per injected
  fault (after retries) with accuracy computed over the survivors;
* the injected fault set is identical under any worker count and backend;
* at fault rate 0 every pipeline's fault-tolerant run is bit-identical to
  the pre-existing strict ``predict_all`` path, sequential and parallel;
* transient faults plus retries reproduce the fault-free sweep exactly;
* a crashed process-pool worker fails only its own chunk — the surviving
  chunks complete on a fresh pool.
"""

import os

import numpy as np
import pytest

from repro.engine.chaos import (
    FaultInjector,
    InjectedFault,
    ShardChaos,
    TransientInjectedFault,
    all_black,
    apply_shard_chaos,
    fault_draw,
    injector_from_env,
    nan_pixels,
)
from repro.engine.executor import ParallelExecutor
from repro.engine.faults import RetryPolicy
from repro.errors import ReproError
from repro.imaging.histogram import HistogramMetric
from repro.imaging.match_shapes import ShapeDistance
from repro.pipelines.baseline import RandomBaselinePipeline
from repro.pipelines.color_only import ColorOnlyPipeline
from repro.pipelines.descriptor import DescriptorPipeline
from repro.pipelines.hybrid import HybridPipeline, HybridStrategy
from repro.pipelines.shape_only import ShapeOnlyPipeline

from tests.engine.synthetic import make_image_set


def stateless_pipelines():
    pipelines = [
        ShapeOnlyPipeline(ShapeDistance.L2),
        ColorOnlyPipeline(HistogramMetric.HELLINGER, bins=8),
        HybridPipeline(HybridStrategy.WEIGHTED_SUM, bins=8),
    ]
    for pipeline in pipelines:
        pipeline.keep_view_scores = True
    return pipelines


def stateful_pipelines():
    return [
        RandomBaselinePipeline(rng=0),
        DescriptorPipeline(method="orb", tie_break_seed=0),
    ]


def assert_identical(sequential, parallel):
    assert len(sequential) == len(parallel)
    for seq, par in zip(sequential, parallel):
        assert seq.label == par.label
        assert seq.model_id == par.model_id
        assert seq.score == par.score
        if getattr(seq, "view_scores", None) is None:
            assert getattr(par, "view_scores", None) is None
        else:
            assert np.array_equal(seq.view_scores, par.view_scores)


class TestFaultDraw:
    def test_pure_function_of_seed_and_content(self):
        queries = make_image_set(seed=1, count=4, name="q")
        draws = [fault_draw(7, item.image) for item in queries]
        assert draws == [fault_draw(7, item.image) for item in queries]
        assert draws != [fault_draw(8, item.image) for item in queries]

    def test_uniformish_spread(self):
        queries = make_image_set(seed=2, count=64, name="q")
        draws = [fault_draw(0, item.image) for item in queries]
        assert all(0.0 <= value < 1.0 for value in draws)
        assert len(set(draws)) == len(draws)


class TestFaultInjector:
    def test_rate_zero_never_faults(self):
        queries = make_image_set(seed=3, count=10, name="q")
        injector = FaultInjector(ShapeOnlyPipeline(ShapeDistance.L2), rate=0.0)
        assert not any(injector.is_faulty(item) for item in queries)

    def test_rate_one_always_faults(self):
        queries = make_image_set(seed=4, count=5, name="q")
        injector = FaultInjector(ShapeOnlyPipeline(ShapeDistance.L2), rate=1.0)
        assert all(injector.is_faulty(item) for item in queries)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ReproError):
            FaultInjector(ShapeOnlyPipeline(ShapeDistance.L2), rate=1.5)
        with pytest.raises(ReproError):
            FaultInjector(
                ShapeOnlyPipeline(ShapeDistance.L2), rate=0.5, fail_first=0
            )

    def test_proxies_pipeline_contract(self):
        references = make_image_set(seed=5, count=6, name="refs")
        inner = ShapeOnlyPipeline(ShapeDistance.L2)
        injector = FaultInjector(inner, rate=0.0, seed=1)
        injector.fit(references)
        assert injector.name == inner.name
        assert injector.parallel_safe is True
        assert injector.scoring_mode == inner.scoring_mode
        # Setting harness attributes through the wrapper reaches the inner
        # pipeline (the runner sets stopwatch/keep_view_scores this way).
        injector.keep_view_scores = True
        assert inner.keep_view_scores is True

    def test_transient_fault_recovers_after_fail_first(self):
        queries = make_image_set(seed=6, count=8, name="q")
        injector = FaultInjector(
            ShapeOnlyPipeline(ShapeDistance.L2),
            rate=1.0,
            fail_first=2,
            exception=TransientInjectedFault,
        )
        injector.fit(make_image_set(seed=7, count=6, name="refs"))
        query = queries[0]
        for _ in range(2):
            with pytest.raises(TransientInjectedFault):
                injector.predict(query)
        prediction = injector.predict(query)
        assert prediction.label in {"box", "disc", "bar"}

    def test_zero_rate_delegates_untouched(self):
        references = make_image_set(seed=8, count=6, name="refs")
        queries = make_image_set(seed=9, count=5, name="q", source="sns2")
        plain = ShapeOnlyPipeline(ShapeDistance.L2).fit(references)
        wrapped = FaultInjector(
            ShapeOnlyPipeline(ShapeDistance.L2), rate=0.0
        ).fit(references)
        assert_identical(
            plain.predict_all(queries), wrapped.predict_all(queries)
        )


class TestChaosSweep:
    def test_200_query_sweep_completes_with_one_record_per_fault(self):
        references = make_image_set(seed=10, count=9, name="refs")
        queries = make_image_set(seed=11, count=200, name="q", source="sns2")
        injector = FaultInjector(
            ShapeOnlyPipeline(ShapeDistance.L2), rate=0.1, seed=42
        )
        injector.fit(references)
        expected_faulty = {
            i for i, item in enumerate(queries) if injector.is_faulty(item)
        }
        assert 0 < len(expected_faulty) < len(queries)
        executor = ParallelExecutor(
            workers=2, retry_policy=RetryPolicy(max_attempts=3)
        )
        report = executor.run(injector, list(queries))
        assert {f.query_index for f in report.failures} == expected_faulty
        assert len(report.failures) == len(expected_faulty)
        assert len(report.predictions) == len(queries) - len(expected_faulty)
        # Persistent faults burn the full retry budget before being recorded.
        assert all(f.attempts == 3 for f in report.failures)
        assert all(f.error_type == "InjectedFault" for f in report.failures)
        # Accuracy over survivors: every surviving index has a prediction.
        labels = [item.label for item in queries]
        survivors = [labels[i] for i in report.success_indices]
        assert len(survivors) == len(report.predictions)

    @pytest.mark.parametrize("workers,backend", [(1, "thread"), (4, "thread")])
    def test_fault_set_independent_of_worker_count(self, workers, backend):
        references = make_image_set(seed=12, count=6, name="refs")
        queries = make_image_set(seed=13, count=40, name="q", source="sns2")
        injector = FaultInjector(
            ShapeOnlyPipeline(ShapeDistance.L2), rate=0.2, seed=5
        )
        injector.fit(references)
        baseline = ParallelExecutor(workers=1).run(injector, list(queries))
        report = ParallelExecutor(workers=workers, backend=backend).run(
            injector, list(queries)
        )
        assert {f.query_index for f in report.failures} == {
            f.query_index for f in baseline.failures
        }
        assert_identical(baseline.predictions, report.predictions)

    def test_transient_faults_plus_retries_reproduce_fault_free_run(self):
        references = make_image_set(seed=14, count=6, name="refs")
        queries = make_image_set(seed=15, count=30, name="q", source="sns2")
        clean = ShapeOnlyPipeline(ShapeDistance.L2).fit(references)
        expected = clean.predict_all(queries)
        injector = FaultInjector(
            ShapeOnlyPipeline(ShapeDistance.L2),
            rate=0.3,
            seed=3,
            exception=TransientInjectedFault,
            fail_first=1,
        )
        injector.fit(references)
        executor = ParallelExecutor(retry_policy=RetryPolicy(max_attempts=3))
        report = executor.run(injector, list(queries))
        assert not report.failures
        assert report.retries > 0
        assert_identical(expected, report.predictions)


class TestZeroFaultEquivalence:
    """Fault rate 0 == the pre-fault-tolerance engine, bit for bit."""

    def test_stateless_pipelines_sequential_and_parallel(self):
        references = make_image_set(seed=16, count=9, name="refs")
        queries = make_image_set(seed=17, count=11, name="q", source="sns2")
        for pipeline in stateless_pipelines():
            pipeline.fit(references)
            strict = pipeline.predict_all(queries)
            for workers in (1, 2, 4):
                report = ParallelExecutor(workers=workers).run(
                    pipeline, list(queries)
                )
                assert not report.failures
                assert_identical(strict, report.predictions)

    def test_stateful_pipelines_inline(self):
        references = make_image_set(seed=18, count=6, name="refs")
        queries = make_image_set(seed=19, count=8, name="q", source="sns2")
        for strict_pipe, tolerant_pipe in zip(
            stateful_pipelines(), stateful_pipelines()
        ):
            strict = strict_pipe.fit(references).predict_all(queries)
            tolerant_pipe.fit(references)
            # Even with many workers the executor must run these inline
            # (parallel_safe=False), preserving the shared RNG stream.
            report = ParallelExecutor(workers=4).run(
                tolerant_pipe, list(queries)
            )
            assert not report.failures
            assert [p.label for p in report.predictions] == [
                p.label for p in strict
            ]
            assert [p.model_id for p in report.predictions] == [
                p.model_id for p in strict
            ]


class TestInjectorFromEnv:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_RATE", raising=False)
        pipeline = ShapeOnlyPipeline(ShapeDistance.L2)
        assert injector_from_env(pipeline) is pipeline

    def test_wraps_stateless_pipeline_transiently(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.25")
        monkeypatch.setenv("REPRO_FAULT_SEED", "9")
        wrapped = injector_from_env(ShapeOnlyPipeline(ShapeDistance.L2))
        assert isinstance(wrapped, FaultInjector)
        assert wrapped.rate == 0.25
        assert wrapped.seed == 9
        assert wrapped.fail_first == 1
        assert wrapped.exception is TransientInjectedFault

    def test_never_wraps_stateful_pipelines(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.5")
        pipeline = RandomBaselinePipeline(rng=0)
        assert injector_from_env(pipeline) is pipeline

    def test_garbage_rate_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_RATE", "lots")
        pipeline = ShapeOnlyPipeline(ShapeDistance.L2)
        assert injector_from_env(pipeline) is pipeline


class TestCorruptInputGenerators:
    def test_all_black_zeroes_pixels_and_keeps_metadata(self):
        item = make_image_set(seed=20, count=1, name="q")[0]
        black = all_black(item)
        assert not black.image.any()
        assert black.label == item.label
        assert black.model_id == item.model_id

    def test_nan_pixels_seeded_and_partial(self):
        item = make_image_set(seed=21, count=1, name="q")[0]
        poisoned = nan_pixels(item, fraction=0.25, seed=0)
        again = nan_pixels(item, fraction=0.25, seed=0)
        nan_mask = np.isnan(poisoned.image)
        assert nan_mask.any() and not nan_mask.all()
        assert np.array_equal(nan_mask, np.isnan(again.image))


class TestApplyShardChaos:
    def test_scheduled_error_fires_on_the_primary_leg_only(self):
        chaos = ShardChaos(error_flushes=(3,))
        with pytest.raises(InjectedFault, match="dispatch 3"):
            apply_shard_chaos(chaos, "3")
        for key in ("3r", "warm", "swap", "4"):
            apply_shard_chaos(chaos, key)  # exempt leg or unscheduled

    def test_negative_slow_s_rejected(self):
        with pytest.raises(ReproError):
            ShardChaos(slow_s=-0.1)


class InjectorPickleHelper:
    pass


class TestPickling:
    def test_injector_survives_pickle_roundtrip(self):
        # The process backend ships the wrapped pipeline to workers; the
        # attribute proxy must not recurse during unpickling.
        import pickle

        references = make_image_set(seed=22, count=6, name="refs")
        queries = make_image_set(seed=23, count=4, name="q", source="sns2")
        injector = FaultInjector(
            ShapeOnlyPipeline(ShapeDistance.L2), rate=0.0, seed=1
        ).fit(references)
        clone = pickle.loads(pickle.dumps(injector))
        assert_identical(
            injector.predict_all(queries), clone.predict_all(queries)
        )


def _crash_worker(query):  # pragma: no cover - runs in a worker process
    os._exit(13)


class CrashingPipeline:
    """Kills its worker process on a marked query — a real segfault stand-in.

    Defined module-level so the process backend can pickle it.
    """

    name = "crashing"
    parallel_safe = True
    scoring_mode = "scalar"

    def __init__(self, bad_views=()):
        self.bad_views = frozenset(bad_views)

    def fit(self, references):
        return self

    def predict(self, query):
        from repro.pipelines.base import Prediction

        if query.view_id in self.bad_views:
            os._exit(13)
        return Prediction(
            label=query.label, model_id=query.model_id, score=0.0
        )

    def predict_batch(self, queries):
        return [self.predict(query) for query in queries]


@pytest.mark.slow
class TestWorkerCrashRecovery:
    def test_surviving_chunks_complete_on_fresh_pool(self):
        queries = make_image_set(seed=24, count=16, name="q")
        bad_view = 5
        pipeline = CrashingPipeline(bad_views={bad_view})
        executor = ParallelExecutor(workers=2, backend="process", chunk_size=2)
        report = executor.run(pipeline, list(queries))
        failed = {f.query_index for f in report.failures}
        # The culprit chunk (queries 4-5 under chunk_size=2) is marked
        # failed with WorkerCrashError; every other chunk completes.
        assert bad_view in failed
        assert failed == {4, 5}
        assert all(
            f.error_type == "WorkerCrashError" and f.stage == "worker"
            for f in report.failures
        )
        assert len(report.predictions) == len(queries) - 2
        survivors = {
            queries[i].model_id for i in report.success_indices
        }
        assert queries[0].model_id in survivors
        assert queries[15].model_id in survivors
