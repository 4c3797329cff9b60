"""Behaviour of the online recognition service.

The load-bearing property is exact equivalence: a micro-batched answer for
any non-degraded request must be bit-identical (label, model id, score) to
the same query through the sequential ``predict()`` path — batching is a
scheduling optimisation, never a numerics change.  The remaining tests pin
the resilience semantics: deadlines, per-request isolation after a batch
failure, retry routing and fallback degradation.  The lifecycle and
deadline cases run over both services, which share one request front end.
"""

import threading

import pytest

from repro.config import ServingSettings
from repro.engine.chaos import ShardChaos
from repro.errors import (
    DeadlineExceeded,
    ServiceNotReady,
    ServiceOverloaded,
    ServingError,
)
from repro.pipelines.fallback import FallbackPipeline
from repro.serving.loadgen import build_workload, _drive_closed_loop
from repro.serving.registry import default_registry
from repro.serving.service import RecognitionService
from repro.serving.shards import ShardedRecognitionService

from tests.engine.synthetic import make_image_set
from tests.serving.stubs import StubFault, StubPipeline
from tests.serving.test_sharded import served  # noqa: F401 - the small store

#: How long a held sharded flush sleeps in its workers: well past the 30 ms
#: deadlines and 80 ms waits below.
HOLD_S = 0.5


@pytest.fixture(scope="module")
def synthetic_refs():
    return make_image_set(seed=5, count=9, name="serve-refs")


@pytest.fixture(scope="module")
def synthetic_queries():
    return list(make_image_set(seed=6, count=12, name="serve-queries", source="nyu"))


def service_builder(kind, request, synthetic_refs):
    """``build(hold=False, fallback=None, **settings) -> (service, release)``
    for the *kind* of service, not yet started.

    With *hold*, the service's first flush is pinned: the in-process one
    blocks on a held stub until ``release()``; the sharded one sleeps
    ``HOLD_S`` in its workers under a seeded slow-flush chaos plan over the
    small store fixture, so its ``release()`` does nothing.
    """
    if kind == "in-process":

        def build(hold=False, fallback=None, **settings):
            pipeline = StubPipeline(hold=hold).fit(synthetic_refs)
            service = RecognitionService(
                pipeline, settings=ServingSettings(**settings), fallback=fallback
            )
            return service, pipeline.release

        return build
    config, _, _, store_dir = request.getfixturevalue("served")

    def build(hold=False, fallback=None, **settings):
        service = ShardedRecognitionService(
            "shape-only",
            store_dir,
            workers=2,
            settings=ServingSettings(**settings),
            config=config,
            fallback=fallback,
            chaos=ShardChaos(slow_flushes=(0,), slow_s=HOLD_S) if hold else None,
        )
        return service, lambda: None

    return build


@pytest.fixture(params=["in-process", "sharded"])
def front_end(request, synthetic_refs):
    return service_builder(request.param, request, synthetic_refs)


def wait_dequeued(service):
    """Block until the flush thread has taken everything queued."""
    for _ in range(5000):
        if service.queue_depth == 0:
            return
        threading.Event().wait(0.001)
    raise AssertionError("the flush thread never dequeued the primer")


class TestEquivalence:
    @pytest.mark.parametrize("pipeline_name", ["shape-only", "hybrid"])
    def test_batched_answers_bitwise_equal_sequential(
        self, pipeline_name, config, sns1
    ):
        pipeline = default_registry().warm_start(pipeline_name, sns1, config)
        queries = build_workload(config, requests=24)
        pipeline.predict_batch(queries)  # warm the feature cache for both paths
        expected = [pipeline.predict(query) for query in queries]

        service = RecognitionService(
            pipeline,
            settings=ServingSettings(max_batch_size=8, max_wait_ms=5.0),
        ).start()
        try:
            served = _drive_closed_loop(service, queries, clients=8)
        finally:
            service.stop(drain=True)

        for answer, reference in zip(served, expected):
            assert answer is not None
            assert not answer.degraded
            assert (answer.label, answer.model_id, answer.score) == (
                reference.label,
                reference.model_id,
                reference.score,
            )
        report = service.report()
        assert report.submitted == len(queries)
        assert report.completed == len(queries)
        assert report.failed == 0 and report.rejected == 0
        assert report.pending == 0

    def test_seeded_concurrent_schedule_is_deterministic(
        self, synthetic_refs, synthetic_queries
    ):
        # Two services, same queries, different thread interleavings: the
        # answers (not the batch shapes) must be identical.
        outcomes = []
        for batch_size in (1, 4):
            pipeline = StubPipeline().fit(synthetic_refs)
            service = RecognitionService(
                pipeline,
                settings=ServingSettings(max_batch_size=batch_size, max_wait_ms=1.0),
            ).start()
            try:
                served = _drive_closed_loop(service, synthetic_queries, clients=4)
            finally:
                service.stop(drain=True)
            outcomes.append(
                [(p.label, p.model_id, p.score) for p in served]
            )
        assert outcomes[0] == outcomes[1]


class TestLifecycle:
    def test_submit_before_start_and_after_stop_rejected(self, front_end):
        service, _ = front_end()
        query = make_image_set(seed=8, count=1, name="q")[0]
        with pytest.raises(ServiceNotReady):
            service.submit(query)
        service.start()
        assert service.ready
        service.stop()
        assert not service.ready
        with pytest.raises(ServiceNotReady):
            service.submit(query)

    def test_start_requires_fitted_pipelines(self, synthetic_refs):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            RecognitionService(StubPipeline()).start()
        with pytest.raises(PipelineError):
            RecognitionService(
                StubPipeline().fit(synthetic_refs), fallback=StubPipeline()
            ).start()

    def test_predict_alias_serves_like_a_pipeline(self, synthetic_refs):
        # Duck-typing contract: anything written against pipeline.predict
        # (e.g. the robot patrol loop) can call the service unchanged.
        query = make_image_set(seed=9, count=1, name="q", source="nyu")[0]
        with RecognitionService(StubPipeline().fit(synthetic_refs)) as service:
            prediction = service.predict(query)
        assert prediction.label == query.label
        assert service.name == "serving(stub)"

    def test_invalid_deadline_rejected(self, front_end):
        query = make_image_set(seed=10, count=1, name="q")[0]
        service, _ = front_end()
        with service:
            with pytest.raises(ServingError):
                service.submit(query, deadline_ms=0)

    def test_warm_start_builds_a_ready_service(self, config, sns1):
        service = RecognitionService.warm_start(
            "most-frequent", sns1, config=config, fallback=None
        )
        try:
            assert service.ready
            prediction = service.recognize(sns1[0])
            assert prediction.label
        finally:
            service.stop(drain=True)


class TestDeadlines:
    """Deadlines, non-draining stop and shedding; run over both services
    (:class:`TestShardedDeadlines` reruns every case sharded)."""

    kind = "in-process"

    @pytest.fixture
    def front_end(self, request, synthetic_refs):
        return service_builder(self.kind, request, synthetic_refs)

    def _held_service(self, front_end, fallback=None, **settings_kwargs):
        service, release = front_end(
            hold=True,
            fallback=fallback,
            max_batch_size=1,
            max_wait_ms=0.0,
            **settings_kwargs,
        )
        return release, service.start()

    def test_expired_deadline_without_fallback_raises(self, front_end):
        queries = make_image_set(seed=11, count=2, name="q", source="nyu")
        release, service = self._held_service(front_end)
        try:
            in_flight = service.submit(queries[0])
            doomed = service.submit(queries[1], deadline_ms=30.0)
            threading.Event().wait(0.08)  # let the 30ms deadline lapse
            release()
            assert not in_flight.result(timeout=30.0).degraded
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30.0)
        finally:
            release()
            service.stop(drain=True)
        report = service.report()
        assert report.failed == 1 and report.expired == 1
        assert report.completed == 1

    def test_expired_deadline_with_fallback_degrades(
        self, front_end, synthetic_refs
    ):
        fallback = StubPipeline().fit(synthetic_refs)
        queries = make_image_set(seed=12, count=2, name="q", source="nyu")
        release, service = self._held_service(front_end, fallback=fallback)
        try:
            service.submit(queries[0])
            rescued = service.submit(queries[1], deadline_ms=30.0)
            threading.Event().wait(0.08)
            release()
            answer = rescued.result(timeout=30.0)
        finally:
            release()
            service.stop(drain=True)
        assert answer.degraded
        assert answer.label == queries[1].label  # fallback echoes the stub
        report = service.report()
        assert report.failed == 0
        assert report.degraded == 1 and report.expired == 1

    def test_settings_default_deadline_applies(self, front_end):
        # deadline_ms from ServingSettings is used when submit passes None.
        queries = make_image_set(seed=13, count=2, name="q", source="nyu")
        release, service = self._held_service(front_end, deadline_ms=30.0)
        try:
            service.submit(queries[0])
            doomed = service.submit(queries[1])
            threading.Event().wait(0.08)
            release()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30.0)
        finally:
            release()
            service.stop(drain=True)

    def test_non_draining_stop_fails_queued_requests(self, front_end):
        queries = make_image_set(seed=17, count=3, name="q", source="nyu")
        release, service = self._held_service(front_end)
        in_flight = service.submit(queries[0])
        wait_dequeued(service)
        queued = [service.submit(query) for query in queries[1:]]
        # Release only once stop() has closed the queue: the held flush
        # then finishes and the queued requests are discarded, not served.
        releaser = threading.Timer(0.2, release)
        releaser.start()
        try:
            service.stop(drain=False)
        finally:
            releaser.cancel()
            release()
        assert not in_flight.result(timeout=30.0).degraded
        for future in queued:
            with pytest.raises(ServiceNotReady):
                future.result(timeout=30.0)
        report = service.report()
        assert report.completed == 1 and report.failed == 2
        assert report.pending == 0

    def test_priority_arrival_sheds_the_cheapest_queued_request(self, front_end):
        queries = make_image_set(seed=18, count=3, name="q", source="nyu")
        release, service = self._held_service(front_end, max_queue_depth=1)
        try:
            in_flight = service.submit(queries[0])
            wait_dequeued(service)
            cheap = service.submit(queries[1])  # fills the queue
            urgent = service.submit(queries[2], priority=1)  # sheds `cheap`
            with pytest.raises(ServiceOverloaded):
                service.submit(queries[1])  # nothing queued ranks below it
            release()
            with pytest.raises(ServiceOverloaded):
                cheap.result(timeout=30.0)
            assert not in_flight.result(timeout=30.0).degraded
            assert not urgent.result(timeout=30.0).degraded
        finally:
            release()
            service.stop(drain=True)
        report = service.report()
        assert report.shed == 1 and report.rejected == 1
        assert report.completed == 2 and report.failed == 1


class TestShardedDeadlines(TestDeadlines):
    kind = "sharded"


class TestBatchFailureIsolation:
    def test_batch_failure_isolates_requests(self, synthetic_refs):
        # predict_batch always raises; per-request isolation then serves the
        # healthy queries via predict and fails only the poisoned labels.
        pipeline = StubPipeline(batch_fails=True, fail_labels={"box"}).fit(
            synthetic_refs
        )
        queries = list(make_image_set(seed=14, count=9, name="q", source="nyu"))
        service = RecognitionService(
            pipeline, settings=ServingSettings(max_batch_size=4, max_wait_ms=1.0)
        ).start()
        try:
            futures = [service.submit(query) for query in queries]
            outcomes = []
            for query, future in zip(queries, futures):
                try:
                    outcomes.append(future.result(timeout=10.0))
                except StubFault:
                    outcomes.append(None)
        finally:
            service.stop(drain=True)
        for query, outcome in zip(queries, outcomes):
            if query.label == "box":
                assert outcome is None
            else:
                assert outcome is not None and outcome.label == query.label
        report = service.report()
        boxes = sum(1 for q in queries if q.label == "box")
        assert report.failed == boxes
        assert report.completed == len(queries) - boxes
        assert report.pending == 0

    def test_failed_requests_degrade_through_fallback(self, synthetic_refs):
        pipeline = StubPipeline(batch_fails=True, fail_labels={"box"}).fit(
            synthetic_refs
        )
        fallback = StubPipeline().fit(synthetic_refs)
        queries = list(make_image_set(seed=15, count=9, name="q", source="nyu"))
        service = RecognitionService(
            pipeline,
            settings=ServingSettings(max_batch_size=4, max_wait_ms=1.0),
            fallback=fallback,
        ).start()
        try:
            answers = [service.recognize(query) for query in queries]
        finally:
            service.stop(drain=True)
        for query, answer in zip(queries, answers):
            assert answer.label == query.label
            assert answer.degraded == (query.label == "box")
        report = service.report()
        boxes = sum(1 for q in queries if q.label == "box")
        assert report.completed == len(queries)
        assert report.degraded == boxes
        assert report.failed == 0

    def test_degraded_answers_from_a_batch_are_counted_as_degraded(
        self, synthetic_refs
    ):
        # A FallbackPipeline primary answers the whole block through its own
        # predict_batch, flagging the answers its later stage served; the
        # report must count each answer by that flag.
        pipeline = FallbackPipeline(
            [StubPipeline(batch_fails=True, fail_labels={"box"}), StubPipeline()]
        ).fit(synthetic_refs)
        queries = list(make_image_set(seed=15, count=9, name="q", source="nyu"))
        service = RecognitionService(
            pipeline, settings=ServingSettings(max_batch_size=4, max_wait_ms=1.0)
        ).start()
        try:
            futures = [service.submit(query) for query in queries]
            answers = [future.result(timeout=10.0) for future in futures]
        finally:
            service.stop(drain=True)
        flagged = sum(answer.degraded for answer in answers)
        assert flagged == sum(1 for q in queries if q.label == "box") > 0
        report = service.report()
        assert report.degraded == flagged
        assert report.completed == len(queries) and report.failed == 0

    def test_retry_policy_gives_flaky_requests_another_attempt(
        self, synthetic_refs
    ):
        class FlakyOnce(StubPipeline):
            """Each query fails on its first isolated attempt, then serves."""

            def __init__(self):
                super().__init__(batch_fails=True)
                self._seen: set[int] = set()

            def predict(self, query):
                if query.view_id not in self._seen:
                    self._seen.add(query.view_id)
                    raise StubFault("first attempt always fails")
                return super().predict(query)

        pipeline = FlakyOnce().fit(synthetic_refs)
        queries = list(make_image_set(seed=16, count=4, name="q", source="nyu"))
        service = RecognitionService(
            pipeline,
            settings=ServingSettings(
                max_batch_size=4, max_wait_ms=1.0, max_attempts=2
            ),
        ).start()
        try:
            answers = [service.recognize(query) for query in queries]
        finally:
            service.stop(drain=True)
        assert [a.label for a in answers] == [q.label for q in queries]
        assert not any(a.degraded for a in answers)
        report = service.report()
        assert report.completed == len(queries) and report.failed == 0
