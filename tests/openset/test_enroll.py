"""Enrollment merges and the single-process live-enroll path.

``merge_enrollment`` must keep reference layouts class-contiguous (the
layout of every reference set) while preserving the relative order of every
pre-existing view — the property that keeps old champions stable across an
enrollment republish.  ``RecognitionService.enroll`` wires that merge into
a quiesce-refit-restart cycle behind constant-time token auth.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.errors import EnrollmentError
from repro.openset import enrollment_views, merge_enrollment
from repro.imaging.histogram import HistogramMetric
from repro.pipelines.color_only import ColorOnlyPipeline
from repro.serving.service import RecognitionService, authorize_enroll

from tests.engine.synthetic import make_image_set


def grouped(seed, count, name):
    items = sorted(make_image_set(seed, count, name), key=lambda item: item.label)
    return ImageDataset(name=name, items=tuple(items))


def relabelled(items, label):
    return [dataclasses.replace(item, label=label) for item in items]


def contiguous(labels):
    runs = [label for i, label in enumerate(labels) if i == 0 or labels[i - 1] != label]
    return len(runs) == len(set(labels))


class TestMergeEnrollment:
    def test_existing_class_views_slot_in_after_their_class(self):
        refs = grouped(1, 9, "refs")
        addition = dataclasses.replace(refs[0], view_id=99)
        merged = merge_enrollment(refs, [addition])
        assert len(merged) == 10
        assert contiguous(merged.labels)
        inserted = merged.labels.index(addition.label) + merged.labels.count(
            addition.label
        ) - 1
        assert merged[inserted].view_id == 99

    def test_existing_views_keep_their_relative_order(self):
        refs = grouped(1, 9, "refs")
        novel = relabelled(make_image_set(5, 2, "novel").items, "novel")
        merged = merge_enrollment(refs, novel + [dataclasses.replace(refs[3], view_id=77)])
        survivors = [item.key for item in merged if item.view_id not in (77,)
                     and item.label != "novel"]
        assert survivors == [item.key for item in refs]

    def test_new_classes_append_in_first_seen_order(self):
        refs = grouped(1, 6, "refs")
        a = relabelled(make_image_set(5, 2, "a").items, "zeta")
        b = relabelled(make_image_set(6, 1, "b").items, "alpha")
        merged = merge_enrollment(refs, [a[0], b[0], a[1]])
        assert tuple(merged.labels[-3:]) == ("zeta", "zeta", "alpha")
        assert contiguous(merged.labels)

    def test_empty_addition_set_rejected(self):
        with pytest.raises(EnrollmentError):
            merge_enrollment(grouped(1, 6, "refs"), [])


class TestEnrollmentViews:
    def test_renders_relabelled_views_of_a_canon_base(self, config):
        views = enrollment_views("mug", "bottle", config, views=3)
        assert len(views) == 3
        assert all(view.label == "mug" for view in views)
        assert all(view.source == "enrolled" for view in views)
        assert len({view.view_id for view in views}) == 3

    def test_same_seed_renders_identical_pixels(self, config):
        a = enrollment_views("mug", "bottle", config, views=2, seed=5)
        b = enrollment_views("mug", "bottle", config, views=2, seed=5)
        assert all(np.array_equal(x.image, y.image) for x, y in zip(a, b))

    def test_unknown_base_class_and_bad_view_count_rejected(self, config):
        with pytest.raises(Exception):
            enrollment_views("mug", "not-a-class", config)
        with pytest.raises(EnrollmentError):
            enrollment_views("mug", "bottle", config, views=0)


class TestAuthorizeEnroll:
    def test_disabled_when_no_token_configured(self):
        with pytest.raises(EnrollmentError, match="disabled"):
            authorize_enroll("svc", None, "anything")

    def test_mismatched_or_missing_token_rejected(self):
        with pytest.raises(EnrollmentError, match="rejected"):
            authorize_enroll("svc", "secret", "wrong")
        with pytest.raises(EnrollmentError, match="rejected"):
            authorize_enroll("svc", "secret", None)

    def test_matching_token_passes(self):
        authorize_enroll("svc", "secret", "secret")


class TestServiceEnroll:
    @pytest.fixture()
    def refs(self):
        return grouped(2, 9, "service-refs")

    def fitted(self, refs):
        return ColorOnlyPipeline(HistogramMetric.HELLINGER, bins=16).fit(refs)

    def test_enroll_requires_auth(self, refs):
        with RecognitionService(self.fitted(refs)) as service:
            with pytest.raises(EnrollmentError, match="disabled"):
                service.enroll(relabelled(refs.items[:1], "novel"), token="x")
        with RecognitionService(self.fitted(refs), enroll_token="secret") as service:
            with pytest.raises(EnrollmentError, match="rejected"):
                service.enroll(relabelled(refs.items[:1], "novel"), token="wrong")

    def test_enroll_teaches_a_new_class_and_keeps_old_answers(self, refs):
        # Library views as queries: each self-matches at distance 0, and
        # ties resolve to the original lower row index — so enrollment must
        # not move a single pre-existing champion.
        novel = relabelled(make_image_set(9, 2, "novel-views").items, "novel")
        service = RecognitionService(
            self.fitted(refs), enroll_token="secret"
        ).start()
        try:
            before = [service.recognize(item) for item in refs.items]
            report = service.enroll(novel, token="secret")
            assert report.views_added == 2
            assert report.new_classes == ("novel",)
            assert report.epoch == 1
            after = [service.recognize(item) for item in refs.items]
            for want, got in zip(before, after):
                assert (got.label, got.model_id) == (want.label, want.model_id)
                assert got.score == want.score
            taught = service.recognize(novel[0])
            assert taught.label == "novel"
            assert contiguous(service.pipeline.references.labels)
        finally:
            service.stop()

    def test_second_enrollment_bumps_the_epoch(self, refs):
        service = RecognitionService(
            self.fitted(refs), enroll_token="secret"
        ).start()
        try:
            first = relabelled(make_image_set(9, 1, "n1").items, "novel1")
            second = relabelled(make_image_set(10, 1, "n2").items, "novel2")
            assert service.enroll(first, token="secret").epoch == 1
            report = service.enroll(second, token="secret")
            assert report.epoch == 2
            assert "novel1" in service.pipeline.references.labels
            assert "novel2" in service.pipeline.references.labels
        finally:
            service.stop()
