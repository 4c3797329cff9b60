"""Unit tests for the ShapeNetSet builders (Table 1 conformance)."""

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.datasets.classes import CLASS_NAMES, SNS1_VIEW_COUNTS, SNS2_VIEW_COUNTS
from repro.datasets.shapenet import (
    SNS2_MODELS_PER_CLASS,
    build_reference_library,
    build_sns1,
    build_sns2,
)
from repro.errors import DatasetError


class TestSns1:
    def test_total_is_82(self, sns1):
        assert len(sns1) == 82

    def test_per_class_counts_match_table1(self, sns1):
        assert sns1.class_counts() == SNS1_VIEW_COUNTS

    def test_two_models_per_class(self, sns1):
        for label, group in sns1.by_class().items():
            models = {item.model_id for item in group}
            assert len(models) == 2, label

    def test_white_background(self, sns1):
        image = sns1[0].image
        border = np.concatenate([image[0], image[-1], image[:, 0], image[:, -1]])
        assert np.allclose(border, 1.0, atol=1e-6)

    def test_source_tag(self, sns1):
        assert {item.source for item in sns1} == {"sns1"}

    def test_deterministic(self, config):
        a = build_sns1(config)
        b = build_sns1(config)
        assert np.array_equal(a[0].image, b[0].image)
        assert np.array_equal(a[-1].image, b[-1].image)

    def test_seed_changes_content(self, config, sns1):
        other = build_sns1(ExperimentConfig(seed=99, nyu_scale=config.nyu_scale))
        assert not np.array_equal(other[0].image, sns1[0].image)

    def test_views_within_model_differ(self, sns1):
        groups = sns1.by_model()
        model_views = next(iter(groups.values()))
        assert not np.array_equal(model_views[0].image, model_views[1].image)


class TestSns2:
    def test_total_is_100(self, sns2):
        assert len(sns2) == 100

    def test_per_class_counts(self, sns2):
        assert sns2.class_counts() == SNS2_VIEW_COUNTS

    def test_models_per_class(self, sns2):
        for label, group in sns2.by_class().items():
            models = {item.model_id for item in group}
            assert len(models) == SNS2_MODELS_PER_CLASS, label

    def test_disjoint_model_ids_from_sns1(self, sns1, sns2):
        ids1 = {item.model_id for item in sns1}
        ids2 = {item.model_id for item in sns2}
        assert not ids1 & ids2

    def test_render_size_respected(self, config, sns2):
        assert sns2[0].image.shape == (config.render_size, config.render_size, 3)


class TestReferenceLibrary:
    @pytest.fixture(scope="class")
    def library(self, config):
        return build_reference_library(config, models_per_class=2, views_per_model=3)

    def test_size_is_classes_times_models_times_views(self, library):
        assert len(library) == len(CLASS_NAMES) * 2 * 3

    def test_labels_form_contiguous_class_runs(self, library):
        # Every reference set is laid out class-grouped.
        labels = library.labels
        seen = []
        for label in labels:
            if not seen or seen[-1] != label:
                seen.append(label)
        assert len(seen) == len(set(labels))

    def test_deterministic_across_builds(self, config):
        a = build_reference_library(config, models_per_class=1, views_per_model=2)
        b = build_reference_library(config, models_per_class=1, views_per_model=2)
        assert np.array_equal(a[0].image, b[0].image)
        assert np.array_equal(a[-1].image, b[-1].image)

    def test_views_of_one_model_differ(self, library):
        groups = library.by_model()
        views = next(iter(groups.values()))
        assert not np.array_equal(views[0].image, views[1].image)

    def test_random_viewpoints_differ_beyond_the_canonical_ring(self, config):
        library = build_reference_library(
            config, models_per_class=1, views_per_model=12
        )
        views = library.by_model()[library[0].model_id]
        assert not np.array_equal(views[10].image, views[11].image)

    def test_model_ids_disjoint_from_paper_sets(self, library, sns1, sns2):
        ids = {item.model_id for item in library}
        assert not ids & {item.model_id for item in sns1}
        assert not ids & {item.model_id for item in sns2}

    def test_source_tag_and_name(self, library):
        assert {item.source for item in library} == {"synlib"}
        assert library.name == "SynLibrary(2x3)"

    def test_bad_arguments_rejected(self, config):
        with pytest.raises(DatasetError):
            build_reference_library(config, models_per_class=0)
        with pytest.raises(DatasetError):
            build_reference_library(config, views_per_model=0)
