"""Index attachment on the real pipelines: identity at K=V, error cases."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.imaging.histogram import HistogramMetric
from repro.imaging.match_shapes import ShapeDistance
from repro.pipelines.color_only import ColorOnlyPipeline
from repro.pipelines.hybrid import HybridPipeline, HybridStrategy
from repro.pipelines.shape_only import ShapeOnlyPipeline


def _pipelines(config):
    return [
        ShapeOnlyPipeline(ShapeDistance.L3),
        ColorOnlyPipeline(HistogramMetric.HELLINGER, bins=config.histogram_bins),
        HybridPipeline(
            HybridStrategy.WEIGHTED_SUM,
            alpha=config.alpha,
            beta=config.beta,
            bins=config.histogram_bins,
        ),
    ]


class TestIndexedIdentity:
    def test_full_shortlist_reproduces_brute_predictions(self, config, sns1, sns2):
        queries = list(sns2)[:25]
        for pipeline in _pipelines(config):
            pipeline.fit(sns1)
            brute = pipeline.predict_batch(queries)
            pipeline.attach_index(len(sns1))
            assert pipeline.scoring_mode == "indexed"
            indexed = pipeline.predict_batch(queries)
            for b, i in zip(brute, indexed):
                assert (b.label, b.model_id) == (i.label, i.model_id)
                assert b.score == i.score  # bit-identical, not approx

    def test_champion_batch_bitwise_equal_at_full_k(self, config, sns1, sns2):
        queries = list(sns2)[:25]
        for pipeline in _pipelines(config):
            pipeline.fit(sns1)
            brute = pipeline.champion_batch(queries)
            pipeline.attach_index(len(sns1))
            indexed = pipeline.champion_batch(queries)
            assert [hit.row for hit in brute] == [hit.row for hit in indexed]
            assert [hit.score for hit in brute] == [hit.score for hit in indexed]

    def test_single_predict_routes_through_index(self, config, sns1, sns2):
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3).fit(sns1)
        brute = pipeline.predict(sns2[0])
        pipeline.attach_index(len(sns1))
        indexed = pipeline.predict(sns2[0])
        assert brute.label == indexed.label
        assert brute.score == indexed.score

    def test_detach_restores_brute_mode(self, config, sns1):
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3).fit(sns1)
        pipeline.attach_index(8)
        assert pipeline.index_attached
        pipeline.detach_index()
        assert not pipeline.index_attached
        assert pipeline.scoring_mode != "indexed"

    def test_keep_view_scores_bypasses_the_index(self, config, sns1, sns2):
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3)
        pipeline.keep_view_scores = True
        pipeline.fit(sns1)
        pipeline.attach_index(4)
        prediction = pipeline.predict(sns2[0])
        assert prediction.view_scores is not None
        assert len(prediction.view_scores) == len(sns1)


class TestLifecycle:
    def test_refit_drops_the_index(self, config, sns1):
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3).fit(sns1)
        pipeline.attach_index(4)
        pipeline.fit(sns1)  # new library: the old bound covers stale rows
        assert not pipeline.index_attached

    def test_attach_index_requires_a_library(self):
        with pytest.raises(PipelineError):
            ShapeOnlyPipeline(ShapeDistance.L3).attach_index(4)

    def test_retriever_property_raises_when_absent(self, sns1):
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3).fit(sns1)
        with pytest.raises(PipelineError):
            pipeline.retriever

    def test_hybrid_requires_weighted_sum(self, config, sns1):
        pipeline = HybridPipeline(HybridStrategy.MICRO_AVERAGE)
        pipeline.fit(sns1)
        with pytest.raises(PipelineError):
            pipeline.attach_index(4)

    def test_shortlist_k_validated(self, sns1):
        from repro.errors import RetrievalIndexError

        pipeline = ShapeOnlyPipeline(ShapeDistance.L3).fit(sns1)
        with pytest.raises(RetrievalIndexError):
            pipeline.attach_index(0)


class TestStoreAttachment:
    def test_index_over_attached_store(self, config, sns1, sns2, tmp_path):
        from repro.store import ReferenceStore, build_store

        build_store(
            sns1, tmp_path, bins=config.histogram_bins, families=("shape", "color")
        )
        store = ReferenceStore.attach(tmp_path)
        queries = list(sns2)[:10]
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3)
        pipeline.attach_store(store)
        brute = pipeline.champion_batch(queries)
        pipeline.attach_index(len(sns1))
        indexed = pipeline.champion_batch(queries)
        assert [hit.row for hit in brute] == [hit.row for hit in indexed]
        assert [hit.score for hit in brute] == [hit.score for hit in indexed]

    def test_reattaching_store_drops_the_index(self, config, sns1, tmp_path):
        from repro.store import ReferenceStore, build_store

        build_store(
            sns1, tmp_path, bins=config.histogram_bins, families=("shape", "color")
        )
        store = ReferenceStore.attach(tmp_path)
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3)
        pipeline.attach_store(store)
        pipeline.attach_index(4)
        pipeline.attach_store(store, rows=(0, 40))
        assert not pipeline.index_attached


class TestCertifiable:
    """The one rule the sharded tier asks: a per-view champion whose bound
    prunes (shape, or a Hellinger or Correlation colour term)."""

    def test_served_registry_pipelines_are_certifiable(self, config):
        assert all(pipeline.certifiable() for pipeline in _pipelines(config))

    @pytest.mark.parametrize(
        "metric, tight",
        [
            ("hellinger", True),
            ("correlation", True),
            ("intersection", False),
            ("chi_square", False),
        ],
    )
    def test_loose_colour_bounds_are_refused(self, metric, tight):
        metric = HistogramMetric(metric)
        hybrid = HybridPipeline(HybridStrategy.WEIGHTED_SUM, color_metric=metric)
        assert ColorOnlyPipeline(metric).certifiable() is tight
        assert hybrid.certifiable() is tight

    @pytest.mark.parametrize(
        "strategy", [s for s in HybridStrategy if s != HybridStrategy.WEIGHTED_SUM]
    )
    def test_averaging_hybrids_are_not_certifiable(self, strategy):
        assert not HybridPipeline(strategy).certifiable()
