"""Seeded recall-audit properties: exactness at every K, monotonicity in K."""

import pytest

from repro.config import ExperimentConfig
from repro.datasets.shapenet import build_sns1, build_sns2
from repro.errors import RetrievalIndexError
from repro.index import INDEXABLE_PIPELINES, recall_audit


def _rows_by_pipeline(payload):
    grouped: dict[str, list[dict]] = {}
    for row in payload["rows"]:
        grouped.setdefault(row["pipeline"], []).append(row)
    return grouped


class TestAuditProperties:
    @pytest.fixture(scope="class")
    def payload(self, config, sns1, sns2):
        queries = list(sns2)[:30]
        return recall_audit(
            sns1, queries, ks=[2, 8, 32, len(sns1)], config=config
        )

    def test_covers_every_indexable_pipeline(self, payload):
        assert set(payload["pipelines"]) == set(INDEXABLE_PIPELINES)
        grouped = _rows_by_pipeline(payload)
        assert set(grouped) == set(INDEXABLE_PIPELINES)

    def test_recall_is_one_at_full_shortlist(self, payload):
        for rows in _rows_by_pipeline(payload).values():
            full = [row for row in rows if row["k"] == payload["ks"][-1]]
            assert full and full[0]["recall"] == 1.0

    def test_scores_always_bit_identical_on_agreement(self, payload):
        assert all(row["score_exact"] for row in payload["rows"])

    def test_recall_monotone_in_k(self, payload):
        for rows in _rows_by_pipeline(payload).values():
            ordered = sorted(rows, key=lambda row: row["k"])
            recalls = [row["recall"] for row in ordered]
            assert recalls == sorted(recalls)

    def test_recall_is_one_at_every_k(self, payload):
        # The certificate makes K irrelevant to the answer.
        assert all(row["recall"] == 1.0 for row in payload["rows"])

    def test_mean_candidates_bounded_by_library(self, payload):
        # Survivors of the bound: at least the seed, at most every row.
        for row in payload["rows"]:
            assert 1 <= row["mean_candidates"] <= payload["library_views"]


class TestSecondSeed:
    def test_exactness_holds_on_an_independent_seed(self):
        config = ExperimentConfig(seed=23, nyu_scale=0.01)
        references = build_sns1(config)
        queries = list(build_sns2(config))[:15]
        payload = recall_audit(
            references,
            queries,
            ks=[4, len(references)],
            pipeline_names=("shape-only", "hybrid"),
            config=config,
        )
        grouped = _rows_by_pipeline(payload)
        for rows in grouped.values():
            full = [row for row in rows if row["k"] == len(references)]
            assert full[0]["recall"] == 1.0
        assert all(row["score_exact"] for row in payload["rows"])


class TestAuditValidation:
    def test_no_queries_rejected(self, sns1, config):
        with pytest.raises(RetrievalIndexError):
            recall_audit(sns1, [], ks=[4], config=config)

    def test_bad_k_rejected(self, sns1, sns2, config):
        with pytest.raises(RetrievalIndexError):
            recall_audit(sns1, list(sns2)[:2], ks=[0, 4], config=config)
