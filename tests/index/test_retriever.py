"""TwoStageRetriever contract: bit-identity, tie rule, certified pruning."""

import numpy as np
import pytest

from repro.errors import RetrievalIndexError
from repro.index import BoundedQuery, TwoStageRetriever


def _make_retriever(bounds, scores_matrix, shortlist_k, higher_is_better=False):
    """A retriever over synthetic features: the 'features' of a query are its
    row index into *bounds* (its bound on every reference row) and into
    *scores_matrix* (the exact score of every reference row)."""

    def rerank(features, rows):
        return scores_matrix[features][rows]

    return TwoStageRetriever(
        bound=lambda features: bounds[features],
        rerank=rerank,
        n_rows=scores_matrix.shape[1],
        shortlist_k=shortlist_k,
        higher_is_better=higher_is_better,
    )


def _loose(rng, scores, higher_is_better=False):
    """A valid but loose bound: the scores moved a random amount the
    losing way."""
    slack = rng.random(scores.shape) * 0.3
    return scores + slack if higher_is_better else scores - slack


class TestChampionContract:
    def test_full_shortlist_is_bitwise_brute(self, rng):
        scores = rng.random((15, 15))
        retriever = _make_retriever(_loose(rng, scores), scores, shortlist_k=15)
        for query in range(15):
            indexed = retriever.champion(query)
            brute = retriever.champion_brute(query)
            assert indexed.row == brute.row
            # Bit-identity is the contract, so exact float equality is the
            # assertion — approx would hide the regression this test pins.
            assert indexed.score == brute.score
            assert indexed.candidates <= 15 and brute.exhaustive

    def test_self_query_wins_with_k1(self, rng):
        scores = np.ones((10, 10))
        np.fill_diagonal(scores, 0.0)
        retriever = _make_retriever(scores.copy(), scores, shortlist_k=1)
        for query in range(10):
            hit = retriever.champion(query)
            assert hit.row == query
            assert hit.candidates == 1

    def test_tie_breaks_to_first_row(self, rng):
        scores = np.zeros((8, 8))  # every row ties
        retriever = _make_retriever(scores - rng.random((8, 8)), scores, shortlist_k=8)
        for query in range(8):
            assert retriever.champion(query).row == 0
            assert retriever.champion_brute(query).row == 0

    def test_higher_is_better_polarity(self, rng):
        scores = np.zeros((6, 6))
        scores[:, 4] = 1.0
        retriever = _make_retriever(scores + 0.5, scores, 6, higher_is_better=True)
        assert retriever.champion(0).row == 4

    def test_candidate_count_reported(self, rng):
        scores = np.tile(np.arange(20, dtype=np.float64), (20, 1))
        bounds = scores.copy()
        bounds[:, 0] = -2.0  # the seed, and the champion
        bounds[:, 5:9] = -1.0  # four rows whose bound cannot rule them out
        retriever = _make_retriever(bounds, scores, shortlist_k=5)
        hit = retriever.champion(3)
        assert (hit.row, hit.candidates) == (0, 5)  # rows 0 and 5-8
        assert retriever.champion_brute(3).candidates == 20

    def test_trivial_bound_rows_always_survive(self, rng):
        scores = rng.random((9, 9)) + 1.0
        scores[:, 7] = 0.5  # the champion, hidden behind a NaN bound
        bounds = scores.copy()
        bounds[:, 7] = np.nan
        retriever = _make_retriever(bounds, scores, shortlist_k=2)
        hit = retriever.champion(5)
        assert hit.row == 7
        assert not hit.exhaustive

    def test_nan_embedding_takes_exhaustive_path(self, rng):
        # A query whose bound is NaN on every row (no usable embedding)
        # rules nothing out: every row is re-ranked, like brute force.
        scores = rng.random((9, 9))
        retriever = _make_retriever(np.full((9, 9), np.nan), scores, shortlist_k=2)
        hit = retriever.champion(5)
        assert hit.exhaustive
        assert hit.candidates == 9
        assert hit.row == int(np.argmin(scores[5]))

    def test_answers_do_not_depend_on_k(self, rng):
        scores = rng.random((30, 30))
        bounds = _loose(rng, scores)
        answers = {
            k: [_make_retriever(bounds, scores, k).champion(q) for q in range(30)]
            for k in (1, 2, 8, 30)
        }
        assert all(hits == answers[30] for hits in answers.values())

    def test_geometry_properties(self, rng):
        retriever = _make_retriever(rng.random((7, 7)), rng.random((7, 7)), 3)
        assert retriever.n_rows == 7
        assert retriever.shortlist_k == 3

    def test_shortlist_k_validated(self, rng):
        with pytest.raises(RetrievalIndexError):
            _make_retriever(rng.random((5, 5)), rng.random((5, 5)), 0)

    def test_rerank_length_mismatch_rejected(self, rng):
        retriever = TwoStageRetriever(
            bound=lambda features: np.zeros((len(features), 5)),
            rerank=lambda features, rows: np.zeros(rows.shape[0] + 1),
            n_rows=5,
            shortlist_k=3,
        )
        with pytest.raises(RetrievalIndexError):
            retriever.champion(0)

    def test_bound_shape_mismatch_rejected(self, rng):
        retriever = TwoStageRetriever(
            bound=lambda features: np.zeros((len(features), 4)),
            rerank=lambda features, rows: np.zeros(rows.shape[0]),
            n_rows=5,
            shortlist_k=3,
        )
        with pytest.raises(RetrievalIndexError):
            retriever.bounded([0, 1])


class TestMonotoneRecall:
    def test_candidate_sets_nested_in_k(self, rng):
        """The re-ranked rows at shortlist K are a subset of those at K' for
        K <= K' (here equal, since K changes no work), so recall@K cannot
        fall as K grows (pinned end-to-end in test_recall_audit.py)."""
        scores = rng.random((40, 40))
        bounds = _loose(rng, scores)
        for query in range(0, 40, 7):
            previous: set[int] | None = None
            for k in (1, 2, 4, 8, 16, 40):
                seen: set[int] = set()

                def rerank(features, rows, seen=seen):
                    seen.update(int(r) for r in rows)
                    return scores[features][rows]

                TwoStageRetriever(
                    bound=lambda features: bounds[features],
                    rerank=rerank,
                    n_rows=40,
                    shortlist_k=k,
                ).champion(query)
                assert previous is None or previous <= seen
                previous = seen


class TestBlocks:
    def test_bounded_block_matches_single_queries(self, rng):
        scores = rng.random((12, 12))
        retriever = _make_retriever(_loose(rng, scores), scores, shortlist_k=4)
        block = retriever.bounded(list(range(12)))
        assert all(isinstance(query, BoundedQuery) for query in block)
        assert [retriever.champion(q) for q in block] == [
            retriever.champion(i) for i in range(12)
        ]

    def test_seed_passes_over_trivial_rows(self, rng):
        scores = rng.random((4, 6)) + 1.0
        bounds = scores - 0.1
        bounds[:, 0] = -np.inf
        retriever = _make_retriever(bounds, scores, shortlist_k=1)
        seeds = [query.seed for query in retriever.bounded(list(range(4)))]
        assert seeds == [int(np.argmin(bounds[i, 1:])) + 1 for i in range(4)]

    def test_nan_seed_score_rescans_every_row(self, rng):
        scores = rng.random((3, 5))
        scores[:, 2] = np.nan  # brute force returns the first NaN row
        bounds = np.full((3, 5), -1.0)
        bounds[:, 2] = -2.0  # the seed
        retriever = _make_retriever(bounds, scores, shortlist_k=1)
        for query in range(3):
            hit = retriever.champion(query)
            assert hit.row == 2 and hit.exhaustive
