"""Certified champion: one bound per flush, exact re-rank of what can win.

:class:`TwoStageRetriever` glues a bound callback to an exact re-rank
callback and returns the champion row plus its exact score.  Its contract,
pinned bit for bit by the test suite, is:

    For every query, the certified champion is the brute-force champion:
    the *same row* with the *same float64 bits*.

Stage 1 computes, for a whole block of queries at once, a ``(Q, V)`` bound
on the score every row's exact kernel would compute (from below for a
distance, from above for a similarity; see :mod:`repro.index.bounds`).
Stage 2 works in the lower-is-better *key* (the score, negated for a
similarity; a NaN bound becomes -inf, so that row always survives):

1. *Seed*: score the row with the lowest key bound (the lowest index on a
   tie) exactly and call its exact key ``best``.  Rows with the trivial
   bound -inf are passed over while any other row exists, because their
   bound says nothing about their score.  :meth:`TwoStageRetriever.champions`
   scores every query's seed of a block in one call.
2. *Survivors*, one query at a time: every row whose key bound is
   ``<= best``.  A row whose exact key is ``<= best`` has a key bound
   ``<= best`` too, so the brute champion ``g`` survives.
3. Re-rank the survivors, in ascending row order, and take the first
   argmin/argmax.

Both halves of the bit-identity follow from structure:

* **Scores**: every scoring kernel computes reference row *i* from the
  query and row *i* alone, with reductions only over the trailing feature
  axis, so ``kernel(q, matrix[rows]) == kernel(q, matrix)[rows]`` bitwise.
* **Ties**: NumPy's argmin/argmax return the first index among equals, and
  survivors are sorted ascending.  Every row that ties ``g`` also
  survives, and none of them has a smaller index than ``g``, because ``g``
  is the global first-index champion.

A NaN seed score re-ranks every row, because brute force then returns the
first NaN row.  The shortlist size ``K`` is validated and reported but
changes neither an answer nor the work done.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import RetrievalIndexError


def validate_shortlist(shortlist_k: int, n_rows: int | None = None) -> int:
    """Validate a shortlist size; returns it as a plain ``int``.

    Raises :class:`~repro.errors.RetrievalIndexError` for a non-positive
    size, or for one exceeding *n_rows* when a library size is given.
    Shared by the retriever constructor and the serving tier's
    ``swap_index`` verification, so a bad shortlist fails before going live.
    """
    if shortlist_k < 1:
        raise RetrievalIndexError(
            f"shortlist size must be >= 1, got {shortlist_k}"
        )
    if n_rows is not None and shortlist_k > n_rows:
        raise RetrievalIndexError(
            f"shortlist size {shortlist_k} exceeds the library size {n_rows}"
        )
    return int(shortlist_k)


@dataclass(frozen=True)
class RetrievalResult:
    """Champion row of one query: exact score, row index, how many rows
    were exactly re-ranked (*candidates*), and whether that was every row
    (*exhaustive*)."""

    score: float
    row: int
    candidates: int
    exhaustive: bool


@dataclass(frozen=True)
class BoundedQuery:
    """One query's extracted features, its ``(V,)`` key bound, the row to
    seed its re-rank with and, once scored, that row's exact score."""

    features: Any
    keys: np.ndarray
    seed: int
    seed_score: float | None = None


class TwoStageRetriever:
    """Bound-then-exact-re-rank retrieval for one pipeline.

    Parameters
    ----------
    bound:
        Maps a list of extracted query features to the ``(Q, V)`` bound on
        every row's computed score (lower bound for a distance, upper bound
        for a similarity).
    rerank:
        Maps ``(features, rows)`` to the exact scores of those reference
        rows: a restriction of the pipeline's brute-force kernel.
    n_rows:
        Library size ``V``.
    shortlist_k:
        The validated shortlist size; it does not change answers.
    higher_is_better:
        Score polarity of the pipeline being served.
    seed_scores:
        Maps a list of query features and a ``(Q,)`` row array to each
        query's exact score against its own row, bit for bit
        ``rerank(features[i], rows[i:i + 1])[0]``.  Defaults to one
        ``rerank`` call per query.
    """

    def __init__(
        self,
        bound: Callable[[list], np.ndarray],
        rerank: Callable[[Any, np.ndarray], np.ndarray],
        n_rows: int,
        shortlist_k: int,
        higher_is_better: bool = False,
        seed_scores: Callable[[list, np.ndarray], np.ndarray] | None = None,
    ) -> None:
        if n_rows < 1:
            raise RetrievalIndexError(f"cannot index an empty library ({n_rows} rows)")
        self._bound = bound
        self._rerank = rerank
        self._seed_scores = seed_scores or self._rerank_each
        self.n_rows = int(n_rows)
        self.shortlist_k = validate_shortlist(shortlist_k)
        self.higher_is_better = bool(higher_is_better)

    def bounded(self, features: Sequence[Any]) -> list[BoundedQuery]:
        """Stage 1 for a block: one bound call over every query."""
        features = list(features)
        if not features:
            return []
        bounds = np.asarray(self._bound(features), dtype=np.float64)
        if bounds.shape != (len(features), self.n_rows):
            raise RetrievalIndexError(
                f"bound returned shape {bounds.shape} for "
                f"{len(features)} queries over {self.n_rows} rows"
            )
        keys = -bounds if self.higher_is_better else bounds.copy()
        keys[np.isnan(keys)] = -np.inf
        seeds = np.where(keys == -np.inf, np.inf, keys).argmin(axis=1)
        return [
            BoundedQuery(f, row, int(seed)) for f, row, seed in zip(features, keys, seeds)
        ]

    def _scores(self, features: Any, rows: np.ndarray) -> np.ndarray:
        scores = np.asarray(self._rerank(features, rows), dtype=np.float64)
        if scores.shape != rows.shape:
            raise RetrievalIndexError(
                f"re-rank returned {scores.shape[0]} scores for {rows.shape[0]} rows"
            )
        return scores

    def _champion_of(self, features: Any, rows: np.ndarray) -> RetrievalResult:
        scores = self._scores(features, rows)
        best = int(np.argmax(scores) if self.higher_is_better else np.argmin(scores))
        return RetrievalResult(
            score=float(scores[best]),
            row=int(rows[best]),
            candidates=int(rows.shape[0]),
            exhaustive=rows.shape[0] == self.n_rows,
        )

    def _rerank_each(self, features: list, rows: np.ndarray) -> np.ndarray:
        return np.array(
            [self._scores(f, rows[i : i + 1])[0] for i, f in enumerate(features)]
        )

    def champions(self, features: Sequence[Any]) -> list[RetrievalResult]:
        """Certified champions of a block: one bound call and one
        seed-score call for the whole block, then :meth:`champion` of each
        query with its seed score set.  Equal, result for result, to
        :meth:`champion` of each query's features alone."""
        queries = self.bounded(features)
        if not queries:
            return []
        seeds = np.array([query.seed for query in queries], dtype=np.int64)
        scores = np.asarray(
            self._seed_scores([query.features for query in queries], seeds),
            dtype=np.float64,
        )
        if scores.shape != seeds.shape:
            raise RetrievalIndexError(
                f"seed scoring returned shape {scores.shape} for {seeds.shape[0]} queries"
            )
        return [
            self.champion(replace(query, seed_score=float(score)))
            for query, score in zip(queries, scores)
        ]

    def champion(self, query: Any) -> RetrievalResult:
        """Certified champion of one query.

        *query* is a :class:`BoundedQuery` from :meth:`bounded`, or raw
        extracted features, which are bounded on their own first.  A seed
        row not yet scored is re-ranked alone.
        """
        if not isinstance(query, BoundedQuery):
            query = self.bounded([query])[0]
        seed_score = query.seed_score
        if seed_score is None:
            seed = np.array([query.seed], dtype=np.int64)
            seed_score = float(self._scores(query.features, seed)[0])
        if np.isnan(seed_score):
            return self.champion_brute(query.features)
        best = -seed_score if self.higher_is_better else seed_score
        rows = np.flatnonzero(query.keys <= best)
        if rows.shape[0] == 1 and rows[0] == query.seed:
            return RetrievalResult(
                score=seed_score,
                row=query.seed,
                candidates=1,
                exhaustive=self.n_rows == 1,
            )
        return self._champion_of(query.features, rows)

    def champion_brute(self, features: Any) -> RetrievalResult:
        """Brute-force champion through the identical re-rank kernel.

        The audit/bench baseline: full-library scan, same code path, same
        tie rule; differs from :meth:`champion` only in candidate count.
        """
        return self._champion_of(features, np.arange(self.n_rows, dtype=np.int64))
