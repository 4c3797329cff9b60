"""Certified champion: one bound per flush, exact re-rank of what can win.

:class:`TwoStageRetriever` glues a bound callback to an exact re-rank
callback and returns the champion row plus its exact score.  Its contract,
pinned bit for bit by the test suite, is:

    For every query, the certified champion is the brute-force champion:
    the *same row* with the *same float64 bits*.

Stage 1 computes, for a whole block of queries at once, a ``(Q, V)`` bound
on the score every row's exact kernel would compute (from below for a
distance, from above for a similarity; see :mod:`repro.index.bounds`).
Stage 2 works one query at a time, in the lower-is-better *key* (the score,
negated for a similarity; a NaN bound becomes -inf, so that row always
survives):

1. *Seed*: re-rank the row with the lowest key bound (the lowest index on a
   tie) and call its exact key ``best``.  Rows with the trivial bound -inf
   are passed over while any other row exists, because their bound says
   nothing about their score.
2. *Survivors*: every row whose key bound is ``<= best``.  A row whose
   exact key is ``<= best`` has a key bound ``<= best`` too, so the brute
   champion ``g`` survives.
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

from dataclasses import dataclass
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
    """One query's extracted features, its ``(V,)`` key bound and the row
    to seed its re-rank with."""

    features: Any
    keys: np.ndarray
    seed: int


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
    """

    def __init__(
        self,
        bound: Callable[[list], np.ndarray],
        rerank: Callable[[Any, np.ndarray], np.ndarray],
        n_rows: int,
        shortlist_k: int,
        higher_is_better: bool = False,
    ) -> None:
        if n_rows < 1:
            raise RetrievalIndexError(f"cannot index an empty library ({n_rows} rows)")
        self._bound = bound
        self._rerank = rerank
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

    def champion(self, query: Any) -> RetrievalResult:
        """Certified champion of one query.

        *query* is a :class:`BoundedQuery` from :meth:`bounded`, or raw
        extracted features, which are bounded on their own first.
        """
        if not isinstance(query, BoundedQuery):
            query = self.bounded([query])[0]
        features, keys = query.features, query.keys
        seed = np.array([query.seed], dtype=np.int64)
        seed_score = float(self._scores(features, seed)[0])
        if np.isnan(seed_score):
            return self.champion_brute(features)
        best = -seed_score if self.higher_is_better else seed_score
        rows = np.flatnonzero(keys <= best)
        if rows.shape[0] == 1 and rows[0] == seed[0]:
            return RetrievalResult(
                score=seed_score,
                row=int(seed[0]),
                candidates=1,
                exhaustive=self.n_rows == 1,
            )
        return self._champion_of(features, rows)

    def champion_brute(self, features: Any) -> RetrievalResult:
        """Brute-force champion through the identical re-rank kernel.

        The audit/bench baseline: full-library scan, same code path, same
        tie rule; differs from :meth:`champion` only in candidate count.
        """
        return self._champion_of(features, np.arange(self.n_rows, dtype=np.int64))
