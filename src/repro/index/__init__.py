"""Certified retrieval tier: one bound per flush, exact re-rank of survivors.

Turns O(library) brute-force scoring into a ``(Q, V)`` bound on every
row's exact score (:mod:`repro.index.bounds`; the exact block kernel for
the shape term) followed by exact re-ranking of only the rows that can
still win.  The answer equals brute force for every query, row and float64
score.  See :mod:`repro.index.twostage` for the correctness argument and
:mod:`repro.index.audit` for the agreement harness.
"""

from repro.index.audit import INDEXABLE_PIPELINES, recall_audit
from repro.index.bounds import TAU_PER_BIN, HistogramBound
from repro.index.build import build_index_report
from repro.index.twostage import (
    BoundedQuery,
    RetrievalResult,
    TwoStageRetriever,
    validate_shortlist,
)

__all__ = [
    "INDEXABLE_PIPELINES",
    "TAU_PER_BIN",
    "BoundedQuery",
    "HistogramBound",
    "RetrievalResult",
    "TwoStageRetriever",
    "validate_shortlist",
    "build_index_report",
    "recall_audit",
]
