"""Hu-moment shape distances, replacing ``cv2.matchShapes``.

The paper evaluates three variants — "with distance metric between image
moments set to be the L1, L2 or L3 norm respectively" — which are OpenCV's
``CONTOURS_MATCH_I1``, ``I2`` and ``I3``.  All three operate on
log-magnitude-signed Hu moments::

    m_i = sign(h_i) * log10(|h_i|)

    I1(A, B) = sum_i | 1/m_i^A - 1/m_i^B |
    I2(A, B) = sum_i | m_i^A - m_i^B |
    I3(A, B) = max_i | m_i^A - m_i^B | / | m_i^A |

Terms where either transformed moment vanishes are skipped, following
OpenCV's implementation.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.errors import ImageError
from repro.imaging.moments import hu_moments
from repro.imaging.tiles import tiled_sums

#: Magnitudes below this are treated as zero, mirroring OpenCV's eps.
_EPS = 1e-30


class ShapeDistance(str, Enum):
    """The three matchShapes distance variants evaluated in the paper."""

    L1 = "L1"  # CONTOURS_MATCH_I1
    L2 = "L2"  # CONTOURS_MATCH_I2
    L3 = "L3"  # CONTOURS_MATCH_I3


def log_hu(hu: np.ndarray) -> np.ndarray:
    """Signed log-magnitude transform of a Hu vector.

    Entries with magnitude below machine zero map to 0 and are ignored by the
    distances.
    """
    hu = np.asarray(hu, dtype=np.float64)
    out = np.zeros_like(hu)
    nonzero = np.abs(hu) > _EPS
    out[nonzero] = np.sign(hu[nonzero]) * np.log10(np.abs(hu[nonzero]))
    return out


def hu_signature(hu: np.ndarray) -> np.ndarray:
    """Signed log-magnitude signature of one Hu vector, NaN-preserving.

    Identical to :func:`log_hu` on finite input (bit for bit), but degenerate
    signatures — NaN Hu vectors used by the pipelines to mark contour-less
    images — keep their NaN entries instead of collapsing to 0, so the batch
    kernel can still mask them to ``inf``.
    """
    hu = np.asarray(hu, dtype=np.float64)
    out = np.zeros_like(hu)
    nonzero = np.abs(hu) > _EPS  # NaN compares False: NaN entries stay masked
    out[nonzero] = np.sign(hu[nonzero]) * np.log10(np.abs(hu[nonzero]))
    out[np.isnan(hu)] = np.nan
    return out


def hu_signature_matrix(hu_rows: np.ndarray) -> np.ndarray:
    """Stack Hu vectors into a contiguous ``(V, 7)`` signature matrix.

    This is the reference-library layout consumed by
    :func:`match_shapes_batch`; rows are :func:`hu_signature` transforms of
    the input rows (NaN rows preserved).
    """
    rows = np.ascontiguousarray(np.atleast_2d(np.asarray(hu_rows, dtype=np.float64)))
    if rows.ndim != 2 or rows.shape[1] != 7:
        raise ImageError(f"expected (V, 7) Hu rows, got shape {rows.shape}")
    out = np.zeros_like(rows)
    nonzero = np.abs(rows) > _EPS
    out[nonzero] = np.sign(rows[nonzero]) * np.log10(np.abs(rows[nonzero]))
    out[np.isnan(rows)] = np.nan
    return out


def match_shapes_batch(
    query_sig: np.ndarray,
    ref_matrix: np.ndarray,
    method: ShapeDistance = ShapeDistance.L1,
) -> np.ndarray:
    """All ``V`` shape distances of one query against a reference library.

    *query_sig* is the query's :func:`hu_signature` (length 7); *ref_matrix*
    a ``(V, 7)`` :func:`hu_signature_matrix`.  Scores are numerically
    identical to calling :func:`match_shapes` per row: terms where either
    signature vanishes are skipped, rows with no usable term score 0.0, and
    NaN signatures (query or reference) score ``inf`` — the convention the
    matching pipelines use for degenerate contours.
    """
    query = np.asarray(query_sig, dtype=np.float64).ravel()
    refs = np.asarray(ref_matrix, dtype=np.float64)
    if refs.ndim != 2 or query.shape[0] != refs.shape[1]:
        raise ImageError(
            f"signature shapes incompatible: {query.shape} vs {refs.shape}"
        )
    views = refs.shape[0]
    if np.isnan(query).any():
        return np.full(views, np.inf)

    nan_rows = np.isnan(refs).any(axis=1)
    # NaN magnitudes compare False, so degenerate entries drop out of the
    # usable mask exactly as sub-eps magnitudes do.
    usable = (np.abs(query) > _EPS)[None, :] & (np.abs(refs) > _EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        if method == ShapeDistance.L1:
            terms = np.abs(1.0 / query[None, :] - 1.0 / refs)
            scores = np.where(usable, terms, 0.0).sum(axis=1)
        elif method == ShapeDistance.L2:
            terms = np.abs(query[None, :] - refs)
            scores = np.where(usable, terms, 0.0).sum(axis=1)
        elif method == ShapeDistance.L3:
            terms = np.abs(query[None, :] - refs) / np.abs(query)[None, :]
            scores = np.where(usable, terms, -np.inf).max(axis=1)
        else:
            raise ImageError(f"unknown shape distance {method!r}")
    scores = np.asarray(scores, dtype=np.float64)
    scores[~usable.any(axis=1)] = 0.0
    scores[nan_rows] = np.inf
    return scores


def match_shapes_block(
    query_matrix: np.ndarray,
    ref_matrix: np.ndarray,
    method: ShapeDistance = ShapeDistance.L1,
) -> np.ndarray:
    """``(Q, V)`` shape distances of a query block against the library.

    *query_matrix* is a ``(Q, 7)`` :func:`hu_signature_matrix` of the query
    signatures; row *i* of the result is bit-identical to
    ``match_shapes_batch(query_matrix[i], ref_matrix, method)``.  L1 and L2
    sum the same elementwise terms over the trailing moment axis, through
    cache-sized tiles (:func:`~repro.imaging.tiles.tiled_sums`).  L3 folds
    its maximum in one moment term at a time on ``(Q, V)`` planes; ``max``
    is exact in any order.  This is the serving fast path: one kernel call
    scores a whole micro-batch.
    """
    queries = np.asarray(query_matrix, dtype=np.float64)
    refs = np.asarray(ref_matrix, dtype=np.float64)
    if queries.ndim != 2 or refs.ndim != 2 or queries.shape[1] != refs.shape[1]:
        raise ImageError(
            f"signature shapes incompatible: {queries.shape} vs {refs.shape}"
        )
    nan_queries = np.isnan(queries).any(axis=1)
    nan_refs = np.isnan(refs).any(axis=1)
    # A term is unusable where either magnitude is sub-eps; NaN magnitudes
    # compare False, so NaN entries are unusable too.
    dead_queries = ~(np.abs(queries) > _EPS)
    dead_refs = ~(np.abs(refs) > _EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        if method == ShapeDistance.L1:
            scores = _summed_block(1.0 / queries, 1.0 / refs, dead_queries, dead_refs)
        elif method == ShapeDistance.L2:
            scores = _summed_block(queries, refs, dead_queries, dead_refs)
        elif method == ShapeDistance.L3:
            scores = _l3_block(queries, refs, dead_queries, dead_refs)
        else:
            raise ImageError(f"unknown shape distance {method!r}")
    scores[:, nan_refs] = np.inf
    scores[nan_queries, :] = np.inf
    return scores


def _summed_block(
    lhs: np.ndarray,
    rhs: np.ndarray,
    dead_queries: np.ndarray,
    dead_refs: np.ndarray,
) -> np.ndarray:
    """L1 / L2 ``sum_k |lhs_k - rhs_k|`` over usable terms, tile by tile.

    With no usable term a cell sums seven +0.0s, which is already the 0.0
    the scalar kernel returns for it.
    """

    def usable_terms(rows: slice, cols: slice, out: np.ndarray) -> None:
        np.subtract(lhs[rows, None, :], rhs[None, cols, :], out=out)
        np.abs(out, out=out)
        np.copyto(out, 0.0, where=dead_queries[rows, None, :])
        np.copyto(out, 0.0, where=dead_refs[None, cols, :])

    return tiled_sums(lhs.shape[0], rhs.shape[0], lhs.shape[1], usable_terms)


def _l3_block(
    queries: np.ndarray,
    refs: np.ndarray,
    dead_queries: np.ndarray,
    dead_refs: np.ndarray,
) -> np.ndarray:
    """L3 ``max_k |q_k - r_k| / |q_k|`` over usable terms, one term per pass."""
    scores = np.full((queries.shape[0], refs.shape[0]), -np.inf)
    term = np.zeros_like(scores)
    magnitudes = np.abs(queries)
    # One contiguous row per term, and masks only where a term is dead.
    columns = np.ascontiguousarray(refs.T)
    dead_columns = np.ascontiguousarray(dead_refs.T)
    for k in range(queries.shape[1]):
        np.subtract(queries[:, k, None], columns[None, k], out=term)
        np.abs(term, out=term)
        np.divide(term, magnitudes[:, k, None], out=term)
        if dead_queries[:, k].any():
            np.copyto(term, -np.inf, where=dead_queries[:, k, None])
        if dead_columns[k].any():
            np.copyto(term, -np.inf, where=dead_columns[None, k])
        np.maximum(scores, term, out=scores)
    # A usable term is >= 0 or NaN, so -inf marks exactly the cells with no
    # usable term, which score 0.0.
    scores[scores == -np.inf] = 0.0
    return scores


def match_shapes(
    a: np.ndarray,
    b: np.ndarray,
    method: ShapeDistance = ShapeDistance.L1,
) -> float:
    """Shape distance between two regions or Hu vectors (lower = more alike).

    *a* and *b* may be 2-D region masks/images (moments are computed) or
    length-7 Hu vectors (used directly).
    """
    hu_a = a if _is_hu_vector(a) else hu_moments(np.asarray(a))
    hu_b = b if _is_hu_vector(b) else hu_moments(np.asarray(b))
    ma, mb = log_hu(hu_a), log_hu(hu_b)
    usable = (np.abs(ma) > _EPS) & (np.abs(mb) > _EPS)
    if not usable.any():
        return 0.0

    ma, mb = ma[usable], mb[usable]
    if method == ShapeDistance.L1:
        return float(np.abs(1.0 / ma - 1.0 / mb).sum())
    if method == ShapeDistance.L2:
        return float(np.abs(ma - mb).sum())
    if method == ShapeDistance.L3:
        return float(np.max(np.abs(ma - mb) / np.abs(ma)))
    raise ImageError(f"unknown shape distance {method!r}")


def _is_hu_vector(value: np.ndarray) -> bool:
    value = np.asarray(value)
    return value.ndim == 1 and value.shape[0] == 7
