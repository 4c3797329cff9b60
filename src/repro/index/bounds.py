"""Certified bounds on the exact histogram scores, one per metric.

Stage 1 of the certified champion (:mod:`repro.index.twostage`).  For a
``(Q, B)`` block of query histograms, :class:`HistogramBound` returns a
``(Q, V)`` matrix that bounds every score
:func:`~repro.imaging.histogram.compare_histograms_batch` *computes* from
the losing side: from below for the distances (Hellinger, Chi-square), from
above for the similarities (Correlation, Intersection).  The bound holds on
the float64 value, not only on the real-valued formula, because a rounding
slack ``tau = TAU_PER_BIN * B`` is folded in where the rounding happens
(before the square root for Hellinger and Intersection).

=============  ===========================================================
metric         bound (S = sum|q| + sum|r|)
=============  ===========================================================
Hellinger      ``sqrt(max(0, 1 - sqrt(q/sum q) . sqrt(r/sum r) - tau))``
Correlation    ``u . v + tau``, u, v the centred rows scaled to unit norm
Intersection   ``(sum q + sum r - sqrt(max(0, |q - r|^2 - tau S^2))) / 2
               + tau S``
Chi-square     ``max(0, sum_{q>0} (q - r)^2 - 2 tau (A + M)) / max q
               * (1 - tau)``, A = sum_{q>0} q^2, M = sum_{q>0} r^2
=============  ===========================================================

Hellinger and Correlation are the kernel's own formulas rewritten as one
``(Q, B) @ (B, V)`` matmul, so they are exact up to tau.  Intersection
uses ``|q - r|_1 >= |q - r|_2`` and Chi-square ``q_i <= max q``.
DESIGN.md ("Certified champion") derives tau.  A row or query where a
derivation does not hold takes the trivial bound (-inf for a distance,
+inf for a similarity), so it is always re-ranked: non-finite entries or
squares, negative entries or zero mass (Hellinger), zero variance
(Correlation), and a query with no positive bin (Chi-square).
"""

from __future__ import annotations

import numpy as np

from repro.errors import RetrievalIndexError
from repro.imaging.histogram import HistogramMetric

#: Rounding slack per summed bin, in units of float64 machine epsilon.
#: Every bound's float error is below ``(5B + 19) * 2**-53``; see DESIGN.md.
TAU_PER_BIN = 8.0 * float(np.finfo(np.float64).eps)

#: Smallest row mean (Hellinger) or squared deviation (Correlation) a bound
#: trusts.  The kernel divides by the square root of a product of two such
#: values, which could underflow to its degenerate branch below this.
_MIN_SCALE = float(np.sqrt(np.finfo(np.float64).tiny))


def _finite_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows whose entries and sum of squares are finite: beyond about
    1e154 the squares the bounds sum overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite((matrix * matrix).sum(axis=1))


class HistogramBound:
    """Certified ``(Q, V)`` score bounds of one metric over a library.

    The library side is prepared once, at attach time; each call costs one
    or two matmuls against it plus ``(Q, V)`` elementwise work.
    """

    def __init__(self, matrix: np.ndarray, metric: HistogramMetric) -> None:
        refs = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if refs.ndim != 2 or refs.shape[0] == 0 or refs.shape[1] == 0:
            raise RetrievalIndexError(
                f"cannot bound an empty histogram matrix (shape {refs.shape})"
            )
        self.metric = HistogramMetric(metric)
        self.bins = int(refs.shape[1])
        self.tau = TAU_PER_BIN * self.bins
        self._trivial = np.inf if self.metric.higher_is_better else -np.inf
        self._refs = self._prepare(refs, library=True)

    def __call__(self, queries: np.ndarray) -> np.ndarray:
        block = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if block.ndim != 2 or block.shape[1] != self.bins:
            raise RetrievalIndexError(
                f"query histograms have shape {block.shape}, library {self.bins} bins"
            )
        query = self._prepare(block, library=False)
        with np.errstate(all="ignore"):
            bound = self._bound(query, self._refs)
        bound[~query["valid"], :] = self._trivial
        bound[:, ~self._refs["valid"]] = self._trivial
        return bound

    def _prepare(self, rows: np.ndarray, library: bool) -> dict:
        valid = _finite_rows(rows)
        metric = self.metric
        with np.errstate(all="ignore"):
            if metric == HistogramMetric.HELLINGER:
                valid &= (rows >= 0).all(axis=1) & (rows.mean(axis=1) >= _MIN_SCALE)
                roots = np.sqrt(rows / rows.sum(axis=1)[:, None])
                return {"valid": valid, "roots": np.where(valid[:, None], roots, 0.0)}
            if metric == HistogramMetric.CORRELATION:
                # The kernel's own centring: row means for the library, one
                # 1-D mean per query, so the deviations are bit-identical.
                if library:
                    deviations = rows - rows.mean(axis=1)[:, None]
                else:
                    deviations = np.vstack([row - row.mean() for row in rows])
                squares = (deviations**2).sum(axis=1)
                valid &= squares >= _MIN_SCALE
                units = deviations / np.sqrt(squares)[:, None]
                return {"valid": valid, "units": np.where(valid[:, None], units, 0.0)}
            clean = np.where(valid[:, None], rows, 0.0)
            if metric == HistogramMetric.INTERSECTION:
                return {
                    "valid": valid,
                    "rows": clean,
                    "sums": clean.sum(axis=1),
                    "squares": (clean * clean).sum(axis=1),
                    "mass": np.abs(clean).sum(axis=1),
                }
            if metric == HistogramMetric.CHI_SQUARE:
                if library:
                    return {"valid": valid, "rows": clean, "squares": clean * clean}
                positive = clean > 0
                kept = np.where(positive, clean, 0.0)
                return {
                    "valid": valid & positive.any(axis=1),
                    "positive": positive.astype(np.float64),
                    "kept": kept,
                    "squares": (kept * kept).sum(axis=1),
                    "peak": clean.max(axis=1),
                }
        raise RetrievalIndexError(f"unknown histogram metric {metric!r}")

    def _bound(self, query: dict, refs: dict) -> np.ndarray:
        tau = self.tau
        metric = self.metric
        if metric == HistogramMetric.HELLINGER:
            bound = 1.0 - query["roots"] @ refs["roots"].T
            bound -= tau
            np.maximum(bound, 0.0, out=bound)
            return np.sqrt(bound, out=bound)
        if metric == HistogramMetric.CORRELATION:
            bound = query["units"] @ refs["units"].T
            bound += tau
            return bound
        if metric == HistogramMetric.INTERSECTION:
            mass = query["mass"][:, None] + refs["mass"][None, :]
            gap = query["squares"][:, None] + refs["squares"][None, :]
            gap -= 2.0 * (query["rows"] @ refs["rows"].T)
            gap -= tau * mass * mass
            np.maximum(gap, 0.0, out=gap)
            np.sqrt(gap, out=gap)
            bound = query["sums"][:, None] + refs["sums"][None, :]
            bound -= gap
            bound *= 0.5
            bound += tau * mass
            return bound
        # Chi-square.
        kept_squares = query["squares"][:, None]
        masked_squares = query["positive"] @ refs["squares"].T
        bound = kept_squares - 2.0 * (query["kept"] @ refs["rows"].T)
        bound += masked_squares
        bound -= 2.0 * tau * (kept_squares + masked_squares)
        np.maximum(bound, 0.0, out=bound)
        bound /= query["peak"][:, None]
        bound *= 1.0 - tau
        return bound
