"""Hybrid shape+colour matching (Sec. 3.2, equations 1–4).

For each query the shape score S (a matchShapes distance, to be minimised)
and colour score C are combined per reference view::

    theta = alpha * S + beta * C'          (eq. 2)

where C' is C converted to a distance when the histogram metric is a
similarity ("the inverse of C was taken in those cases where histogram
comparison returned a similarity function with opposite trend, i.e., for the
Correlation and Intersection metrics").  Since both metrics are bounded by 1
on normalised histograms we use the bounded complement ``1 - C`` rather than
the reciprocal, which keeps theta finite for perfect matches; this is the
only (documented) deviation from the paper's wording.

The predicted model minimises theta over one of three candidate sets
(eqs. 1, 3, 4):

* ``weighted_sum``  — all per-view thetas (Theta_T);
* ``micro_average`` — thetas averaged per model m_i (Theta_Z);
* ``macro_average`` — thetas averaged per class c (Theta_C).

The paper reports L3 shape + Hellinger colour with alpha=0.3, beta=0.7 as
its most consistent configuration; those are the defaults.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import HISTOGRAM_BINS, HYBRID_ALPHA, HYBRID_BETA
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.cache import FeatureCache, default_cache, default_matrix_cache
from repro.engine.instrument import maybe_stage
from repro.errors import PipelineError, StoreError
from repro.imaging.histogram import (
    HistogramMetric,
    compare_histograms,
    compare_histograms_batch,
    compare_histograms_block,
    stack_histograms,
)
from repro.imaging.match_shapes import (
    ShapeDistance,
    hu_signature,
    hu_signature_matrix,
    match_shapes,
    match_shapes_batch,
    match_shapes_block,
)
from repro.pipelines.base import ChampionPipeline, Prediction
from repro.pipelines.color_only import (
    COLOR_FEATURE_VERSION,
    color_feature_namespace,
    color_features,  # noqa: F401 -- re-exported with the hybrid's features
    crop_histogram,
)
from repro.pipelines.preprocess import ObjectCrop, object_crop_or_none
from repro.pipelines.shape_only import (
    SHAPE_FEATURE_NAMESPACE,
    SHAPE_FEATURE_VERSION,
    crop_hu,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.attach import ReferenceStore


class HybridStrategy(str, Enum):
    """The three argmin candidate-set strategies of eqs. 1, 3 and 4."""

    WEIGHTED_SUM = "weighted_sum"
    MICRO_AVERAGE = "micro_average"
    MACRO_AVERAGE = "macro_average"


def cached_features(
    cache: FeatureCache | None,
    item: LabelledImage,
    bins: int,
    families: Sequence[str] = ("shape", "color"),
) -> dict[str, np.ndarray]:
    """*item*'s Hu vector (``"shape"``) and RGB histogram (``"color"``),
    whichever *families* names, segmenting the item at most once.

    Each feature is looked up under the same namespace/version as
    :func:`~repro.pipelines.shape_only.shape_features` and
    :func:`~repro.pipelines.color_only.color_features`, so the shape-only,
    colour-only and hybrid pipelines and the store builder share entries,
    and a fresh item records one miss per namespace.  The first miss
    segments the item and the second reuses its crop; an item that hits
    every namespace is never segmented.  Shape is looked up first, so a
    segmentation error raises before any colour is cached.
    """
    crops: list[ObjectCrop | None] = []

    def object_crop() -> ObjectCrop | None:
        if not crops:
            crops.append(object_crop_or_none(item.image))
        return crops[0]

    def lookup(
        namespace: str, version: str, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        if cache is None:
            return compute()
        return cache.get_or_compute(namespace, version, item.image, compute)

    features: dict[str, np.ndarray] = {}
    if "shape" in families:
        features["shape"] = lookup(
            SHAPE_FEATURE_NAMESPACE,
            SHAPE_FEATURE_VERSION,
            lambda: crop_hu(object_crop()),
        )
    if "color" in families:
        features["color"] = lookup(
            color_feature_namespace(bins),
            COLOR_FEATURE_VERSION,
            lambda: crop_histogram(item.image, object_crop(), bins),
        )
    return features


def as_distance(score: float, metric: HistogramMetric) -> float:
    """Convert a histogram comparison result to a to-be-minimised distance."""
    if metric.higher_is_better:
        return 1.0 - score
    return score


class HybridPipeline(ChampionPipeline):
    """Weighted shape+colour matching with a selectable argmin strategy."""

    def __init__(
        self,
        strategy: HybridStrategy = HybridStrategy.WEIGHTED_SUM,
        shape_distance: ShapeDistance = ShapeDistance.L3,
        color_metric: HistogramMetric = HistogramMetric.HELLINGER,
        alpha: float = HYBRID_ALPHA,
        beta: float = HYBRID_BETA,
        bins: int = HISTOGRAM_BINS,
    ) -> None:
        super().__init__()
        if alpha < 0 or beta < 0 or alpha + beta == 0:
            raise PipelineError(f"invalid weights alpha={alpha}, beta={beta}")
        self.strategy = HybridStrategy(strategy)
        self.shape_distance = ShapeDistance(shape_distance)
        self.color_metric = HistogramMetric(color_metric)
        self.alpha = alpha
        self.beta = beta
        self.bins = bins
        self.name = f"hybrid-{self.strategy.value}"
        self._shape_refs: list[np.ndarray] = []
        self._color_refs: list[np.ndarray] = []
        #: Stacked (V, 7) log-signature and (V, 3*bins) histogram matrices,
        #: shared with the shape-only / colour-only pipelines through the
        #: reference-matrix cache (None while batch scoring is off).
        self._shape_matrix: np.ndarray | None = None
        self._color_matrix: np.ndarray | None = None
        self.cache = default_cache()
        self.matrix_cache = default_matrix_cache()
        #: Master switch for the fused vectorized theta path.
        self.batch_scoring: bool = True
        #: (namespace, version) of the two features, shared with the
        #: shape-only / colour-only pipelines (the colour namespace embeds
        #: the bin count).
        self._shape_keyspace = (SHAPE_FEATURE_NAMESPACE, SHAPE_FEATURE_VERSION)
        self._color_keyspace = (color_feature_namespace(bins), COLOR_FEATURE_VERSION)

    @property
    def scoring_mode(self) -> str:
        if self._serves_indexed:
            return "indexed"
        batched = self._shape_matrix is not None and self._color_matrix is not None
        return "batch" if batched else "scalar"

    def extract_features(self, query: LabelledImage) -> tuple[np.ndarray, np.ndarray]:
        """The (shape, colour) feature pair of one query, cache-backed and
        timed under the stopwatch's ``extract`` stage."""
        with maybe_stage(self.stopwatch, "extract"):
            features = cached_features(self.cache, query, self.bins)
        return features["shape"], features["color"]

    def _champion_bound(self):
        """``alpha * S + beta * C'`` with the exact block shape scores S and
        the certified colour bound C' (see :mod:`repro.index.bounds`).

        Only the ``weighted_sum`` strategy is indexable: its champion is a
        per-view argmin.  The averaging strategies need *every* view's
        theta, so they raise instead.  The sum is the one
        :meth:`_rerank_rows` computes, and float addition and scaling by
        ``alpha, beta >= 0`` are monotone, so the bound holds on the
        computed theta.
        """
        from repro.index.bounds import HistogramBound

        if self.strategy != HybridStrategy.WEIGHTED_SUM:
            raise PipelineError(
                f"{self.name}: attach_index supports only the weighted_sum "
                "strategy (averaging strategies consume all per-view thetas)"
            )
        if self._shape_matrix is None or self._color_matrix is None:
            raise PipelineError(
                f"{self.name}: attach_index requires stacked matrices "
                "(fit() or attach_store() first, with batch_scoring)"
            )
        color_bound = HistogramBound(self._color_matrix, self.color_metric)

        def bound(features: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
            with np.errstate(invalid="ignore"):  # inf - inf: the retriever's -inf
                return self._block_thetas(features, color_bound)

        return bound

    def _rerank_rows(
        self, features: tuple[np.ndarray, np.ndarray], rows: np.ndarray
    ) -> np.ndarray:
        """Exact thetas of a query against reference rows *rows*.

        The literal restriction of :meth:`_thetas_of`: both kernels compute
        each reference row from the query and that row alone, and the
        weighted sum is elementwise, so the sliced call is bitwise equal to
        ``_thetas_of(...)[rows]``.
        """
        query_shape, query_color = features
        shape_scores = match_shapes_batch(
            hu_signature(query_shape), self._shape_matrix[rows], self.shape_distance
        )
        color_scores = compare_histograms_batch(
            query_color, self._color_matrix[rows], self.color_metric
        )
        if self.color_metric.higher_is_better:
            color_scores = 1.0 - color_scores
        return self.alpha * shape_scores + self.beta * color_scores

    def _score_features(self, features: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        return self._thetas_of(*features)

    def fit(self, references: ImageDataset) -> "HybridPipeline":
        self._references = references
        self._retriever = None  # indexes an old library; rebuild explicitly
        pairs = [self.extract_features(item) for item in references]
        self._shape_refs = [hu for hu, _ in pairs]
        self._color_refs = [histogram for _, histogram in pairs]
        self._shape_matrix = None
        self._color_matrix = None
        if self.batch_scoring:
            with maybe_stage(self.stopwatch, "stack"):
                build_shape = lambda: hu_signature_matrix(np.vstack(self._shape_refs))
                build_color = lambda: stack_histograms(self._color_refs)
                if self.matrix_cache is None:
                    self._shape_matrix = build_shape()
                    self._color_matrix = build_color()
                else:
                    # Same namespaces/versions as the shape-only and
                    # colour-only pipelines, so all of them share one stack
                    # per reference set.
                    self._shape_matrix = self.matrix_cache.get_or_build(
                        *self._shape_keyspace, references, build_shape
                    )
                    self._color_matrix = self.matrix_cache.get_or_build(
                        *self._color_keyspace, references, build_color
                    )
        return self

    def attach_store(
        self,
        store: "ReferenceStore",
        rows: tuple[int, int] | None = None,
    ) -> "HybridPipeline":
        """Adopt both the shape and colour matrices from a memmapped store.

        The hybrid counterpart of
        :meth:`~repro.pipelines.base.MatchingPipeline.attach_store`: maps the
        same two shards the shape-only and colour-only pipelines use, sliced
        to the *rows* range when serving as a shard worker.
        """
        if not self.batch_scoring:
            raise StoreError(
                f"{self.name}: attach_store requires batch_scoring (the store "
                "holds stacked matrices, not per-view features)"
            )
        references = store.references()
        start, stop = (0, len(references)) if rows is None else rows
        if not 0 <= start <= stop <= len(references):
            raise StoreError(
                f"shard rows [{start}, {stop}) outside store of {len(references)} views"
            )
        shape_matrix = store.matrix(*self._shape_keyspace)
        color_matrix = store.matrix(*self._color_keyspace)
        self._references = references.slice(start, stop)  # type: ignore[assignment]
        self._retriever = None  # indexes an old library; rebuild explicitly
        self._shape_matrix = shape_matrix[start:stop]
        self._color_matrix = color_matrix[start:stop]
        self._shape_refs = []
        self._color_refs = []
        return self

    def theta_scores(self, query: LabelledImage) -> np.ndarray:
        """Per-view theta = alpha*S + beta*C' for *query* (eq. 2)."""
        features = self.extract_features(query)
        with maybe_stage(self.stopwatch, "score"):
            return self._thetas_of(*features)

    def _thetas_of(
        self, query_shape: np.ndarray, query_color: np.ndarray
    ) -> np.ndarray:
        """The (V,) theta vector from already-extracted query features."""
        if self._shape_matrix is not None and self._color_matrix is not None:
            # Fused vectorized pass: both terms and the weighted sum are
            # single broadcasted expressions over the whole view library.
            shape_scores = match_shapes_batch(
                hu_signature(query_shape), self._shape_matrix, self.shape_distance
            )
            color_scores = compare_histograms_batch(
                query_color, self._color_matrix, self.color_metric
            )
            if self.color_metric.higher_is_better:
                color_scores = 1.0 - color_scores
            return self.alpha * shape_scores + self.beta * color_scores

        # reprolint: disable=NUM203 -- the enumerate loop below writes every slot before thetas is read
        thetas = np.empty(len(self.references), dtype=np.float64)
        for idx, (shape_ref, color_ref) in enumerate(
            zip(self._shape_refs, self._color_refs)
        ):
            if np.isnan(query_shape).any() or np.isnan(shape_ref).any():
                shape_score = np.inf
            else:
                shape_score = match_shapes(
                    query_shape, shape_ref, self.shape_distance
                )
            color_score = as_distance(
                compare_histograms(query_color, color_ref, self.color_metric),
                self.color_metric,
            )
            thetas[idx] = self.alpha * shape_score + self.beta * color_score
        return thetas

    def theta_scores_batch(self, queries: Sequence[LabelledImage]) -> np.ndarray:
        """``(Q, V)`` theta matrix of a query block (row i = queries[i])."""
        self.references
        features = [self.extract_features(query) for query in queries]
        with maybe_stage(self.stopwatch, "score"):
            if not features:
                return np.empty((0, len(self.references)), dtype=np.float64)
            if self._shape_matrix is not None and self._color_matrix is not None:
                # One fused kernel call per block; rows are bit-identical to
                # the per-query _thetas_of path.
                return self._block_thetas(
                    features,
                    lambda histograms: compare_histograms_block(
                        histograms, self._color_matrix, self.color_metric
                    ),
                )
            return np.vstack([self._thetas_of(s, c) for s, c in features])

    def _block_thetas(
        self,
        features: Sequence[tuple[np.ndarray, np.ndarray]],
        color_block: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """``(Q, V)`` alpha * S + beta * C' with the exact block shape
        scores and ``color_block`` of the stacked query histograms: the
        block kernel for thetas, the certified colour bound for the index.
        """
        shape_scores = match_shapes_block(
            hu_signature_matrix(np.vstack([s for s, _ in features])),
            self._shape_matrix,
            self.shape_distance,
        )
        color_scores = color_block(stack_histograms([c for _, c in features]))
        if self.color_metric.higher_is_better:
            color_scores = 1.0 - color_scores
        return self.alpha * shape_scores + self.beta * color_scores

    def predict_topk(self, query: LabelledImage, k: int = 3) -> list[Prediction]:
        """The *k* lowest-theta distinct classes for one query, best first.

        Rankings always use the per-view thetas (the weighted-sum candidate
        set), regardless of the configured argmin strategy.
        """
        if k < 1:
            raise PipelineError(f"k must be >= 1, got {k}")
        thetas = self.theta_scores(query)
        top: list[Prediction] = []
        seen: set[str] = set()
        for idx in np.argsort(thetas):
            item = self.references[int(idx)]
            if item.label in seen:
                continue
            seen.add(item.label)
            top.append(
                Prediction(
                    label=item.label,
                    model_id=item.model_id,
                    score=float(thetas[idx]),
                )
            )
            if len(top) == k:
                break
        return top

    def predict(self, query: LabelledImage) -> Prediction:
        if self._serves_indexed:
            return self._prediction_of_hit(self.champion_batch([query])[0])
        return self._predict_from_thetas(self.theta_scores(query))

    def predict_batch(self, queries: Sequence[LabelledImage]) -> list[Prediction]:
        """Block prediction over the ``(Q, V)`` theta matrix — one fused
        scoring pass per block instead of one per query."""
        queries = list(queries)
        if not queries:
            return []
        if self._serves_indexed:
            return [self._prediction_of_hit(hit) for hit in self.champion_batch(queries)]
        thetas = self.theta_scores_batch(queries)
        if self.strategy == HybridStrategy.WEIGHTED_SUM and not self.keep_view_scores:
            # One argmin call for the whole block instead of one per row.
            references = self.references
            with maybe_stage(self.stopwatch, "argmin"):
                best = thetas.argmin(axis=1)
            out = []
            for index, row in zip(best, thetas):
                winner = references[int(index)]
                out.append(
                    self._finalize(
                        Prediction(
                            label=winner.label,
                            model_id=winner.model_id,
                            score=float(row[index]),
                        )
                    )
                )
            return out
        return [self._predict_from_thetas(row) for row in thetas]

    def _predict_from_thetas(self, thetas: np.ndarray) -> Prediction:
        references = self.references
        view_scores = thetas if self.keep_view_scores else None

        if self.strategy == HybridStrategy.WEIGHTED_SUM:
            with maybe_stage(self.stopwatch, "argmin"):
                best = int(np.argmin(thetas))
            winner = references[best]
            return self._finalize(
                Prediction(
                    label=winner.label,
                    model_id=winner.model_id,
                    score=float(thetas[best]),
                    view_scores=view_scores,
                )
            )

        if self.strategy == HybridStrategy.MICRO_AVERAGE:
            groups = _group_indices(references, key="model")
        else:
            groups = _group_indices(references, key="class")

        best_key, best_mean = "", np.inf
        for key, indices in groups.items():
            mean = float(np.mean(thetas[indices]))
            if mean < best_mean:
                best_key, best_mean = key, mean

        if self.strategy == HybridStrategy.MICRO_AVERAGE:
            label = next(
                item.label for item in references if item.model_id == best_key
            )
            model_id = best_key
        else:
            label, model_id = best_key, ""
        return self._finalize(
            Prediction(
                label=label, model_id=model_id, score=best_mean, view_scores=view_scores
            )
        )


def _group_indices(references: ImageDataset, key: str) -> dict[str, np.ndarray]:
    """Reference indices grouped by model id or class label."""
    groups: dict[str, list[int]] = {}
    for idx, item in enumerate(references):
        group_key = item.model_id if key == "model" else item.label
        groups.setdefault(group_key, []).append(idx)
    return {name: np.asarray(indices) for name, indices in groups.items()}
