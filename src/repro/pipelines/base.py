"""Shared pipeline contract and reference-library machinery.

The paper's task framing (Sec. 3.2): a set of K ShapeNet models ``M_c`` is
defined for each of N classes; each model ``m_i`` has a set of 2-D views
``V_i``; a query is matched against *every view of every model of every
class* and the model optimising the similarity/distance determines the
predicted label.

:class:`MatchingPipeline` implements that loop once; concrete pipelines
supply per-view feature extraction and scoring.  Since PR 2 the loop has a
vectorized fast path: pipelines that can stack their reference features into
a contiguous matrix implement :meth:`MatchingPipeline._stack_references` and
:meth:`MatchingPipeline._score_batch`, and every query is then scored
against the whole library in single NumPy expressions instead of a per-view
Python loop.  Pipelines without a batched kernel simply inherit the scalar
``_score`` loop — both paths produce the same argmin winners.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.cache import (
    FeatureCache,
    ReferenceMatrixCache,
    default_cache,
    default_matrix_cache,
)
from repro.engine.instrument import Stopwatch, maybe_stage
from repro.errors import PipelineError, StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import ParallelExecutor
    from repro.index.twostage import RetrievalResult, TwoStageRetriever
    from repro.openset.calibration import ThresholdModel
    from repro.store.attach import ReferenceStore

#: The label open-set rejection assigns when a query's champion score fails
#: the calibrated threshold.  Deliberately outside every dataset's class
#: vocabulary (dataset classes are concrete nouns like "mug").
UNKNOWN_LABEL = "unknown"


@dataclass(frozen=True)
class Prediction:
    """One recognition outcome.

    ``label`` is the predicted class, ``model_id`` the reference model that
    won the argmin/argmax (empty for pipelines without a model notion, e.g.
    the random baseline), ``score`` the winning score, and ``view_scores``
    an optional per-reference-view score vector in reference order.
    ``view_scores`` is only populated when the producing pipeline has
    ``keep_view_scores`` set — a full NYUSet sweep would otherwise retain a
    ``(6934, V)`` float64 matrix per configuration.  ``degraded`` marks a
    prediction served by a fallback stage after the primary pipeline failed
    (see :class:`~repro.pipelines.fallback.FallbackPipeline`) — coarser, but
    better than a dropped query.

    The open-set fields (PR 9) default to the closed-set values so every
    pre-existing construction site is untouched: ``unknown`` is True when a
    calibrated threshold rejected the champion (``label`` is then
    :data:`UNKNOWN_LABEL` and ``model_id``/``score`` keep the rejected
    champion for introspection), and ``margin`` is the signed distance of
    the champion score to the threshold in the accept direction (positive =
    accepted, negative = rejected; ``None`` when no threshold was applied).
    """

    label: str
    model_id: str = ""
    score: float = 0.0
    view_scores: np.ndarray | None = field(default=None, repr=False)
    degraded: bool = False
    unknown: bool = False
    margin: float | None = None


class RecognitionPipeline(abc.ABC):
    """A fit-then-predict object recogniser over a reference view library."""

    #: Human-readable pipeline name, used by reports and tables.
    name: str = "pipeline"

    #: Whether :meth:`predict` is independent across queries.  Pipelines that
    #: consume a shared random stream per query (the random baseline, the
    #: descriptor tie-break RNG) must set this False; the engine's
    #: ParallelExecutor then runs them inline so the stream — and therefore
    #: the results — match the sequential loop exactly.
    parallel_safe: bool = True

    def __init__(self) -> None:
        self._references: ImageDataset | None = None
        #: Feature cache consulted by extraction hot paths (None = uncached).
        self.cache: FeatureCache | None = None
        #: Optional per-stage timing sink, attached by the experiment runner.
        self.stopwatch: Stopwatch | None = None
        #: Attach the per-view score vector to every Prediction.  Off by
        #: default: retaining ``(Q, V)`` float64 per configuration is the
        #: dominant memory cost of a full NYUSet sweep.  Evaluation code
        #: that needs score curves (rank fusion, recall@k analysis) opts in.
        self.keep_view_scores: bool = False
        #: Calibrated open-set threshold model applied to every champion
        #: (see :meth:`attach_thresholds`); None = closed-set behaviour,
        #: bit-identical to the pre-openset path.
        self._threshold_model: "ThresholdModel | None" = None

    @property
    def thresholds_attached(self) -> bool:
        """Whether a calibrated rejection threshold is currently attached."""
        return self._threshold_model is not None

    def attach_thresholds(self, model: "ThresholdModel") -> "RecognitionPipeline":
        """Attach a calibrated open-set threshold model.

        Every subsequent champion is screened against the model: champions
        on the reject side of the threshold come back with
        ``label=UNKNOWN_LABEL`` and ``unknown=True``; accepted champions
        keep their label and additionally carry the signed ``margin``.
        :meth:`detach_thresholds` restores the exact closed-set behaviour.
        """
        from repro.errors import CalibrationError

        higher = getattr(self, "higher_is_better", False)
        if bool(model.higher_is_better) != bool(higher):
            raise CalibrationError(
                f"{self.name}: threshold model calibrated for "
                f"higher_is_better={model.higher_is_better}, pipeline scores "
                f"have higher_is_better={higher}"
            )
        self._threshold_model = model
        return self

    def detach_thresholds(self) -> "RecognitionPipeline":
        """Drop the threshold model and return to closed-set prediction."""
        self._threshold_model = None
        return self

    def _finalize(self, prediction: Prediction) -> Prediction:
        """Apply the attached threshold model, if any.

        The single choke point of the rejection path: with no model
        attached the prediction object passes through untouched, keeping
        the closed-set path bit-identical.
        """
        model = self._threshold_model
        if model is None:
            return prediction
        return model.apply(prediction)

    @property
    def references(self) -> ImageDataset:
        """The fitted reference dataset (raises before :meth:`fit`)."""
        if self._references is None:
            raise PipelineError(f"{self.name}: fit() must be called before use")
        return self._references

    @property
    def scoring_mode(self) -> str:
        """``"batch"`` when the vectorized scoring path is active, else
        ``"scalar"`` — surfaced by the ``--timings`` CLI output."""
        return "scalar"

    @abc.abstractmethod
    def fit(self, references: ImageDataset) -> "RecognitionPipeline":
        """Index the reference views; returns self for chaining."""

    @abc.abstractmethod
    def predict(self, query: LabelledImage) -> Prediction:
        """Predict the class of one query image."""

    def predict_batch(self, queries: Sequence[LabelledImage]) -> list[Prediction]:
        """Predict a contiguous block of queries, in order.

        The default is the per-query loop; batch-scoring pipelines override
        this to score the whole block against the reference matrix at once.
        This is the unit of work the engine's ParallelExecutor hands to each
        worker.
        """
        return [self.predict(query) for query in queries]

    def predict_all(
        self,
        queries: ImageDataset | Sequence[LabelledImage],
        executor: "ParallelExecutor | None" = None,
    ) -> list[Prediction]:
        """Predict every query in order.

        With *executor* the queries fan out over its worker pool; results are
        order-stable and bit-identical to the sequential loop.
        """
        if executor is not None:
            return executor.predict_all(self, queries)
        return self.predict_batch(list(queries))


class ChampionPipeline(RecognitionPipeline):
    """A pipeline whose answer is one per-view champion (argmin/argmax).

    Such a pipeline can serve through the certified index
    (:meth:`attach_index`): one bound over the whole flush, then an exact
    re-rank of only the rows that can still win, bit-identical to the
    exhaustive scan for every query.  Subclasses supply
    :meth:`extract_features`, :meth:`_score_features` (the exhaustive
    ``(V,)`` scores), :meth:`_rerank_rows` (their restriction to some rows)
    and, to be indexable, :meth:`_champion_bound`.
    """

    higher_is_better: bool = False

    def __init__(self) -> None:
        super().__init__()
        #: Certified retriever attached by :meth:`attach_index`; None =
        #: exhaustive scoring.
        self._retriever: "TwoStageRetriever | None" = None

    @abc.abstractmethod
    def extract_features(self, item: LabelledImage) -> Any:
        """The matching features of one image, cache-backed and timed."""

    @abc.abstractmethod
    def _score_features(self, features: Any) -> np.ndarray:
        """One query's ``(V,)`` scores from already-extracted features."""

    def _rerank_rows(self, features: Any, rows: np.ndarray) -> np.ndarray:
        """Exact scores of *features* against reference rows *rows*.

        Must be the literal restriction of the brute-force kernel: bitwise
        equal to ``_score_features(features)[rows]``.  Every scoring kernel
        in :mod:`repro.imaging` computes reference row *i* from the query
        and row *i* alone, so slicing the reference matrix before the
        kernel call satisfies this for free.
        """
        raise PipelineError(f"{self.name}: pipeline has no re-rank kernel")

    def _champion_bound(self) -> Callable[[list], np.ndarray]:
        """Stage 1 of :meth:`attach_index`.

        Returns a callable mapping a list of extracted query features to
        the ``(Q, V)`` bound on every row's computed score: from below for
        a distance, from above for a similarity (see
        :mod:`repro.index.bounds`).  Raises :class:`PipelineError` when the
        pipeline cannot be indexed (yet).
        """
        raise PipelineError(f"{self.name}: pipeline has no score bound to index")

    def certifiable(self) -> bool:
        """Whether :meth:`attach_index` certifies this pipeline's champion
        with a bound that prunes all but a few rows.

        The sharded tier serves only such pipelines, since each worker
        re-ranks every row its bound cannot rule out.  ``False`` here: a
        subclass with a tight :meth:`_champion_bound` says so.
        """
        return False

    @property
    def index_attached(self) -> bool:
        """Whether a certified retrieval index is currently attached."""
        return self._retriever is not None

    @property
    def retriever(self) -> "TwoStageRetriever":
        """The attached certified retriever (raises when none is)."""
        if self._retriever is None:
            raise PipelineError(f"{self.name}: no retrieval index attached")
        return self._retriever

    def attach_index(self, shortlist_k: int) -> "ChampionPipeline":
        """Attach a certified retrieval index over the reference library.

        Routes subsequent :meth:`predict` / :meth:`predict_batch` calls
        through bound-then-exact-re-rank instead of full-library scoring.
        Champion rows and scores are bit-identical to brute force for every
        query.  *shortlist_k* is validated (``>= 1``) but changes neither
        the answer nor the work.  ``keep_view_scores`` bypasses the index (a champion
        cannot produce the full per-view score vector).
        """
        from repro.index.twostage import TwoStageRetriever

        bound = self._champion_bound()
        self._retriever = TwoStageRetriever(
            bound,
            self._rerank_rows,
            len(self.references),
            shortlist_k,
            higher_is_better=self.higher_is_better,
        )
        return self

    def detach_index(self) -> "ChampionPipeline":
        """Drop the retrieval index and return to brute-force scoring."""
        self._retriever = None
        return self

    @property
    def _serves_indexed(self) -> bool:
        return self._retriever is not None and not self.keep_view_scores

    def champion_batch(self, queries: Sequence[LabelledImage]) -> "list[RetrievalResult]":
        """Champion row + exact score per query, without full score rows.

        With an index attached, the flush is bounded once and each query
        re-ranks only its surviving rows; without one, each query is an
        exhaustive scan through the same kernels (the audit/bench
        baseline).  Both share one tie rule (first index among equals).
        """
        from repro.index.twostage import RetrievalResult

        self.references
        features = [self.extract_features(query) for query in queries]
        with maybe_stage(self.stopwatch, "score"):
            retriever = self._retriever
            if retriever is not None:
                return [retriever.champion(query) for query in retriever.bounded(features)]
            results = []
            for query_features in features:
                scores = self._score_features(query_features)
                best = int(np.argmax(scores) if self.higher_is_better else np.argmin(scores))
                results.append(
                    RetrievalResult(
                        score=float(scores[best]),
                        row=best,
                        candidates=int(scores.shape[0]),
                        exhaustive=True,
                    )
                )
            return results

    def _prediction_of_hit(self, hit: "RetrievalResult") -> Prediction:
        winner = self.references[hit.row]
        return self._finalize(
            Prediction(label=winner.label, model_id=winner.model_id, score=hit.score)
        )


class MatchingPipeline(ChampionPipeline):
    """Base class for view-scoring pipelines (shape / colour / descriptor).

    Subclasses implement :meth:`_extract` (per-image feature computation,
    cached for reference views at fit time) and :meth:`_score` (feature-pair
    scoring).  ``higher_is_better`` selects argmax instead of argmin.

    Subclasses with a vectorized kernel additionally implement
    :meth:`_stack_references` (stack per-view features into a contiguous
    matrix at fit time) and :meth:`_score_batch` (all ``V`` scores of one
    query in single NumPy ops); :meth:`score_views` then skips the scalar
    per-view loop entirely.  ``batch_scoring = False`` forces the scalar
    loop — the equivalence suite and the scoring benchmark use it.
    """

    #: Cache-key version of :meth:`_extract`'s output; bump whenever the
    #: extraction algorithm changes so stale disk entries stop being read.
    feature_version: str = "v1"

    def __init__(self) -> None:
        super().__init__()
        self._reference_features: list[Any] = []
        #: Stacked reference-feature matrix (None when the pipeline has no
        #: batched kernel, or when ``batch_scoring`` is off).
        self._reference_matrix: Any | None = None
        self.cache = default_cache()
        #: Memoises stacked reference matrices across pipeline configurations
        #: that share an extraction namespace (shape L1/L2/L3, the four
        #: colour metrics) — set to None to rebuild per fit.
        self.matrix_cache: ReferenceMatrixCache | None = default_matrix_cache()
        #: Master switch for the vectorized scoring path.
        self.batch_scoring: bool = True
        #: ``(namespace, version)`` cache keyspace, derived once per fit
        #: instead of once per query in the extraction hot loop.
        self._feature_keyspace: tuple[str, str] | None = None

    @abc.abstractmethod
    def _extract(self, item: LabelledImage) -> Any:
        """Compute the matching features of one image."""

    @abc.abstractmethod
    def _score(self, query_features: Any, reference_features: Any) -> float:
        """Score a query against one reference view."""

    def _stack_references(self, features: Sequence[Any]) -> Any | None:
        """Stack per-view features into a batch-scorable matrix.

        ``None`` (the default) means the pipeline has no vectorized kernel
        and :meth:`score_views` keeps the scalar ``_score`` loop.
        """
        return None

    def _score_batch(self, query_features: Any) -> np.ndarray | None:
        """All ``V`` scores of one query against the stacked reference
        matrix, or ``None`` to fall back to the scalar ``_score`` loop."""
        return None

    def _score_block(self, features: Sequence[Any]) -> np.ndarray | None:
        """``(Q, V)`` scores of a whole query block in one kernel call.

        ``None`` (the default) means the pipeline scores blocks row by row
        through :meth:`_score_batch`.  Implementations must be bit-identical
        per row to :meth:`_score_batch` — the serving equivalence suite
        compares micro-batched answers against sequential ones exactly.
        """
        return None

    def _stacked_matrix(self) -> Any:
        """The stacked reference matrix an index bounds (raises before one
        exists: before :meth:`fit` / :meth:`attach_store`, or with
        ``batch_scoring`` off)."""
        if self._reference_matrix is None:
            raise PipelineError(
                f"{self.name}: attach_index requires a stacked reference "
                "matrix (fit() or attach_store() first, with batch_scoring)"
            )
        return self._reference_matrix

    @property
    def scoring_mode(self) -> str:
        if self._serves_indexed:
            return "indexed"
        return "batch" if self._reference_matrix is not None else "scalar"

    def feature_namespace(self) -> str:
        """Cache namespace of :meth:`_extract`'s output.

        Defaults to the pipeline name; pipelines whose extraction is shared
        across configurations (shape L1/L2/L3) override this so they share
        cache entries.
        """
        return self.name

    def feature_keyspace(self) -> tuple[str, str]:
        """The ``(namespace, version)`` cache keyspace, derived once.

        :meth:`feature_namespace` may build its name dynamically (the colour
        family embeds the bin count); re-deriving it for every query in the
        executor hot loop was pure waste.  Reset on :meth:`fit` so
        reconfigured pipelines re-derive.
        """
        if self._feature_keyspace is None:
            self._feature_keyspace = (self.feature_namespace(), self.feature_version)
        return self._feature_keyspace

    def extract_features(self, item: LabelledImage) -> Any:
        """:meth:`_extract` through the feature cache (and the stopwatch)."""
        with maybe_stage(self.stopwatch, "extract"):
            if self.cache is None:
                return self._extract(item)
            namespace, version = self.feature_keyspace()
            return self.cache.get_or_compute(
                namespace,
                version,
                item.image,
                lambda: self._extract(item),
            )

    def fit(self, references: ImageDataset) -> "MatchingPipeline":
        self._references = references
        self._feature_keyspace = None
        self._retriever = None  # indexes an old library; rebuild explicitly
        self._reference_features = [self.extract_features(item) for item in references]
        self._reference_matrix = None
        if self.batch_scoring:
            with maybe_stage(self.stopwatch, "stack"):
                if self.matrix_cache is None:
                    self._reference_matrix = self._stack_references(
                        self._reference_features
                    )
                else:
                    namespace, version = self.feature_keyspace()
                    self._reference_matrix = self.matrix_cache.get_or_build(
                        namespace,
                        version,
                        references,
                        lambda: self._stack_references(self._reference_features),
                    )
        return self

    def attach_store(
        self,
        store: "ReferenceStore",
        rows: tuple[int, int] | None = None,
    ) -> "MatchingPipeline":
        """Adopt a pre-stacked reference matrix from a memmapped store.

        The zero-copy alternative to :meth:`fit`: instead of extracting and
        stacking reference features in-process, the pipeline maps the store's
        ``(V, D)`` shard for its own feature keyspace and serves from it.
        Because the shard was produced by the same ``_stack_references``
        functions ``fit`` runs, scoring is bit-identical to the fitted path
        (the store equivalence suite pins this).

        *rows* restricts the pipeline to the contiguous reference range
        ``[start, stop)``.
        References become the store's image-free identity records; anything
        needing reference pixels must use :meth:`fit`.
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
        self._feature_keyspace = None
        self._retriever = None  # indexes an old library; rebuild explicitly
        namespace, version = self.feature_keyspace()
        matrix = store.matrix(namespace, version)
        if matrix.shape[0] != len(references):
            raise StoreError(
                f"store shard {namespace}/{version} has {matrix.shape[0]} rows "
                f"for {len(references)} reference views"
            )
        self._references = references.slice(start, stop)  # type: ignore[assignment]
        self._reference_matrix = matrix[start:stop]
        # Identity placeholders: scoring never touches per-view features on
        # the batch path, but length-derived shapes must stay correct.
        self._reference_features = [None] * (stop - start)
        return self

    def score_views(self, query: LabelledImage) -> np.ndarray:
        """Scores of *query* against every reference view, in order."""
        self.references  # raises PipelineError when fit() was never called
        features = self.extract_features(query)
        with maybe_stage(self.stopwatch, "score"):
            return self._score_features(features)

    def _score_features(self, features: Any) -> np.ndarray:
        """One query's (V,) score vector from already-extracted features."""
        if self._reference_matrix is not None:
            scores = self._score_batch(features)
            if scores is not None:
                return scores
        return np.array(
            [self._score(features, ref) for ref in self._reference_features],
            dtype=np.float64,
        )

    def score_views_batch(
        self, queries: Sequence[LabelledImage]
    ) -> np.ndarray:
        """``(Q, V)`` score matrix of a query block against every view.

        Row *i* equals ``score_views(queries[i])``; the multi-query entry
        point lets the engine hand each worker a contiguous block instead of
        one query at a time.
        """
        self.references
        features = [self.extract_features(query) for query in queries]
        with maybe_stage(self.stopwatch, "score"):
            if not features:
                return np.empty((0, len(self._reference_features)), dtype=np.float64)
            if self._reference_matrix is not None:
                scores = self._score_block(features)
                if scores is not None:
                    return scores
            return np.vstack([self._score_features(f) for f in features])

    def predict(self, query: LabelledImage) -> Prediction:
        if self._serves_indexed:
            return self._prediction_of_hit(self.champion_batch([query])[0])
        scores = self.score_views(query)
        with maybe_stage(self.stopwatch, "argmin"):
            best = int(np.argmax(scores) if self.higher_is_better else np.argmin(scores))
        return self._prediction_at(best, scores)

    def predict_batch(self, queries: Sequence[LabelledImage]) -> list[Prediction]:
        """Block prediction over the ``(Q, V)`` score matrix (argmin per row,
        same first-winner tie rule as the per-query loop)."""
        queries = list(queries)
        if not queries:
            return []
        if self._serves_indexed:
            return [self._prediction_of_hit(hit) for hit in self.champion_batch(queries)]
        scores = self.score_views_batch(queries)
        with maybe_stage(self.stopwatch, "argmin"):
            best = scores.argmax(axis=1) if self.higher_is_better else scores.argmin(axis=1)
        return [
            self._prediction_at(int(index), row)
            for index, row in zip(best, scores)
        ]

    def _prediction_at(self, best: int, scores: np.ndarray) -> Prediction:
        winner = self.references[best]
        return self._finalize(
            Prediction(
                label=winner.label,
                model_id=winner.model_id,
                score=float(scores[best]),
                view_scores=scores if self.keep_view_scores else None,
            )
        )

    def predict_topk(self, query: LabelledImage, k: int = 3) -> list[Prediction]:
        """The *k* best-scoring *distinct classes* for one query.

        Each class is represented by its best view; results are ordered
        best-first.  Useful for recall@k evaluation and for downstream
        consumers (a semantic map may keep runner-up hypotheses).
        """
        if k < 1:
            raise PipelineError(f"k must be >= 1, got {k}")
        scores = self.score_views(query)
        order = np.argsort(-scores if self.higher_is_better else scores)
        top: list[Prediction] = []
        seen: set[str] = set()
        for idx in order:
            item = self.references[int(idx)]
            if item.label in seen:
                continue
            seen.add(item.label)
            top.append(
                Prediction(
                    label=item.label,
                    model_id=item.model_id,
                    score=float(scores[idx]),
                )
            )
            if len(top) == k:
                break
        return top
