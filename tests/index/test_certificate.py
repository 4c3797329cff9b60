"""The certificate: indexed champions equal ``champion_brute`` bit for bit.

Every indexable pipeline (shape-only L3, colour-only Hellinger, hybrid)
serves from a library built to stress the bound and its rounding slack:
SNS1 plus duplicate rows (ties go to the lower index), exact copies of
query features, copies 1 ulp away in one bin or one Hu term, NaN-Hu rows,
rows with sub-eps Hu terms (the kernel skips those terms) and zero-mass
histograms.  Queries are SNS2 views, the 1 % NYU sample, library views
themselves and a contour-less (NaN-Hu) crop.  Every answer, at every
shortlist size and flush size, must equal brute force in row and in the
float64 bits of its score.
"""

import dataclasses

import numpy as np
import pytest

from repro.imaging.histogram import HistogramMetric
from repro.imaging.match_shapes import ShapeDistance
from repro.pipelines.color_only import ColorOnlyPipeline
from repro.pipelines.hybrid import HybridPipeline, HybridStrategy
from repro.pipelines.shape_only import ShapeOnlyPipeline

#: Library rows whose features the queries repeat exactly (and nearly).
ANCHORS = (0, 8, 18, 41, 57, 70)
PIPELINES = ("shape-only", "color-only", "hybrid")


def _ulp(values, index, direction, steps=1):
    out = np.array(values, dtype=np.float64)
    for _ in range(steps):
        out[index] = np.nextafter(out[index], direction)
    return out


def _stress_rows(signatures, histograms):
    """Extra ``(signature, histogram)`` library rows appended after SNS1.

    Each anchor's copies 1-3 ulp away in every occupied bin include rows
    whose Hellinger bound, without the rounding slack, rounds below the
    anchor's own while their exact score ties it at 0.0: dropping the
    slack prunes the anchor and hands its tie to a later row.
    """
    rows = []
    for anchor in ANCHORS:
        sig, hist = signatures[anchor], histograms[anchor]
        rows.append((sig, hist))  # a duplicate: the tie goes to the anchor
        for bin_index in np.flatnonzero(hist > 0):
            for direction in (np.inf, -np.inf):
                for steps in (1, 2, 3):
                    rows.append((sig, _ulp(hist, bin_index, direction, steps)))
        for term in (0, 3, 6):
            rows.append((_ulp(sig, term, np.inf), hist))
            rows.append((_ulp(sig, term, -np.inf), _ulp(hist, 0, np.inf)))
    sub_eps = signatures[ANCHORS[1]].copy()
    sub_eps[[2, 5]] = 0.0  # terms the shape kernels skip
    rows.append((sub_eps, histograms[ANCHORS[1]]))
    rows.append((np.full(7, np.nan), histograms[ANCHORS[2]]))  # NaN-Hu row
    rows.append((signatures[ANCHORS[3]], np.zeros_like(histograms[0])))  # zero mass
    rows.append((signatures[ANCHORS[4]], np.zeros_like(histograms[0])))
    return rows


@pytest.fixture(scope="module")
def stressed(config, sns1):
    """The stress library: stacked matrices and a same-length reference set."""
    hybrid = HybridPipeline(alpha=config.alpha, beta=config.beta, bins=config.histogram_bins)
    hybrid.matrix_cache = None
    hybrid.fit(sns1)
    signatures = np.asarray(hybrid._shape_matrix)
    histograms = np.asarray(hybrid._color_matrix)
    extra = _stress_rows(signatures, histograms)
    signatures = np.vstack([signatures] + [sig for sig, _ in extra])
    histograms = np.vstack([histograms] + [hist for _, hist in extra])
    references = sns1.subset([i % len(sns1) for i in range(signatures.shape[0])])
    return signatures, histograms, references


@pytest.fixture(scope="module")
def queries(sns1, sns2, nyu):
    blank = dataclasses.replace(sns2[0], image=np.zeros_like(sns2[0].image))
    return (
        list(sns2)[:40]
        + list(nyu)
        + [sns1[i] for i in ANCHORS]
        + [blank]
    )


def make_pipeline(name, config, stressed):
    """*name* fitted to the stress library by adopting its matrices."""
    signatures, histograms, references = stressed
    if name == "shape-only":
        pipeline = ShapeOnlyPipeline(ShapeDistance.L3)
        pipeline._reference_matrix = signatures
    elif name == "color-only":
        pipeline = ColorOnlyPipeline(HistogramMetric.HELLINGER, bins=config.histogram_bins)
        pipeline._reference_matrix = histograms
    else:
        pipeline = HybridPipeline(
            HybridStrategy.WEIGHTED_SUM,
            alpha=config.alpha,
            beta=config.beta,
            bins=config.histogram_bins,
        )
        pipeline._shape_matrix = signatures
        pipeline._color_matrix = histograms
    pipeline._references = references
    return pipeline


def _brute(pipeline, queries):
    """champion_brute of every query, through a full-library index."""
    pipeline.attach_index(len(pipeline.references))
    retriever = pipeline.retriever
    return [retriever.champion_brute(pipeline.extract_features(q)) for q in queries]


def _same(hit, want):
    return hit.row == want.row and np.float64(hit.score).tobytes() == np.float64(
        want.score
    ).tobytes()


@pytest.mark.parametrize("name", PIPELINES)
@pytest.mark.parametrize("k", [1, 4, "V"])
@pytest.mark.parametrize("flush", [1, 16, 33])
def test_certified_champion_is_champion_brute(name, k, flush, config, stressed, queries):
    pipeline = make_pipeline(name, config, stressed)
    brute = _brute(pipeline, queries)
    pipeline.attach_index(len(pipeline.references) if k == "V" else k)
    got = []
    for start in range(0, len(queries), flush):
        got.extend(pipeline.champion_batch(queries[start : start + flush]))
    mismatches = [i for i, (hit, want) in enumerate(zip(got, brute)) if not _same(hit, want)]
    assert mismatches == []


@pytest.mark.parametrize("name", PIPELINES)
def test_a_flush_answers_as_its_queries_alone(name, config, stressed, queries):
    pipeline = make_pipeline(name, config, stressed)
    pipeline.attach_index(4)
    flushed = pipeline.champion_batch(queries[:33])
    alone = [pipeline.champion_batch([q])[0] for q in queries[:33]]
    assert all(_same(a, b) for a, b in zip(flushed, alone))


@pytest.mark.parametrize("name", PIPELINES)
def test_near_duplicate_features_certify_exactly(name, config, stressed, sns1):
    """Queries 1 ulp away from library rows, straight into the retriever."""
    pipeline = make_pipeline(name, config, stressed)
    pipeline.attach_index(1)
    retriever = pipeline.retriever
    features = []
    for anchor in ANCHORS:
        hu, hist = make_pipeline("hybrid", config, stressed).extract_features(sns1[anchor])
        bins = np.flatnonzero(hist > 0)
        for variant in (
            (hu, hist),
            (hu, _ulp(hist, bins[1], np.inf)),
            (_ulp(hu, 4, -np.inf), _ulp(hist, bins[2], -np.inf)),
        ):
            features.append(variant)
    if name == "shape-only":
        features = [hu for hu, _ in features]
    elif name == "color-only":
        features = [hist for _, hist in features]
    bounded = retriever.bounded(features)
    for query, feats in zip(bounded, features):
        assert _same(retriever.champion(query), retriever.champion_brute(feats))
        assert _same(retriever.champion(feats), retriever.champion_brute(feats))


def test_stress_library_carries_every_degenerate_row(stressed):
    signatures, histograms, _ = stressed
    assert np.isnan(signatures).any(axis=1).sum() == 1
    assert ((np.abs(signatures) <= 1e-30) & ~np.isnan(signatures)).any(axis=1).sum() >= 1
    assert (histograms.sum(axis=1) == 0).sum() == 2
