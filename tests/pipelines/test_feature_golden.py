"""Golden digests of the two cached feature extractions.

The feature cache (memory and disk tier) and every published store version
key shape and colour features by ``namespace/version``.  A change to the
extraction that alters a single bit of a feature must therefore also bump
that version, or stale entries would be served as current.  This suite
pins a blake2b digest of the float64 bytes of :func:`shape_features` and
:func:`color_features` over fixed inputs, stored next to the version string
it belongs to: the test fails until either the bits come back or the
version (and the digest beside it) is changed on purpose.

Inputs: the 82 SNS1 views, the session's seeded 1 % NYU sample, and the
four degenerate items of ``test_degenerate_inputs`` (no foreground, one
pixel, NaN pixels, a uniform frame).
"""

import hashlib

import numpy as np
import pytest

from repro.config import HISTOGRAM_BINS
from repro.pipelines.color_only import (
    COLOR_FEATURE_VERSION,
    color_feature_namespace,
    color_features,
)
from repro.pipelines.shape_only import (
    SHAPE_FEATURE_NAMESPACE,
    SHAPE_FEATURE_VERSION,
    shape_features,
)

from tests.pipelines.test_degenerate_inputs import degenerate_items

#: (namespace, version) -> {input set: digest}.  Change a digest only
#: together with the version string it sits next to.
GOLDEN = {
    (SHAPE_FEATURE_NAMESPACE, "v1"): {
        "sns1": "c524ef0acb3a6d1bf4449f7dfdc39dcf",
        "nyu": "fb709a43a7130ba6a56f2d2b7cccaa42",
        "degenerate": "bb8a0b0d991d25b0a31460462acd2681",
    },
    (color_feature_namespace(HISTOGRAM_BINS), "v1"): {
        "sns1": "b41b121a5e58cb82110b0b38d94f22a0",
        "nyu": "2dd3d235016b6a5a6eda509a6d1ceacb",
        "degenerate": "fd4ba26cd0ab8e2ea2f283a7eeaa663b",
    },
}


def feature_digest(features) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for vector in features:
        array = np.ascontiguousarray(vector, dtype=np.float64)
        digest.update(str(array.shape).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def inputs(sns1, nyu):
    return {
        "sns1": list(sns1),
        "nyu": list(nyu),
        "degenerate": [item for _, item in sorted(degenerate_items().items())],
    }


EXTRACTORS = {
    "shape": (
        (SHAPE_FEATURE_NAMESPACE, SHAPE_FEATURE_VERSION),
        shape_features,
    ),
    "color": (
        (color_feature_namespace(HISTOGRAM_BINS), COLOR_FEATURE_VERSION),
        lambda item: color_features(item, bins=HISTOGRAM_BINS),
    ),
}


@pytest.mark.parametrize("family", sorted(EXTRACTORS))
@pytest.mark.parametrize("input_set", ["sns1", "nyu", "degenerate"])
def test_features_match_the_digest_of_their_version(inputs, family, input_set):
    keyspace, extract = EXTRACTORS[family]
    assert keyspace in GOLDEN, (
        f"{keyspace} has no golden digests: a feature version was bumped, so "
        "record the new digests under the new version"
    )
    digest = feature_digest(extract(item) for item in inputs[input_set])
    assert digest == GOLDEN[keyspace][input_set], (
        f"{family} features of {input_set} changed bits under {keyspace}; "
        "restore them or bump the feature version"
    )


def test_input_sets_are_the_pinned_sizes(inputs):
    assert {name: len(items) for name, items in inputs.items()} == {
        "sns1": 82,
        "nyu": 74,
        "degenerate": 4,
    }
