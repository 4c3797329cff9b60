"""ShapeNetSet builders.

**ShapeNetSet1 (SNS1)** — 82 reference views: two models per class, 2–7
canonical views each, matching Table 1's per-class totals exactly.

**ShapeNetSet2 (SNS2)** — 100 views: ten views per class, spread over five
models per class so the set is "larger … spread across the same object
classes" with more model diversity than SNS1 (Sec. 3.1).

Both sets render on white backgrounds, as ShapeNet's published 2-D surface
views do; the preprocessing pipeline therefore thresholds them in inverse
mode (Sec. 3.2).
"""

from __future__ import annotations

from repro.config import ExperimentConfig, rng as make_rng, spawn
from repro.datasets.classes import (
    CLASS_NAMES,
    SNS2_VIEW_COUNTS,
    sns1_views_per_model,
)
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.errors import DatasetError
from repro.datasets.models import sample_model
from repro.datasets.render import (
    WHITE,
    canonical_view,
    random_viewpoint,
    render_view,
)

#: Models per class in SNS2.  Ten views over five models gives the extra
#: model diversity the paper attributes to the second, larger subset.
SNS2_MODELS_PER_CLASS = 5

#: ShapeNet models of one class differ a lot from each other (an office
#: chair vs a dining chair); high reference heterogeneity models that, and
#: is what keeps Hu-moment matching near the paper's weak accuracies even on
#: clean renders (Table 2, SNS1 v. SNS2 column).
_REFERENCE_HETEROGENEITY = 0.75


def build_sns1(config: ExperimentConfig | None = None) -> ImageDataset:
    """Build ShapeNetSet1: 82 views, Table-1 class cardinalities."""
    config = config or ExperimentConfig()
    base = make_rng(config.seed)
    items: list[LabelledImage] = []
    for class_name in CLASS_NAMES:
        view_split = sns1_views_per_model(class_name)
        for model_idx, n_views in enumerate(view_split):
            model_id = f"{class_name}_sns1_m{model_idx}"
            model_rng = spawn(base, model_id)
            model = sample_model(
                class_name, model_id, model_rng, heterogeneity=_REFERENCE_HETEROGENEITY
            )
            for view_idx in range(n_views):
                image = render_view(
                    model,
                    canonical_view(view_idx),
                    config.render_size,
                    background=WHITE,
                    shading_rng=model_rng,
                )
                items.append(
                    LabelledImage(
                        image=image,
                        label=class_name,
                        source="sns1",
                        model_id=model_id,
                        view_id=view_idx,
                    )
                )
    return ImageDataset(name="ShapeNetSet1", items=tuple(items))


def build_sns2(config: ExperimentConfig | None = None) -> ImageDataset:
    """Build ShapeNetSet2: 100 views, ten per class over five models."""
    config = config or ExperimentConfig()
    base = make_rng(config.seed + 1)
    items: list[LabelledImage] = []
    for class_name in CLASS_NAMES:
        total_views = SNS2_VIEW_COUNTS[class_name]
        per_model = total_views // SNS2_MODELS_PER_CLASS
        view_counter = 0
        for model_idx in range(SNS2_MODELS_PER_CLASS):
            model_id = f"{class_name}_sns2_m{model_idx}"
            model_rng = spawn(base, model_id)
            model = sample_model(
                class_name, model_id, model_rng, heterogeneity=_REFERENCE_HETEROGENEITY
            )
            for local_view in range(per_model):
                # Offset the view ring per model so SNS2 poses differ from
                # the SNS1 poses of the same class.
                viewpoint = canonical_view(local_view * 3 + model_idx + 1)
                image = render_view(
                    model,
                    viewpoint,
                    config.render_size,
                    background=WHITE,
                    shading_rng=model_rng,
                )
                items.append(
                    LabelledImage(
                        image=image,
                        label=class_name,
                        source="sns2",
                        model_id=model_id,
                        view_id=view_counter,
                    )
                )
                view_counter += 1
    return ImageDataset(name="ShapeNetSet2", items=tuple(items))


#: Canonical poses rendered per model before the seeded continuous sweep
#: takes over in :func:`build_reference_library`.
_LIBRARY_CANONICAL_VIEWS = 10


def build_reference_library(
    config: ExperimentConfig | None = None,
    models_per_class: int = 5,
    views_per_model: int = 20,
    name: str | None = None,
) -> ImageDataset:
    """A seeded synthetic reference library of arbitrary size.

    The scale knob behind the indexed retrieval tier: where SNS1/SNS2 pin
    the paper's 82/100-view sets, this builder renders
    ``classes * models_per_class * views_per_model`` views — 10k+ at
    ``models_per_class=50, views_per_model=20`` — deterministically from
    ``config.seed``.  Each model renders the canonical view ring first
    (poses shared with the paper sets) and then continuous seeded
    viewpoints from :func:`~repro.datasets.render.random_viewpoint`, so no
    two views of a model are identical renders.

    Views are emitted grouped by class (labels form contiguous runs), the
    layout of every reference set and of a store built from one.
    """
    config = config or ExperimentConfig()
    if models_per_class < 1 or views_per_model < 1:
        raise DatasetError(
            f"need >= 1 model and view per class, got {models_per_class} "
            f"models x {views_per_model} views"
        )
    base = make_rng(config.seed + 2)
    items: list[LabelledImage] = []
    for class_name in CLASS_NAMES:
        for model_idx in range(models_per_class):
            model_id = f"{class_name}_lib_m{model_idx}"
            model_rng = spawn(base, model_id)
            model = sample_model(
                class_name, model_id, model_rng, heterogeneity=_REFERENCE_HETEROGENEITY
            )
            for view_idx in range(views_per_model):
                if view_idx < _LIBRARY_CANONICAL_VIEWS:
                    viewpoint = canonical_view(view_idx)
                else:
                    viewpoint = random_viewpoint(model_rng)
                image = render_view(
                    model,
                    viewpoint,
                    config.render_size,
                    background=WHITE,
                    shading_rng=model_rng,
                )
                items.append(
                    LabelledImage(
                        image=image,
                        label=class_name,
                        source="synlib",
                        model_id=model_id,
                        view_id=view_idx,
                    )
                )
    library_name = name or (
        f"SynLibrary({models_per_class}x{views_per_model})"
    )
    return ImageDataset(name=library_name, items=tuple(items))
