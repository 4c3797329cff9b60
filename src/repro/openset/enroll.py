"""Reference-library enrollment merges.

Every reference library is laid out class-contiguous, and the store
builder digests views in dataset order — so teaching a live service a new
view keeps that layout instead of appending to the end.
:func:`merge_enrollment` produces the merged dataset the hot-swap republish
is built from: new views of an *existing* class slot in
at the end of that class's (last) contiguous run, and entirely new classes
append after everything else in first-seen order.  Existing views keep
their relative order, which is what keeps pre-existing champions stable
across an enrollment swap (ties still resolve to the original, lower-index
row).
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExperimentConfig, rng as make_rng, spawn
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.datasets.models import sample_model
from repro.datasets.render import WHITE, canonical_view, render_view
from repro.errors import EnrollmentError


def merge_enrollment(
    references: ImageDataset,
    additions: Sequence[LabelledImage],
    name: str | None = None,
) -> ImageDataset:
    """Merge *additions* into *references*, preserving class contiguity.

    Existing items keep their relative order; an addition for a known class
    is inserted directly after the last existing view of that class, and
    additions for new classes are appended at the end grouped per class in
    first-seen order.  Raises :class:`~repro.errors.EnrollmentError` on an
    empty addition set.
    """
    additions = list(additions)
    if not additions:
        raise EnrollmentError("enrollment needs at least one view")

    by_label: dict[str, list[LabelledImage]] = {}
    for item in additions:
        by_label.setdefault(item.label, []).append(item)

    labels = references.labels
    last_index = {label: idx for idx, label in enumerate(labels)}

    merged: list[LabelledImage] = []
    for idx, item in enumerate(references):
        merged.append(item)
        if last_index[item.label] == idx and item.label in by_label:
            merged.extend(by_label.pop(item.label))
    for label in [item.label for item in additions if item.label in by_label]:
        if label in by_label:
            merged.extend(by_label.pop(label))
    return ImageDataset(
        name=name or f"{references.name}+enrolled", items=tuple(merged)
    )


def enrollment_views(
    label: str,
    base_class: str,
    config: ExperimentConfig | None = None,
    views: int = 4,
    model_id: str | None = None,
    seed: int | None = None,
) -> list[LabelledImage]:
    """Render seeded views of a fresh model to enroll under *label*.

    The synthetic substrate only knows the ten canon classes, so a "novel"
    object is a newly sampled, maximally heterogeneous model of
    *base_class*, relabelled — visually plausible, but guaranteed distinct
    pixels from every library render (different model parameters and
    shading stream).
    """
    if views < 1:
        raise EnrollmentError(f"need at least one view, got {views}")
    config = config or ExperimentConfig()
    model_name = model_id or f"{label}_enrolled_m0"
    model_rng = spawn(make_rng(config.seed if seed is None else seed), model_name)
    model = sample_model(base_class, model_name, model_rng, heterogeneity=1.0)
    items: list[LabelledImage] = []
    for view_idx in range(views):
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
                label=label,
                source="enrolled",
                model_id=model_name,
                view_id=view_idx,
            )
        )
    return items
