"""Input generation: query frames, reference libraries, enrollment views.

Everything here is input generation, not program work: it runs before the
set-up clock starts and its cost is never reported.

What the robots know and what exists in their world is fixed, as in a
deployment: the reference libraries (SNS1 and the 10k-view fleet library)
and the pool of NYU-style objects are rendered from constant seeds.  What
they see is drawn from the run's ``--seed``: the order objects come into
view and each frame's sensor noise.  The classes enrolled live and the
open-loop arrival schedule are part of the fixed world too.  A
seed-dependent object pool or enrolled class made top-1 accuracy swing by
a tenth between seeds; a seed-dependent schedule put different bursts in
each run and made p99 latency swing by a quarter.  The fleet library
is cached on disk inside the checkout because rendering it takes longer
than a whole run.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np

from repro.config import ExperimentConfig, rng as make_rng, spawn
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.datasets.nyu import build_nyu
from repro.datasets.shapenet import build_reference_library, build_sns1
from repro.openset.enroll import enrollment_views

#: Seeds of the fixed libraries, object pool and arrival schedule (see the
#: module docstring).
LIBRARY_SEED = 7
POOL_SEED = 7
SCHEDULE_SEED = 7

#: Share of Table 1's NYU cardinality rendered as the crop pool a run's
#: frames are drawn from (349 crops).
POOL_SCALE = 0.05


def sns1() -> ImageDataset:
    """The paper's 82-view ShapeNetSet1 reference library."""
    return build_sns1(ExperimentConfig(seed=LIBRARY_SEED))


def crop_pool(scale: float = POOL_SCALE) -> list[LabelledImage]:
    """The NYU-style crops that frames are derived from."""
    return list(build_nyu(ExperimentConfig(seed=POOL_SEED, nyu_scale=scale)))


class FreshFrames:
    """Frame *i* of a camera stream: a pool crop under fresh sensor noise.

    Every frame has new pixels (a seeded gain and Gaussian noise on the
    foreground; the black segmentation mask stays exactly black), so no
    frame can hit a feature cache.  The noise is faint, so a frame's answer
    is almost always its crop's answer and top-1 accuracy does not depend
    on which noise a seed drew.  Frames are a pure function of
    ``(seed, i)``, so the correctness gate regenerates them instead of
    keeping every served image alive.
    """

    def __init__(self, pool: list[LabelledImage], seed: int) -> None:
        self.pool = pool
        self.seed = seed
        self.order = spawn(make_rng(seed), "frame-order").permutation(len(pool))

    def __call__(self, index: int) -> LabelledImage:
        base = self.pool[int(self.order[index % len(self.pool)])]
        rng = np.random.default_rng([self.seed, index])
        gain = rng.uniform(0.995, 1.005)
        noise = rng.normal(0.0, 0.002, base.image.shape)
        foreground = (base.image.sum(axis=-1) > 0.0)[..., None]
        image = np.where(
            foreground, np.clip(base.image * gain + noise, 0.0, 1.0), 0.0
        )
        return dataclasses.replace(base, image=image, view_id=index)


class RevisitFrames:
    """Frame *i* is one of a small fixed working set of pool crops, the
    same objects met again in a seeded order.

    The order runs through seeded permutations of the working set, so every
    object is met equally often and accuracy does not depend on the seed.
    """

    def __init__(self, pool: list[LabelledImage], seed: int, size: int) -> None:
        chosen = spawn(make_rng(POOL_SEED), "working-set").permutation(len(pool))
        self.working_set = [pool[int(i)] for i in chosen[:size]]
        rng = spawn(make_rng(seed), "revisit-order")
        self.order = np.concatenate([rng.permutation(size) for _ in range(4096 // size + 1)])

    def slot(self, index: int) -> int:
        """Working-set position of frame *index*."""
        return int(self.order[index % len(self.order)])

    def __call__(self, index: int) -> LabelledImage:
        return self.working_set[self.slot(index)]


def enrollment_batches(events: int, views: int = 2) -> list[list[LabelledImage]]:
    """One batch of views of a new class per enrollment event."""
    from repro.datasets.classes import CLASS_NAMES

    config = ExperimentConfig(seed=LIBRARY_SEED)
    return [
        enrollment_views(
            f"novel{event}",
            CLASS_NAMES[event % len(CLASS_NAMES)],
            config,
            views=views,
            seed=LIBRARY_SEED * 1000 + event,
        )
        for event in range(events)
    ]


def _render_library(cache_dir: Path, stem: str, models_per_class: int, views_per_model: int) -> None:
    library = build_reference_library(
        ExperimentConfig(seed=LIBRARY_SEED),
        models_per_class=models_per_class,
        views_per_model=views_per_model,
    )
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache_dir / f".{stem}.{os.getpid()}.npy"
    first = library[0].image
    # Filled item by item, so the pixels are never held twice.
    out = np.lib.format.open_memmap(
        tmp, mode="w+", dtype=first.dtype, shape=(len(library), *first.shape)
    )
    for row, item in enumerate(library):
        out[row] = item.image
    out.flush()
    del out
    os.replace(tmp, cache_dir / f"{stem}.npy")
    rows = [[i.label, i.source, i.model_id, i.view_id] for i in library]
    tmp_meta = cache_dir / f".{stem}.{os.getpid()}.json"
    tmp_meta.write_text(json.dumps({"name": library.name, "rows": rows}))
    os.replace(tmp_meta, cache_dir / f"{stem}.json")


def fleet_library(
    cache_dir: Path, models_per_class: int, views_per_model: int
) -> ImageDataset:
    """The fixed fleet library, rendered once per checkout then mapped.

    A forked child process renders it, so the benchmark process never
    holds the rendered pixels.  (Forked, not spawned: spawning starts
    multiprocessing's resource tracker, a helper process that outlives the
    benchmark by however long it takes to notice the exit.)  The images are
    read-only memory-mapped views of one
    ``.npy`` stack, so they cost no anonymous memory and drop out of
    residence once the program has extracted their features.
    """
    stem = f"library-{LIBRARY_SEED}-{models_per_class}x{views_per_model}"
    pixels = cache_dir / f"{stem}.npy"
    meta = cache_dir / f"{stem}.json"
    if not (pixels.is_file() and meta.is_file()):
        child = multiprocessing.get_context("fork").Process(
            target=_render_library,
            args=(cache_dir, stem, models_per_class, views_per_model),
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"rendering the fleet library failed (exit {child.exitcode})")
    stack = np.load(pixels, mmap_mode="r")
    info = json.loads(meta.read_text())
    if stack.shape[0] != len(info["rows"]):
        raise RuntimeError(f"library cache {pixels} does not match {meta}")
    items = tuple(
        LabelledImage(image=stack[i], label=label, source=source, model_id=model, view_id=view)
        for i, (label, source, model, view) in enumerate(info["rows"])
    )
    return ImageDataset(name=info["name"], items=items)
