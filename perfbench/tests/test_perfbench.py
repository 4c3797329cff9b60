"""The benchmark's own tests, at tiny sizes.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import re
import shutil
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.workloads import END_TO_END_UNITS, LAYER_DETAIL_UNITS, PER_LAYER_UNITS, WORKLOADS, Scale

ROOT = Path(__file__).resolve().parents[2]
TINY = Scale(fleet_models_per_class=1, fleet_views_per_model=5, pool_scale=0.005, working_set=4)
SEED = 3


@pytest.fixture
def enroll_twice(monkeypatch):
    """Two enrollments, so both land within a sub-second phase."""
    name = "revisit-enroll-82x2"
    monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(WORKLOADS[name], enrolls=2))


def _run(name, tmp_path, trace=False, seconds=0.4):
    return workloads.run_workload(name, SEED, seconds, trace, tmp_path, TINY)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_and_passes_the_gate(name, tmp_path, enroll_twice):
    tracker = resource_tracker._resource_tracker
    tracking = tracker._pid
    result = _run(name, tmp_path, trace=True)
    # Every process the run started has ended, and no helper process that
    # would outlive it was started (the fleet workloads render first).
    assert multiprocessing.active_children() == []
    assert tracker._pid == tracking
    assert result.problems == []
    assert result.correct
    assert result.attempted >= 1
    assert set(PER_LAYER_UNITS) <= set(result.metrics) <= set(PER_LAYER_UNITS) | set(LAYER_DETAIL_UNITS)
    w = WORKLOADS[name]
    if w.enrolls:
        assert result.summary["enroll_s"] > 0
        assert result.metrics["store.swap_s"] > 0
    if w.service == "sharded":
        assert result.metrics["shards.worker_score_ms"] > 0
    if w.service == "indexed":
        assert result.metrics["index.champion_ms_mean"] > 0
    assert result.metrics["batcher.queue_wait_ms_p50"] > 0
    assert not (tmp_path / ".perfbench-work").exists() or not any(
        (tmp_path / ".perfbench-work").iterdir()
    )


def test_every_benchmark_metric_is_printed_with_a_unit(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS)
    for listed in spec["workloads"]:
        assert WORKLOADS[listed["name"]].why == listed["why"]
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = _run("stream-82", tmp_path, trace=trace)
        printed = json.loads(run.result_line(result, trace))
        assert set(printed) == {"correct", "attempted", "failed", "metrics"}
        for metric in spec[section]:
            name = metric["name"]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert printed["metrics"][name]["unit"] == metric["unit"]
            assert isinstance(printed["metrics"][name]["value"], float)


def test_correctness_gate_fires_on_a_flipped_label(tmp_path, monkeypatch):
    from repro.pipelines.hybrid import HybridPipeline

    original = HybridPipeline.predict_batch

    def flip_one(self, queries):
        answers = original(self, queries)
        if answers:
            other = next(label for label in self.references.classes if label != answers[0].label)
            answers[0] = dataclasses.replace(answers[0], label=other)
        return answers

    monkeypatch.setattr(HybridPipeline, "predict_batch", flip_one)
    result = _run("stream-82", tmp_path)
    assert not result.correct
    assert any(p.startswith("correctness gate") for p in result.problems)


def test_gate_does_not_read_features_the_served_path_cached(tmp_path, monkeypatch):
    """A wrong feature cached by the served batch path must not pass."""
    import numpy as np

    import repro.pipelines.hybrid as hybrid

    original = hybrid.HybridPipeline.theta_scores_batch

    def cache_a_wrong_colour(self, queries):
        query = queries[0]
        namespace, version = self._color_keyspace
        self.cache.get_or_compute(
            namespace, version, query.image,
            lambda: np.roll(hybrid.color_features(query, bins=self.bins), 1),
        )
        return original(self, queries)

    monkeypatch.setattr(hybrid.HybridPipeline, "theta_scores_batch", cache_a_wrong_colour)
    result = _run("stream-82", tmp_path)
    assert any(p.startswith("correctness gate") for p in result.problems)


def test_cache_guard_fires_on_a_prewarmed_cache(tmp_path, monkeypatch):
    from repro.engine.cache import default_cache
    from repro.serving.registry import default_registry

    from perfbench import inputs

    workloads.reset_caches()
    frames = inputs.FreshFrames(inputs.crop_pool(TINY.pool_scale), SEED)
    warm = default_registry().build("hybrid")
    warm.fit(inputs.sns1())
    warm.predict_batch([frames(i) for i in range(200)])
    assert len(default_cache()) > 0
    monkeypatch.setattr(workloads, "reset_caches", lambda: None)
    result = _run("stream-82", tmp_path)
    assert not result.correct
    assert any(p.startswith("cache guard") for p in result.problems)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-82", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
