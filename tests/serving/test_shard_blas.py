"""Every shard worker runs NumPy's OpenBLAS on one thread.

A shard worker is one unit of parallelism: the certified bound's matmul on
every core in every worker oversubscribes a small host.  The pool
initializer caps each worker through OpenBLAS's runtime setter; these tests
read the count back inside the workers, before and after a pool rebuild,
and check that the front-end process keeps the host's setting.
"""

import contextlib
import ctypes
import io
import os
import time

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.engine.cache import FeatureCache
from repro.serving import shards
from repro.serving.shards import ShardedRecognitionService
from repro.store import build_store

from tests.serving.test_sharded import grouped_set

#: OpenBLAS thread-count getters: NumPy 2's bundled copy, NumPy 1's, a system one.
GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _numpy_names_openblas() -> bool:
    shown = io.StringIO()
    with contextlib.redirect_stdout(shown):
        np.show_config()
    return "openblas" in shown.getvalue().lower()


pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def blas_threads() -> list[int]:
    """This process's OpenBLAS thread count, one entry per loaded copy."""
    counts = []
    for library in shards._loaded_openblas():
        for symbol in GETTERS:
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
    return counts


def worker_blas_threads() -> tuple[int, list[int]]:
    # Long enough that every idle worker picks up one of the submissions.
    time.sleep(0.05)
    return os.getpid(), blas_threads()


def every_worker(service: ShardedRecognitionService) -> dict[int, list[int]]:
    """Thread counts keyed by worker pid, from every worker of the pool."""
    pool = service._pool
    seen: dict[int, list[int]] = {}
    for _ in range(20):  # until each worker has answered (a slow start may miss a round)
        futures = [pool.submit(worker_blas_threads) for _ in range(2 * service._pool_size())]
        seen.update(future.result(timeout=60.0) for future in futures)
        if set(seen) >= set(pool._processes):
            break
    assert set(seen) == set(pool._processes)
    return seen


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    config = ExperimentConfig(seed=7, nyu_scale=0.01)
    root = tmp_path_factory.mktemp("shard-blas")
    build_store(
        grouped_set(seed=41, count=12, name="blas-refs"),
        root / "store",
        bins=config.histogram_bins,
        families=("shape", "color"),
        cache=FeatureCache(disk_dir=str(root / "cache")),
    )
    return config, str(root / "store")


@pytest.mark.parametrize("symbol", [getter.replace("_get_", "_set_") for getter in GETTERS])
def test_the_cap_finds_every_known_setter(monkeypatch, symbol):
    """NumPy 2 wheels, NumPy 1 wheels and a system OpenBLAS each export the
    setter under their own name; the initializer must call whichever is there."""
    calls = []

    def setter(count):
        calls.append(count)

    class Library:
        pass

    setattr(Library, symbol, staticmethod(setter))
    monkeypatch.setattr(shards, "_loaded_openblas", lambda: [Library()])
    shards._single_blas_thread()
    assert calls == [1]


@pytest.mark.skipif(
    not _numpy_names_openblas(),
    reason="np.show_config() names no OpenBLAS: no thread count to read",
)
def test_every_worker_runs_blas_on_one_thread_across_a_rebuild(store_dir):
    config, path = store_dir
    host = blas_threads()
    assert host, "NumPy names OpenBLAS, but no loaded copy was found"
    service = ShardedRecognitionService("shape-only", path, workers=2, config=config)
    with service:
        before = every_worker(service)
        service._rebuild_pool()
        after = every_worker(service)
        front_end = blas_threads()
    assert set(before).isdisjoint(after)  # the rebuild started fresh workers
    for threads in [*before.values(), *after.values()]:
        assert threads and all(count == 1 for count in threads), threads
    # The cap is a worker setting: the front-end keeps the host's BLAS.
    assert front_end == host
