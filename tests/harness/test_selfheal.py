"""Self-healing sharded evaluation + evaluation-cache quarantine.

The acceptance bar: killing or failing a pool worker mid-sweep must
yield the bitwise-exact corpus result through retry or serial fallback,
with every recovery step visible in the ``harness.*`` obs counters.
"""

import gc
import os
import warnings

import numpy as np
import pytest

from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.gemm import FP64
from repro.gpu import A100
from repro.harness import parallel
from repro.harness.parallel import (
    _resolve_jobs,
    clear_eval_memo,
    corpus_fingerprint,
    evaluate_corpus_cached,
    evaluate_corpus_sharded,
)
from repro.harness.vectorized import evaluate_corpus
from repro.obs.counters import get_counter, reset_counters

from .test_parallel import assert_timings_equal


@pytest.fixture(scope="module")
def shapes():
    return generate_corpus(CorpusSpec(size=700))


@pytest.fixture(scope="module")
def reference(shapes):
    return evaluate_corpus(shapes, FP64, A100)


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    clear_eval_memo()
    reset_counters()
    monkeypatch.setattr(parallel, "_SHARD_FAULT_HOOK", None)
    yield
    clear_eval_memo()
    reset_counters()


def _raise_on_first_attempt(shard_index, attempt):
    if attempt == 0:
        raise RuntimeError("injected shard failure (shard %d)" % shard_index)


def _crash_shard0_attempt0(shard_index, attempt):
    if shard_index == 0 and attempt == 0:
        os._exit(1)  # hard worker death: the result never arrives


def _always_raise(shard_index, attempt):
    raise RuntimeError("permanently failing shard %d" % shard_index)


class TestRetry:
    def test_failing_workers_retry_to_exact_result(
        self, shapes, reference, monkeypatch
    ):
        monkeypatch.setattr(
            parallel, "_SHARD_FAULT_HOOK", _raise_on_first_attempt
        )
        got = evaluate_corpus_sharded(
            shapes, FP64, A100, jobs=2, shard_rows=350, retry_backoff_s=0.0
        )
        assert_timings_equal(got, reference)
        assert get_counter("harness.shard_failures") == 2  # both shards
        assert get_counter("harness.shard_retries") == 2
        assert get_counter("harness.shards_ok") == 2
        assert get_counter("harness.shard_serial_fallbacks") == 0

    def test_crashed_worker_times_out_and_retries(
        self, shapes, reference, monkeypatch
    ):
        monkeypatch.setattr(
            parallel, "_SHARD_FAULT_HOOK", _crash_shard0_attempt0
        )
        got = evaluate_corpus_sharded(
            shapes,
            FP64,
            A100,
            jobs=2,
            shard_rows=350,
            shard_timeout=5.0,
            retry_backoff_s=0.0,
        )
        assert_timings_equal(got, reference)
        assert get_counter("harness.shard_timeouts") >= 1
        assert get_counter("harness.shard_retries") >= 1

    def test_exhausted_retries_fall_back_to_serial(
        self, shapes, reference, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_SHARD_FAULT_HOOK", _always_raise)
        got = evaluate_corpus_sharded(
            shapes,
            FP64,
            A100,
            jobs=2,
            shard_rows=350,
            max_retries=1,
            retry_backoff_s=0.0,
        )
        assert_timings_equal(got, reference)
        assert get_counter("harness.shard_serial_fallbacks") == 2
        assert get_counter("harness.shard_retries") == 2  # one per shard
        assert get_counter("harness.shards_ok") == 0

    def test_unusable_pool_degrades_to_all_serial(
        self, shapes, reference, monkeypatch
    ):
        class BrokenCtx:
            def Pool(self, processes):
                raise OSError("fork denied")

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", lambda: BrokenCtx()
        )
        got = evaluate_corpus_sharded(shapes, FP64, A100, jobs=2, shard_rows=350)
        assert_timings_equal(got, reference)
        assert get_counter("harness.pool_unusable") == 1
        assert get_counter("harness.shard_serial_fallbacks") == 2


class TestResolveJobs:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert _resolve_jobs(0) == 3
        assert _resolve_jobs(-1) == 3

    def test_falls_back_without_affinity(self, monkeypatch):
        def boom(pid):
            raise OSError("no affinity syscall")

        monkeypatch.setattr(os, "sched_getaffinity", boom)
        assert _resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_explicit_values_pass_through(self):
        assert _resolve_jobs(None) == 1
        assert _resolve_jobs(1) == 1
        assert _resolve_jobs(7) == 7

    def test_empty_affinity_mask_clamps_to_one(self, monkeypatch):
        """Constrained cgroups can expose an empty mask; never build a
        zero-worker pool (regression: used to return 0)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set())
        assert _resolve_jobs(0) == 1
        assert _resolve_jobs(-4) == 1

    def test_one_element_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert _resolve_jobs(0) == 1

    def test_affinity_valueerror_falls_back(self, monkeypatch):
        def refuse(pid):
            raise ValueError("affinity mask unavailable")

        monkeypatch.setattr(os, "sched_getaffinity", refuse)
        assert _resolve_jobs(0) == max(1, os.cpu_count() or 1)


class TestEvalCacheQuarantine:
    def _entry_path(self, tmp_path, shapes):
        key = corpus_fingerprint(shapes, FP64, A100)
        return parallel._eval_entry_path(str(tmp_path), key)

    def test_corrupt_artifact_quarantined_and_recomputed(
        self, shapes, tmp_path
    ):
        small = shapes[:64]
        evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        path = self._entry_path(tmp_path, small)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"\x00not a zip archive")
        clear_eval_memo()
        res = evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        assert_timings_equal(res, evaluate_corpus(small, FP64, A100))
        assert os.path.exists(path + ".corrupt")
        assert get_counter("evalcache.corrupt_quarantined") == 1
        # Recomputation re-stored a clean artifact under the original name.
        assert os.path.exists(path)

    def test_truncated_zip_quarantined(self, shapes, tmp_path):
        small = shapes[:64]
        evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        path = self._entry_path(tmp_path, small)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])  # valid zip magic, torn tail
        clear_eval_memo()
        evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        assert os.path.exists(path + ".corrupt")
        assert get_counter("evalcache.corrupt_quarantined") == 1

    def test_truncated_zip_closes_its_file(self, shapes, tmp_path):
        """A torn artifact is a quarantined miss that leaves no file open
        (regression: np.load kept the path it opened when the zip was
        truncated, seen as ``ResourceWarning: unclosed file``)."""
        small = shapes[:64]
        evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        key = corpus_fingerprint(small, FP64, A100)
        path = self._entry_path(tmp_path, small)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        gc.collect()  # earlier tests' garbage must not warn in the block
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parallel._load_eval(path, key) is None
            gc.collect()
        assert os.path.exists(path + ".corrupt")
        assert get_counter("evalcache.corrupt_quarantined") == 1
        leaks = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning) and path in str(w.message)
        ]
        assert leaks == []

    def test_enospc_store_degrades_without_partial_files(
        self, shapes, tmp_path, monkeypatch
    ):
        """A full disk during the atomic publish leaves no temp file, a
        ``evalcache.write_failed`` count, and an unharmed result."""
        import errno

        small = shapes[:64]

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(parallel.os, "replace", no_space)
        res = evaluate_corpus_cached(small, FP64, A100, cache_dir=str(tmp_path))
        assert_timings_equal(res, evaluate_corpus(small, FP64, A100))
        assert get_counter("evalcache.write_failed") == 1
        eval_dir = os.path.join(str(tmp_path), "eval")
        leftovers = [
            p for p in os.listdir(eval_dir) if p.endswith(".tmp")
        ] if os.path.isdir(eval_dir) else []
        assert leftovers == []
        assert not os.path.exists(self._entry_path(tmp_path, small))

    def test_enospc_paramcache_store_counts_and_continues(
        self, monkeypatch, tmp_path
    ):
        import errno

        from repro.gemm.tiling import Blocking
        from repro.model import paramcache
        from repro.model.paramcache import calibrate_cached, clear_memory_cache

        clear_memory_cache()
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(paramcache.os, "replace", no_space)
        params = calibrate_cached(
            A100, Blocking(*FP64.default_blocking), FP64,
            cache_dir=str(tmp_path),
        )
        assert params is not None  # calibration itself unharmed
        assert get_counter("paramcache.write_failed") == 1
        calib_dir = os.path.join(str(tmp_path), "calibration")
        leftovers = [
            p for p in os.listdir(calib_dir) if p.endswith(".tmp")
        ] if os.path.isdir(calib_dir) else []
        assert leftovers == []
        clear_memory_cache()

    def test_key_mismatch_is_a_miss_not_corruption(self, shapes, tmp_path):
        a, b = shapes[:64], shapes[:65]
        evaluate_corpus_cached(a, FP64, A100, cache_dir=str(tmp_path))
        path_a = self._entry_path(tmp_path, a)
        path_b = self._entry_path(tmp_path, b)
        # Impersonate corpus B with A's (valid, wrong-key) artifact.
        os.replace(path_a, path_b)
        clear_eval_memo()
        res = evaluate_corpus_cached(b, FP64, A100, cache_dir=str(tmp_path))
        assert_timings_equal(res, evaluate_corpus(b, FP64, A100))
        assert not os.path.exists(path_b + ".corrupt")
        assert get_counter("evalcache.corrupt_quarantined") == 0
