"""PlanService: correctness under concurrency, coalescing, clean shutdown."""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.gpu.spec import resolve_gpu
from repro.obs.counters import get_counter
from repro.plan import PlanService, ServeConfig, plan_query
from repro.plan.service import _Pending


def _service(**overrides):
    defaults = dict(persist=False, warm=False)
    defaults.update(overrides)
    return PlanService(ServeConfig(**defaults))


def hold_batcher(svc):
    """Keep ``svc``'s batcher busy until the returned event is set.

    Queues one already-expired entry and gates ``_run_batch`` on the
    event, so the batcher has claimed a batch (and records no plan,
    batch or breaker outcome for it) while the caller queues misses
    behind it.  Only the first batch is gated.
    """
    real_run = svc._run_batch
    claimed, release = threading.Event(), threading.Event()

    def gated(batch):
        claimed.set()
        release.wait(10.0)
        del svc._run_batch  # later batches run ungated
        real_run(batch)

    svc._run_batch = gated
    now = time.perf_counter()
    wedge = _Pending(
        svc._binding("fp16_fp32", "a100"), (64, 64, 64), now, deadline_at=now
    )
    with svc._cond:
        svc._queue.append(wedge)
        svc._cond.notify_all()
    assert claimed.wait(5.0)
    return release


def wait_for_queue_depth(svc, depth, timeout=10.0):
    deadline = time.monotonic() + timeout
    while len(svc._queue) < depth:
        assert time.monotonic() < deadline, "queue never reached %d" % depth
        time.sleep(0.005)


class TestCorrectness:
    def test_served_plan_equals_cold_query(self):
        with _service() as svc:
            served = svc.submit(640, 384, 96, dtype="fp64", gpu="hypothetical_4sm")
            cold = plan_query(
                640, 384, 96, "fp64", resolve_gpu("hypothetical_4sm")
            )
            assert served == cold
            assert served.provenance == "model"

    def test_repeat_is_cache_hit(self):
        with _service() as svc:
            first = svc.submit(4096, 4096, 4096)
            again = svc.submit(4096, 4096, 4096)
            assert again == first
            assert again.provenance == "cache:hot"

    def test_mixed_bindings_do_not_cross_pollinate(self):
        with _service() as svc:
            a = svc.submit(512, 512, 512, dtype="fp16_fp32", gpu="a100")
            b = svc.submit(512, 512, 512, dtype="fp16_fp32", gpu="h100_sxm")
            assert a.gpu_fingerprint != b.gpu_fingerprint
            assert svc.submit(512, 512, 512, gpu="a100") == a
            assert svc.submit(512, 512, 512, gpu="h100_sxm") == b

    def test_rejects_nonpositive_shape(self):
        with _service() as svc:
            with pytest.raises(ConfigurationError):
                svc.submit(0, 128, 128)


class TestMicroBatching:
    def test_concurrent_misses_coalesce_into_few_batches(self):
        """24 distinct shapes submitted concurrently while the planner is
        busy must ride far fewer than 24 plan_batch calls."""
        shapes = [(256 + 16 * i, 384, 512 + 32 * i) for i in range(24)]
        batches0 = get_counter("serve.batches")
        # Whichever miss lands first is planned at once and stalls the
        # batcher; the rest queue up behind it.
        with _service(chaos_spec="stall:0.2:1") as svc:
            results = {}
            errors = []

            def worker(shape):
                try:
                    results[shape] = svc.submit(*shape)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(s,)) for s in shapes
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        assert not errors
        batches = get_counter("serve.batches") - batches0
        assert 1 <= batches <= 6  # 24 queries, a handful of batches
        gpu = resolve_gpu("a100")
        for shape, plan in results.items():
            assert plan == plan_query(*shape, "fp16_fp32", gpu)

    def test_misses_queued_behind_a_busy_batch_ride_one_batch(self):
        """Group commit: every miss that queues while a batch is being
        planned rides the single following batch, and each plan equals
        the cold scalar query."""
        shapes = [(320 + 32 * i, 448, 640 + 64 * i) for i in range(6)]
        with _service() as svc:
            release = hold_batcher(svc)
            results = {}

            def worker(shape):
                results[shape] = svc.submit(*shape)

            threads = [
                threading.Thread(target=worker, args=(s,)) for s in shapes
            ]
            try:
                for t in threads:
                    t.start()
                wait_for_queue_depth(svc, len(shapes))
            finally:
                release.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
            stats = svc.stats()
        assert stats["batches"] == 1
        assert stats["mean_batch_occupancy"] == len(shapes)
        gpu = resolve_gpu("a100")
        assert len(results) == len(shapes)
        for shape, plan in results.items():
            assert plan.provenance == "model"
            assert plan == plan_query(*shape, "fp16_fp32", gpu)

    def test_sequential_misses_are_planned_one_per_batch(self):
        """With nothing else queued there is nothing to wait for: each of
        N back-to-back misses is its own batch of one."""
        with _service() as svc:
            for i in range(5):
                svc.submit(200 + 8 * i, 256, 384)
            stats = svc.stats()
        assert stats["misses"] == 5
        assert stats["batches"] == 5
        assert stats["mean_batch_occupancy"] == 1.0

    def test_duplicate_inflight_queries_share_one_computation(self):
        shape = (1792, 896, 2048)
        uniq0 = get_counter("serve.unique_shapes")
        with _service() as svc:
            release = hold_batcher(svc)
            plans = []
            threads = [
                threading.Thread(
                    target=lambda: plans.append(svc.submit(*shape))
                )
                for _ in range(8)
            ]
            try:
                for t in threads:
                    t.start()
                wait_for_queue_depth(svc, 8)
            finally:
                release.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        assert len(plans) == 8 and len(set(plans)) == 1
        # All 8 waiters rode one batch, and the planner priced the shape
        # once (the held wedge is dropped unplanned).
        assert get_counter("serve.unique_shapes") - uniq0 == 1

    def test_stats_report_shape(self):
        with _service() as svc:
            svc.submit(512, 512, 512)
            svc.submit(512, 512, 512)
            stats = svc.stats()
        assert stats["requests"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["batches"] >= 1
        assert stats["miss_p99_us"] > 0
        assert stats["bindings"] == ["fp16_fp32@a100"]

    def test_latency_window_bounded_totals_exact(self, monkeypatch):
        """Percentiles cover the last LATENCY_WINDOW samples; request,
        hit and batch totals keep counting past it."""
        from repro.plan import service as service_mod

        monkeypatch.setattr(service_mod, "LATENCY_WINDOW", 4)
        with _service() as svc:
            for _ in range(10):
                svc.submit(512, 512, 512)
            stats = svc.stats()
            assert len(svc._hit_lat) == 4
        assert stats["requests"] == 10
        assert stats["hits"] == 9 and stats["misses"] == 1
        assert stats["batches"] == 1 and stats["mean_batch_occupancy"] == 1.0
        assert stats["hit_p50_us"] > 0


class TestBeginWait:
    """The non-blocking split of submit() the socket front end uses."""

    def test_hit_returns_plan_miss_calls_back_on_batcher(self):
        with _service() as svc:
            done = threading.Event()
            seen = []

            def on_done(pending):
                seen.append(threading.current_thread().name)
                done.set()

            pending = svc.begin(512, 512, 512, on_done=on_done)
            assert isinstance(pending, _Pending)
            assert done.wait(10.0)
            assert seen == ["plan-batcher"]
            plan = svc.result(pending)
            assert plan.provenance == "model"
            assert plan == plan_query(512, 512, 512, "fp16_fp32",
                                      resolve_gpu("a100"))
            hit = svc.begin(512, 512, 512, on_done=on_done)
            assert hit.provenance == "cache:hot" and hit == plan
            assert len(seen) == 1  # hits never call back
            stats = svc.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_expire_pulls_queued_entry_and_names_the_deadline(self):
        svc = _service()
        release = hold_batcher(svc)
        try:
            pending = svc.begin(640, 384, 96, deadline_ms=1.0,
                                on_done=lambda p: None)
            time.sleep(0.01)
            abandoned0 = get_counter("serve.abandoned")
            err = svc.expire(pending)
            assert err.code == "deadline_expired"
            assert get_counter("serve.abandoned") == abandoned0 + 1
            with svc._cond:
                assert pending not in svc._queue
        finally:
            release.set()
            svc.close()


class TestShutdown:
    def test_submit_after_close_raises(self):
        svc = _service()
        svc.submit(256, 256, 256)
        svc.close()
        with pytest.raises(ConfigurationError):
            svc.submit(256, 256, 256)

    def test_close_is_idempotent(self):
        svc = _service()
        svc.close()
        svc.close()

    def test_close_flushes_persistent_shard(self, tmp_path):
        svc = PlanService(
            ServeConfig(warm=False, persist=True, cache_dir=str(tmp_path))
        )
        plan = svc.submit(640, 384, 96)
        svc.close()
        from repro.plan import PlanCache

        reloaded = PlanCache(
            resolve_gpu("a100"), "fp16_fp32", cache_dir=str(tmp_path)
        )
        assert reloaded.get(640, 384, 96) == plan
