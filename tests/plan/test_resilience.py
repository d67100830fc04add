"""Overload resilience: shedding, deadlines, breaker, chaos, client retries.

The acceptance scenario of this layer (docs/SERVING.md, "Overload
behavior"): under a burst exceeding ``max_queue_depth`` with a stalled
planner, hits keep being served, sheds are deterministic (a seeded
replay is byte-identical), and the breaker recovers to ``closed``.
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.counters import get_counter
from repro.plan import (
    CircuitBreaker,
    DeadlineExpiredError,
    DegradedError,
    DrainingError,
    OverloadedError,
    PlanClient,
    PlanService,
    PlanTimeoutError,
    RetryPolicy,
    ServeConfig,
)
from repro.plan.loadgen import LoadgenConfig, run_loadgen
from repro.plan.resilience import ServeChaos, parse_chaos
from repro.plan.service import _Pending

from .test_service import hold_batcher


def _service(**overrides):
    defaults = dict(persist=False, warm=False)
    defaults.update(overrides)
    return PlanService(ServeConfig(**defaults))


def _submit_quietly(svc, m, n, k, **kw):
    try:
        svc.submit(m, n, k, **kw)
    except Exception:
        pass


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# --------------------------------------------------------------------- #
# Circuit breaker (unit, fake clock)                                     #
# --------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_opens_on_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=3, cooldown_s=1.0, clock=clock)
        br.record_failure()
        br.record_failure()
        assert br.state == "closed" and br.admit()
        br.record_failure()
        assert br.state == "open"
        assert not br.admit()

    def test_success_resets_the_consecutive_count(self):
        br = CircuitBreaker(threshold=2, clock=FakeClock())
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"

    def test_half_open_probe_after_cooldown_single_slot(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        br.record_failure()
        assert br.state == "open"
        clock.t = 0.5
        assert not br.admit()  # still cooling down
        clock.t = 1.0
        assert br.admit()  # the probe
        assert br.state == "half_open"
        assert not br.admit()  # one probe at a time
        br.record_success()
        assert br.state == "closed"
        assert br.admit()

    def test_failed_probe_reopens_immediately(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=3, cooldown_s=1.0, clock=clock)
        for _ in range(3):
            br.record_failure()
        clock.t = 1.0
        assert br.admit()
        br.record_failure()  # one failure, not threshold, re-opens
        assert br.state == "open"
        clock.t = 1.5
        assert not br.admit()  # cooldown restarted at re-open
        clock.t = 2.0
        assert br.admit()

    def test_cancel_probe_releases_the_slot(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown_s=0.0, clock=clock)
        br.record_failure()
        assert br.admit()
        assert not br.admit()
        br.cancel_probe()
        assert br.admit()  # slot free again, no outcome recorded

    def test_zero_threshold_disables(self):
        br = CircuitBreaker(threshold=0, clock=FakeClock())
        for _ in range(10):
            br.record_failure()
        assert br.state == "closed" and br.admit()

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=-1.0)


# --------------------------------------------------------------------- #
# Retry policy + chaos spec (unit)                                       #
# --------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_backoff_schedule_is_seeded_and_identical(self):
        policy = RetryPolicy(max_retries=5, base_backoff_s=0.01, seed=42)
        a = [policy.backoff_s(i, policy.rng()) for i in range(5)]
        b = [policy.backoff_s(i, policy.rng()) for i in range(5)]
        assert a == b  # same seed, byte-identical schedule
        other = RetryPolicy(max_retries=5, base_backoff_s=0.01, seed=43)
        assert a != [other.backoff_s(i, other.rng()) for i in range(5)]

    def test_backoff_exponential_and_capped(self):
        policy = RetryPolicy(base_backoff_s=0.01, max_backoff_s=0.05)
        rng = policy.rng()
        for attempt in range(10):
            s = policy.backoff_s(attempt, rng)
            cap = min(0.05, 0.01 * 2 ** attempt)
            assert 0.5 * cap <= s < cap

    def test_should_retry_codes_and_budget(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry("overloaded", 0)
        assert policy.should_retry("timeout", 1)
        assert not policy.should_retry("overloaded", 2)  # budget spent
        assert not policy.should_retry("degraded", 0)  # breaker is open
        assert not policy.should_retry(None, 0)
        assert not RetryPolicy().should_retry("overloaded", 0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_s=-0.1)


class TestChaosSpec:
    def test_parse_round_trips(self):
        assert parse_chaos(None) is None
        assert parse_chaos("off") is None
        assert parse_chaos("  none ") is None
        assert parse_chaos("stall:0.5").spec() == "stall:0.5"
        assert parse_chaos("stall:0.5:3").spec() == "stall:0.5:3"
        assert parse_chaos("fail").spec() == "fail"
        assert parse_chaos("fail:2").spec() == "fail:2"

    @pytest.mark.parametrize(
        "spec", ["explode", "stall", "stall:abc", "fail:0", "stall:-1"]
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            parse_chaos(spec)

    def test_fail_chaos_exhausts_after_n_batches(self):
        chaos = ServeChaos("fail", batches=2)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="injected planner"):
                chaos.apply()
        chaos.apply()  # exhausted: no-op
        assert chaos.applied == 2


# --------------------------------------------------------------------- #
# Service: admission control + deterministic shedding                    #
# --------------------------------------------------------------------- #


def _run_shed_trace():
    """One seeded overload episode; returns the per-request outcomes."""
    outcomes = []
    svc = _service(max_queue_depth=2, chaos_spec="off")
    fillers = []
    try:
        svc.submit(512, 512, 512)  # prime the hit shape
        svc.arm_chaos("stall:1.5:1")
        # Wedge: the next miss dequeues alone and the batcher stalls.
        wedge = threading.Thread(
            target=_submit_quietly, args=(svc, 96, 96, 96)
        )
        wedge.start()
        fillers.append(wedge)
        time.sleep(0.3)  # batcher is now mid-stall
        # Hold the queue at capacity with background waiters.
        for i in range(2):
            t = threading.Thread(
                target=_submit_quietly, args=(svc, 97 + i, 96, 96)
            )
            t.start()
            fillers.append(t)
        time.sleep(0.2)  # both queued; depth == max_queue_depth
        trace = [
            (512, 512, 512), (200, 96, 96), (512, 512, 512),
            (201, 96, 96), (202, 96, 96),
        ]
        for m, n, k in trace:
            try:
                plan = svc.submit(m, n, k, timeout=10.0)
                outcomes.append(
                    "hit" if plan.provenance.startswith("cache") else "planned"
                )
            except OverloadedError:
                outcomes.append("overloaded")
    finally:
        svc.close()  # drains: the batcher flushes the fillers' work
        for t in fillers:
            t.join(timeout=10)
    return outcomes


class TestAdmissionControl:
    def test_sheds_at_the_bound_hits_unaffected_replay_identical(self):
        shed0 = get_counter("serve.shed")
        first = _run_shed_trace()
        # The decision depends only on queue depth at arrival: hits
        # bypass the queue entirely, every new miss is shed.
        assert first == [
            "hit", "overloaded", "hit", "overloaded", "overloaded"
        ]
        assert get_counter("serve.shed") - shed0 == 3
        # Seeded replay: a second episode makes byte-identical decisions.
        assert _run_shed_trace() == first

    def test_shed_error_is_structured(self):
        try:
            raise OverloadedError("x")
        except OverloadedError as exc:
            assert exc.code == "overloaded"
            assert isinstance(exc, ConfigurationError)


# --------------------------------------------------------------------- #
# Service: deadlines + abandoned waiters                                 #
# --------------------------------------------------------------------- #


class TestDeadlines:
    def test_waiter_never_blocks_past_its_deadline(self):
        svc = _service(chaos_spec="off")
        try:
            svc.arm_chaos("stall:1.0:1")
            wedge = threading.Thread(
                target=_submit_quietly, args=(svc, 96, 96, 96)
            )
            wedge.start()
            time.sleep(0.2)
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExpiredError) as err:
                svc.submit(128, 96, 96, timeout=10.0, deadline_ms=60.0)
            assert time.perf_counter() - t0 < 0.5  # not the 10s timeout
            assert err.value.code == "deadline_expired"
        finally:
            svc.close()
            wedge.join(timeout=10)

    def test_batcher_drops_expired_entries_before_planning(self):
        """An entry whose budget lapsed while queued is resolved with
        ``DeadlineExpiredError`` and never counted as planned work."""
        svc = _service()
        try:
            binding = svc._binding("fp16_fp32", "a100")
            now = time.perf_counter()
            pending = _Pending(
                binding, (64, 64, 64), now - 1.0, deadline_at=now - 0.5
            )
            unique0 = get_counter("serve.unique_shapes")
            expired0 = get_counter("serve.deadline_expired")
            with svc._cond:
                svc._queue.append(pending)
                svc._cond.notify_all()
            assert pending.event.wait(5.0)
            assert isinstance(pending.error, DeadlineExpiredError)
            assert get_counter("serve.deadline_expired") == expired0 + 1
            # Nothing was planned for it.
            assert get_counter("serve.unique_shapes") == unique0
        finally:
            svc.close()

    def test_nonpositive_deadline_rejected(self):
        with _service() as svc:
            with pytest.raises(ConfigurationError):
                svc.submit(64, 64, 64, deadline_ms=0.0)

    def test_timed_out_waiter_is_removed_from_the_queue(self):
        """The orphaned-pending fix: a waiter whose ``timeout`` lapses
        pulls its entry off the queue (``serve.abandoned``) so the
        batcher never plans work nobody will read."""
        svc = _service(chaos_spec="off")
        try:
            svc.arm_chaos("stall:1.0:1")
            wedge = threading.Thread(
                target=_submit_quietly, args=(svc, 96, 96, 96)
            )
            wedge.start()
            time.sleep(0.2)
            abandoned0 = get_counter("serve.abandoned")
            with pytest.raises(PlanTimeoutError) as err:
                svc.submit(160, 96, 96, timeout=0.05)
            assert err.value.code == "timeout"
            assert get_counter("serve.abandoned") == abandoned0 + 1
            with svc._cond:
                assert all(p.key != (160, 96, 96) for p in svc._queue)
        finally:
            svc.close()
            wedge.join(timeout=10)


# --------------------------------------------------------------------- #
# Service: breaker lifecycle under fail chaos                            #
# --------------------------------------------------------------------- #


class TestBreakerLifecycle:
    def test_open_degrade_probe_reopen_recover(self):
        svc = _service(
            chaos_spec="off",
            breaker_threshold=3,
            breaker_cooldown_s=0.15,
        )
        try:
            svc.submit(512, 512, 512)  # prime the hit shape
            open0 = get_counter("serve.breaker_open")
            closed0 = get_counter("serve.breaker_closed")
            svc.arm_chaos("fail:4")
            # Three consecutive batch failures open the breaker.
            for i in range(3):
                with pytest.raises(RuntimeError, match="injected planner"):
                    svc.submit(300 + i, 96, 96)
            assert svc._breaker.state == "open"
            assert get_counter("serve.breaker_open") == open0 + 1
            # Degraded: misses rejected fast, hits still served.
            with pytest.raises(DegradedError) as err:
                svc.submit(310, 96, 96)
            assert err.value.code == "degraded"
            assert svc.health()["state"] == "degraded"
            assert svc.submit(512, 512, 512).provenance.startswith("cache")
            # Cooldown, then a half-open probe that fails re-opens.
            time.sleep(0.2)
            with pytest.raises(RuntimeError, match="injected planner"):
                svc.submit(311, 96, 96)
            assert svc._breaker.state == "open"
            assert get_counter("serve.breaker_open") == open0 + 2
            # Chaos is exhausted: the next probe succeeds and recovers.
            time.sleep(0.2)
            plan = svc.submit(312, 96, 96)
            assert plan.provenance == "model"
            assert svc._breaker.state == "closed"
            assert get_counter("serve.breaker_closed") == closed0 + 1
            assert svc.health()["state"] == "serving"
        finally:
            svc.close()

    def test_breaker_disabled_never_degrades(self):
        svc = _service(chaos_spec="fail:5", breaker_threshold=0)
        try:
            for i in range(5):
                with pytest.raises(RuntimeError):
                    svc.submit(330 + i, 96, 96)
            assert svc._breaker.state == "closed"
            assert svc.submit(340, 96, 96).provenance == "model"
        finally:
            svc.close()

    def test_timed_out_probe_frees_the_half_open_slot(self):
        """A half-open probe whose waiter times out while still queued
        must release the probe slot on abandon — otherwise the breaker
        wedges half-open and every future miss is rejected forever."""
        svc = _service(
            chaos_spec="fail:1",
            breaker_threshold=1,
            breaker_cooldown_s=0.0,
        )
        try:
            with pytest.raises(RuntimeError, match="injected planner"):
                svc.submit(350, 96, 96)
            assert svc._breaker.state == "open"
            # Zero cooldown: the next miss is the half-open probe.  The
            # batcher is busy, so its timeout lapses while it is still
            # queued and the waiter abandons it.
            release = hold_batcher(svc)
            abandoned0 = get_counter("serve.abandoned")
            try:
                with pytest.raises(PlanTimeoutError):
                    svc.submit(351, 96, 96, timeout=0.05)
            finally:
                release.set()
            assert get_counter("serve.abandoned") == abandoned0 + 1
            assert svc._breaker.state == "half_open"
            # The slot is free again: a fresh probe is admitted and its
            # success recovers the breaker.
            plan = svc.submit(352, 96, 96, timeout=10.0)
            assert plan.provenance == "model"
            assert svc._breaker.state == "closed"
        finally:
            svc.close()

    def test_deadline_dropped_probe_frees_the_half_open_slot(self):
        """The batcher's deadline-expiry drop must release the probe
        slot too — the other way an admitted probe can die unplanned."""
        svc = _service(breaker_threshold=1, breaker_cooldown_s=0.0)
        try:
            br = svc._breaker
            br.record_failure()
            assert br.state == "open"
            assert br.admit()  # this caller is the probe
            assert br.state == "half_open"
            assert not br.admit()  # slot held
            binding = svc._binding("fp16_fp32", "a100")
            now = time.perf_counter()
            pending = _Pending(
                binding, (64, 64, 64), now - 1.0,
                deadline_at=now - 0.5, probe=True,
            )
            with svc._cond:
                svc._queue.append(pending)
                svc._cond.notify_all()
            assert pending.event.wait(5.0)
            assert isinstance(pending.error, DeadlineExpiredError)
            assert br.admit()  # slot released by the drop path
        finally:
            svc.close()


# --------------------------------------------------------------------- #
# Service: lifecycle introspection                                       #
# --------------------------------------------------------------------- #


class TestLifecycle:
    def test_drain_rejects_new_queries_keeps_answering(self):
        svc = _service()
        svc.submit(64, 64, 64)
        svc.drain()
        with pytest.raises(DrainingError) as err:
            svc.submit(65, 64, 64)
        assert err.value.code == "draining"
        assert svc.stats()["state"] == "draining"
        assert svc.health()["state"] == "draining"
        svc.close()

    def test_stats_and_health_never_raise_after_close(self):
        svc = _service()
        svc.submit(64, 64, 64)
        svc.close()
        stats = svc.stats()
        assert stats["state"] == "closed"
        assert stats["batcher_alive"] is False
        assert stats["requests"] == 1
        assert svc.health()["state"] == "closed"
        svc.close()  # idempotent

    def test_health_shape(self):
        with _service(max_queue_depth=7) as svc:
            svc.submit(64, 64, 64)
            health = svc.health()
            assert health["state"] == "serving"
            assert health["queue_depth"] == 0
            assert health["max_queue_depth"] == 7
            assert health["breaker"] == "closed"
            assert health["requests"] == 1
            assert health["shed"] == 0 and health["shed_rate"] == 0.0
            assert health["uptime_s"] > 0

    def test_chaos_not_allowed_without_spec(self):
        with _service() as svc:
            assert not svc.chaos_allowed
            with pytest.raises(ConfigurationError):
                svc.arm_chaos("fail:1")

    def test_late_drain_rejection_is_counted(self):
        """The draining check under ``_cond`` (taken when drain lands
        between admission and enqueue) must count the rejection just
        like the entry-point check."""
        svc = _service()
        try:
            real_admit = svc._breaker.admit

            def admit_then_drain():
                ok = real_admit()
                svc._draining = True  # drain races in after admission
                return ok

            svc._breaker.admit = admit_then_drain
            before = get_counter("serve.draining_rejected")
            with pytest.raises(DrainingError):
                svc.submit(64, 64, 64)
            assert get_counter("serve.draining_rejected") == before + 1
            with svc._stats_lock:
                assert svc._draining_rejects == 1
        finally:
            svc.close()

    def test_shed_rate_counts_shed_requests_once(self):
        """``serve.requests`` is incremented before the shed decision,
        so shed requests are already in the denominator — 50 sheds out
        of 100 requests is a 0.5 rate, not 0.33."""
        with _service() as svc:
            with svc._stats_lock:
                svc._requests_total = 100
                svc._shed = 50
            assert svc.health()["shed_rate"] == 0.5

    def test_close_with_wedged_batcher_skips_flush(self):
        """If the batcher outlives the join timeout, close() must not
        flush plan shards under the still-live writer, and stats() must
        keep reporting the thread as alive."""
        svc = _service()
        real_batcher = svc._batcher
        try:
            svc.submit(64, 64, 64)
            flushed = []
            for binding in svc._bindings.values():
                binding.cache.flush = lambda: flushed.append(True)

            class Wedged:
                def join(self, timeout=None):
                    pass

                def is_alive(self):
                    return True

            svc._batcher = Wedged()
            wedged0 = get_counter("serve.close_wedged")
            svc.close()
            assert not flushed
            assert get_counter("serve.close_wedged") == wedged0 + 1
            stats = svc.stats()
            assert stats["state"] == "closed"
            assert stats["batcher_alive"] is True
        finally:
            # close() set _stop and notified, so the real batcher exits.
            real_batcher.join(timeout=10)
            assert not real_batcher.is_alive()


# --------------------------------------------------------------------- #
# Loadgen: client-side retries (in-process)                              #
# --------------------------------------------------------------------- #


class TestLoadgenRetries:
    def test_sheds_are_retried_and_reported(self):
        # Every batch stalls 50 ms, so the depth-1 miss queue stays full.
        svc = _service(max_queue_depth=1, chaos_spec="stall:0.05")
        try:
            report = run_loadgen(
                LoadgenConfig(
                    requests=128,
                    universe=64,
                    zipf_s=0.0,
                    seed=3,
                    clients=8,
                    retries=6,
                    backoff_ms=2.0,
                    timeout_s=30.0,
                ),
                service=svc,
            )
        finally:
            svc.close()
        assert report["completed"] + report["failed"] == 128
        # 8 clients against a depth-1 miss queue: sheds happen, and the
        # seeded backoff retries them.
        assert report["retries"] > 0
        if report["failed"]:
            assert set(report["outcomes"]) <= {"overloaded", "timeout"}


# --------------------------------------------------------------------- #
# PlanClient: hedging + stale-reply hygiene (scripted stub server)       #
# --------------------------------------------------------------------- #


def _stub_server(first_reply_delay_s):
    """A JSONL echo server that delays the very first request only.

    Returns ``(port, close)``.  ``close`` shuts the listener down before
    closing it: closing the fd alone does not wake a thread blocked in
    ``accept()`` on Linux, which would leave the port listening.
    """
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(8)
    state = {"first": True}
    lock = threading.Lock()

    def conn_loop(conn):
        fh = conn.makefile("rwb")
        for line in iter(fh.readline, b""):
            msg = json.loads(line)
            with lock:
                first, state["first"] = state["first"], False
            if first:
                time.sleep(first_reply_delay_s)
            fh.write((json.dumps({
                "ok": True, "id": msg.get("id"), "cache": "hit",
                "plan": {"m": msg.get("m")},
            }) + "\n").encode("utf-8"))
            fh.flush()
        conn.close()

    def accept_loop():
        while True:
            try:
                conn, _ = srv.accept()
            except OSError:
                return
            threading.Thread(target=conn_loop, args=(conn,), daemon=True).start()

    acceptor = threading.Thread(target=accept_loop, daemon=True)
    acceptor.start()

    def close():
        srv.shutdown(socket.SHUT_RDWR)
        srv.close()
        acceptor.join(timeout=5.0)
        assert not acceptor.is_alive()

    return srv.getsockname()[1], close


class TestPlanClientHedging:
    def test_hedge_wins_and_stale_loser_reply_is_skipped(self):
        port, close = _stub_server(first_reply_delay_s=0.6)
        try:
            with PlanClient(
                "127.0.0.1", port,
                timeout_s=5.0, hedge_ms=60.0,
            ) as client:
                # First request: the primary connection stalls, the
                # hedge connection answers.
                reply = client.plan(100, 100, 100)
                assert reply["ok"] and reply["plan"]["m"] == 100
                assert client.stats["hedges"] == 1
                assert client.stats["hedge_wins"] == 1
                # Let the loser's (stale) reply land in the primary's
                # buffer, then issue a second request on it: the stale
                # reply must be skipped, not misattributed.
                time.sleep(0.8)
                reply = client.plan(200, 200, 200)
                assert reply["ok"] and reply["plan"]["m"] == 200
                assert client.stats["hedges"] == 1  # no second hedge
                assert client.stats["requests"] == 2
                assert client.stats["failures"] == 0
        finally:
            close()

    def test_retries_synthesize_timeout_code_on_dead_server(self):
        # A bound socket that never listens refuses every connection,
        # and holding it open keeps the port from being reused.
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as dead:
            dead.bind(("127.0.0.1", 0))
            host, port = dead.getsockname()
            with PlanClient(
                host, port, timeout_s=0.2,
                retry=RetryPolicy(max_retries=2, base_backoff_s=0.001),
            ) as client:
                reply = client.plan(64, 64, 64)
                assert not reply["ok"]
                assert reply["code"] == "timeout"
                assert client.stats["retries"] == 2
                assert client.stats["failures"] == 1
