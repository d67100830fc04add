"""JSONL-over-TCP front-end: the docs/SERVING.md wire contract, live."""

import json
import selectors
import socket
import sys
import threading
import time

import pytest

from repro.gpu.spec import resolve_gpu
from repro.obs.counters import get_counter, reset_counters
from repro.plan import PlanServer, PlanService, ServeConfig, plan_query
from repro.plan.server import MAX_UNSENT_BYTES


def _start(config=None, **kw):
    service = PlanService(config or ServeConfig(persist=False, warm=False))
    return PlanServer(service, port=0, **kw).start()


def _rpc(fh, msg):
    fh.write((json.dumps(msg) + "\n").encode("utf-8"))
    fh.flush()
    return json.loads(fh.readline().decode("utf-8"))


class TestProtocol:
    def test_plan_stats_shutdown_session(self):
        server = _start()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")

                reply = _rpc(fh, {
                    "op": "plan", "m": 512, "n": 512, "k": 4096, "id": 7,
                    "dtype": "fp16_fp32", "gpu": "a100",
                })
                assert reply["ok"] and reply["id"] == 7
                assert reply["cache"] == "miss"
                assert reply["server_latency_us"] > 0
                expect = plan_query(
                    512, 512, 4096, "fp16_fp32", resolve_gpu("a100")
                )
                assert reply["plan"]["kind"] == expect.kind
                assert reply["plan"]["g"] == expect.g
                assert reply["plan"]["time_s"] == expect.time_s

                again = _rpc(fh, {"op": "plan", "m": 512, "n": 512, "k": 4096})
                assert again["cache"] == "hit"
                assert again["plan"]["g"] == expect.g

                stats = _rpc(fh, {"op": "stats"})
                assert stats["ok"]
                assert stats["stats"]["requests"] == 2
                assert stats["stats"]["hits"] == 1

                bye = _rpc(fh, {"op": "shutdown"})
                assert bye["ok"] and bye["bye"]
        finally:
            server.stop()

    def test_errors_keep_connection_usable(self):
        server = _start()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                # Malformed JSON.
                fh.write(b"{nope\n")
                fh.flush()
                bad = json.loads(fh.readline())
                assert not bad["ok"] and "error" in bad
                # Unknown op.
                assert not _rpc(fh, {"op": "frobnicate"})["ok"]
                # Invalid shape.
                assert not _rpc(fh, {"op": "plan", "m": -1, "n": 1, "k": 1})["ok"]
                # Still serving on the same connection.
                good = _rpc(fh, {"op": "plan", "m": 256, "n": 256, "k": 256})
                assert good["ok"]
        finally:
            server.stop()

    def test_idle_connection_reaped_after_recv_timeout(self):
        server = _start(recv_timeout_s=0.3)
        reset_counters()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                # Connect and send nothing: the server must hang up.
                assert sock.recv(64) == b""
            assert get_counter("serve.idle_disconnects") == 1
        finally:
            server.stop()
            reset_counters()

    def test_active_connection_outlives_recv_timeout(self):
        """The timeout is per-*recv*: a client issuing spaced requests is
        never disconnected, and error-reply semantics are unchanged."""
        server = _start(recv_timeout_s=0.5)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                for _ in range(3):
                    time.sleep(0.3)  # under the timeout, repeatedly
                    ok = _rpc(fh, {"op": "plan", "m": 256, "n": 256, "k": 256})
                    assert ok["ok"]
                assert not _rpc(fh, {"op": "frobnicate"})["ok"]
        finally:
            server.stop()

    def test_concurrent_connections(self):
        server = _start()
        try:
            replies = []
            conns = [
                socket.create_connection(("127.0.0.1", server.port), timeout=10)
                for _ in range(4)
            ]
            try:
                files = [c.makefile("rwb") for c in conns]
                for i, fh in enumerate(files):
                    fh.write((json.dumps({
                        "op": "plan", "m": 384 + 128 * i, "n": 384, "k": 768,
                    }) + "\n").encode())
                    fh.flush()
                for fh in files:
                    replies.append(json.loads(fh.readline()))
            finally:
                for c in conns:
                    c.close()
            assert all(r["ok"] for r in replies)
            assert len({r["plan"]["m"] for r in replies}) == 4
        finally:
            server.stop()


class TestErrorPaths:
    def test_oversized_request_line_structured_error(self):
        server = _start(max_line_bytes=256)
        reset_counters()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                fh.write(b"x" * 4096 + b"\n")
                fh.flush()
                reply = json.loads(fh.readline())
                assert not reply["ok"]
                assert reply["code"] == "oversized"
                assert "256" in reply["error"]
                assert get_counter("serve.oversized_line") == 1
                # The stream stayed framed: next request is served.
                good = _rpc(fh, {"op": "plan", "m": 256, "n": 256, "k": 256})
                assert good["ok"]
        finally:
            server.stop()
            reset_counters()

    def test_health_op_over_the_wire(self):
        server = _start()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                assert _rpc(fh, {"op": "plan", "m": 256, "n": 256, "k": 256})["ok"]
                reply = _rpc(fh, {"op": "health"})
                assert reply["ok"]
                health = reply["health"]
                assert health["state"] == "serving"
                assert health["breaker"] == "closed"
                assert health["requests"] == 1
                assert health["shed"] == 0
                assert health["shed_rate"] == 0.0
                assert health["uptime_s"] >= 0
        finally:
            server.stop()

    def test_request_during_drain_rejected_health_still_answers(self):
        server = _start()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                server.service.drain()
                reply = _rpc(fh, {"op": "plan", "m": 256, "n": 256,
                                  "k": 256, "id": 3})
                assert not reply["ok"]
                assert reply["code"] == "draining"
                assert reply["id"] == 3
                health = _rpc(fh, {"op": "health"})
                assert health["ok"]
                assert health["health"]["state"] == "draining"
        finally:
            server.stop()

    def test_chaos_op_forbidden_without_flag(self):
        server = _start()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                reply = _rpc(fh, {"op": "chaos", "spec": "fail:1"})
                assert not reply["ok"]
                assert reply["code"] == "forbidden"
        finally:
            server.stop()

    def test_chaos_op_allowed_when_armed_at_boot(self):
        server = _start(ServeConfig(
            persist=False, warm=False, chaos_spec="off",
        ))
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                reply = _rpc(fh, {"op": "chaos", "spec": "fail:2"})
                assert reply["ok"] and reply["chaos"] == "fail:2"
                off = _rpc(fh, {"op": "chaos", "spec": "off"})
                assert off["ok"] and off["chaos"] == "off"
                bad = _rpc(fh, {"op": "chaos", "spec": "explode"})
                assert not bad["ok"]
        finally:
            server.stop()


class TestStopContract:
    def test_stop_joins_accept_loop(self):
        server = _start()
        server.stop()
        assert server._thread is not None
        assert not server._thread.is_alive()

    def test_wedged_accept_loop_raises_not_leaks(self, monkeypatch):
        """A stop() whose accept loop refuses to exit must surface the
        leak (counter + RuntimeError) after tearing down what it can —
        the silent-leak regression this pins down."""
        server = _start()
        reset_counters()
        # Wedge: the shutdown request never reaches the accept loop.
        monkeypatch.setattr(server, "_begin_shutdown", lambda: None)
        try:
            with pytest.raises(RuntimeError, match="still alive"):
                server.stop(timeout_s=0.2)
            assert get_counter("serve.stop_timeout") == 1
            # Best-effort teardown happened anyway: the listener socket
            # is closed even though the thread is still wedged.
            assert server._listener.fileno() == -1
            assert server._thread.is_alive()
        finally:
            monkeypatch.undo()
            server._begin_shutdown()  # un-wedge so the thread exits
            server._thread.join(timeout=5)
            reset_counters()


def _line(msg):
    return (json.dumps(msg) + "\n").encode("utf-8")


def _plan_msg(m, n=256, k=256, **kw):
    return dict({"op": "plan", "m": m, "n": n, "k": k}, **kw)


def _assert_no_reply_pending(sock, wait_s=0.3):
    sock.settimeout(wait_s)
    try:
        with pytest.raises(socket.timeout):
            sock.recv(1)
    finally:
        sock.settimeout(10)


class TestEventLoop:
    """Failure modes of serving every connection from one loop thread."""

    def test_pipelined_requests_answered_in_order(self):
        """A miss, a hit and ``stats`` in one write come back in request
        order, even while the miss is held up in the planner."""
        server = _start(ServeConfig(persist=False, warm=False,
                                    chaos_spec="off"))
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                assert _rpc(fh, _plan_msg(512))["cache"] == "miss"
                assert _rpc(fh, {"op": "chaos", "spec": "stall:0.3:1"})["ok"]
                sock.sendall(
                    _line(_plan_msg(768, id="miss"))
                    + _line(_plan_msg(512, id="hit"))
                    + _line({"op": "stats", "id": "stats"})
                )
                replies = [json.loads(fh.readline()) for _ in range(3)]
                assert [r.get("id") for r in replies[:2]] == ["miss", "hit"]
                assert replies[0]["cache"] == "miss"
                assert replies[0]["plan"]["m"] == 768
                assert replies[1]["cache"] == "hit"
                assert replies[1]["plan"]["m"] == 512
                # stats ran after both plans were answered.
                assert replies[2]["stats"]["requests"] == 3
                assert replies[2]["stats"]["hits"] == 1
        finally:
            server.stop()

    def test_slow_reader_is_bounded_and_does_not_delay_others(self):
        """A client that never reads its replies gets at most
        MAX_UNSENT_BYTES queued before the daemon stops reading from it;
        a second connection's hits stay fast throughout."""
        server = _start()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as fast:
                fh = fast.makefile("rwb")
                assert _rpc(fh, _plan_msg(512))["ok"]

                slow = socket.socket()
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.connect(("127.0.0.1", server.port))
                try:
                    slow.setblocking(False)
                    burst = _line(_plan_msg(512)) * 256
                    sent, blocked_since = 0, None
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        try:
                            sent += slow.send(burst)
                            blocked_since = None
                        except BlockingIOError:
                            now = time.monotonic()
                            blocked_since = blocked_since or now
                            if now - blocked_since > 0.5:
                                break  # the daemon stopped reading
                            time.sleep(0.01)
                    assert blocked_since is not None, "daemon never pushed back"

                    (conn,) = [c for c in server._conns if c.wbuf]
                    with conn.lock:
                        unsent = len(conn.wbuf)
                        reading = conn.events & selectors.EVENT_READ
                    reply_bytes = len(_line(_rpc(fh, _plan_msg(512))))
                    assert MAX_UNSENT_BYTES <= unsent
                    assert unsent < MAX_UNSENT_BYTES + reply_bytes
                    assert not reading
                    assert sent > unsent // reply_bytes  # not all answered

                    t0 = time.perf_counter()
                    for _ in range(20):
                        assert _rpc(fh, _plan_msg(512))["cache"] == "hit"
                    assert time.perf_counter() - t0 < 2.0
                finally:
                    slow.close()
                assert _rpc(fh, _plan_msg(512))["ok"]
        finally:
            server.stop()

    def test_thread_count_independent_of_connections(self):
        server = _start()
        conns = []
        try:
            def open_conn():
                sock = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                )
                conns.append(sock)
                assert _rpc(sock.makefile("rwb"), {"op": "health"})["ok"]

            open_conn()
            with_one = set(threading.enumerate())
            for _ in range(31):
                open_conn()
            # No thread started for the 31 extra connections.
            assert set(threading.enumerate()) <= with_one
            assert len(server._conns) == 32
        finally:
            for sock in conns:
                sock.close()
            server.stop()

    def test_queued_miss_deadline_lapses_once_under_stall(self):
        """A miss queued behind a stalled batch gets exactly one
        ``deadline_expired`` reply, on time, and its connection keeps
        serving."""
        server = _start(ServeConfig(persist=False, warm=False,
                                    chaos_spec="off"))
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as wedge, socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                assert _rpc(fh, {"op": "chaos", "spec": "stall:1.0:1"})["ok"]
                wedge.sendall(_line(_plan_msg(384)))
                time.sleep(0.2)  # the wedge batch is now mid-stall
                t0 = time.perf_counter()
                reply = _rpc(fh, _plan_msg(640, deadline_ms=200.0, id=9))
                elapsed = time.perf_counter() - t0
                assert not reply["ok"]
                assert reply["code"] == "deadline_expired"
                assert reply["id"] == 9
                assert 0.15 <= elapsed < 0.7
                # The wedge finishes; no second reply follows.
                assert json.loads(wedge.makefile("rb").readline())["ok"]
                _assert_no_reply_pending(sock)
                again = _rpc(fh, _plan_msg(640, id=10))
                assert again["ok"] and again["id"] == 10
                assert again["cache"] == "miss"
                stats = _rpc(fh, {"op": "stats"})["stats"]
                assert stats["abandoned"] == 1
        finally:
            server.stop()

    def test_claimed_miss_deadline_lapses_once_under_stall(self):
        """The timer answers a miss whose batch is already planning; the
        batch's late result is dropped, not sent as a second reply."""
        server = _start(ServeConfig(persist=False, warm=False,
                                    chaos_spec="off"))
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                fh = sock.makefile("rwb")
                assert _rpc(fh, {"op": "chaos", "spec": "stall:0.6:1"})["ok"]
                reply = _rpc(fh, _plan_msg(640, deadline_ms=150.0))
                assert reply["code"] == "deadline_expired"
                time.sleep(0.6)  # the stalled batch completes meanwhile
                _assert_no_reply_pending(sock)
                # The batch still filled the cache.
                assert _rpc(fh, _plan_msg(640))["cache"] == "hit"
        finally:
            server.stop()

    def test_stress_every_request_answered_once_in_order(self):
        """More clients than cores pipeline misses, hits and sub-ms
        deadlines while the interpreter switches threads every 10 µs, so
        the loop's timers race the batcher's replies; each connection
        still gets exactly one reply per request, in order."""
        server = _start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        errors = []

        def client(c):
            try:
                with socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10
                ) as sock:
                    fh = sock.makefile("rwb")
                    for rnd in range(8):
                        batch = []
                        for j in range(5):
                            rid = "%d-%d-%d" % (c, rnd, j)
                            msg = _plan_msg(128 + 64 * ((c * 5 + j) % 12),
                                            k=128 + 32 * rnd, id=rid)
                            if j % 2:
                                msg["deadline_ms"] = 0.5
                            batch.append(msg)
                        sock.sendall(b"".join(_line(m) for m in batch))
                        for msg in batch:
                            reply = json.loads(fh.readline())
                            assert reply["id"] == msg["id"], reply
                            assert reply["ok"] or reply["code"] == (
                                "deadline_expired"), reply
                    _assert_no_reply_pending(sock, 0.2)
            except BaseException as exc:  # reported below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            server.stop()
        assert not errors, errors[0]
