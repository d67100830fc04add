"""JSON-lines TCP front-end for :class:`repro.plan.service.PlanService`.

The wire protocol (normative copy in ``docs/SERVING.md``): one JSON
object per ``\\n``-terminated line, one JSON object back per request,
over a plain TCP connection.  Ops:

``{"op": "plan", "m": .., "n": .., "k": .., "dtype"?: .., "gpu"?: .., "deadline_ms"?: .., "id"?: ..}``
    Plan one query.  Reply: ``{"id", "ok": true, "cache": "hit"|"miss",
    "plan": {...}, "server_latency_us"}`` where ``plan`` is
    :meth:`repro.plan.core.Plan.to_payload`.  ``deadline_ms`` is the
    client's end-to-end budget, propagated into the service so expired
    work is dropped, never planned.
``{"op": "stats"}``
    Reply ``{"ok": true, "stats": {...}}`` — :meth:`PlanService.stats`.
``{"op": "health"}``
    Reply ``{"ok": true, "health": {...}}`` — queue depth, breaker
    state, shed rate, uptime (:meth:`PlanService.health`); cheap
    enough to poll.
``{"op": "chaos", "spec": "stall:S[:N]"|"fail[:N]"|"off"}``
    Test seam: (re-)arm the deterministic planner chaos.  Only honored
    when the daemon was started with ``--chaos-plan``; otherwise a
    structured ``forbidden`` error.
``{"op": "shutdown"}``
    Reply ``{"ok": true, "bye": true}`` and stop the server.

Any malformed line or failed query yields ``{"ok": false, "error": ..}``
on that line — with a stable machine-readable ``"code"`` field for
structured rejections (``overloaded``, ``deadline_expired``,
``degraded``, ``draining``, ``timeout``, ``oversized``; see
:mod:`repro.plan.resilience`) and the request ``id`` echoed when it was
parseable — and the connection stays usable.

Concurrency: one event-loop thread (:mod:`selectors`) serves every
connection.  It accepts, frames and decodes request lines, and answers
hits, ``stats``, ``health``, ``chaos`` and ``shutdown`` inline.  A cache
miss goes to the service's batcher through
:meth:`PlanService.begin`; until it is answered the loop reads nothing
more from that connection, so replies come back in request order.  The
batcher thread writes the miss's reply itself when the connection has
no unsent bytes, and otherwise hands the connection back to the loop.
A timer heap in the loop answers a miss whose ``deadline_ms`` or the
30 s miss timeout lapses first (:meth:`PlanService.expire`); whichever
of the batcher and the timer comes first answers, so every request gets
exactly one reply.  While no miss is outstanding, the loop polls for
up to 200 µs before it sleeps, so back-to-back requests do not each pay
a thread wakeup.  The daemon's thread count does not depend on how many
clients are connected.

A request line longer than ``max_line_bytes`` (default 64 KiB) is
consumed and answered with an ``oversized`` error instead of buffering
without bound (``serve.oversized_line``).  A client that does not read
its replies gets at most :data:`MAX_UNSENT_BYTES` of them queued before
the loop stops reading its requests.  A connection that sits idle —
no bytes received or sent, and no miss outstanding — for longer than
``recv_timeout_s`` (default 30s, ``--idle-timeout-s``) is closed
(``serve.idle_disconnects``); a client mid-request keeps full
error-reply semantics.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import selectors
import socket
import threading
import time
import traceback

from ..obs.counters import inc_counter
from .core import Plan
from .service import PlanService

#: Default bound on one JSONL request line (bytes, newline included).
DEFAULT_MAX_LINE_BYTES = 1 << 16

#: Unsent reply bytes on one connection past which the loop stops
#: reading that connection's requests until its client catches up.
MAX_UNSENT_BYTES = 1 << 18

#: A miss not answered within this many seconds gets a ``timeout`` error.
MISS_TIMEOUT_S = 30.0

#: How long the loop polls without blocking before it sleeps, while no
#: miss is outstanding.  A loop that sleeps between closed-loop requests
#: pays a thread wakeup for nearly every request: on a 2-vCPU host, the
#: benchmark's 2-client hit workload then ran at 4k-14k replies/s from
#: run to run, and polling first held it at 14k-17k/s.  50 us did as
#: well there, but 2 clients that each think 100 us between requests
#: got 4.3k/s with 50 us, 4.9k/s with 200 us and 4.8k/s from the
#: thread-per-connection server.  It never polls while a miss is out,
#: because the batcher then needs the interpreter lock the loop holds.
_SPIN_S = 200e-6

_RECV_BYTES = 1 << 16

__all__ = ["PlanServer"]


def _encode(reply: dict) -> bytes:
    return (json.dumps(reply) + "\n").encode("utf-8")


def _error_reply(exc: BaseException, msg) -> dict:
    reply = {"ok": False, "error": str(exc)}
    code = getattr(exc, "code", None)
    if code:
        reply["code"] = code
    if isinstance(msg, dict) and "id" in msg:
        reply["id"] = msg["id"]
    return reply


def _plan_reply(plan: Plan, msg: dict, t0: float) -> dict:
    reply = {
        "ok": True,
        "cache": "hit" if plan.provenance.startswith("cache") else "miss",
        "plan": plan.to_payload(),
        "server_latency_us": (time.perf_counter() - t0) * 1e6,
    }
    if "id" in msg:
        reply["id"] = msg["id"]
    return reply


class _Miss:
    """A connection's outstanding cache miss."""

    __slots__ = ("pending", "msg", "t0")

    def __init__(self, pending, msg: dict, t0: float):
        self.pending = pending
        self.msg = msg
        self.t0 = t0


class _Conn:
    """One client connection.  ``lock`` guards every field: the loop
    holds it while it works on the connection, and the batcher thread
    while it answers the connection's miss."""

    __slots__ = (
        "sock", "lock", "rbuf", "wbuf", "events", "miss", "eof", "bye",
        "discarding", "closed", "active_at", "on_done",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.lock = threading.Lock()
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.events = 0  # selector interest currently registered
        self.miss: "_Miss | None" = None
        self.eof = False  # the client shut down its sending side
        self.bye = False  # answered a shutdown op; close once flushed
        self.discarding = False  # inside an oversized line
        self.closed = False
        self.active_at = time.perf_counter()
        self.on_done = None  # the batcher's completion callback


class PlanServer:
    """Owns a TCP listener, its event loop, and the :class:`PlanService`
    behind it.

    ``port=0`` binds an ephemeral port; read it back from :attr:`port`
    (the CLI's ``--port-file`` publishes it for scripts)::

        server = PlanServer(service, port=0)
        server.start()          # background event loop
        ... connect to ("127.0.0.1", server.port) ...
        server.stop()
    """

    def __init__(
        self,
        service: PlanService,
        host: str = "127.0.0.1",
        port: int = 0,
        recv_timeout_s: "float | None" = 30.0,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ):
        self.service = service
        self.recv_timeout_s = recv_timeout_s
        self.max_line_bytes = int(max_line_bytes)
        self._listener = socket.create_server((host, port), backlog=128)
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, "accept")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._conns: "set[_Conn]" = set()
        # Connections the batcher handed back to the loop.
        self._ready: "list[_Conn]" = []
        self._ready_lock = threading.Lock()
        # (when, seq, conn, miss): miss deadlines and timeouts.
        self._timers: list = []
        # Connections whose miss may still be outstanding.
        self._waiting: "set[_Conn]" = set()
        self._seq = itertools.count()
        self._shutdown = False
        self._orphaned = False
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return int(self._listener.getsockname()[1])

    def start(self) -> "PlanServer":
        """Run the event loop on a background thread."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="plan-server", daemon=True
        )
        self._thread.start()
        return self

    # ------------------------------------------------------------------ #
    # Event loop                                                          #
    # ------------------------------------------------------------------ #

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread (``repro serve``).

        Returns after a ``shutdown`` op or a :meth:`stop` from another
        thread."""
        sweep_every = (
            self.recv_timeout_s / 4 if self.recv_timeout_s is not None else None
        )
        next_sweep = time.perf_counter() + (sweep_every or 0.0)
        try:
            while not self._shutdown:
                timeout = None
                if self._timers:
                    timeout = self._timers[0][0] - time.perf_counter()
                if sweep_every is not None:
                    until_sweep = next_sweep - time.perf_counter()
                    timeout = until_sweep if timeout is None else min(timeout, until_sweep)
                if timeout is not None:
                    timeout = max(timeout, 0.0)
                for key, mask in self._select(timeout):
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        self._on_ready(key.data, mask)
                now = time.perf_counter()
                if self._timers and self._timers[0][0] <= now:
                    self._fire_timers(now)
                if sweep_every is not None and now >= next_sweep:
                    self._reap_idle(now)
                    next_sweep = now + sweep_every
        finally:
            if self._orphaned:  # stop() gave up waiting for this loop
                self._close_loop()

    def _select(self, timeout: "float | None") -> list:
        """Ready events; polls for up to :data:`_SPIN_S` before blocking
        when no miss is outstanding and no timer is due."""
        waiting = self._waiting
        if waiting:
            waiting.difference_update(
                [c for c in waiting if c.miss is None or c.closed]
            )
        if not waiting and (timeout is None or timeout > 0):
            spin_until = time.perf_counter() + _SPIN_S
            while True:
                events = self._sel.select(0)
                if events or time.perf_counter() >= spin_until:
                    break
            if events:
                return events
        return self._sel.select(timeout)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # drained (BlockingIOError) or out of fds
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            conn.on_done = functools.partial(self._miss_done, conn)
            self._conns.add(conn)
            with conn.lock:
                self._rearm(conn)

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except OSError:
            pass
        with self._ready_lock:
            ready, self._ready = self._ready, []
        for conn in ready:
            with conn.lock:
                self._advance_guarded(conn)

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # full (a wake is already pending) or closed
            pass

    def _on_ready(self, conn: _Conn, mask: int) -> None:
        with conn.lock:
            if conn.closed:
                return
            if mask & selectors.EVENT_READ:
                try:
                    data = conn.sock.recv(_RECV_BYTES)
                except BlockingIOError:
                    data = None
                except OSError:
                    self._close(conn)  # peer reset mid-read
                    return
                if data:
                    conn.rbuf += data
                    conn.active_at = time.perf_counter()
                elif data is not None:
                    conn.eof = True
            self._advance_guarded(conn)

    def _advance_guarded(self, conn: _Conn) -> None:
        """:meth:`_advance`, closing the connection (not the loop) on a
        server bug."""
        if conn.closed:
            return
        try:
            self._advance(conn)
        except Exception:
            traceback.print_exc()
            self._close(conn)

    def _advance(self, conn: _Conn) -> None:
        """Answer what can be answered, send what can be sent, then
        close the connection or re-register its interest.  Caller holds
        ``conn.lock``."""
        self._process_lines(conn)
        if conn.wbuf:
            self._send(conn)
        if conn.closed:
            return
        if not conn.wbuf and conn.miss is None and (conn.eof or conn.bye):
            self._close(conn)
            return
        self._rearm(conn)

    def _process_lines(self, conn: _Conn) -> None:
        rbuf = conn.rbuf
        limit = self.max_line_bytes
        while (
            rbuf
            and conn.miss is None
            and not conn.bye
            and len(conn.wbuf) < MAX_UNSENT_BYTES
        ):
            nl = rbuf.find(b"\n")
            if conn.discarding:
                # Consume the rest of an oversized line so the stream
                # stays framed and the connection stays usable.
                if nl < 0:
                    rbuf.clear()
                    return
                del rbuf[: nl + 1]
                conn.discarding = False
                self._oversized(conn)
            elif nl < 0:
                if len(rbuf) >= limit:
                    rbuf.clear()
                    conn.discarding = True
                return
            elif nl >= limit:
                del rbuf[: nl + 1]
                self._oversized(conn)
            else:
                line = bytes(rbuf[:nl])
                del rbuf[: nl + 1]
                self._handle_line(conn, line)

    def _oversized(self, conn: _Conn) -> None:
        inc_counter("serve.oversized_line")
        conn.wbuf += _encode({
            "ok": False,
            "error": "request line exceeds %d bytes" % self.max_line_bytes,
            "code": "oversized",
        })

    def _handle_line(self, conn: _Conn, line: bytes) -> None:
        line = line.strip()
        if not line:
            return
        msg = None
        try:
            msg = json.loads(line.decode("utf-8"))
            reply = self._dispatch(conn, msg)
        except Exception as exc:  # malformed line / planner error
            reply = _error_reply(exc, msg)
        if reply is not None:
            conn.wbuf += _encode(reply)

    def _dispatch(self, conn: _Conn, msg: dict) -> "dict | None":
        """The reply to one request, or ``None`` for a miss handed to
        the batcher."""
        service = self.service
        op = msg.get("op", "plan")
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        if op == "health":
            return {"ok": True, "health": service.health()}
        if op == "chaos":
            if not service.chaos_allowed:
                return {
                    "ok": False,
                    "error": "chaos injection not enabled; start the "
                    "daemon with --chaos-plan to allow it",
                    "code": "forbidden",
                }
            # An invalid spec falls through to the generic error reply.
            return {"ok": True, "chaos": service.arm_chaos(msg.get("spec"))}
        if op == "shutdown":
            conn.bye = True
            self._begin_shutdown()
            return {"ok": True, "bye": True}
        if op != "plan":
            return {"ok": False, "error": "unknown op %r" % (op,)}
        t0 = time.perf_counter()
        deadline_ms = msg.get("deadline_ms")
        deadline_ms = float(deadline_ms) if deadline_ms is not None else None
        result = service.begin(
            int(msg["m"]),
            int(msg["n"]),
            int(msg["k"]),
            dtype=msg.get("dtype") or "fp16_fp32",
            gpu=msg.get("gpu") or "a100",
            deadline_ms=deadline_ms,
            on_done=conn.on_done,
        )
        if isinstance(result, Plan):
            return _plan_reply(result, msg, t0)
        conn.miss = miss = _Miss(result, msg, t0)
        self._waiting.add(conn)
        # The entry's own deadline, so the reply names the right lapse.
        when = t0 + MISS_TIMEOUT_S
        if result.deadline_at is not None:
            when = min(when, result.deadline_at)
        timers = self._timers
        heapq.heappush(timers, (when, next(self._seq), conn, miss))
        if len(timers) > 64 + 2 * len(self._conns):
            # Drop the entries of misses the batcher already answered.
            timers[:] = [t for t in timers if t[2].miss is t[3]]
            heapq.heapify(timers)
        return None

    def _fire_timers(self, now: float) -> None:
        timers = self._timers
        while timers and timers[0][0] <= now:
            _, _, conn, miss = heapq.heappop(timers)
            with conn.lock:
                if conn.miss is not miss or conn.closed:
                    continue  # already answered
                conn.miss = None
                exc = self.service.expire(miss.pending, MISS_TIMEOUT_S)
                conn.wbuf += _encode(_error_reply(exc, miss.msg))
                conn.active_at = now
                self._advance_guarded(conn)

    def _miss_done(self, conn: _Conn, pending) -> None:
        """Batcher-thread completion of ``conn``'s miss."""
        try:
            with conn.lock:
                miss = conn.miss
                if miss is None or miss.pending is not pending or conn.closed:
                    return  # the timer answered first
                conn.miss = None
                try:
                    reply = _plan_reply(
                        self.service.result(pending), miss.msg, miss.t0
                    )
                except Exception as exc:
                    reply = _error_reply(exc, miss.msg)
                data = _encode(reply)
                conn.active_at = time.perf_counter()
                if not conn.wbuf:
                    # Nothing unsent: write the reply from this thread.
                    try:
                        sent = conn.sock.send(data)
                    except OSError:  # full, or reset: the loop decides
                        sent = 0
                    data = data[sent:]
                    if (
                        not data
                        and not conn.eof
                        and b"\n" not in conn.rbuf
                    ):
                        self._rearm(conn)
                        return
                conn.wbuf += data
            with self._ready_lock:
                self._ready.append(conn)
            self._wake()
        except Exception:  # never let a reply kill the batcher
            traceback.print_exc()

    def _send(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.wbuf)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        del conn.wbuf[:sent]
        conn.active_at = time.perf_counter()

    def _rearm(self, conn: _Conn) -> None:
        """Register the interest ``conn`` needs now: write while bytes
        are unsent, read while no miss is outstanding and the unsent
        bytes are under :data:`MAX_UNSENT_BYTES`."""
        events = selectors.EVENT_WRITE if conn.wbuf else 0
        if (
            conn.miss is None
            and not conn.eof
            and not conn.bye
            and len(conn.wbuf) < MAX_UNSENT_BYTES
        ):
            events |= selectors.EVENT_READ
        if events == conn.events:
            return
        if not conn.events:
            self._sel.register(conn.sock, events, conn)
        elif not events:
            self._sel.unregister(conn.sock)
        else:
            self._sel.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.events:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):  # selector already closed
                pass
            conn.events = 0
        conn.sock.close()
        self._conns.discard(conn)

    def _reap_idle(self, now: float) -> None:
        for conn in list(self._conns):
            with conn.lock:
                if (
                    conn.miss is None
                    and not conn.closed
                    and now - conn.active_at >= self.recv_timeout_s
                ):
                    inc_counter("serve.idle_disconnects")
                    self._close(conn)

    def _close_loop(self) -> None:
        """Close every connection, the selector and the wake pair."""
        for conn in list(self._conns):
            with conn.lock:
                self._close(conn)
        self._sel.close()
        self._wake_r.close()
        self._wake_w.close()

    # ------------------------------------------------------------------ #
    # Shutdown                                                            #
    # ------------------------------------------------------------------ #

    def _begin_shutdown(self) -> None:
        """Ask the loop to exit after its current pass (never blocks)."""
        self._shutdown = True
        self._wake()

    def request_shutdown(self) -> None:
        """Ask the event loop to exit without blocking (signal-safe).

        This is the graceful-drain entry point: the CLI's SIGTERM
        handler calls it, ``serve_forever`` returns, and the normal
        :meth:`stop` path drains the service (in-flight batches flush,
        plan shards are written) before the process exits 0.  It takes
        no lock, because the handler may interrupt the loop's own
        thread while that thread holds one.
        """
        self._begin_shutdown()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the event loop, close the listener, close the service,
        then close the connections (so misses still in flight at
        shutdown get their replies).

        Raises :class:`RuntimeError` (after best-effort listener and
        service teardown, counting ``serve.stop_timeout``) if the event
        loop is still alive once ``timeout_s`` expires — a wedged server
        thread must be surfaced, not silently leaked as if stopped.
        """
        self._begin_shutdown()
        wedged = False
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            wedged = self._thread.is_alive()
            if wedged:
                inc_counter("serve.stop_timeout")
                self._orphaned = True  # the loop closes the rest on exit
        try:
            self._listener.close()
        finally:
            try:
                self.service.close()
            finally:
                if not wedged:
                    self._close_loop()
        if wedged:
            raise RuntimeError(
                "plan server event loop still alive %.1fs after stop(); "
                "listener and service were closed, but the thread leaked"
                % timeout_s
            )

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
