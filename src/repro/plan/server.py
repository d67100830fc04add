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
parseable — and the connection stays usable.  Each connection is
handled by its own thread (``ThreadingTCPServer``), so concurrent
clients' cache misses queue for the same batcher — the server inherits
the batching behavior of the service it wraps.

A request line longer than ``max_line_bytes`` (default 64 KiB) is
consumed and answered with an ``oversized`` error instead of buffering
without bound (``serve.oversized_line``).  A connection that sits
idle — connected but never sending a line — for longer than
``recv_timeout_s`` (default 30s, ``--idle-timeout-s``) is closed and
its handler thread freed (``serve.idle_disconnects``); a client
mid-request keeps full error-reply semantics.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time

from ..obs.counters import inc_counter
from .service import PlanService

#: Default bound on one JSONL request line (bytes, newline included).
DEFAULT_MAX_LINE_BYTES = 1 << 16

__all__ = ["PlanServer"]


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "_TcpServer" = self.server  # type: ignore[assignment]
        if server.recv_timeout_s is not None:
            self.connection.settimeout(server.recv_timeout_s)
        limit = server.max_line_bytes
        while True:
            try:
                raw = self.rfile.readline(limit + 1)
                oversized = len(raw) > limit
                # Consume the rest of an oversized line so the stream
                # stays framed and the connection stays usable.
                while raw and not raw.endswith(b"\n"):
                    raw = self.rfile.readline(limit + 1)
            except (socket.timeout, TimeoutError):
                # Idle client: drop the connection, free the thread.
                inc_counter("serve.idle_disconnects")
                return
            except OSError:
                return  # peer reset mid-read
            if not raw:
                return  # clean EOF
            if oversized:
                inc_counter("serve.oversized_line")
                reply = {
                    "ok": False,
                    "error": "request line exceeds %d bytes" % limit,
                    "code": "oversized",
                }
                self._reply(reply)
                continue
            line = raw.strip()
            if not line:
                continue
            msg = None
            try:
                msg = json.loads(line.decode("utf-8"))
                reply = self._dispatch(server, msg)
            except Exception as exc:  # malformed line / planner error
                reply = {"ok": False, "error": str(exc)}
                code = getattr(exc, "code", None)
                if code:
                    reply["code"] = code
                if isinstance(msg, dict) and "id" in msg:
                    reply["id"] = msg["id"]
            self._reply(reply)
            if reply.get("bye"):
                break

    def _reply(self, reply: dict) -> None:
        self.wfile.write((json.dumps(reply) + "\n").encode("utf-8"))
        self.wfile.flush()

    def _dispatch(self, server: "_TcpServer", msg: dict) -> dict:
        op = msg.get("op", "plan")
        if op == "stats":
            return {"ok": True, "stats": server.service.stats()}
        if op == "health":
            return {"ok": True, "health": server.service.health()}
        if op == "chaos":
            if not server.service.chaos_allowed:
                return {
                    "ok": False,
                    "error": "chaos injection not enabled; start the "
                    "daemon with --chaos-plan to allow it",
                    "code": "forbidden",
                }
            # An invalid spec falls through to the generic error reply.
            return {"ok": True, "chaos": server.service.arm_chaos(msg.get("spec"))}
        if op == "shutdown":
            server.begin_shutdown()
            return {"ok": True, "bye": True}
        if op != "plan":
            return {"ok": False, "error": "unknown op %r" % (op,)}
        t0 = time.perf_counter()
        deadline_ms = msg.get("deadline_ms")
        plan = server.service.submit(
            int(msg["m"]),
            int(msg["n"]),
            int(msg["k"]),
            dtype=msg.get("dtype") or "fp16_fp32",
            gpu=msg.get("gpu") or "a100",
            deadline_ms=float(deadline_ms) if deadline_ms is not None else None,
        )
        reply = {
            "ok": True,
            "cache": "hit" if plan.provenance.startswith("cache") else "miss",
            "plan": plan.to_payload(),
            "server_latency_us": (time.perf_counter() - t0) * 1e6,
        }
        if "id" in msg:
            reply["id"] = msg["id"]
        return reply


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        addr,
        service: PlanService,
        recv_timeout_s: "float | None" = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ):
        super().__init__(addr, _Handler)
        self.service = service
        self.recv_timeout_s = recv_timeout_s
        self.max_line_bytes = int(max_line_bytes)
        self._shutdown_started = False
        self._shutdown_lock = threading.Lock()

    def begin_shutdown(self) -> None:
        """Stop the accept loop from a handler thread (shutdown() blocks,
        so it must run off the handler's own thread)."""
        with self._shutdown_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        threading.Thread(target=self.shutdown, daemon=True).start()


class PlanServer:
    """Owns a TCP listener + the :class:`PlanService` behind it.

    ``port=0`` binds an ephemeral port; read it back from :attr:`port`
    (the CLI's ``--port-file`` publishes it for scripts)::

        server = PlanServer(service, port=0)
        server.start()          # background accept loop
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
        self._tcp = _TcpServer(
            (host, port),
            service,
            recv_timeout_s=recv_timeout_s,
            max_line_bytes=max_line_bytes,
        )
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self._tcp.server_address[0]

    @property
    def port(self) -> int:
        return int(self._tcp.server_address[1])

    def start(self) -> "PlanServer":
        """Run the accept loop on a background thread."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="plan-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (``repro serve``).

        Returns after a ``shutdown`` op or a :meth:`stop` from another
        thread."""
        self._tcp.serve_forever(poll_interval=0.05)

    def request_shutdown(self) -> None:
        """Ask the accept loop to exit without blocking (signal-safe).

        This is the graceful-drain entry point: the CLI's SIGTERM
        handler calls it, ``serve_forever`` returns, and the normal
        :meth:`stop` path drains the service (in-flight batches flush,
        plan shards are written) before the process exits 0.
        """
        self.service.drain()
        self._tcp.begin_shutdown()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop accepting, close the listener, and close the service.

        Raises :class:`RuntimeError` (after best-effort listener and
        service teardown, counting ``serve.stop_timeout``) if the accept
        loop is still alive once ``timeout_s`` expires — a wedged server
        thread must be surfaced, not silently leaked as if stopped.
        """
        self._tcp.begin_shutdown()
        wedged = False
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            wedged = self._thread.is_alive()
            if wedged:
                inc_counter("serve.stop_timeout")
        try:
            self._tcp.server_close()
        finally:
            self.service.close()
        if wedged:
            raise RuntimeError(
                "plan server accept loop still alive %.1fs after stop(); "
                "listener and service were closed, but the thread leaked"
                % timeout_s
            )

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
