"""``serve_hot`` and ``serve_cold``: the ``repro serve`` daemon over TCP.

The daemon is a separate process with the default configuration and an
empty cache directory, spawned from the checkout's source.  Load comes
from this process: a closed loop over two :class:`repro.plan.PlanClient`
connections, one thread each, so each connection sends its next request
only after the previous reply arrived.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from checks import check_served_plans, plan_mismatches, plan_oracle
from common import (
    FAILED_LATENCY_S,
    ROOT,
    child_env,
    proc_peak_rss_mb,
)

#: Closed-loop connections; the box the benchmark targets has two cores.
CONNECTIONS = 2
#: serve_hot: distinct shapes, all planned once before timing.
HOT_UNIVERSE = 512
HOT_ZIPF_S = 1.1
#: serve_cold: share of requests that repeat one of the connection's own
#: earlier shapes.  Fixed by construction, so a faster daemon does not
#: change the hit/miss mix.
COLD_REPEAT_SHARE = 0.10
#: serve_cold: fresh shapes generated per connection per second of run,
#: several times more than the daemon plans today.
COLD_FRESH_PER_S = 5000
#: The serving binding (the daemon's defaults).
DTYPE = "fp16_fp32"
GPU = "a100"
#: Shape domain of the paper corpus.
DOMAIN = (128, 8192)
#: Plans re-checked through the scalar plan_query, per run.
SCALAR_SAMPLE = 128
#: ``peak_rss_mb`` is read once this many timed requests have been sent.
#: The daemon keeps every cached plan and every latency sample, so its
#: footprint grows with the request count; reading it at a fixed count
#: keeps a faster daemon from reading as a bigger one.
RSS_AT_REQUESTS = 2000


def log_uniform_shapes(rng: np.random.Generator, count: int) -> np.ndarray:
    """Distinct ``(m, n, k)`` rows, log-uniform over the corpus domain, in
    draw order.  The benchmark's own generator, so the requests stay the
    same when the program's corpus generator changes."""
    lo, hi = np.log(DOMAIN[0]), np.log(DOMAIN[1])
    raw = np.rint(np.exp(rng.uniform(lo, hi, size=(count * 2, 3))))
    raw = raw.astype(np.int64)
    _, first = np.unique(raw, axis=0, return_index=True)
    keep = np.sort(first)[:count]
    if len(keep) < count:
        raise RuntimeError("shape draw produced too few distinct shapes")
    return raw[keep]


# --------------------------------------------------------------------- #
# Daemon lifecycle                                                      #
# --------------------------------------------------------------------- #


class Daemon:
    """One ``repro serve`` process on an ephemeral port.

    Ready when the ``health`` op answers; always reaped by :meth:`stop`
    (SIGTERM drains, then kill after a grace period).
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cache_dir = os.path.join(workdir, "cache")
        self.port_file = os.path.join(workdir, "port")
        self.proc: "subprocess.Popen | None" = None
        self.port: "int | None" = None

    def start(self, timeout_s: float = 30.0) -> float:
        """Spawn and wait for the first healthy reply; returns seconds
        from spawn to that reply (interpreter start, imports and
        calibration included)."""
        os.makedirs(self.cache_dir, exist_ok=True)
        log = open(os.path.join(self.workdir, "daemon.log"), "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--port-file", self.port_file],
                cwd=ROOT,
                env=child_env(self.cache_dir),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        deadline = t0 + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "daemon exited with %d before it was ready"
                    % self.proc.returncode
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon not healthy after %.0fs" % timeout_s)
            if self.port is None:
                self.port = self._read_port()
            if self.port is not None:
                try:
                    health = self.op({"op": "health"}, timeout_s=1.0)
                except OSError:
                    health = None
                if health and health.get("ok"):
                    return time.perf_counter() - t0
            time.sleep(0.002)

    def _read_port(self) -> "int | None":
        try:
            with open(self.port_file) as fh:
                text = fh.read()
        except FileNotFoundError:
            return None
        return int(text) if text.endswith("\n") else None

    def op(self, msg: dict, timeout_s: float = 10.0) -> dict:
        """One request on a throwaway connection (``stats``/``health``)."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=timeout_s) as sock:
            sock.sendall((json.dumps(msg) + "\n").encode("utf-8"))
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("daemon closed the connection")
                buf += chunk
        return json.loads(buf)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self, grace_s: float = 10.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL; returns the exit code."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# --------------------------------------------------------------------- #
# Closed-loop load                                                      #
# --------------------------------------------------------------------- #


class Phase:
    """Per-phase request accounting plus the raw samples."""

    def __init__(self, name: str):
        self.name = name
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.codes: "dict[str, int]" = {}
        self.hit_rtt: "list[float]" = []
        self.miss_rtt: "list[float]" = []
        self.failed_rtt: "list[float]" = []
        self.hit_server_us: "list[float]" = []
        self.miss_server_us: "list[float]" = []
        self.elapsed_s = 0.0
        #: Connection index -> (distinct shape -> first plan payload
        #: served for it on that connection in this phase).
        self.plans: "dict[int, dict[tuple[int, int, int], dict]]" = {}
        #: Shapes whose plan changed between two replies on one connection.
        self.inconsistent: "list[str]" = []

    def accounting(self) -> dict:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "rejections_by_code": dict(sorted(self.codes.items())),
            "hits": len(self.hit_rtt),
            "misses": len(self.miss_rtt),
            "elapsed_s": self.elapsed_s,
        }


def _drive_one(port, shapes_iter, stop_at, phase, lock, tracer, progress,
               slot):
    from repro.plan import PlanClient

    rec_hit, rec_miss, rec_fail = [], [], []
    srv_hit, srv_miss = [], []
    codes: "dict[str, int]" = {}
    plans: "dict[tuple[int, int, int], dict]" = {}
    inconsistent = []
    sent = 0
    with PlanClient("127.0.0.1", port, timeout_s=FAILED_LATENCY_S) as client:
        for m, n, k in shapes_iter:
            if stop_at is not None and time.perf_counter() >= stop_at:
                break
            sent += 1
            progress[slot] = sent
            with tracer.span("plan.client.request"):
                t0 = time.perf_counter()
                reply = client.plan(m, n, k, dtype=DTYPE, gpu=GPU)
                rtt = time.perf_counter() - t0
            if not reply.get("ok"):
                code = str(reply.get("code") or "error")
                codes[code] = codes.get(code, 0) + 1
                rec_fail.append(FAILED_LATENCY_S)
                continue
            hit = reply.get("cache") == "hit"
            (rec_hit if hit else rec_miss).append(rtt)
            (srv_hit if hit else srv_miss).append(reply["server_latency_us"])
            shape = (m, n, k)
            payload = reply["plan"]
            seen = plans.get(shape)
            if seen is None:
                plans[shape] = payload
            elif plan_mismatches(seen, payload):
                inconsistent.append("%r served two different plans" % (shape,))
    with lock:
        phase.sent += sent
        phase.succeeded += len(rec_hit) + len(rec_miss)
        phase.failed += len(rec_fail)
        for code, count in codes.items():
            phase.codes[code] = phase.codes.get(code, 0) + count
        phase.hit_rtt += rec_hit
        phase.miss_rtt += rec_miss
        phase.failed_rtt += rec_fail
        phase.hit_server_us += srv_hit
        phase.miss_server_us += srv_miss
        phase.plans[slot] = plans
        phase.inconsistent += inconsistent


def drive(port: int, streams, seconds, phase: Phase, tracer,
          on_requests=None) -> Phase:
    """Run one closed-loop client per stream until every stream ends or
    ``seconds`` pass; a client error is re-raised.

    ``on_requests=(count, fn)`` calls ``fn()`` once ``count`` requests
    have been sent (or when the phase ends, if it ends first).
    """
    lock = threading.Lock()
    errors: "list[BaseException]" = []
    progress = [0] * len(streams)

    def worker(stream, slot):
        try:
            _drive_one(port, stream, stop_at, phase, lock, tracer, progress,
                       slot)
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    t0 = time.perf_counter()
    stop_at = t0 + seconds if seconds is not None else None
    threads = [threading.Thread(target=worker, args=(s, i))
               for i, s in enumerate(streams)]
    for t in threads:
        t.start()
    try:
        if on_requests is not None:
            count, fn = on_requests
            while sum(progress) < count and any(t.is_alive() for t in threads):
                time.sleep(0.005)
            fn()
    finally:
        for t in threads:
            t.join()
    phase.elapsed_s = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return phase


def _rows(shapes: np.ndarray):
    for row in shapes:
        yield int(row[0]), int(row[1]), int(row[2])


def hot_streams(universe: np.ndarray, rng, count: int):
    """Zipf(s) draws over ``universe`` (rank i weighted 1/(i+1)**s), split
    round-robin across the connections."""
    ranks = np.arange(1, len(universe) + 1, dtype=np.float64)
    probs = ranks ** (-HOT_ZIPF_S)
    probs /= probs.sum()
    idx = rng.choice(len(universe), size=count, p=probs)
    trace = universe[idx]
    return [_rows(trace[c::CONNECTIONS]) for c in range(CONNECTIONS)]


def cold_stream(fresh: np.ndarray, rng):
    """Fresh shapes, with a fixed share of repeats of this connection's
    own earlier shapes (which are then guaranteed cache hits)."""
    history: "list[tuple[int, int, int]]" = []
    fresh_rows = _rows(fresh)
    while True:
        if history and rng.random() < COLD_REPEAT_SHARE:
            yield history[int(rng.integers(len(history)))]
            continue
        try:
            shape = next(fresh_rows)
        except StopIteration:
            return
        history.append(shape)
        yield shape


# --------------------------------------------------------------------- #
# Workloads                                                             #
# --------------------------------------------------------------------- #


def _start_daemons(rundir, repeats: int) -> "tuple[Daemon, list[float], list[int]]":
    """Spawn ``repeats`` daemons one after another, each from an empty
    cache; all but the last are stopped.  Returns the live daemon, the
    set-up times and the exit codes of the stopped ones."""
    setups, codes = [], []
    daemon = None
    for _ in range(repeats):
        if daemon is not None:
            codes.append(daemon.stop())
        daemon = Daemon(rundir.fresh("daemon"))
        try:
            setups.append(daemon.start())
        except BaseException:
            daemon.stop()
            raise
    return daemon, setups, codes


def _stats_delta(before: dict, after: dict) -> dict:
    d_req = after["requests"] - before["requests"]
    d_hits = after["hits"] - before["hits"]
    d_batches = after["batches"] - before["batches"]

    def batched(s):
        return (s["mean_batch_occupancy"] or 0.0) * s["batches"]

    return {
        "requests": d_req,
        "hits": d_hits,
        "hit_rate": d_hits / d_req if d_req else 0.0,
        "batches": d_batches,
        "mean_batch_occupancy": (
            (batched(after) - batched(before)) / d_batches
            if d_batches else 0.0
        ),
        "max_queue_depth": after["max_queue_depth"],
        "shed": after["shed"] - before["shed"],
    }


def check_phases(phases, oracle: dict) -> "list[str]":
    """Every phase's replies against the oracle.

    Each connection's first reply for a shape in each phase is compared
    with the oracle, and every later reply on that connection with that
    first one (``Phase.inconsistent``), so a hit path that serves a
    wrong plan is caught even when the miss path that filled the cache
    was right.
    """
    problems = []
    for phase in phases:
        problems += phase.inconsistent
        for conn, plans in sorted(phase.plans.items()):
            problems += check_served_plans(
                plans, oracle, "%s conn %d" % (phase.name, conn))
    return problems


def run_serve(kind: str, seed: int, seconds: float, rundir, tracer,
              setup_repeats: int) -> dict:
    """One serve workload, after ``setup_repeats`` daemon spawns.  Returns
    the result record ``run.py`` turns into metrics: phases, set-up
    times, daemon stats and checks."""
    rng = np.random.default_rng([seed, 0 if kind == "serve_hot" else 1])
    daemon, setups, exit_codes = _start_daemons(rundir, setup_repeats)
    phases = []
    problems = []
    try:
        if kind == "serve_hot":
            universe = log_uniform_shapes(rng, HOT_UNIVERSE)
            warm = Phase("warmup")
            drive(daemon.port,
                  [_rows(universe[c::CONNECTIONS]) for c in range(CONNECTIONS)],
                  None, warm, tracer)
            phases.append(warm)
            # Sized well past what the daemon can answer in the run.
            streams = hot_streams(universe, rng,
                                  int(40000 * max(seconds, 1.0)))
        else:
            per_conn = int(COLD_FRESH_PER_S * max(seconds, 1.0))
            fresh = log_uniform_shapes(rng, per_conn * CONNECTIONS)
            streams = [
                cold_stream(fresh[c::CONNECTIONS],
                            np.random.default_rng([seed, 2, c]))
                for c in range(CONNECTIONS)
            ]
        before = daemon.op({"op": "stats"})["stats"]
        rss = []
        timed = drive(daemon.port, streams, seconds, Phase("timed"), tracer,
                      on_requests=(RSS_AT_REQUESTS,
                                   lambda: rss.append(daemon.peak_rss_mb())))
        phases.append(timed)
        after = daemon.op({"op": "stats"})["stats"]
    finally:
        exit_codes.append(daemon.stop())
    for i, code in enumerate(exit_codes):
        if code != 0:
            problems.append("daemon %d exited with code %d" % (i, code))

    shapes = sorted({s for phase in phases for plans in phase.plans.values()
                     for s in plans})
    oracle, oracle_problems = plan_oracle(shapes, DTYPE, GPU, SCALAR_SAMPLE,
                                          seed)
    problems += oracle_problems
    problems += check_phases(phases, oracle)
    return {
        "kind": kind,
        "setup_s": setups,
        "phases": phases,
        "stats_delta": _stats_delta(before, after),
        "peak_rss_mb": rss[0],
        "distinct_plans_checked": len(shapes),
        "problems": problems,
    }
