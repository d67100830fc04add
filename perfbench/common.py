"""Shared plumbing: run isolation, in-memory tracing, statistics, metadata.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can
report a missing source tree cleanly before anything else is loaded.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import sys
import threading
import time
from contextlib import contextmanager, nullcontext

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The program's source tree; the benchmark imports and spawns it from here.
SRC = os.path.join(ROOT, "src")
#: Everything a run writes lives under this directory (git-ignored).
WORKDIR = os.path.join(ROOT, ".perfbench")

#: Latency charged to a failed request: the client's transport timeout.
#: A failed request misses every latency limit, so it must weigh in the
#: percentiles instead of silently dropping out of them.
FAILED_LATENCY_S = 30.0


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def clean_repro_env() -> None:
    """Drop every ``REPRO_*`` knob inherited from the caller's shell.

    The workloads must measure the program's defaults (executor backend,
    disk caches, profiler off), whatever the environment says.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_env(cache_dir: str) -> dict:
    """Environment for a spawned program process: source on the path and
    private, empty cache directories."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    env["REPRO_EVAL_CACHE_DIR"] = cache_dir
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class RunDir:
    """A fresh scratch directory for one run, removed when the run ends.

    Each run (and each daemon inside it) gets its own empty
    ``REPRO_CACHE_DIR``/``REPRO_EVAL_CACHE_DIR`` under here, so no
    calibration, plan shard or evaluation artifact leaks between runs.
    """

    def __init__(self, label: str):
        self.path = os.path.join(
            WORKDIR, "run-%s-%d-%d" % (label, os.getpid(), time.time_ns())
        )
        os.makedirs(self.path)
        self._n = 0

    def fresh(self, tag: str) -> str:
        self._n += 1
        path = os.path.join(self.path, "%02d-%s" % (self._n, tag))
        os.makedirs(path)
        return path

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# --------------------------------------------------------------------- #
# Tracing                                                               #
# --------------------------------------------------------------------- #


_NULL_SPAN = nullcontext()


class Tracer:
    """Spans recorded from the benchmark's own files, kept in memory.

    A span is a name, a start, an end and its parent (encoded in the
    ``/``-joined path, as :class:`repro.obs.profiler.SpanEvent` does).
    Durations are also kept per span name for the per-layer metrics.
    When disabled, :meth:`span` returns a shared no-op context.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._events: "list[tuple]" = []
        self._durations: "dict[str, list[float]]" = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str):
        """Context manager timing one call into a layer."""
        return self._span(name) if self.enabled else _NULL_SPAN

    @contextmanager
    def _span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        path = stack[-1] + "/" + name if stack else name
        stack.append(path)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._events.append(
                    (path, start, end, os.getpid(), threading.get_ident(),
                     len(stack))
                )
                self._durations.setdefault(name, []).append(end - start)

    def durations(self, name: str) -> "list[float]":
        with self._lock:
            return list(self._durations.get(name, ()))

    def write(self, path: str, title: str) -> str:
        """Export every span as Chrome/Perfetto JSON through
        :mod:`repro.obs.export`."""
        from repro.obs.export import profile_to_chrome, write_chrome_trace
        from repro.obs.profiler import Profile, SpanEvent

        profile = Profile()
        with self._lock:
            events = list(self._events)
        for ev in events:
            profile.record(SpanEvent(*ev))
        return write_chrome_trace(path, profile_to_chrome(profile, title))


# --------------------------------------------------------------------- #
# Statistics                                                            #
# --------------------------------------------------------------------- #


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> "float | None":
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond
    it, or ``None`` when ``n`` is below twenty."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def summarize(values) -> dict:
    """Median, p90, p99 and the supported tail of one latency sample."""
    n = len(values)
    if not n:
        return {"n": 0}
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50": median(values),
        "p90": percentile(values, 90.0),
        "p99": percentile(values, 99.0),
        "tail_q": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


# --------------------------------------------------------------------- #
# Metadata                                                              #
# --------------------------------------------------------------------- #


def self_peak_rss_mb() -> float:
    """This process's peak resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from /proc."""
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/%d/status" % pid)


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, recorded with each run.

    It does not touch the program.  A slow probe means the host was
    contended while the run measured, which explains a slow run.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        times.append(time.perf_counter() - t0)
    return 1e3 * sorted(times)[2]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark also runs from exported trees, which have none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    import numpy as np
    from repro.gpu.backends import resolve_executor_backend

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "executor_backend": resolve_executor_backend(),
        "host_probe_ms_start": host_probe_ms(),
        "argv": sys.argv[1:],
    }
