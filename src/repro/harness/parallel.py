"""Sharded + memoized corpus evaluation.

:func:`repro.harness.vectorized.evaluate_corpus` is embarrassingly
parallel over problems — every output element depends only on its own
(m, n, k) row — so a corpus can be split into contiguous shards, each
evaluated in a worker process, and the per-system arrays concatenated
back in order.  Sharding is **exact**: the merged
:class:`~repro.harness.vectorized.SystemTimings` is bitwise identical to
the single-process result for any shard size (asserted in the tests).

On top of sharding sits a **content-keyed memo**: evaluations are keyed
by SHA-256 of the shape array bytes plus the dtype name, the GPU
fingerprint (:func:`repro.model.paramcache.gpu_fingerprint`), and the
engine version — so Table 1, Figure 6, and Figure 7 share one FP64 corpus
evaluation instead of recomputing three, and *any* identical corpus
re-query is free.  The memo is in-process by default; point
``REPRO_EVAL_CACHE_DIR`` (or the ``cache_dir`` argument) at a directory
to persist evaluations across processes as ``.npz`` artifacts
(write-temp + atomic rename, safe under concurrent writers).

Workers re-derive calibration constants through the persistent
calibration cache (:mod:`repro.model.paramcache`), so a cold pool does
not re-run simulator microbenchmarks per worker.

The pool is **self-healing**: every shard is submitted asynchronously
with a monotonic watchdog deadline, retried with exponential backoff on
worker crash or timeout (``harness.shard_retries`` /
``harness.shard_timeouts`` counters), and — when the pool is unusable or
retries are exhausted — evaluated in-process instead
(``harness.shard_serial_fallbacks``).  Because shard evaluation is
deterministic, a sweep that loses workers mid-flight still returns the
bitwise-exact corpus result.  Corrupt persisted evaluation artifacts are
quarantined (renamed ``*.corrupt``, counted in
``evalcache.corrupt_quarantined``) and recomputed rather than re-parsed
forever; artifact *writes* that hit a full or read-only filesystem are
dropped (``evalcache.write_failed``) instead of crashing the sweep.

On top of self-healing sits **durability**
(:mod:`repro.harness.journal`, docs/CHECKPOINTING.md): pass
``journal=DIR`` and every shard completion is committed to a write-ahead
journal (fsync'd CRC-framed records + a digest-verified per-shard npz
store) the instant it lands.  ``resume=True`` replays the journal on
startup and skips completed shards (``journal.skipped_shards``), so a
sweep killed at *any* instant — SIGKILL included — resumes to the
bitwise-identical merged result.  During a sweep, SIGINT/SIGTERM install
a drain handler: dispatch stops, in-flight completions are journaled,
workers are terminated and joined (an ``atexit`` guard reaps any pool a
harder teardown leaves behind), and :class:`~repro.errors.SweepInterrupted`
propagates so the CLI can exit with the distinct resumable status.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import multiprocessing
import os
import signal
import tempfile
import threading
import time
import zipfile

import numpy as np

from ..errors import ConfigurationError, SweepInterrupted
from ..gemm.dtypes import DtypeConfig, get_dtype_config
from ..gemm.tiling import Blocking
from ..gpu.spec import GpuSpec
from ..model.paramcache import calibrate_cached, gpu_fingerprint
from ..obs import counters as _counters
from ..obs import profiler as _profiler
from ..obs.profiler import span
from .journal import ShardJournal
from .vectorized import SystemTimings, evaluate_corpus

__all__ = [
    "EVAL_ENGINE_VERSION",
    "corpus_fingerprint",
    "evaluate_corpus_cached",
    "evaluate_corpus_sharded",
    "merge_timings",
    "clear_eval_memo",
    "wipe_eval_cache",
]

#: Bump whenever the numerical output of ``evaluate_corpus`` changes, so
#: persisted evaluation artifacts from older engines are never reused.
EVAL_ENGINE_VERSION = 1

_ENV_EVAL_CACHE_DIR = "REPRO_EVAL_CACHE_DIR"

#: Minimum rows per shard: below this, process fan-out costs more than the
#: vectorized evaluation itself.
_MIN_SHARD_ROWS = 256

#: Default per-shard wall-clock budget (seconds).  Generous — a shard is
#: a vectorized evaluation of at most a few thousand rows — but finite,
#: so a crashed worker (whose result never arrives) cannot wedge a sweep.
_DEFAULT_SHARD_TIMEOUT_S = 300.0

#: Default retry budget per shard before falling back to in-process
#: evaluation, and the base of the exponential backoff between attempts.
_DEFAULT_MAX_RETRIES = 2
_DEFAULT_RETRY_BACKOFF_S = 0.05

#: Poll interval of the dispatch loop: bounds how quickly a drain signal
#: or a watchdog deadline is noticed without busy-waiting.
_POLL_INTERVAL_S = 0.02

#: Test seam: when set, called as ``hook(shard_index, attempt)`` inside
#: the worker before evaluating — lets the test suite crash or fail a
#: specific (shard, attempt) deterministically.  Inherited by forked
#: workers; never set in production code paths.
_SHARD_FAULT_HOOK = None

#: Test seam: when set, called as ``hook(event, shard_index)`` in the
#: *parent* dispatch loop (``event`` is ``"done"``) after each shard
#: completion is recorded — lets tests inject a signal/interrupt at a
#: deterministic point between shard boundaries.
_DISPATCH_HOOK = None

_MEMO: "dict[str, SystemTimings]" = {}


# --------------------------------------------------------------------- #
# Signal-safe lifecycle: drain on SIGINT/SIGTERM, reap pools at exit     #
# --------------------------------------------------------------------- #

#: Set by the drain handler; checked by the dispatch loop at shard
#: boundaries.  A plain Event keeps the handler async-signal-trivial.
_DRAIN_EVENT = threading.Event()

#: Pools currently alive, terminated by the ``atexit`` guard if a
#: non-local teardown (unhandled exception past our ``finally``,
#: interpreter shutdown) would otherwise orphan their worker children.
_LIVE_POOLS: "set" = set()


def _reap_live_pools() -> None:
    while _LIVE_POOLS:
        pool = _LIVE_POOLS.pop()
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - best-effort reaper
            pass


atexit.register(_reap_live_pools)


def _drain_handler(signum, frame) -> None:
    """SIGINT/SIGTERM: request a drain; never interrupt a journal write."""
    _DRAIN_EVENT.set()


@contextlib.contextmanager
def _drain_signals():
    """Install the drain handler for the duration of a sweep.

    Replacing Python's default KeyboardInterrupt delivery means a signal
    can no longer land *inside* a journal append or cache write — the
    handler only sets a flag, and the dispatch loop drains at the next
    shard boundary.  Outside the main thread (where ``signal.signal``
    is illegal) the sweep runs with default delivery; the ``finally``
    blocks and the atexit guard still reap the pool.
    """
    installed = []
    try:
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    previous = signal.signal(sig, _drain_handler)
                except (ValueError, OSError):  # pragma: no cover
                    continue
                installed.append((sig, previous))
        yield
    finally:
        for sig, previous in installed:
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _DRAIN_EVENT.clear()


def _check_drain() -> None:
    """Raise :class:`SweepInterrupted` if a drain signal is pending."""
    if _DRAIN_EVENT.is_set():
        _counters.inc_counter("harness.drained_interrupts")
        _DRAIN_EVENT.clear()
        raise SweepInterrupted()


# --------------------------------------------------------------------- #
# Sharding                                                               #
# --------------------------------------------------------------------- #


def merge_timings(parts: "list[SystemTimings]") -> SystemTimings:
    """Concatenate shard results back into one :class:`SystemTimings`."""
    if not parts:
        raise ConfigurationError("cannot merge zero shards")
    first = parts[0]
    for p in parts[1:]:
        if p.dtype_name != first.dtype_name or p.gpu_name != first.gpu_name:
            raise ConfigurationError("shards disagree on dtype/GPU")
        if p.cublas_variant_names != first.cublas_variant_names:
            raise ConfigurationError("shards disagree on cuBLAS variants")
    if len(parts) == 1:
        return first
    choice = None
    if all(p.cublas_choice is not None for p in parts):
        choice = np.concatenate([p.cublas_choice for p in parts])
    return SystemTimings(
        shapes=np.concatenate([p.shapes for p in parts]),
        dtype_name=first.dtype_name,
        gpu_name=first.gpu_name,
        streamk=np.concatenate([p.streamk for p in parts]),
        singleton=np.concatenate([p.singleton for p in parts]),
        cublas=np.concatenate([p.cublas for p in parts]),
        oracle=np.concatenate([p.oracle for p in parts]),
        cublas_choice=choice,
        cublas_variant_names=list(first.cublas_variant_names),
    )


def _eval_shard(
    args: "tuple[np.ndarray, str, GpuSpec, bool, int, int]",
) -> "tuple[SystemTimings, dict, dict]":
    """Worker entry point: evaluate one contiguous shard.

    Returns the shard timings plus the worker's observability state — a
    profiler snapshot (empty unless profiling is on) and a counters
    snapshot — so the parent can merge worker telemetry into one profile
    (see :mod:`repro.obs`).
    """
    shapes, dtype_name, gpu, profile, shard_index, attempt = args
    if _SHARD_FAULT_HOOK is not None:
        _SHARD_FAULT_HOOK(shard_index, attempt)
    if profile:
        _profiler.enable_profiling()
    _profiler.reset_profile()
    _counters.reset_counters()
    with span("shard"):
        res = evaluate_corpus(shapes, get_dtype_config(dtype_name), gpu)
    return res, _profiler.snapshot_profile(), _counters.snapshot_counters()


def _resolve_jobs(jobs: "int | None") -> int:
    """``None``/``1`` => in-process; ``<= 0`` => one per *available* CPU.

    "Available" respects the process's CPU affinity mask
    (``os.sched_getaffinity``) — under cgroup/affinity-restricted
    runners, ``os.cpu_count()`` reports the machine, not the quota, and
    oversubscribing the mask makes every worker a straggler.  Constrained
    cgroups can expose an empty or one-element mask (and some runtimes
    raise ``ValueError``); the result is always clamped to >= 1 so the
    sweep degrades to in-process evaluation instead of building a
    zero-worker pool.
    """
    if jobs is None or jobs == 1:
        return 1
    if jobs <= 0:
        try:
            available = len(os.sched_getaffinity(0))
        except (AttributeError, OSError, ValueError):
            # non-Linux, or a runtime that refuses the syscall
            available = os.cpu_count() or 1
        return max(1, available)
    return jobs


def _eval_shard_inproc(
    shapes: np.ndarray, dtype: DtypeConfig, gpu: GpuSpec
) -> SystemTimings:
    """Evaluate one shard in the parent process (journaled serial sweeps)."""
    with span("shard"):
        return evaluate_corpus(shapes, dtype, gpu)


def _eval_shard_serial(
    shapes: np.ndarray, dtype: DtypeConfig, gpu: GpuSpec
) -> SystemTimings:
    """In-process shard evaluation (graceful-degradation path)."""
    _counters.inc_counter("harness.shard_serial_fallbacks")
    with span("shard_serial_fallback"):
        return evaluate_corpus(shapes, dtype, gpu)


def _shard_bounds(
    n: int, jobs: int, shard_rows: "int | None"
) -> "list[tuple[int, int]]":
    """Deterministic contiguous shard layout for an ``n``-row corpus."""
    if shard_rows is None:
        shard_rows = max(_MIN_SHARD_ROWS, -(-n // (4 * max(jobs, 1))))
    shard_rows = max(1, int(shard_rows))
    edges = list(range(0, n, shard_rows)) + [n]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _shard_content_fp(shapes: np.ndarray) -> str:
    """Short content fingerprint of one shard's rows (journal forensics)."""
    return hashlib.sha256(
        np.ascontiguousarray(shapes).tobytes()
    ).hexdigest()[:16]


def _commit_shard(
    journal: "ShardJournal | None",
    chaos,
    shard_index: int,
    shard_args: tuple,
    res: SystemTimings,
) -> None:
    """Journal a completion, then evaluate the chaos kill point.

    Ordering is the crash contract: the result is durably committed
    (npz + fsync'd WAL record) *before* the kill point fires, so a chaos
    SIGKILL always leaves a journal that resumes past this shard.
    """
    if journal is not None:
        journal.record_done(
            shard_index, res, fingerprint=_shard_content_fp(shard_args[0])
        )
    if _DISPATCH_HOOK is not None:
        _DISPATCH_HOOK("done", shard_index)
    if chaos is not None:
        chaos.on_shard_done()


def _run_shards_self_healing(
    pool,
    shards: "list[tuple]",
    dtype: DtypeConfig,
    gpu: GpuSpec,
    max_retries: int,
    shard_timeout: "float | None",
    retry_backoff_s: float,
    results: "list[SystemTimings | None]",
    pending: "list[int]",
    journal: "ShardJournal | None" = None,
    chaos=None,
) -> None:
    """Drive ``pending`` shards through the pool with retry and fallback.

    Every shard is submitted asynchronously and watched against a
    monotonic deadline; a shard whose worker raises, crashes (its result
    never arrives => watchdog timeout, journaled as ``shard_abandoned``),
    or hangs past ``shard_timeout`` is resubmitted up to ``max_retries``
    times with exponential backoff, then evaluated in-process.  Shard
    evaluation is deterministic, so any path yields the bitwise-identical
    result.  The loop polls (never blocks unboundedly), so drain signals
    and watchdog deadlines are honored within ``_POLL_INTERVAL_S``.
    """
    now = time.monotonic
    outstanding = []
    for i in pending:
        if journal is not None:
            journal.record_started(
                i, fingerprint=_shard_content_fp(shards[i][0])
            )
        deadline = None if shard_timeout is None else now() + shard_timeout
        outstanding.append(
            (i, 0, pool.apply_async(_eval_shard, (shards[i],)), deadline)
        )
    while outstanding:
        _check_drain()
        progressed = False
        still, retry_queue = [], []
        for i, attempt, handle, deadline in outstanding:
            if handle.ready():
                progressed = True
                try:
                    res, prof_snap, counter_snap = handle.get()
                except Exception:
                    _counters.inc_counter("harness.shard_failures")
                    retry_queue.append((i, attempt))
                else:
                    # Fold worker telemetry into this process: spans from
                    # the shard land in one profile (distinguished by
                    # pid), counters add up.
                    _profiler.merge_profile(prof_snap)
                    _counters.merge_counters(counter_snap)
                    _counters.inc_counter("harness.shards_ok")
                    results[i] = res
                    _commit_shard(journal, chaos, i, shards[i], res)
            elif deadline is not None and now() > deadline:
                # Watchdog: the worker hung or died without a result.
                progressed = True
                _counters.inc_counter("harness.shard_timeouts")
                if journal is not None:
                    journal.record_abandoned(
                        i, "watchdog deadline (%.1fs) exceeded" % shard_timeout
                    )
                retry_queue.append((i, attempt))
            else:
                still.append((i, attempt, handle, deadline))
        for i, attempt in retry_queue:
            shapes_i = shards[i][0]
            if attempt >= max_retries:
                results[i] = _eval_shard_serial(shapes_i, dtype, gpu)
                _commit_shard(journal, chaos, i, shards[i], results[i])
                continue
            _counters.inc_counter("harness.shard_retries")
            if retry_backoff_s > 0.0:
                time.sleep(retry_backoff_s * (2.0 ** attempt))
            next_args = shards[i][:5] + (attempt + 1,)
            try:
                handle = pool.apply_async(_eval_shard, (next_args,))
            except Exception:
                # Pool itself is unusable (terminated, broken): degrade.
                _counters.inc_counter("harness.pool_unusable")
                results[i] = _eval_shard_serial(shapes_i, dtype, gpu)
                _commit_shard(journal, chaos, i, shards[i], results[i])
            else:
                deadline = (
                    None if shard_timeout is None else now() + shard_timeout
                )
                still.append((i, attempt + 1, handle, deadline))
        outstanding = still
        if outstanding and not progressed:
            time.sleep(_POLL_INTERVAL_S)


def _run_shards_serial(
    shards: "list[tuple]",
    dtype: DtypeConfig,
    gpu: GpuSpec,
    results: "list[SystemTimings | None]",
    pending: "list[int]",
    journal: "ShardJournal | None",
    chaos,
) -> None:
    """In-process shard loop (``jobs=1`` journaled sweeps, broken pools)."""
    for i in pending:
        _check_drain()
        if journal is not None:
            journal.record_started(
                i, fingerprint=_shard_content_fp(shards[i][0])
            )
        results[i] = _eval_shard_inproc(shards[i][0], dtype, gpu)
        _counters.inc_counter("harness.shards_ok")
        _commit_shard(journal, chaos, i, shards[i], results[i])


def _pool_worker_init() -> None:
    """Reset signal disposition in freshly-forked pool workers.

    Workers fork while the parent's drain handler is installed (the pool
    is created inside :func:`_drain_signals`), and ``fork`` inherits
    signal handlers — so without this reset a worker would *swallow* the
    ``SIGTERM`` that ``Pool.terminate()`` relies on, and the parent's
    ``join()`` would hang forever on a busy worker.  ``SIGTERM`` goes
    back to the default (die, so terminate/atexit reaping always works);
    ``SIGINT`` is ignored (a terminal Ctrl-C is delivered to the whole
    foreground process group — only the *parent* should drain, journal,
    and then reap the workers, instead of every worker dying mid-shard
    with a KeyboardInterrupt traceback).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextlib.contextmanager
def _managed_pool(ctx, processes: int):
    """A worker pool that cannot leak children.

    Registered in ``_LIVE_POOLS`` so the ``atexit`` guard reaps workers
    even if teardown is skipped (interpreter exit mid-sweep); the normal
    path terminates + joins in ``finally`` — including on
    :class:`SweepInterrupted` and KeyboardInterrupt — so no orphaned
    worker survives the parent.  ``_pool_worker_init`` restores default
    signal handling inside each worker so ``terminate()`` is always able
    to kill them (see its docstring for the fork-inheritance trap).
    """
    pool = ctx.Pool(processes=processes, initializer=_pool_worker_init)
    _LIVE_POOLS.add(pool)
    try:
        yield pool
    finally:
        _LIVE_POOLS.discard(pool)
        pool.terminate()
        pool.join()


def _sweep_shards(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jobs: int,
    bounds: "list[tuple[int, int]]",
    results: "list[SystemTimings | None]",
    pending: "list[int]",
    max_retries: int,
    shard_timeout: "float | None",
    retry_backoff_s: float,
    journal: "ShardJournal | None",
    chaos,
) -> None:
    """Evaluate ``pending`` shards (pool when possible, else in-process)."""
    profiling = _profiler.profiling_enabled()
    shards = [
        (shapes[lo:hi], dtype.name, gpu, profiling, idx, 0)
        for idx, (lo, hi) in enumerate(bounds)
    ]
    # Warm the persistent calibration cache before forking so workers hit
    # the memo (fork) or the on-disk store (spawn) instead of racing on
    # the simulator microbenchmarks.
    calibrate_cached(gpu, Blocking(*dtype.default_blocking), dtype)
    with span("sharded_pool"), _drain_signals():
        if jobs == 1:
            _run_shards_serial(
                shards, dtype, gpu, results, pending, journal, chaos
            )
            return
        try:
            ctx = multiprocessing.get_context()
            pool_cm = _managed_pool(ctx, min(jobs, len(pending)))
            pool = pool_cm.__enter__()
        except Exception:
            # No pool at all (fork limits, sandboxing): evaluate serially.
            _counters.inc_counter("harness.pool_unusable")
            for i in pending:
                _check_drain()
                if journal is not None:
                    journal.record_started(
                        i, fingerprint=_shard_content_fp(shards[i][0])
                    )
                results[i] = _eval_shard_serial(shards[i][0], dtype, gpu)
                _commit_shard(journal, chaos, i, shards[i], results[i])
            return
        try:
            _run_shards_self_healing(
                pool,
                shards,
                dtype,
                gpu,
                max_retries=max_retries,
                shard_timeout=shard_timeout,
                retry_backoff_s=retry_backoff_s,
                results=results,
                pending=pending,
                journal=journal,
                chaos=chaos,
            )
        finally:
            pool_cm.__exit__(None, None, None)


def evaluate_corpus_sharded(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jobs: "int | None" = None,
    shard_rows: "int | None" = None,
    max_retries: int = _DEFAULT_MAX_RETRIES,
    shard_timeout: "float | None" = _DEFAULT_SHARD_TIMEOUT_S,
    retry_backoff_s: float = _DEFAULT_RETRY_BACKOFF_S,
    journal: "str | None" = None,
    resume: bool = False,
    chaos=None,
    workers: "int | None" = None,
    join: bool = False,
    lease_seconds: "float | None" = None,
    heartbeat_seconds: "float | None" = None,
    chaos_worker=None,
) -> SystemTimings:
    """Evaluate a corpus across ``jobs`` worker processes, self-healing.

    ``jobs=None``/``1`` runs in-process (no pool); ``jobs<=0`` means "one
    per available CPU" (affinity-aware).  ``shard_rows`` overrides the
    shard size (default: roughly four shards per worker for load balance,
    never below ``_MIN_SHARD_ROWS``).  Results are independent of every
    knob: a worker crash, a hung shard (``shard_timeout`` seconds — also
    the per-shard watchdog deadline — ``None`` disables), exhausted
    retries (``max_retries``, exponential ``retry_backoff_s`` base), or
    an unusable pool all degrade to in-process evaluation of the affected
    shards, and the merged result stays bitwise identical to the
    single-process evaluation.

    ``journal=DIR`` makes the sweep **durable** (docs/CHECKPOINTING.md):
    each shard completion is committed to a write-ahead journal under
    ``DIR`` the moment it lands, ``resume=True`` replays the journal and
    skips digest-verified completed shards, and killing the process at
    any instant — including SIGKILL via ``chaos``
    (:class:`repro.faults.chaos.ChaosKill`) — loses at most the open
    shards.  SIGINT/SIGTERM during any sharded sweep drain cleanly:
    dispatch stops, workers are reaped, and
    :class:`~repro.errors.SweepInterrupted` is raised.

    ``workers > 1`` or ``join=True`` routes the sweep through the
    **lease fabric** (:mod:`repro.harness.fabric`): worker processes
    claim shards from the shared journal via atomic leases, heartbeat
    while evaluating, and dead workers' shards are reclaimed after
    ``lease_seconds`` — both require ``journal``.  ``chaos_worker``
    (:class:`repro.faults.chaos.ChaosWorkerKill` or a ``POINT[:K]``
    spec) arms a worker-targeted kill point.  A fabric that cannot run
    at all (lease-I/O failure, unusable journal) degrades to this
    function's ordinary journaled path (``fabric.unusable``) — never
    an abort.
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    jobs = _resolve_jobs(jobs)
    n = shapes.shape[0]

    if join or (workers is not None and workers > 1):
        if journal is None:
            raise ConfigurationError(
                "the lease fabric (workers/join) requires a shared "
                "journal directory: pass journal=DIR"
            )
        from . import fabric  # local import: fabric imports this module

        try:
            if join:
                return fabric.join_sweep(
                    shapes, dtype, gpu, journal,
                    shard_rows=shard_rows,
                    lease_seconds=lease_seconds,
                    heartbeat_seconds=heartbeat_seconds,
                    chaos=chaos_worker,
                )
            return fabric.fabric_sweep(
                shapes, dtype, gpu, journal,
                workers=workers,
                shard_rows=shard_rows,
                lease_seconds=lease_seconds,
                heartbeat_seconds=heartbeat_seconds,
                chaos_worker=chaos_worker,
            )
        except (SweepInterrupted, ConfigurationError):
            raise
        except Exception:
            # Degradation ladder: a fabric that cannot run falls back
            # to the ordinary journaled single-process path below.
            _counters.inc_counter("fabric.unusable")
    if journal is None and (jobs == 1 or n <= _MIN_SHARD_ROWS):
        return evaluate_corpus(shapes, dtype, gpu)

    bounds = _shard_bounds(n, jobs, shard_rows)
    if journal is None:
        results: "list[SystemTimings | None]" = [None] * len(bounds)
        _sweep_shards(
            shapes, dtype, gpu, jobs, bounds, results,
            list(range(len(bounds))), max_retries, shard_timeout,
            retry_backoff_s, journal=None, chaos=chaos,
        )
        with span("merge_shards"):
            return merge_timings([r for r in results if r is not None])

    key = corpus_fingerprint(shapes, dtype, gpu)
    jr = ShardJournal.open(
        journal,
        corpus_key=key,
        bounds=bounds,
        resume=resume,
        dtype_name=dtype.name,
        gpu_name=gpu.name,
    )
    try:
        bounds = jr.bounds  # resumed journals own the shard layout
        results = [None] * len(bounds)
        for i in sorted(jr.completed):
            res = jr.load_completed(i)
            if res is not None:
                results[i] = res
                _counters.inc_counter("journal.skipped_shards")
        pending = [i for i, r in enumerate(results) if r is None]
        if pending:
            try:
                _sweep_shards(
                    shapes, dtype, gpu, jobs, bounds, results, pending,
                    max_retries, shard_timeout, retry_backoff_s,
                    journal=jr, chaos=chaos,
                )
            except SweepInterrupted as exc:
                exc.completed = sum(r is not None for r in results)
                exc.total = len(results)
                exc.journal_dir = journal
                raise
        with span("merge_shards"):
            merged = merge_timings([r for r in results if r is not None])
        jr.compact()
        return merged
    finally:
        jr.close()


# --------------------------------------------------------------------- #
# Content-keyed memoization                                              #
# --------------------------------------------------------------------- #


def corpus_fingerprint(
    shapes: np.ndarray, dtype: DtypeConfig, gpu: GpuSpec
) -> str:
    """Content key for one evaluation: corpus bytes + dtype + GPU + engine."""
    shapes = np.ascontiguousarray(np.asarray(shapes, dtype=np.int64))
    h = hashlib.sha256()
    h.update(b"repro-eval-v%d" % EVAL_ENGINE_VERSION)
    h.update(dtype.name.encode("utf-8"))
    h.update(gpu_fingerprint(gpu).encode("utf-8"))
    h.update(np.int64(shapes.shape[0]).tobytes())
    h.update(shapes.tobytes())
    return h.hexdigest()


def _eval_cache_dir(cache_dir: "str | None") -> "str | None":
    return cache_dir or os.environ.get(_ENV_EVAL_CACHE_DIR) or None


def _eval_entry_path(root: str, key: str) -> str:
    return os.path.join(
        root, "eval", "eval_v%d_%s.npz" % (EVAL_ENGINE_VERSION, key[:24])
    )


def _quarantine_artifact(path: str, counter: str) -> None:
    """Move a corrupt cache artifact aside so it is never re-parsed.

    The artifact is renamed to ``<path>.corrupt`` (kept for post-mortem,
    ignored by every loader) and the event counted — without this, a
    half-written or bit-rotted file would silently fail and be re-read on
    every single run.  Rename failures are swallowed: a read-only cache
    directory degrades to the old re-parse behavior rather than erroring.
    """
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        pass
    _counters.inc_counter(counter)


def _load_eval(path: str, key: str) -> "SystemTimings | None":
    if not os.path.exists(path):
        return None  # plain miss, not corruption
    try:
        # np.load leaves a path it opened open when the zip is truncated;
        # a file object we own is closed whatever np.load raises.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as doc:
            if str(doc["key"]) != key:
                return None  # truncated-hash collision: a miss, keep it
            shapes = doc["shapes"]
            choice = doc["cublas_choice"]
            if choice.shape[0] != shapes.shape[0]:
                choice = None  # evaluation was stored without selections
            return SystemTimings(
                shapes=shapes,
                dtype_name=str(doc["dtype_name"]),
                gpu_name=str(doc["gpu_name"]),
                streamk=doc["streamk"],
                singleton=doc["singleton"],
                cublas=doc["cublas"],
                oracle=doc["oracle"],
                cublas_choice=choice,
                cublas_variant_names=[str(v) for v in doc["variant_names"]],
            )
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        # The file exists but cannot be parsed as this engine's artifact:
        # quarantine it and recompute instead of retrying forever.
        _quarantine_artifact(path, "evalcache.corrupt_quarantined")
        return None


def _store_eval(path: str, key: str, res: SystemTimings) -> None:
    """Persist one evaluation atomically; never raises.

    A full or read-only filesystem (``ENOSPC``/``EROFS``/any ``OSError``)
    removes the partial temporary file, bumps ``evalcache.write_failed``,
    and the sweep continues uncached instead of crashing.
    """
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".eval_", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    key=np.str_(key),
                    shapes=res.shapes,
                    dtype_name=np.str_(res.dtype_name),
                    gpu_name=np.str_(res.gpu_name),
                    streamk=res.streamk,
                    singleton=res.singleton,
                    cublas=res.cublas,
                    oracle=res.oracle,
                    cublas_choice=res.cublas_choice
                    if res.cublas_choice is not None
                    else np.empty(0, dtype=np.int64),
                    variant_names=np.asarray(res.cublas_variant_names),
                )
            os.replace(tmp, path)  # atomic publish
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        # ENOSPC/EROFS/unwritable cache dir: stay in-memory only, loudly.
        _counters.inc_counter("evalcache.write_failed")


def evaluate_corpus_cached(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    jobs: "int | None" = None,
    cache_dir: "str | None" = None,
    journal: "str | None" = None,
    resume: bool = False,
) -> SystemTimings:
    """Content-memoized :func:`evaluate_corpus` (optionally sharded).

    Identical corpora (same shape bytes, dtype, GPU, engine version) are
    evaluated once per process; with a persistent cache directory, once
    per machine.  ``journal``/``resume`` thread through to
    :func:`evaluate_corpus_sharded` for sweeps that must survive being
    killed (a memo/disk hit returns immediately — the cached artifact
    already *is* the completed sweep).
    """
    shapes = np.asarray(shapes, dtype=np.int64)
    key = corpus_fingerprint(shapes, dtype, gpu)
    res = _MEMO.get(key)
    if res is not None:
        _counters.inc_counter("evalcache.memo_hit")
        return res
    root = _eval_cache_dir(cache_dir)
    if root is not None:
        res = _load_eval(_eval_entry_path(root, key), key)
        if res is not None:
            _counters.inc_counter("evalcache.disk_hit")
            _MEMO[key] = res
            return res
    _counters.inc_counter("evalcache.miss")
    res = evaluate_corpus_sharded(
        shapes, dtype, gpu, jobs=jobs, journal=journal, resume=resume
    )
    _MEMO[key] = res
    if root is not None:
        _store_eval(_eval_entry_path(root, key), key, res)
    return res


def clear_eval_memo() -> None:
    """Drop the in-process evaluation memo."""
    _MEMO.clear()


def wipe_eval_cache(cache_dir: "str | None" = None) -> int:
    """Delete persisted evaluation artifacts; returns the number removed."""
    root = _eval_cache_dir(cache_dir)
    if root is None:
        return 0
    removed = 0
    try:
        entries = os.listdir(os.path.join(root, "eval"))
    except OSError:
        return 0
    for name in entries:
        if name.startswith("eval_") and name.endswith((".npz", ".corrupt")):
            try:
                os.unlink(os.path.join(root, "eval", name))
                removed += 1
            except OSError:
                pass
    return removed
