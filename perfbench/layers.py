"""Per-layer timings for the traced run.

Each function here calls one layer's public functions from this file,
under a span, on inputs generated from the run's seed, and returns the
per-layer metrics by name.  The serving-path layers reuse the shapes the
serve workloads send; the corpus and simulator layers reuse the sweep's
corpus and the simulator grid.
"""

from __future__ import annotations

import json
import os

import numpy as np

from common import median

#: Calls per scalar micro-timing (each call is one span).
CALLS = 400


def _timed(tracer, name: str, fn, calls: int) -> "list[float]":
    for _ in range(calls):
        with tracer.span(name):
            fn()
    return tracer.durations(name)


def serving_layers(seed: int, tracer) -> dict:
    """Binding resolve, fingerprint, wire codec, cache probe/insert and
    1-/2-row ``plan_batch`` on the serving binding."""
    from repro.gemm.dtypes import get_dtype_config
    from repro.gemm.tiling import Blocking
    from repro.gpu.spec import resolve_gpu
    from repro.model.calibrate import calibrate
    from repro.model.paramcache import gpu_fingerprint
    from repro.plan import PlanCache, plan_batch

    from serve import DTYPE, GPU, HOT_UNIVERSE, hot_streams, log_uniform_shapes

    out = {}
    gpu = resolve_gpu(GPU)
    dtype = get_dtype_config(DTYPE)
    params = calibrate(gpu, Blocking(*dtype.default_blocking), dtype)
    # The same generators as run_serve: serve_hot's universe, and the
    # head of serve_cold's pool of unseen shapes.
    rng = np.random.default_rng([seed, 0])
    universe = log_uniform_shapes(rng, HOT_UNIVERSE)

    out["gpu.spec.resolve_gpu_us"] = 1e6 * median(
        _timed(tracer, "gpu.spec.resolve_gpu", lambda: resolve_gpu(GPU), CALLS)
    )
    out["model.paramcache.gpu_fingerprint_us"] = 1e6 * median(
        _timed(tracer, "model.paramcache.gpu_fingerprint",
               lambda: gpu_fingerprint(gpu), CALLS)
    )

    plans = plan_batch(universe, dtype, gpu, params=params).plans()
    cache = PlanCache(gpu, dtype, persist=False)
    for plan in plans:
        with tracer.span("plan.cache.put"):
            cache.put(plan)
    out["plan.cache.put_us"] = 1e6 * median(tracer.durations("plan.cache.put"))
    lookups = [s for stream in hot_streams(universe, rng, CALLS)
               for s in stream]
    for m, n, k in lookups:
        with tracer.span("plan.cache.get"):
            cache.get(m, n, k)
    out["plan.cache.get_us"] = 1e6 * median(tracer.durations("plan.cache.get"))

    # The wire codec as repro.plan.server applies it: one JSON line in,
    # one reply line out carrying Plan.to_payload().
    m, n, k = lookups[0]
    line = (json.dumps({"op": "plan", "m": m, "n": n, "k": k,
                        "dtype": DTYPE, "gpu": GPU, "id": "c1"})
            + "\n").encode("utf-8")
    plan = cache.get(m, n, k)
    out["plan.wire.decode_us"] = 1e6 * median(_timed(
        tracer, "plan.wire.decode",
        lambda: json.loads(line.strip().decode("utf-8")), CALLS))
    out["plan.wire.encode_us"] = 1e6 * median(_timed(
        tracer, "plan.wire.encode",
        lambda: (json.dumps({"ok": True, "cache": "hit",
                             "plan": plan.to_payload(),
                             "server_latency_us": 1.0, "id": "c1"})
                 + "\n").encode("utf-8"),
        CALLS))

    fresh = log_uniform_shapes(np.random.default_rng([seed, 1]), CALLS // 2)
    for rows in (1, 2):
        name = "plan.core.plan_batch_%d" % rows
        for i in range(0, len(fresh) - rows + 1, 2):
            with tracer.span(name):
                plan_batch(fresh[i:i + rows], dtype, gpu, params=params)
        out[name + "_us"] = 1e6 * median(tracer.durations(name))
    return out


def window_wait_us(cold: dict, layer: dict) -> float:
    """Daemon-side miss time not spent in ``plan_batch``: the median miss
    ``server_latency_us`` minus the 1-/2-row ``plan_batch`` time
    interpolated at the observed batch occupancy."""
    phase = cold["phases"][-1]
    occ = min(max(cold["stats_delta"]["mean_batch_occupancy"], 1.0), 2.0)
    one = layer["plan.core.plan_batch_1_us"]
    two = layer["plan.core.plan_batch_2_us"]
    return median(phase.miss_server_us) - (one + (two - one) * (occ - 1.0))


def corpus_layers(seed: int, tracer, rundir) -> dict:
    """Calibration, corpus generation, the corpus-wide planner and the
    data-parallel / fixed-split evaluators per dtype, and the evaluation
    memo cold and warm."""
    from repro.corpus.generator import PAPER_CORPUS_SIZE, CorpusSpec, generate_corpus
    from repro.gemm.dtypes import DTYPE_CONFIGS, get_dtype_config
    from repro.gemm.tiling import Blocking
    from repro.gpu.spec import get_gpu
    from repro.harness.parallel import clear_eval_memo, evaluate_corpus_cached
    from repro.harness.vectorized import dp_times, fixed_split_times
    from repro.model.calibrate import calibrate
    from repro.plan import plan_batch

    from serve import DTYPE, GPU

    out = {}
    gpu = get_gpu(GPU)
    serve_dtype = get_dtype_config(DTYPE)
    blocking = Blocking(*serve_dtype.default_blocking)
    out["model.calibrate_s"] = median(_timed(
        tracer, "model.calibrate",
        lambda: calibrate(gpu, blocking, serve_dtype), 5))
    spec = CorpusSpec(size=PAPER_CORPUS_SIZE, seed=seed)
    out["corpus.generate_s"] = median(_timed(
        tracer, "corpus.generate_corpus", lambda: generate_corpus(spec), 5))
    corpus = generate_corpus(spec)
    for name, dtype in DTYPE_CONFIGS.items():
        blk = Blocking(*dtype.default_blocking)
        params = calibrate(gpu, blk, dtype)
        out["plan.core.plan_batch_corpus_s." + name] = _timed(
            tracer, "plan.core.plan_batch_corpus." + name,
            lambda: plan_batch(corpus, dtype, gpu, params=params), 1)[0]
        out["harness.vectorized.dp_times_s." + name] = _timed(
            tracer, "harness.vectorized.dp_times." + name,
            lambda: dp_times(corpus, blk, dtype, gpu), 1)[0]
        out["harness.vectorized.fixed_split_times_s." + name] = _timed(
            tracer, "harness.vectorized.fixed_split_times." + name,
            lambda: fixed_split_times(corpus, blk, 2, dtype, gpu), 1)[0]
    clear_eval_memo()
    os.environ["REPRO_EVAL_CACHE_DIR"] = rundir.fresh("eval-layers")
    fp64 = DTYPE_CONFIGS["fp64"]
    for state in ("cold", "warm"):
        out["harness.parallel.memo_%s_s" % state] = _timed(
            tracer, "harness.parallel.evaluate_corpus_cached." + state,
            lambda: evaluate_corpus_cached(corpus, fp64, gpu, jobs=1), 1)[0]
    return out


def simulator_layers(sim: dict, tracer) -> dict:
    """Cost-model task building and the executor per family, over the
    simulator grid, on the backend ``simulate_kernel`` would pick."""
    from repro.faults.sweep import build_registered_schedule
    from repro.gpu.backends import resolve_executor_backend
    from repro.gpu.costmodel import KernelCostModel
    from repro.gpu.executor import Executor

    from simulate import _families

    gpu = sim["gpu"]
    backend = resolve_executor_backend()
    out = {}
    for family in _families():
        for grid in sim["grids"]:
            schedule = build_registered_schedule(family, grid, gpu)
            cost = KernelCostModel(gpu=gpu, blocking=grid.blocking,
                                   dtype=grid.problem.dtype)
            executor = Executor(gpu.total_cta_slots, backend=backend)
            if backend == "python":
                with tracer.span("gpu.costmodel.build_tasks"):
                    work = cost.build_tasks(schedule)
                with tracer.span("gpu.executor.run." + family):
                    executor.run(work)
            else:
                with tracer.span("gpu.costmodel.build_tasks"):
                    work = cost.build_task_arrays(schedule)
                with tracer.span("gpu.executor.run." + family):
                    executor.run_arrays(work)
        out["gpu.executor.run_s." + family] = sum(
            tracer.durations("gpu.executor.run." + family))
    out["gpu.costmodel.build_tasks_s"] = sum(
        tracer.durations("gpu.costmodel.build_tasks"))
    return out
