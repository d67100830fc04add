"""``sweep_corpus``: the paper corpus through the cross-hardware sweep.

A seeded 32,824-shape corpus (:class:`repro.corpus.CorpusSpec`) runs
through :func:`repro.harness.crosshw.run_crosshw` for every preset GPU,
every ``CROSSHW_SCHEDULES`` entry and every precision the GPU supports,
with ``jobs=1`` and an empty evaluation cache (a cold pass), then once
more through ``evaluate_corpus_cached`` with the in-process memo cleared,
so it reloads the artifacts the last cold pass persisted.  Nothing here
touches the socket or the serving layer.
"""

from __future__ import annotations

import os
import time

from checks import check_digests, check_streamk_rows

#: The preset GPUs of the paper's comparison (the 4-SM toy is left out).
GPUS = ("a100", "h100_sxm", "v100_sxm2", "rtx3090")
#: Stream-K rows per (GPU, dtype) re-planned through plan_query.
STREAMK_SAMPLE = 16


def bindings() -> "list[tuple[str, object]]":
    """Every (GPU name, dtype config) pair the sweep evaluates."""
    from repro.gemm.dtypes import DTYPE_CONFIGS
    from repro.gpu.spec import get_gpu

    return [
        (gpu, dtype)
        for dtype in DTYPE_CONFIGS.values()
        for gpu in GPUS
        if get_gpu(gpu).supports_dtype(dtype)
    ]


def prepare(seed: int, tracer):
    """Set-up: the seeded corpus and a calibration per binding."""
    from repro.corpus.generator import PAPER_CORPUS_SIZE, CorpusSpec, generate_corpus
    from repro.gemm.tiling import Blocking
    from repro.gpu.spec import get_gpu
    from repro.model.paramcache import calibrate_cached

    with tracer.span("corpus.generate"):
        shapes = generate_corpus(CorpusSpec(size=PAPER_CORPUS_SIZE, seed=seed))
    for gpu, dtype in bindings():
        with tracer.span("model.calibrate_cached"):
            calibrate_cached(get_gpu(gpu), Blocking(*dtype.default_blocking),
                             dtype)
    return shapes


def _pass(shapes, tracer, span_prefix: str) -> dict:
    """One sweep over every binding; per-binding latency and cells."""
    from repro.harness.crosshw import CROSSHW_SCHEDULES, run_crosshw

    latencies = []
    cells = {}
    t0 = time.perf_counter()
    for gpu, dtype in bindings():
        t = time.perf_counter()
        with tracer.span("%s.%s" % (span_prefix, gpu)):
            res = run_crosshw([gpu], list(CROSSHW_SCHEDULES), shapes, dtype,
                              jobs=1)
        latencies.append(time.perf_counter() - t)
        cells["%s/%s" % (gpu, dtype.name)] = [
            (c.schedule, c.geomean_time_s, c.mean_time_s, c.mean_quant_eff)
            for c in res.cells
        ]
    return {"wall_s": time.perf_counter() - t0, "latencies": latencies,
            "cells": cells}


def _digests(shapes) -> dict:
    """Digest of each binding's evaluation, as the memo now holds it."""
    from repro.gpu.spec import get_gpu
    from repro.harness import timings_digest
    from repro.harness.parallel import evaluate_corpus_cached

    return {
        "%s/%s" % (gpu, dtype.name): timings_digest(
            evaluate_corpus_cached(shapes, dtype, get_gpu(gpu), jobs=1)
        )
        for gpu, dtype in bindings()
    }


def run_sweep(seed: int, seconds: float, rundir, tracer) -> dict:
    """Cold passes until ``seconds`` have passed (the last one runs to its
    end), then the memo pass and the checks.

    Each cold pass starts from an empty memo and an empty cache
    directory, so its digests come from a fresh computation and every
    later pass must reproduce the first one's bitwise.  The memo pass
    starts from an empty memo too, so its results are the last cold
    pass's artifacts read back from disk.
    """
    from repro.gpu.spec import get_gpu
    from repro.harness.parallel import clear_eval_memo, evaluate_corpus_cached
    from repro.obs.counters import get_counter

    shapes = prepare(seed, tracer)
    evaluations = len(shapes) * len(bindings())
    passes = []
    problems = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        clear_eval_memo()
        os.environ["REPRO_EVAL_CACHE_DIR"] = rundir.fresh("eval")
        passes.append(_pass(shapes, tracer, "harness.crosshw.device"))
        digests = _digests(shapes)
        if len(passes) == 1:
            cold_digests = digests
        else:
            problems += check_digests(cold_digests, digests,
                                      "cold pass %d" % len(passes))
        if passes[-1]["cells"] != passes[0]["cells"]:
            problems.append("cold pass %d cells differ from the first"
                            % len(passes))
    clear_eval_memo()
    disk_hits = get_counter("evalcache.disk_hit")
    with tracer.span("harness.parallel.memo_pass"):
        memo = _pass(shapes, tracer, "harness.crosshw.memo_device")
    memo["disk_hits"] = get_counter("evalcache.disk_hit") - disk_hits
    problems += check_digests(cold_digests, _digests(shapes), "memo pass")
    if memo["cells"] != passes[0]["cells"]:
        problems.append("memo pass cells differ from the cold pass")
    for i, (gpu, dtype) in enumerate(bindings()):
        res = evaluate_corpus_cached(shapes, dtype, get_gpu(gpu), jobs=1)
        problems += check_streamk_rows(
            res.streamk, shapes, dtype, get_gpu(gpu), STREAMK_SAMPLE,
            seed + i, "%s/%s" % (gpu, dtype.name),
        )
    return {
        "shapes": shapes,
        "evaluations_per_pass": evaluations,
        "passes": passes,
        "memo": memo,
        "problems": problems,
    }
