"""``simulate_grid``: every decomposition through the discrete-event
simulator.

For a seeded set of fp64 paper-corpus shapes on the A100 (108 SMs) --
half of them whole waves of data-parallel tiles, half leaving a partial
wave -- each registered decomposition is built and run through
:func:`repro.gpu.simulate_kernel` on the default executor backend.
Small problems are then executed numerically and validated.
"""

from __future__ import annotations

import time

import numpy as np

from checks import check_repeat

GPU = "a100"
#: Waves in the grid: for each wave count w in 1..WAVES, one shape with
#: exactly w full waves of data-parallel tiles and one whose last wave
#: is partial.  Host time per simulation tracks the tile count, so
#: drawing one shape per wave count gives every seed the same size mix,
#: and the bound keeps the python oracle's walk short.
WAVES = 12
#: Small problems executed numerically: one tile-aligned, two with
#: ragged edge tiles.  Their operands are drawn from the seed; their
#: extents are fixed so the run's peak memory does not vary by seed.
NUMERIC_SHAPES = ((256, 192, 128), (200, 136, 77), (130, 300, 201))


def _families() -> "tuple[str, ...]":
    from repro.schedules.registry import DECOMPOSITION_NAMES

    return DECOMPOSITION_NAMES


def prepare(seed: int, tracer):
    """Set-up: pick the grid's shapes from the seeded corpus and tile them."""
    from repro.corpus.generator import PAPER_CORPUS_SIZE, CorpusSpec, generate_corpus
    from repro.gemm.dtypes import FP64
    from repro.gemm.problem import GemmProblem
    from repro.gemm.tiling import Blocking, TileGrid
    from repro.gpu.spec import get_gpu

    gpu = get_gpu(GPU)
    blocking = Blocking(*FP64.default_blocking)
    with tracer.span("corpus.generate"):
        corpus = generate_corpus(CorpusSpec(size=PAPER_CORPUS_SIZE, seed=seed))
    tiles = (-(-corpus[:, 0] // blocking.blk_m)) * (-(-corpus[:, 1] // blocking.blk_n))
    rng = np.random.default_rng([seed, 3])
    picks = [_by_waves(rng, tiles, gpu.num_sms, whole)
             for whole in (True, False)]
    grids = [
        TileGrid(GemmProblem(int(m), int(n), int(k), dtype=FP64), blocking)
        for m, n, k in corpus[np.sort(np.concatenate(picks))]
    ]
    return gpu, grids


def _by_waves(rng, tiles: np.ndarray, p: int, whole: bool) -> np.ndarray:
    """One corpus index per wave count: tiles exactly ``w * p`` (whole)
    or strictly between ``(w - 1) * p`` and ``w * p`` (partial).  A wave
    count the corpus lacks takes the nearest tile count of that kind."""
    kind = (tiles % p == 0) == whole
    picks: "list[int]" = []
    for w in range(1, WAVES + 1):
        lo, hi = ((w * p, w * p) if whole else ((w - 1) * p + 1, w * p - 1))
        pool = np.flatnonzero(kind & (tiles >= lo) & (tiles <= hi))
        pool = np.setdiff1d(pool, picks)
        if len(pool) == 0:
            pool = np.setdiff1d(np.flatnonzero(kind), picks)
            gap = np.abs(tiles[pool] - (lo + hi) / 2)
            pool = pool[gap == gap.min()]
        picks.append(int(rng.choice(pool)))
    return np.asarray(picks)


def grid_pass(gpu, grids, tracer) -> dict:
    """Simulate every (shape, family) cell once."""
    from repro.faults.sweep import build_registered_schedule
    from repro.gpu.simulate import simulate_kernel

    makespans, latencies, segments = [], [], 0
    t0 = time.perf_counter()
    for grid in grids:
        for family in _families():
            t = time.perf_counter()
            with tracer.span("schedules.build." + family):
                schedule = build_registered_schedule(family, grid, gpu)
            with tracer.span("gpu.simulate_kernel." + family):
                result = simulate_kernel(schedule, gpu)
            latencies.append(time.perf_counter() - t)
            makespans.append(result.makespan_cycles)
            segments += sum(len(cta.segments) for cta in result.trace.ctas)
    return {"wall_s": time.perf_counter() - t0, "latencies": latencies,
            "makespans": makespans, "segments": segments}


def numeric_check(seed: int, tracer) -> "tuple[float, list[str]]":
    """Execute small problems numerically under every family and
    validate against the float64 reference."""
    from repro.errors import ValidationError
    from repro.faults.sweep import build_registered_schedule
    from repro.gemm.dtypes import FP64
    from repro.gemm.problem import GemmProblem
    from repro.gemm.tiling import Blocking, TileGrid
    from repro.gemm.validation import validate_result
    from repro.gpu.spec import get_gpu

    gpu = get_gpu(GPU)
    blocking = Blocking(*FP64.default_blocking)
    rng = np.random.default_rng([seed, 4])
    worst, problems = 0.0, []
    for m, n, k in NUMERIC_SHAPES:
        problem = GemmProblem(m, n, k, dtype=FP64)
        a = rng.uniform(-1.0, 1.0, size=(m, k))
        b = rng.uniform(-1.0, 1.0, size=(k, n))
        for family in _families():
            schedule = build_registered_schedule(
                family, TileGrid(problem, blocking), gpu)
            with tracer.span("gemm.execute"):
                out = schedule.execute(a, b)
            try:
                worst = max(worst, validate_result(problem, out, a, b))
            except ValidationError as exc:
                problems.append("%s %s: %s" % (family, problem, exc))
    return worst, problems


def run_simulate(seed: int, seconds: float, tracer) -> dict:
    """Grid passes while another fits in ``seconds`` (at least two, so
    the repeat check has a pair), then the numeric check."""
    gpu, grids = prepare(seed, tracer)
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start
                              + passes[-1]["wall_s"] <= seconds):
        passes.append(grid_pass(gpu, grids, tracer))
    problems = []
    for i, p in enumerate(passes[1:], 1):
        problems += check_repeat(passes[0]["makespans"], p["makespans"],
                                 "pass %d makespans" % i)
    max_err, numeric_problems = numeric_check(seed, tracer)
    problems += numeric_problems
    return {
        "gpu": gpu,
        "grids": grids,
        "passes": passes,
        "cells_per_pass": len(grids) * len(_families()),
        "max_rel_error": max_err,
        "problems": problems,
    }
