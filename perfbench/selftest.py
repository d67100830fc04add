"""Show that the benchmark's correctness checks catch corrupted output.

    python3 perfbench/selftest.py

Each case feeds a check one clean and one corrupted input (a plan field,
a cache-hit reply whose miss reply was right, a corpus timing, a
simulated makespan, each moved by one ulp or one unit) and requires the
clean input to pass and the corrupted one to fail.  The run uses fresh
cache directories under the checkout and removes them at exit.  Exits 0
when every corruption is caught.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from common import (  # noqa: E402
    SRC,
    RunDir,
    Tracer,
    clean_repro_env,
    source_present,
)


def _cases():
    from repro.gemm.dtypes import get_dtype_config
    from repro.gpu.spec import get_gpu
    from repro.harness import timings_digest
    from repro.harness.vectorized import evaluate_corpus

    import checks
    import simulate
    from serve import Phase, check_phases, log_uniform_shapes

    rng = np.random.default_rng(0)
    shapes = [tuple(int(v) for v in row)
              for row in log_uniform_shapes(rng, 32)]
    oracle, problems = checks.plan_oracle(shapes, "fp16_fp32", "a100", 8, 0)
    assert not problems, problems
    served = copy.deepcopy(oracle)
    for payload in served.values():
        payload["provenance"] = "cache:hot"
    yield ("served plans equal the oracle",
           checks.check_served_plans(served, oracle), False)
    bad = copy.deepcopy(served)
    bad[shapes[3]]["g"] += 1
    yield ("a served plan with a wrong grid size",
           checks.check_served_plans(bad, oracle), True)
    bad = copy.deepcopy(served)
    bad[shapes[5]]["time_s"] = float(np.nextafter(bad[shapes[5]]["time_s"], 1))
    yield ("a served plan one ulp slower",
           checks.check_served_plans(bad, oracle), True)

    def phases(hit_shape=None):
        """A right warm-up (misses) on two connections, then hits of the
        same shapes; ``hit_shape``'s hit reply alone is one ulp off."""
        warm, timed = Phase("warmup"), Phase("timed")
        for conn in range(2):
            warm.plans[conn] = {s: dict(oracle[s], provenance="plan")
                                for s in shapes[conn::2]}
            timed.plans[conn] = {s: dict(oracle[s], provenance="cache:hot")
                                 for s in shapes[conn::2]}
        if hit_shape is not None:
            plan = timed.plans[shapes.index(hit_shape) % 2][hit_shape]
            plan["time_s"] = float(np.nextafter(plan["time_s"], 1))
        return [warm, timed]

    yield ("right misses, then right hits", check_phases(phases(), oracle),
           False)
    yield ("right misses, then one hit one ulp off",
           check_phases(phases(shapes[7]), oracle), True)

    dtype = get_dtype_config("fp64")
    gpu = get_gpu("a100")
    corpus = np.asarray(shapes, dtype=np.int64)
    res = evaluate_corpus(corpus, dtype, gpu)
    digest = {"a100/fp64": timings_digest(res)}
    nudged = dataclasses.replace(
        res, streamk=np.nextafter(res.streamk, np.inf))
    again = evaluate_corpus(corpus, dtype, gpu)
    yield ("a re-computation with identical timings",
           checks.check_digests(digest, {"a100/fp64": timings_digest(again)},
                                "again"), False)
    yield ("a memo pass whose timings moved one ulp",
           checks.check_digests(
               digest, {"a100/fp64": timings_digest(nudged)}, "memo"), True)
    yield ("stream-K rows equal plan_query",
           checks.check_streamk_rows(res.streamk, corpus, dtype, gpu, 4, 0,
                                     "clean"), False)
    yield ("stream-K rows one ulp off plan_query",
           checks.check_streamk_rows(nudged.streamk, corpus, dtype, gpu, 4, 0,
                                     "nudged"), True)

    sim_gpu, grids = simulate.prepare(0, Tracer(False))
    first = simulate.grid_pass(sim_gpu, grids[:2], Tracer(False))["makespans"]
    again = simulate.grid_pass(sim_gpu, grids[:2], Tracer(False))["makespans"]
    yield ("a repeated simulation", checks.check_repeat(first, again, "sim"),
           False)
    moved = list(again)
    moved[-1] = float(np.nextafter(moved[-1], np.inf))
    yield ("a repeated simulation one ulp apart",
           checks.check_repeat(first, moved, "sim"), True)


def main() -> int:
    if not source_present():
        print("selftest: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    clean_repro_env()
    rundir = RunDir("selftest")
    os.environ["REPRO_CACHE_DIR"] = rundir.fresh("cache")
    os.environ["REPRO_EVAL_CACHE_DIR"] = rundir.fresh("eval")
    ok = True
    try:
        for label, problems, must_fail in _cases():
            caught = bool(problems)
            good = caught == must_fail
            ok &= good
            print("%-4s %-42s %s" % ("ok" if good else "FAIL", label,
                                     ("caught: " + problems[0]) if caught
                                     else "passes"))
    finally:
        rundir.remove()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
