"""Correctness checks, kept apart so ``selftest.py`` can feed them
corrupted data and show that they fail.

Each check returns a list of human-readable problems; an empty list is
a pass.  Every problem counts as one failed operation of the run.
"""

from __future__ import annotations

import numpy as np


def plan_mismatches(got: dict, want: dict) -> "list[str]":
    """Field-by-field differences between two plan payloads, ignoring
    provenance (a cache hit must equal a cold plan in every other field)."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key == "provenance":  # where the copy came from, not the plan
            continue
        if got.get(key) != want.get(key):
            problems.append(
                "%s: got %r, want %r" % (key, got.get(key), want.get(key))
            )
    return problems


def check_served_plans(
    served: "dict[tuple[int, int, int], dict]",
    oracle: "dict[tuple[int, int, int], dict]",
    label: str = "served",
) -> "list[str]":
    """Every distinct served plan must equal the oracle's plan."""
    problems = []
    for shape in sorted(served):
        want = oracle.get(shape)
        if want is None:
            problems.append("%s %r: no oracle plan" % (label, shape))
            continue
        diff = plan_mismatches(served[shape], want)
        if diff:
            problems.append("%s %r: %s" % (label, shape, "; ".join(diff)))
    return problems


def plan_oracle(
    shapes: "list[tuple[int, int, int]]",
    dtype_name: str,
    gpu_name: str,
    scalar_sample: int,
    seed: int,
) -> "tuple[dict, list[str]]":
    """Oracle payloads for ``shapes`` under freshly calibrated params.

    The batched planner prices every shape in one call; a seeded sample
    is re-planned through the scalar :func:`repro.plan.plan_query` and
    must agree with the batched rows.  Returns ``(payloads, problems)``.
    """
    from repro.gemm.dtypes import get_dtype_config
    from repro.gemm.tiling import Blocking
    from repro.gpu.spec import resolve_gpu
    from repro.model.calibrate import calibrate
    from repro.plan import plan_batch, plan_query

    dtype = get_dtype_config(dtype_name)
    gpu = resolve_gpu(gpu_name)
    params = calibrate(gpu, Blocking(*dtype.default_blocking), dtype)
    if not shapes:
        return {}, []
    arr = np.asarray(shapes, dtype=np.int64)
    batch = plan_batch(arr, dtype, gpu, params=params)
    payloads = {
        shapes[i]: batch.plan(i).to_payload() for i in range(len(shapes))
    }
    problems = []
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(shapes), size=min(scalar_sample, len(shapes)),
                       replace=False)
    for i in sorted(int(i) for i in picks):
        m, n, k = shapes[i]
        scalar = plan_query(m, n, k, dtype, gpu, params=params).to_payload()
        diff = plan_mismatches(payloads[shapes[i]], scalar)
        if diff:
            problems.append(
                "plan_query%r != plan_batch row: %s"
                % (shapes[i], "; ".join(diff))
            )
    return payloads, problems


def check_digests(
    first: "dict[str, str]", again: "dict[str, str]", label: str
) -> "list[str]":
    """Two independently produced evaluations (a re-computation, or a
    reload of the persisted artifact) must be bitwise equal."""
    problems = []
    for key in sorted(set(first) | set(again)):
        if first.get(key) != again.get(key):
            problems.append(
                "%s: first cold digest %s != %s digest %s"
                % (key, str(first.get(key))[:16], label,
                   str(again.get(key))[:16])
            )
    return problems


def check_streamk_rows(
    times: np.ndarray,
    shapes: np.ndarray,
    dtype,
    gpu,
    sample: int,
    seed: int,
    label: str,
) -> "list[str]":
    """A seeded sample of a sweep's Stream-K column must equal the
    scalar :func:`repro.plan.plan_query` time for the same shape."""
    from repro.gemm.tiling import Blocking
    from repro.model.paramcache import calibrate_cached
    from repro.plan import plan_query

    params = calibrate_cached(gpu, Blocking(*dtype.default_blocking), dtype)
    rng = np.random.default_rng(seed)
    problems = []
    for i in sorted(int(i) for i in rng.choice(len(shapes), size=sample,
                                               replace=False)):
        m, n, k = (int(v) for v in shapes[i])
        want = plan_query(m, n, k, dtype, gpu, params=params).time_s
        if float(times[i]) != want:
            problems.append(
                "%s row %d %r: stream_k time %r != plan_query %r"
                % (label, i, (m, n, k), float(times[i]), want)
            )
    return problems


def check_repeat(first: "list[float]", again: "list[float]",
                 label: str) -> "list[str]":
    """A deterministic simulation must repeat bit for bit."""
    if len(first) != len(again):
        return ["%s: %d results vs %d on repeat"
                % (label, len(first), len(again))]
    return [
        "%s[%d]: %r then %r" % (label, i, a, b)
        for i, (a, b) in enumerate(zip(first, again))
        if a != b
    ]
