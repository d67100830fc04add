"""Serving-path throughput and tail latency: the plan cache at work.

``repro serve`` fronts the planning layer (:mod:`repro.plan`) with a
tiered plan cache and a miss batcher.  This bench replays the
same deterministic Zipf trace ``repro loadgen`` ships, twice, against
one in-process :class:`~repro.plan.PlanService`:

* **cold replay** — the cache starts empty, so every first touch of a
  shape is a genuinely cold plan riding a batched ``plan_batch``.
  This pass supplies the *miss* latency column.
* **warm replay** — the identical trace again: 100% cache hits, no
  batches in flight.  This pass supplies the *hit* latency column and
  the steady-state QPS headline.

Two passes rather than one because a mixed replay contaminates the hit
tail: a hit is a microsecond lock-and-lookup, but while the batcher
thread is planning a cold micro-batch the GIL stretches concurrent
hits to milliseconds.  Splitting the phases measures what the serving
contract (docs/SERVING.md) actually promises — the cost of a cold plan
vs the cost of a cached one.  The gates are absolute: a hit-p99
ceiling, a miss-p99 ceiling and a QPS floor.  None is a hit-vs-miss
ratio, which a slower miss path would improve.

The service runs with ``persist=False`` so the cold pass is cold even
when a previous run flushed a disk shard for the same binding.

The artifact lands under ``benchmarks/artifacts/`` and, for a
full-scale run, as ``BENCH_serve.json`` at the repo root (the committed
before/after record).  ``REPRO_BENCH_SERVE_REQUESTS`` shrinks the trace
for smoke runs, whose gates derive from the committed ``BENCH_serve.json``
(twice the committed p99s, half the committed throughput, each clamped
between a noise-safe bound and the absolute one) so a >2x serving
regression fails CI without tripping on box speed.
"""

import json
import os

from repro.harness import write_json
from repro.plan import LoadgenConfig, PlanService, ServeConfig, run_loadgen

from .common import banner, emit

FULL_REQUESTS = 20000
FULL_UNIVERSE = 512

#: Absolute bounds at full scale: warm QPS floor, warm hit-p99 and cold
#: miss-p99 ceilings.  A serving path outside them is broken regardless
#: of box speed.  The hit ceiling is below where the retired 10x
#: hit-vs-miss split would have failed (~370 us against a 3.7 ms miss
#: p99); the miss ceiling is below the 3.7-5.6 ms a fixed 2 ms batch
#: window costs.
FULL_BOUNDS = {"qps": 1000.0, "hit_p99_us": 350.0, "miss_p99_us": 3000.0}
#: Smoke-scale ``(absolute, noise_safe)`` bounds.  The gate is the
#: committed figure worsened 2x, never looser than ``absolute`` and never
#: tighter than ``noise_safe`` (so a fast dev box cannot ratchet the CI
#: bar past runner noise).
SMOKE_BOUNDS = {
    "qps": (500.0, 1000.0),
    "hit_p99_us": (1000.0, 500.0),
    "miss_p99_us": (10000.0, 5000.0),
}

ROOT_ARTIFACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_serve.json",
)


def _scale() -> "tuple[int, int]":
    env = os.environ.get("REPRO_BENCH_SERVE_REQUESTS")
    if env:
        n = int(env)
        return n, max(8, min(FULL_UNIVERSE, n // 8))
    return FULL_REQUESTS, FULL_UNIVERSE


def _smoke_gates() -> "dict[str, float]":
    """>2x regression gates vs the committed full-scale record."""
    try:
        with open(ROOT_ARTIFACT) as fh:
            committed = json.load(fh)
    except (OSError, ValueError):
        committed = {}
    gates = {}
    for name, (absolute, noise_safe) in SMOKE_BOUNDS.items():
        try:
            value = float(committed[name])
        except (KeyError, TypeError, ValueError):
            gates[name] = absolute
        else:
            if name == "qps":
                gates[name] = max(absolute, min(noise_safe, value / 2.0))
            else:
                gates[name] = min(absolute, max(noise_safe, value * 2.0))
    return gates


def run_serving_trace(requests, universe):
    """Replay the Zipf trace cold then warm against one service.

    One client thread, deliberately: the latency columns are *service
    time*, and extra closed-loop clients only add GIL queueing delay
    (the interpreter parks a waiting thread for multiples of the 5 ms
    switch interval, which would swamp a microsecond hit path).  Python
    threads add no throughput to pure-Python work either, so the QPS
    headline is what one client sustains back-to-back.
    """
    config = LoadgenConfig(
        requests=requests, universe=universe, seed=0, clients=1
    )
    service = PlanService(ServeConfig(persist=False))
    try:
        cold = run_loadgen(config, service=service)
        warm = run_loadgen(config, service=service)
    finally:
        service.close()
    return cold, warm


def test_serving_throughput(benchmark):
    requests, universe = _scale()
    cold, warm = benchmark.pedantic(
        run_serving_trace, args=(requests, universe), rounds=1, iterations=1
    )
    full = (requests, universe) == (FULL_REQUESTS, FULL_UNIVERSE)
    gates = FULL_BOUNDS if full else _smoke_gates()

    banner(
        "Serving path: %d-request Zipf trace over %d shapes, replayed "
        "cold then warm" % (requests, universe)
    )
    print("cold replay : %7.0f req/s, %5.1f%% hit rate (%d cold plans)"
          % (cold["qps"], 100.0 * cold["hit_rate"], cold["misses"]))
    print("warm replay : %7.0f req/s, %5.1f%% hit rate"
          % (warm["qps"], 100.0 * warm["hit_rate"]))
    print("hit latency : p50 %8.1f us   p99 %8.1f us   (warm replay)"
          % (warm["hit_p50_us"], warm["hit_p99_us"]))
    print("miss latency: p50 %8.1f us   p99 %8.1f us   (cold plans)"
          % (cold["miss_p50_us"], cold["miss_p99_us"]))
    print("gates (%s): qps >= %.0f, hit p99 <= %.0f us, miss p99 <= %.0f us"
          % ("full" if full else "smoke", gates["qps"],
             gates["hit_p99_us"], gates["miss_p99_us"]))

    payload = {
        "requests": requests,
        "universe": universe,
        "full_scale": bool(full),
        "qps": warm["qps"],
        "qps_cold_replay": cold["qps"],
        "hit_rate_cold_replay": cold["hit_rate"],
        "hit_p50_us": warm["hit_p50_us"],
        "hit_p99_us": warm["hit_p99_us"],
        "miss_p50_us": cold["miss_p50_us"],
        "miss_p99_us": cold["miss_p99_us"],
        "gates": gates,
        "cold_replay": cold,
        "warm_replay": warm,
    }
    emit("serve", payload)

    assert cold["failed"] == 0 and warm["failed"] == 0
    assert warm["misses"] == 0  # the warm replay must be pure hits
    if full:
        write_json(ROOT_ARTIFACT, payload)
    assert warm["qps"] >= gates["qps"]
    assert warm["hit_p99_us"] <= gates["hit_p99_us"]
    assert cold["miss_p99_us"] <= gates["miss_p99_us"]
