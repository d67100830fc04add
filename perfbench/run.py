"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Workloads (``WORKLOADS.md`` has why each was chosen, the layers each
exercises and bypasses, and the predictions recorded for queued work):

* ``serve_hot``     -- ``repro serve`` over TCP, repeated shapes (hits);
* ``serve_cold``    -- the same daemon, unseen shapes (misses);
* ``sweep_corpus``  -- the paper corpus through the cross-hardware sweep;
* ``simulate_grid`` -- every decomposition through the simulator.

``--trace 0`` runs the workload for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` reports the per-layer metrics: it runs
every workload for a quarter of ``--seconds``, once untraced and once
with spans recorded around the calls into each layer, then times each
layer's public functions directly; the spans are written as a
Chrome/Perfetto trace under ``.perfbench/results/``.

Every run checks the program's outputs; a failed check counts as a
failed operation.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ROOT,
    SRC,
    WORKDIR,
    RunDir,
    Tracer,
    child_env,
    clean_repro_env,
    host_probe_ms,
    median,
    metadata,
    self_peak_rss_mb,
    source_present,
    summarize,
)

WORKLOADS = ("serve_hot", "serve_cold", "sweep_corpus", "simulate_grid")

#: End-to-end metrics, reported by every workload for its own operation:
#: a plan request (serve_*), one (GPU, dtype) corpus evaluation
#: (sweep_corpus) or one simulate_kernel call (simulate_grid).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
)

#: The same figures under the names the issue tracker and ROADMAP use.
ALIASES = {
    "serve_hot": {"qps": "throughput_per_s", "hit_p50_us": "latency_p50_us"},
    "serve_cold": {"qps": "throughput_per_s", "miss_p50_us": "latency_p50_us"},
    "sweep_corpus": {"sweep_shapes_per_s": "throughput_per_s"},
    "simulate_grid": {"sim_segments_per_s": "throughput_per_s"},
}

_DTYPES = ("fp64", "fp16_fp32", "fp32", "bf16_fp32")
_GPUS = ("a100", "h100_sxm", "v100_sxm2", "rtx3090")
_FAMILIES = ("data_parallel", "fixed_split", "stream_k", "two_tile_stream_k",
             "dp_one_tile_stream_k")

#: Per-layer metrics of the traced run, in report order.
PER_LAYER = tuple(
    [("plan.server.service_p50_us." + w, "us")
     for w in ("serve_hot", "serve_cold")]
    + [("plan.server.transport_p50_us." + w, "us")
       for w in ("serve_hot", "serve_cold")]
    + [("plan.service.batches", "count"),
       ("plan.service.mean_batch_occupancy", "requests"),
       ("plan.service.max_queue_depth", "requests"),
       ("plan.service.shed", "count"),
       ("plan.service.hit_rate", "ratio"),
       ("gpu.spec.resolve_gpu_us", "us"),
       ("model.paramcache.gpu_fingerprint_us", "us"),
       ("plan.cache.get_us", "us"),
       ("plan.wire.decode_us", "us"),
       ("plan.wire.encode_us", "us"),
       ("plan.cache.put_us", "us"),
       ("plan.core.plan_batch_1_us", "us"),
       ("plan.core.plan_batch_2_us", "us"),
       ("plan.service.window_wait_us", "us"),
       ("model.calibrate_s", "s"),
       ("corpus.generate_s", "s")]
    + [("plan.core.plan_batch_corpus_s." + d, "s") for d in _DTYPES]
    + [("harness.vectorized.dp_times_s." + d, "s") for d in _DTYPES]
    + [("harness.vectorized.fixed_split_times_s." + d, "s") for d in _DTYPES]
    + [("harness.crosshw.device_s." + g, "s") for g in _GPUS]
    + [("harness.parallel.memo_cold_s", "s"),
       ("harness.parallel.memo_warm_s", "s")]
    + [("schedules.build_s." + f, "s") for f in _FAMILIES]
    + [("gpu.costmodel.build_tasks_s", "s")]
    + [("gpu.executor.run_s." + f, "s") for f in _FAMILIES]
    + [("gpu.executor.segments", "count"),
       ("gemm.execute_s", "s"),
       ("gemm.max_rel_error", "ratio")]
    + [("obs.trace_overhead_frac." + w, "ratio") for w in WORKLOADS]
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


# --------------------------------------------------------------------- #
# One workload                                                          #
# --------------------------------------------------------------------- #


def spawn_setup(workload: str, seed: int, rundir) -> float:
    """Seconds for a fresh interpreter to set the workload up and exit."""
    cache = rundir.fresh("setup")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "setup_child.py"),
         workload, str(seed)],
        cwd=ROOT, env=child_env(cache), stdin=subprocess.DEVNULL,
        capture_output=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed (%d): %s"
                           % (proc.returncode, proc.stderr.decode()[-2000:]))
    return elapsed


def measure(workload: str, seed: int, seconds: float, rundir, tracer,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns its raw figures and accounting."""
    if workload in ("serve_hot", "serve_cold"):
        from serve import run_serve

        raw = run_serve(workload, seed, seconds, rundir, tracer,
                        setup_repeats=max(1, setup_repeats))
        timed = raw["phases"][-1]
        served = timed.hit_rtt if workload == "serve_hot" else timed.miss_rtt
        return {
            "setup": raw["setup_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
            "throughput": timed.succeeded / timed.elapsed_s,
            "latencies": served + timed.failed_rtt,
            "attempted": sum(p.sent for p in raw["phases"]),
            "failed": sum(p.failed for p in raw["phases"])
            + len(raw["problems"]),
            "problems": raw["problems"],
            "accounting": {p.name: p.accounting() for p in raw["phases"]},
            "raw": raw,
        }

    setups = [spawn_setup(workload, seed, rundir)
              for _ in range(setup_repeats)]
    if workload == "sweep_corpus":
        from sweep import bindings, run_sweep

        raw = run_sweep(seed, seconds, rundir, tracer)
        per_pass = [raw["evaluations_per_pass"] / p["wall_s"]
                    for p in raw["passes"]]
        ops = (len(raw["passes"]) + 1) * len(bindings())
        accounting = {"cold_passes": len(raw["passes"]),
                      "memo_pass_disk_hits": raw["memo"]["disk_hits"],
                      "evaluations_per_pass": raw["evaluations_per_pass"],
                      "bindings": len(bindings())}
    else:
        from simulate import NUMERIC_SHAPES, _families, run_simulate

        raw = run_simulate(seed, seconds, tracer)
        per_pass = [p["segments"] / p["wall_s"] for p in raw["passes"]]
        ops = (len(raw["passes"]) * raw["cells_per_pass"]
               + len(NUMERIC_SHAPES) * len(_families()))
        accounting = {"passes": len(raw["passes"]),
                      "cells_per_pass": raw["cells_per_pass"],
                      "segments_per_pass": raw["passes"][0]["segments"]}
    return {
        "setup": setups,
        "peak_rss_mb": self_peak_rss_mb(),
        "throughput": median(per_pass),
        "latencies": [x for p in raw["passes"] for x in p["latencies"]],
        "attempted": ops,
        "failed": len(raw["problems"]),
        "problems": raw["problems"],
        "accounting": accounting,
        "raw": raw,
    }


def latency_summary(m: dict) -> dict:
    """Sample count, p50, p90, p99 and the highest supported tail, in us."""
    return summarize([x * 1e6 for x in m["latencies"]])


def end_to_end(m: dict) -> dict:
    return {
        "setup_s": median(m["setup"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "throughput_per_s": m["throughput"],
        "latency_p50_us": latency_summary(m)["p50"],
    }


# --------------------------------------------------------------------- #
# The traced run                                                        #
# --------------------------------------------------------------------- #


def traced_run(seed: int, seconds: float, rundir, tracer) -> "tuple[dict, list]":
    """Every workload untraced then traced, then the layer timings."""
    import layers

    phase_s = max(1.0, seconds / 4.0)
    off = Tracer(False)
    layer: "dict[str, float]" = {}
    runs = []
    traced = {}
    for w in WORKLOADS:
        repeats = 1 if w.startswith("serve") else 0
        base = measure(w, seed, phase_s, rundir, off, setup_repeats=repeats)
        with tracer.span("workload." + w):
            traced[w] = measure(w, seed, phase_s, rundir, tracer,
                                setup_repeats=repeats)
        layer["obs.trace_overhead_frac." + w] = (
            base["throughput"] / traced[w]["throughput"] - 1.0
        )
        runs += [base, traced[w]]

    for w in ("serve_hot", "serve_cold"):
        timed = traced[w]["raw"]["phases"][-1]
        rtt, srv = ((timed.hit_rtt, timed.hit_server_us) if w == "serve_hot"
                    else (timed.miss_rtt, timed.miss_server_us))
        layer["plan.server.service_p50_us." + w] = median(srv)
        layer["plan.server.transport_p50_us." + w] = median(
            [r * 1e6 - s for r, s in zip(rtt, srv)])
    cold = traced["serve_cold"]["raw"]
    for key in ("batches", "mean_batch_occupancy", "max_queue_depth", "shed",
                "hit_rate"):
        layer["plan.service." + key] = cold["stats_delta"][key]

    layer.update(layers.serving_layers(seed, tracer))
    layer["plan.service.window_wait_us"] = layers.window_wait_us(cold, layer)
    layer.update(layers.corpus_layers(seed, tracer, rundir))

    sweep_passes = len(traced["sweep_corpus"]["raw"]["passes"])
    for g in _GPUS:
        layer["harness.crosshw.device_s." + g] = (
            sum(tracer.durations("harness.crosshw.device." + g)) / sweep_passes
        )

    sim = traced["simulate_grid"]["raw"]
    for f in _FAMILIES:
        layer["schedules.build_s." + f] = (
            sum(tracer.durations("schedules.build." + f)) / len(sim["passes"])
        )
    layer["gpu.executor.segments"] = sim["passes"][0]["segments"]
    layer["gemm.execute_s"] = sum(tracer.durations("gemm.execute"))
    layer["gemm.max_rel_error"] = sim["max_rel_error"]
    layer.update(layers.simulator_layers(sim, tracer))
    return layer, runs


# --------------------------------------------------------------------- #
# Entry point                                                           #
# --------------------------------------------------------------------- #


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _report(workload, meta, metrics, units, runs, problems, aliases):
    print("workload %s  seed %d  traced %s  (%s, python %s, numpy %s, "
          "nproc %s, executor %s, commit %s, host probe %.1f/%.1f ms)"
          % (workload, meta["seed"], meta["traced"], meta["platform"],
             meta["python"], meta["numpy"], meta["nproc"],
             meta["executor_backend"], meta["git_commit"][:12],
             meta["host_probe_ms_start"], meta["host_probe_ms_end"]))
    for run in runs:
        for phase, acct in run["accounting"].items():
            if isinstance(acct, dict):
                print("  %-10s %s" % (phase, json.dumps(acct, sort_keys=True)))
            else:
                print("  %-10s %s" % (phase, acct))
    for name, value in metrics.items():
        also = [a for a, target in aliases.items() if target == name]
        print("  %-44s %16.6g %-8s%s"
              % (name, value, units[name],
                 ("  (%s)" % ", ".join(also)) if also else ""))
    if not meta["traced"]:
        run = runs[0]
        print("  %-44s %16.6g %-8s  (%d of %d operations failed)"
              % ("error_rate", run["failed"] / max(run["attempted"], 1),
                 "ratio", run["failed"], run["attempted"]))
        lat = latency_summary(run)
        print("  latency samples %d; p90 %.6g us; p99 %.6g us; highest "
              "percentile with >= 10 samples beyond it: %s"
              % (lat["n"], lat["p90"], lat["p99"],
                 "p%g = %.6g us" % (lat["tail_q"], lat["tail"])
                 if lat.get("tail_q") else "none"))
    for line in problems[:20]:
        print("  CHECK FAILED: %s" % line)


def _terminate(signum, frame):
    # Unwind through the finally blocks, which reap the daemon and
    # remove the run's scratch directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not source_present():
        print("perfbench: no program source at %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    clean_repro_env()
    rundir = RunDir(args.workload)
    os.environ["REPRO_CACHE_DIR"] = rundir.fresh("cache")
    os.environ["REPRO_EVAL_CACHE_DIR"] = rundir.fresh("eval")
    tracer = Tracer(bool(args.trace))
    results_dir = os.path.join(WORKDIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    try:
        meta = metadata(args.workload, args.seed, args.seconds,
                        bool(args.trace))
        if args.trace:
            metrics, runs = traced_run(args.seed, args.seconds, rundir,
                                       tracer)
            units = dict(PER_LAYER)
            if set(metrics) != set(units):
                raise RuntimeError("per-layer metrics out of step: %r"
                                   % sorted(set(metrics) ^ set(units)))
            metrics = {name: metrics[name] for name, _ in PER_LAYER}
            meta["trace_file"] = tracer.write(
                os.path.join(results_dir, stem + ".chrome.json"),
                "perfbench %s seed %d" % (args.workload, args.seed))
        else:
            runs = [measure(args.workload, args.seed, args.seconds, rundir,
                            tracer)]
            metrics = end_to_end(runs[0])
            units = dict(END_TO_END)
    finally:
        rundir.remove()
    meta["host_probe_ms_end"] = host_probe_ms()
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    aliases = ALIASES[args.workload] if not args.trace else {}
    _report(args.workload, meta, metrics, units, runs, problems, aliases)
    record = {
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "aliases": {a: metrics[t] for a, t in aliases.items()},
        "accounting": [r["accounting"] for r in runs],
        "latency_summary_us": [latency_summary(r) for r in runs],
        "setup_samples_s": [r["setup"] for r in runs],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
