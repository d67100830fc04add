"""The planning layer: pure, cacheable schedule selection.

This module is the **plan** side of the repo's plan/evaluate split:

* **Planning** (here) answers "which decomposition, which grid size,
  and how fast do we predict it runs?" for a ``(m, n, k, dtype, gpu)``
  query using only closed-form arithmetic — the Appendix A.1 grid-size
  model, the exact two-tile walk, and the analytical memory roofline.
  A plan never materializes a schedule, never runs the discrete-event
  executor, and depends only on its inputs plus the calibrated model
  constants; that purity is what makes plans cacheable
  (:mod:`repro.plan.cache`) and servable (:mod:`repro.plan.service`).
* **Evaluation** (:mod:`repro.harness`, :mod:`repro.gpu.executor`)
  consumes plans: corpus sweeps price entire shape populations through
  :func:`plan_batch`, and the simulator replays materialized schedules
  event by event to validate the closed forms.

:func:`plan_batch` is the one planning entry point (:func:`plan_query`
is a one-row call).  It has two private paths that compute the same
arithmetic:

* the **row path** (:func:`_plan_rows`) plans each shape with Python
  ints and floats.  It serves batches of fewer than
  :data:`_ROW_PATH_MAX_ROWS` rows: a scalar query, a cache fill, and the
  1–2-row misses the serving batcher plans, where numpy's per-array
  setup would cost more than the arithmetic;
* the **vectorized path** (:func:`_plan_vectorized`) plans every larger
  batch, up to a 32,824-shape corpus sweep, with per-regime masks over
  whole columns.

The row path repeats the vectorized operations in the same order, so a
shape gets a bitwise-identical plan whichever path, batch size or row
position it is planned in.

The regime logic (mirroring :meth:`repro.ensembles.streamk_library.
StreamKLibrary.plan` and :func:`repro.schedules.hybrid.two_tile_schedule`):

==============================  ========================================
tiles % p == 0                  pure data-parallel waves (``g = min(p,t)``)
tiles < p                       basic Stream-K, ``g`` from the A.1 model
otherwise                       two-tile Stream-K + DP hybrid, ``g = p``
==============================  ========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..gemm.dtypes import DtypeConfig, get_dtype_config
from ..gemm.tiling import Blocking
from ..gpu.analytic import basic_streamk_walk_batch, two_tile_walk_batch
from ..gpu.costmodel import KernelCostModel
from ..gpu.spec import GpuSpec
from ..model.cost import StreamKModelParams
from ..model.gridsize import select_grid_sizes_batch
from ..model.paramcache import calibrate_cached, gpu_fingerprint
from ..obs.profiler import span

__all__ = [
    "PLAN_ENGINE_VERSION",
    "KIND_NAMES",
    "Plan",
    "PlanBatch",
    "plan_query",
    "plan_batch",
    "traffic_bytes",
    "roofline_time",
]

#: Version of the planning arithmetic.  Bump whenever a change alters any
#: field of any :class:`Plan` for any query — persisted plan-cache shards
#: carry this number and are invalidated wholesale on mismatch (see
#: docs/SERVING.md, "Invalidation").
PLAN_ENGINE_VERSION = 1

#: Plan-kind code table: ``PlanBatch.kinds`` stores indices into this
#: tuple, :attr:`Plan.kind` stores the decoded name.
KIND_NAMES = ("data_parallel", "basic_stream_k", "two_tile")

_L2_RESIDENCY = 0.8
_PIPELINE_STAGES = 2

#: Batches with fewer rows than this take the row path (:func:`_plan_rows`);
#: larger ones take the vectorized path (:func:`_plan_vectorized`).  Set at
#: the measured crossover: 2-vCPU x86 box, Python 3.11, numpy 2.4,
#: log-uniform a100/fp16_fp32 serving shapes, median of 400 batches per
#: size, four runs.  Row path vs vectorized: 4 rows 215-322 vs 406-624 us;
#: 8 rows faster in all four runs (e.g. 484 vs 505 us); 9 rows faster in
#: two (e.g. 630 vs 632 us); 10 rows slower in three (e.g. 580 vs 539 us).
_ROW_PATH_MAX_ROWS = 9


def _ceil_div(a: np.ndarray, b) -> np.ndarray:
    return -(-a // b)


def _as_shapes(shapes: np.ndarray) -> np.ndarray:
    shapes = np.asarray(shapes, dtype=np.int64)
    if shapes.ndim != 2 or shapes.shape[1] != 3:
        raise ConfigurationError("shapes must be an (N, 3) array of m, n, k")
    return shapes


def _split_shapes(shapes: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    shapes = _as_shapes(shapes)
    return shapes[:, 0], shapes[:, 1], shapes[:, 2]


# --------------------------------------------------------------------- #
# Plan records                                                          #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Plan:
    """One launch decision: what to run and how fast we predict it runs.

    A plan is a pure function of ``(m, n, k, dtype, gpu)`` plus the
    calibrated model constants, which is why it carries its own cache
    key material (:attr:`gpu_fingerprint`, :attr:`engine_version`): two
    plans compare equal iff the planner would make the same decision
    again.  :attr:`provenance` records *where this copy came from*
    (fresh model evaluation or a cache tier) and is excluded from
    equality — a cache hit must be indistinguishable from a cold plan.
    """

    #: Problem shape the plan answers.
    m: int
    n: int
    k: int
    #: Canonical dtype name (``fp64``/``fp32``/``fp16_fp32``/...).
    dtype_name: str
    #: Name of the GPU spec the plan targets (display only; the
    #: binding key is :attr:`gpu_fingerprint`).
    gpu_name: str
    #: Schedule family: one of :data:`KIND_NAMES`.
    kind: str
    #: Grid size (number of CTAs) to launch.
    g: int
    #: Output-tile count at the plan's blocking.
    num_tiles: int
    #: MAC iterations per output tile (``ceil(k / blk_k)``).
    iters_per_tile: int
    #: Fraction of MAC iterations on tile-aligned work (drives the
    #: analytical memory model's L2-reuse estimate).
    k_aligned_fraction: float
    #: Number of CTAs that store partial sums for a peer to fix up.
    fixup_stores: int
    #: Predicted kernel makespan in cycles (compute roofline leg).
    makespan_cycles: float
    #: Predicted wall-clock kernel time in seconds (full roofline:
    #: max(compute, memory) + launch latency).
    time_s: float
    #: :data:`PLAN_ENGINE_VERSION` of the arithmetic that produced this.
    engine_version: int
    #: SHA-256 fingerprint of every field of the target ``GpuSpec``.
    gpu_fingerprint: str
    #: Where this copy came from: ``"model"`` for a fresh evaluation,
    #: ``"cache:hot"`` / ``"cache:disk"`` for cache tiers.  Excluded
    #: from equality so cached plans compare equal to cold ones.
    provenance: str = field(default="model", compare=False)

    def to_payload(self) -> dict:
        """JSON-serializable dict (wire format and disk-cache format)."""
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "dtype": self.dtype_name,
            "gpu": self.gpu_name,
            "kind": self.kind,
            "g": self.g,
            "num_tiles": self.num_tiles,
            "iters_per_tile": self.iters_per_tile,
            "k_aligned_fraction": self.k_aligned_fraction,
            "fixup_stores": self.fixup_stores,
            "makespan_cycles": self.makespan_cycles,
            "time_s": self.time_s,
            "engine_version": self.engine_version,
            "gpu_fingerprint": self.gpu_fingerprint,
            "provenance": self.provenance,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Plan":
        """Inverse of :meth:`to_payload`; lossless for every field."""
        return cls(
            m=int(payload["m"]),
            n=int(payload["n"]),
            k=int(payload["k"]),
            dtype_name=str(payload["dtype"]),
            gpu_name=str(payload["gpu"]),
            kind=str(payload["kind"]),
            g=int(payload["g"]),
            num_tiles=int(payload["num_tiles"]),
            iters_per_tile=int(payload["iters_per_tile"]),
            k_aligned_fraction=float(payload["k_aligned_fraction"]),
            fixup_stores=int(payload["fixup_stores"]),
            makespan_cycles=float(payload["makespan_cycles"]),
            time_s=float(payload["time_s"]),
            engine_version=int(payload["engine_version"]),
            gpu_fingerprint=str(payload["gpu_fingerprint"]),
            provenance=str(payload.get("provenance", "model")),
        )


@dataclass
class PlanBatch:
    """Column-oriented plans for ``N`` problems (one :func:`plan_batch`).

    Array fields are aligned with ``shapes`` rows; :meth:`plan` decodes
    one row into a scalar :class:`Plan`.  Corpus sweeps consume the
    columns directly (``time_s`` is the Stream-K column of
    :func:`repro.harness.vectorized.evaluate_corpus`); the serving path
    decodes rows for its cache.
    """

    shapes: np.ndarray
    dtype_name: str
    gpu_name: str
    #: ``(N,)`` int8 codes into :data:`KIND_NAMES`.
    kinds: np.ndarray
    g: np.ndarray
    num_tiles: np.ndarray
    iters_per_tile: np.ndarray
    k_aligned_fraction: np.ndarray
    fixup_stores: np.ndarray
    makespan_cycles: np.ndarray
    time_s: np.ndarray
    engine_version: int
    gpu_fingerprint: str

    def __len__(self) -> int:
        return int(self.shapes.shape[0])

    def plan(self, i: int, provenance: str = "model") -> Plan:
        """Decode row ``i`` into a scalar :class:`Plan`."""
        return Plan(
            m=int(self.shapes[i, 0]),
            n=int(self.shapes[i, 1]),
            k=int(self.shapes[i, 2]),
            dtype_name=self.dtype_name,
            gpu_name=self.gpu_name,
            kind=KIND_NAMES[int(self.kinds[i])],
            g=int(self.g[i]),
            num_tiles=int(self.num_tiles[i]),
            iters_per_tile=int(self.iters_per_tile[i]),
            k_aligned_fraction=float(self.k_aligned_fraction[i]),
            fixup_stores=int(self.fixup_stores[i]),
            makespan_cycles=float(self.makespan_cycles[i]),
            time_s=float(self.time_s[i]),
            engine_version=self.engine_version,
            gpu_fingerprint=self.gpu_fingerprint,
            provenance=provenance,
        )

    def plans(self, provenance: str = "model") -> "list[Plan]":
        """All rows decoded into scalar :class:`Plan` records."""
        return [self.plan(i, provenance) for i in range(len(self))]


# --------------------------------------------------------------------- #
# Vectorized analytical memory model (mirrors gpu.memory)               #
# --------------------------------------------------------------------- #


def traffic_bytes(
    m: np.ndarray,
    n: np.ndarray,
    k: np.ndarray,
    tiles_m: np.ndarray,
    tiles_n: np.ndarray,
    g: np.ndarray,
    aligned_fraction: np.ndarray,
    fixup_stores: np.ndarray,
    blocking: Blocking,
    dtype: DtypeConfig,
    gpu: GpuSpec,
) -> np.ndarray:
    """Element-wise port of AnalyticalMemoryModel.traffic (alpha=1, beta=0)."""
    in_b = dtype.input_bytes
    out_b = dtype.output_bytes
    a_pass = tiles_m.astype(np.float64) * blocking.blk_m * k * in_b
    b_pass = tiles_n.astype(np.float64) * blocking.blk_n * k * in_b

    usable_l2 = gpu.l2_bytes * _L2_RESIDENCY
    w = np.clip(g, 1, gpu.total_cta_slots)
    w_n = np.minimum(w, tiles_n)
    w_m = np.minimum(tiles_m, _ceil_div(w, tiles_n))
    working_set = (
        _PIPELINE_STAGES
        * (w_m * blocking.blk_m + w_n * blocking.blk_n)
        * blocking.blk_k
        * in_b
    )
    amp_a_aligned = np.where(working_set > usable_l2, tiles_n, tiles_n / w_n)
    amp_b_aligned = np.where(working_set > usable_l2, tiles_m, tiles_m / w_m)
    # Skewed schedules keep most L2 reuse; cap their extra traffic at 2x
    # the aligned wave (see repro.gpu.memory._SKEW_AMPLIFICATION).
    amp_a_skewed = np.minimum(tiles_n, 2.0 * amp_a_aligned)
    amp_b_skewed = np.minimum(tiles_m, 2.0 * amp_b_aligned)
    f = aligned_fraction
    amp_a = f * amp_a_aligned + (1.0 - f) * amp_a_skewed
    amp_b = f * amp_b_aligned + (1.0 - f) * amp_b_skewed
    resident = (a_pass + b_pass) <= usable_l2
    amp_a = np.where(resident, 1.0, amp_a)
    amp_b = np.where(resident, 1.0, amp_b)

    out = m.astype(np.float64) * n * out_b
    tile_accum = blocking.blk_m * blocking.blk_n * out_b
    partials = fixup_stores.astype(np.float64) * tile_accum * 2.0
    return a_pass * amp_a + b_pass * amp_b + out + partials


def roofline_time(
    makespan_cycles: np.ndarray,
    dram_bytes: np.ndarray,
    g: np.ndarray,
    gpu: GpuSpec,
) -> np.ndarray:
    """max(compute, memory) + launch, with memory bandwidth capped by the
    number of CTAs actually resident (sparse grids cannot saturate HBM)."""
    bandwidth = gpu.achieved_bandwidth(g)
    return (
        np.maximum(makespan_cycles / gpu.clock_hz, dram_bytes / bandwidth)
        + gpu.launch_latency_s
    )


# --------------------------------------------------------------------- #
# Row path: the same arithmetic on Python ints and floats               #
# --------------------------------------------------------------------- #
#
# Each helper below repeats one vectorized stage (above, or a batch walk in
# repro.gpu.analytic) operation for operation (same operand order, same
# int -> float conversion points), so its floats are bitwise equal to that
# stage's column entry.  Where the vectorized stage adds a masked-out 0.0 to
# a positive cycle count, the row path skips the no-op addition.  They do
# not reuse the scalar oracles in repro.gpu.analytic, which sum some terms
# in a different order.
# tests/plan/test_plan_rows.py pins the parity.


def _two_tile_row(
    t: int, ipt: int, p: int, cost: KernelCostModel
) -> "tuple[float, float, int]":
    """One row of :func:`repro.gpu.analytic.two_tile_walk_batch`:
    (makespan, f, stores)."""
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st = cost.store_tile_cycles
    w = t // p
    sk_tiles = t - (w - 1) * p
    base, rem = divmod(sk_tiles * ipt, p)
    step = c * ipt + st
    dp_tail = (w - 1) * step
    makespan = -math.inf
    stores = 0
    begin = head = 0  # the first range starts on a tile edge
    # The first `rem` CTAs own one iteration more than the rest.
    for share, ctas in ((base + 1, rem), (base, p - rem)):
        for _ in range(ctas):
            begin += share
            head_next = -begin % ipt
            now = pro + (c * head + sp) if head else pro
            if head_next:  # the range ends mid-tile: wait for the peer
                last_part = ipt - head_next
                now = now + (share - head - last_part) // ipt * step
                own_end = now + c * last_part
                peer_signal = pro + c * head_next + sp
                now = max(own_end, peer_signal) + fx + st
                stores += 1
            else:
                now = now + (share - head) // ipt * step
            finish = now + dp_tail
            if finish > makespan:
                makespan = finish
            head = head_next
    aligned_fraction = float((t - sk_tiles) * ipt) / float(t * ipt)
    return makespan, aligned_fraction, stores


def _grid_size_row(
    total: int, ipt: int, params: StreamKModelParams, max_grid: int
) -> int:
    """One row of :func:`repro.model.gridsize.select_grid_sizes_batch`:
    the A.1 argmin over ``g in [1, min(max_grid, total)]``, smallest ``g``
    on ties."""
    a, b, c, d = params.a, params.b, params.c, params.d
    best_g, best = 1, math.inf
    for g in range(1, min(max_grid, total) + 1):
        ipc = -(-total // g)
        peers = -(-ipt // ipc)
        time = a + b * (peers > 1) + c * ipc + d * (peers - 1)
        if time < best:
            best_g, best = g, time
    return best_g


def _streamk_row(
    t: int, g: int, ipt: int, cost: KernelCostModel
) -> "tuple[float, int]":
    """One row of :func:`repro.gpu.analytic.basic_streamk_walk_batch`:
    (makespan, stores).

    CTAs are walked last to first, carrying ``sig(x+1) - (x+1)*fx`` of the
    CTA after ``x``: the maximum over ``x``'s fixup peers is that first
    peer's value (the argument is in ``basic_streamk_walk_batch``).  A
    boundary off a tile edge is a CTA ``x >= 1`` entering mid-tile.
    """
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st = cost.store_tile_cycles
    total = t * ipt
    g_eff = min(g, total)
    base, rem = divmod(total, g_eff)
    cut = rem * (base + 1)
    step = c * ipt + st
    makespan = -math.inf
    stores = 0
    val_next = -math.inf  # sig(x+1) - (x+1)*fx; read only if x+1 is a peer
    for x in range(g_eff - 1, -1, -1):
        if x < rem:
            begin, share = x * (base + 1), base + 1
        else:
            begin, share = x * base + rem, base
        head = -begin % ipt
        hh = head if head < share else share
        val = pro + c * hh + sp - fx * x
        if head:
            now = pro + (c * hh + sp)
            if x:
                stores += 1
        else:
            now = float(pro)
        n_full, last_part = divmod(share - hh, ipt)
        finish = now + n_full * step + c * last_part
        if last_part:
            q = begin + hh + (n_full + 1) * ipt - 1  # last iteration of the tile
            y_last = q // (base + 1) if q < cut else rem + (q - cut) // base
            finish = (
                max(finish + (y_last - x) * fx, val_next + (y_last + 1) * fx)
                + st
            )
        if finish > makespan:
            makespan = finish
        val_next = val
    return makespan, stores


def _traffic_bytes_row(
    m: int, n: int, k: int, tiles_m: int, tiles_n: int, g: int,
    f: float, fixup_stores: int, blocking: Blocking, dtype: DtypeConfig,
    gpu: GpuSpec,
) -> float:
    """One row of :func:`traffic_bytes`."""
    in_b = dtype.input_bytes
    out_b = dtype.output_bytes
    a_pass = float(tiles_m) * blocking.blk_m * k * in_b
    b_pass = float(tiles_n) * blocking.blk_n * k * in_b
    usable_l2 = gpu.l2_bytes * _L2_RESIDENCY
    if a_pass + b_pass <= usable_l2:
        amp_a = amp_b = 1.0
    else:
        w = min(max(g, 1), gpu.total_cta_slots)
        w_n = min(w, tiles_n)
        w_m = min(tiles_m, -(-w // tiles_n))
        working_set = (
            _PIPELINE_STAGES
            * (w_m * blocking.blk_m + w_n * blocking.blk_n)
            * blocking.blk_k
            * in_b
        )
        if working_set > usable_l2:
            amp_a_aligned, amp_b_aligned = float(tiles_n), float(tiles_m)
        else:
            amp_a_aligned, amp_b_aligned = tiles_n / w_n, tiles_m / w_m
        amp_a_skewed = min(float(tiles_n), 2.0 * amp_a_aligned)
        amp_b_skewed = min(float(tiles_m), 2.0 * amp_b_aligned)
        amp_a = f * amp_a_aligned + (1.0 - f) * amp_a_skewed
        amp_b = f * amp_b_aligned + (1.0 - f) * amp_b_skewed
    out = float(m) * n * out_b
    tile_accum = blocking.blk_m * blocking.blk_n * out_b
    partials = float(fixup_stores) * tile_accum * 2.0
    return a_pass * amp_a + b_pass * amp_b + out + partials


def _plan_rows(
    shapes: np.ndarray, cost: KernelCostModel, params: StreamKModelParams
) -> PlanBatch:
    """Plan each row with Python ints and floats; bitwise equal to
    :func:`_plan_vectorized` on the same input, and cheaper below
    :data:`_ROW_PATH_MAX_ROWS` rows."""
    gpu, blocking, dtype = cost.gpu, cost.blocking, cost.dtype
    p = gpu.num_sms
    rows = []  # kind is an index into KIND_NAMES
    for m, n, k in shapes.tolist():
        tiles_m = -(-m // blocking.blk_m)
        tiles_n = -(-n // blocking.blk_n)
        t = tiles_m * tiles_n
        ipt = -(-k // blocking.blk_k)
        if t % p == 0:  # Regime A: data_parallel
            kind, g, f, stores = 0, min(p, t), 1.0, 0
            makespan = cost.prologue_cycles + -(-t // g) * (
                cost.cycles_per_iter * ipt + cost.store_tile_cycles
            )
        elif t >= p:  # Regime C: two_tile
            kind, g = 2, p
            makespan, f, stores = _two_tile_row(t, ipt, p, cost)
        else:  # Regime B: basic_stream_k
            kind = 1
            g = _grid_size_row(t * ipt, ipt, params, gpu.total_cta_slots)
            makespan, stores = _streamk_row(t, g, ipt, cost)
            g = min(g, t * ipt)
            f = float(stores == 0)
        traffic = _traffic_bytes_row(
            m, n, k, tiles_m, tiles_n, g, f, stores, blocking, dtype, gpu
        )
        # roofline_time, with gpu.achieved_bandwidth(g) on Python numbers.
        bandwidth = min(
            gpu.dram_bandwidth,
            max(min(g, gpu.total_cta_slots), 1) * gpu.sm_max_bandwidth,
        )
        time_s = (
            max(makespan / gpu.clock_hz, traffic / bandwidth)
            + gpu.launch_latency_s
        )
        rows.append((kind, g, t, ipt, f, stores, makespan, time_s))
    cols = list(zip(*rows)) or [()] * 8
    return PlanBatch(
        shapes=shapes,
        dtype_name=dtype.name,
        gpu_name=gpu.name,
        kinds=np.array(cols[0], dtype=np.int8),
        g=np.array(cols[1], dtype=np.int64),
        num_tiles=np.array(cols[2], dtype=np.int64),
        iters_per_tile=np.array(cols[3], dtype=np.int64),
        k_aligned_fraction=np.array(cols[4], dtype=np.float64),
        fixup_stores=np.array(cols[5], dtype=np.int64),
        makespan_cycles=np.array(cols[6], dtype=np.float64),
        time_s=np.array(cols[7], dtype=np.float64),
        engine_version=PLAN_ENGINE_VERSION,
        gpu_fingerprint=gpu_fingerprint(gpu),
    )


# --------------------------------------------------------------------- #
# Batched planning                                                      #
# --------------------------------------------------------------------- #


def _plan_vectorized(
    shapes: np.ndarray, cost: KernelCostModel, params: StreamKModelParams
) -> PlanBatch:
    """Plan every row in one numpy pass over per-regime masks."""
    gpu, blocking, dtype = cost.gpu, cost.blocking, cost.dtype
    m, n, k = shapes[:, 0], shapes[:, 1], shapes[:, 2]
    p = gpu.num_sms

    tiles_m = _ceil_div(m, blocking.blk_m)
    tiles_n = _ceil_div(n, blocking.blk_n)
    t = tiles_m * tiles_n
    ipt = _ceil_div(k, blocking.blk_k)
    total = t * ipt

    makespan = np.zeros(len(t), dtype=np.float64)
    f = np.zeros(len(t), dtype=np.float64)
    g_arr = np.zeros(len(t), dtype=np.int64)
    stores = np.zeros(len(t), dtype=np.int64)
    kinds = np.zeros(len(t), dtype=np.int8)

    # Regime A: perfect quantization -> persistent data-parallel.
    mask_a = t % p == 0
    if mask_a.any():
        g_a = np.minimum(p, t[mask_a])
        makespan[mask_a] = cost.prologue_cycles + _ceil_div(t[mask_a], g_a) * (
            cost.cycles_per_iter * ipt[mask_a] + cost.store_tile_cycles
        )
        f[mask_a] = 1.0
        g_arr[mask_a] = g_a
        kinds[mask_a] = KIND_NAMES.index("data_parallel")

    # Regime C: two-tile hybrid (exact vectorized walk).
    mask_c = (~mask_a) & (t >= p)
    if mask_c.any():
        with span("two_tile_walk"):
            walk_span, frac, n_stores = two_tile_walk_batch(
                t[mask_c], ipt[mask_c], p, cost
            )
        makespan[mask_c] = walk_span
        f[mask_c] = frac
        g_arr[mask_c] = p
        stores[mask_c] = n_stores
        kinds[mask_c] = KIND_NAMES.index("two_tile")

    # Regime B: fewer tiles than SMs -> batched model-selected grids and the
    # batched exact walk (pure numpy; no per-problem Python loop).
    mask_b = (~mask_a) & (t < p)
    if mask_b.any():
        t_b, ipt_b, tot_b = t[mask_b], ipt[mask_b], total[mask_b]
        with span("gridsize_argmin"):
            g_b = select_grid_sizes_batch(
                tot_b, ipt_b, params, gpu.total_cta_slots
            )
        with span("makespan_batch"):
            makespan[mask_b], mis = basic_streamk_walk_batch(
                t_b, g_b, ipt_b, cost
            )
        stores[mask_b] = mis
        f[mask_b] = (mis == 0).astype(np.float64)
        g_arr[mask_b] = np.minimum(g_b, tot_b)
        kinds[mask_b] = KIND_NAMES.index("basic_stream_k")

    traffic = traffic_bytes(
        m, n, k, tiles_m, tiles_n, g_arr, f, stores, blocking, dtype, gpu
    )
    time_s = roofline_time(makespan, traffic, g_arr, gpu)

    return PlanBatch(
        shapes=shapes,
        dtype_name=dtype.name,
        gpu_name=gpu.name,
        kinds=kinds,
        g=g_arr,
        num_tiles=t,
        iters_per_tile=ipt,
        k_aligned_fraction=f,
        fixup_stores=stores,
        makespan_cycles=makespan,
        time_s=time_s,
        engine_version=PLAN_ENGINE_VERSION,
        gpu_fingerprint=gpu_fingerprint(gpu),
    )


def plan_batch(
    shapes: np.ndarray,
    dtype: DtypeConfig,
    gpu: GpuSpec,
    params: "StreamKModelParams | None" = None,
    blocking: "Blocking | None" = None,
) -> PlanBatch:
    """Plan every shape; small batches row by row, large ones vectorized.

    This is *the* planning entry point: :func:`plan_query` is a one-row
    call, the serving micro-batcher coalesces concurrent misses into one
    call, and corpus sweeps (:func:`repro.harness.vectorized.
    streamk_times`) pass the whole corpus.  Batches of fewer than
    :data:`_ROW_PATH_MAX_ROWS` rows run the row path, which plans each
    shape with Python ints and floats and skips numpy's per-array setup;
    larger batches run the vectorized path: the batched Appendix A.1
    argmin (:func:`repro.model.gridsize.select_grid_sizes_batch`), the
    batched exact walk
    (:func:`repro.gpu.analytic.basic_streamk_walk_batch`), and the
    vectorized two-tile walk
    (:func:`repro.gpu.analytic.two_tile_walk_batch`).  The row path repeats the vectorized
    arithmetic operation for operation, so both return bitwise-identical
    columns for any input.

    Parameters
    ----------
    shapes:
        ``(N, 3)`` array of positive ``(m, n, k)`` rows.
    dtype, gpu:
        Precision config and target GPU spec.
    params:
        Calibrated model constants; resolved through the persistent
        calibration cache when omitted.
    blocking:
        Tile blocking; defaults to the precision's shipped factor.
    """
    shapes = _as_shapes(shapes)
    if (shapes <= 0).any():
        raise ConfigurationError("problem dimensions must be positive")
    if blocking is None:
        blocking = Blocking(*dtype.default_blocking)
    cost = KernelCostModel(gpu=gpu, blocking=blocking, dtype=dtype)
    if params is None:
        params = calibrate_cached(gpu, blocking, dtype)
    if len(shapes) < _ROW_PATH_MAX_ROWS:
        return _plan_rows(shapes, cost, params)
    return _plan_vectorized(shapes, cost, params)


def plan_query(
    m: int,
    n: int,
    k: int,
    dtype: "DtypeConfig | str",
    gpu: GpuSpec,
    params: "StreamKModelParams | None" = None,
    blocking: "Blocking | None" = None,
) -> Plan:
    """Plan one ``(m, n, k, dtype, gpu)`` query.

    A one-row :func:`plan_batch`, so it runs the row path, which is
    bitwise-identical to the same row of any batched call — the
    invariant the plan-cache differential suite pins down.
    """
    if m <= 0 or n <= 0 or k <= 0:
        raise ConfigurationError(
            "problem dimensions must be positive, got (%d, %d, %d)" % (m, n, k)
        )
    if isinstance(dtype, str):
        dtype = get_dtype_config(dtype)
    shapes = np.array([[m, n, k]], dtype=np.int64)
    return plan_batch(shapes, dtype, gpu, params=params, blocking=blocking).plan(0)
