"""Batched Stream-K makespan vs the scalar closed form and the executor.

``basic_streamk_makespan_batch`` is the corpus engine's Regime-B fast path;
it must agree with the scalar fixup-chain walk (which in turn is pinned to
the discrete-event executor in test_analytic.py) to tight tolerance on the
same fixture families.  ``basic_streamk_walk_batch`` prices each fixup
chain from its first peer alone; the first-peer tests below pin that
against a walk that takes the maximum over the whole peer window.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import CorpusSpec, generate_corpus
from repro.errors import ConfigurationError
from repro.gemm import FP16_FP32, FP64, Blocking, GemmProblem, TileGrid
from repro.gemm.dtypes import DTYPE_CONFIGS
from repro.gpu import (
    A100,
    H100_SXM,
    HYPOTHETICAL_4SM,
    RTX3090,
    V100_SXM2,
    Executor,
    KernelCostModel,
    basic_streamk_makespan,
    basic_streamk_makespan_batch,
)
from repro.gpu.analytic import basic_streamk_walk_batch
from repro.gpu.spec import GPU_PRESETS
from repro.plan import plan_batch
from repro.schedules import stream_k_schedule

#: Every (GPU preset, dtype) pair the preset has a MAC rate for.
BINDINGS = sorted(
    (gpu_name, dtype.name)
    for gpu_name, gpu in GPU_PRESETS.items()
    for dtype in DTYPE_CONFIGS.values()
    if gpu.supports_dtype(dtype)
)


def binding_cost(gpu_name, dtype_name):
    dtype = DTYPE_CONFIGS[dtype_name]
    return KernelCostModel(
        gpu=GPU_PRESETS[gpu_name],
        blocking=Blocking(*dtype.default_blocking),
        dtype=dtype,
    )


def grid_of(tiles_m, tiles_n, ipt, dtype=FP64):
    p = GemmProblem(tiles_m * 16, tiles_n * 16, ipt * 8, dtype=dtype)
    return TileGrid(p, Blocking(16, 16, 8))


def executor_makespan(schedule, gpu, cost):
    return Executor(gpu.total_cta_slots).run(cost.build_tasks(schedule)).makespan


@pytest.fixture(scope="module")
def cost_4sm():
    return KernelCostModel(
        gpu=HYPOTHETICAL_4SM, blocking=Blocking(16, 16, 8), dtype=FP64
    )


@pytest.fixture(scope="module")
def cost_a100():
    return KernelCostModel(
        gpu=A100, blocking=Blocking(128, 128, 32), dtype=FP16_FP32
    )


class TestBatchEqualsScalar:
    def test_random_batch(self, cost_4sm):
        rng = np.random.default_rng(0x5EED)
        t = rng.integers(1, 64, size=500)
        ipt = rng.integers(1, 48, size=500)
        g = rng.integers(1, 8, size=500)
        batch = basic_streamk_makespan_batch(t, g, ipt, cost_4sm)
        for i in range(t.shape[0]):
            scalar = basic_streamk_makespan(
                int(t[i]), int(g[i]), int(ipt[i]), cost_4sm
            )
            assert batch[i] == pytest.approx(scalar, rel=1e-12), (
                "t=%d g=%d ipt=%d" % (t[i], g[i], ipt[i])
            )

    def test_a100_grid_sizes(self, cost_a100):
        """The g values the paper actually launches (Fig. 8 regimes)."""
        grid = TileGrid(
            GemmProblem(512, 2048, 256, dtype=FP16_FP32), Blocking(128, 128, 32)
        )
        gs = np.array([1, 7, 64, 107, 108], dtype=np.int64)
        t = np.full_like(gs, grid.num_tiles)
        ipt = np.full_like(gs, grid.iters_per_tile)
        batch = basic_streamk_makespan_batch(t, gs, ipt, cost_a100)
        for i, g in enumerate(gs):
            scalar = basic_streamk_makespan(
                grid.num_tiles, int(g), grid.iters_per_tile, cost_a100
            )
            assert batch[i] == pytest.approx(scalar, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        tiles_m=st.integers(1, 8),
        tiles_n=st.integers(1, 8),
        ipt=st.integers(1, 24),
        g=st.integers(1, 4),
    )
    def test_matches_executor(self, cost_4sm, tiles_m, tiles_n, ipt, g):
        """Direct pin against the discrete-event executor, same fixture
        family as TestStreamKExact in test_analytic.py."""
        gpu = HYPOTHETICAL_4SM
        grid = grid_of(tiles_m, tiles_n, ipt)
        ev = executor_makespan(stream_k_schedule(grid, g), gpu, cost_4sm)
        batch = basic_streamk_makespan_batch(
            np.array([grid.num_tiles]), np.array([g]), np.array([ipt]), cost_4sm
        )
        assert batch[0] == pytest.approx(ev, rel=1e-9)

    def test_chunking_invariant(self, cost_4sm):
        rng = np.random.default_rng(11)
        t = rng.integers(1, 64, size=131)
        ipt = rng.integers(1, 48, size=131)
        g = rng.integers(1, 8, size=131)
        ref = basic_streamk_makespan_batch(t, g, ipt, cost_4sm)
        for chunk in (1, 13, 130, 131, 4096):
            got = basic_streamk_makespan_batch(t, g, ipt, cost_4sm, row_chunk=chunk)
            np.testing.assert_array_equal(got, ref)


class TestBatchEqualsScalarCrossHardware:
    """PR-1 proved batch == scalar == executor on A100/4-SM shapes only;
    the multi-backend registry makes the same identity a per-spec
    obligation: distinct SM counts, rate tables, and occupancy (RTX3090's
    two CTAs per SM) must not perturb the closed forms."""

    SPECS = [H100_SXM, V100_SXM2, RTX3090]

    @pytest.mark.parametrize("gpu", SPECS, ids=lambda g: g.name)
    def test_random_batch_matches_scalar(self, gpu):
        cost = KernelCostModel(
            gpu=gpu, blocking=Blocking(128, 128, 32), dtype=FP16_FP32
        )
        rng = np.random.default_rng(0xC0FFEE)
        t = rng.integers(1, 64, size=300)
        ipt = rng.integers(1, 48, size=300)
        g = rng.integers(1, gpu.num_sms + 1, size=300)
        batch = basic_streamk_makespan_batch(t, g, ipt, cost)
        for i in range(t.shape[0]):
            scalar = basic_streamk_makespan(
                int(t[i]), int(g[i]), int(ipt[i]), cost
            )
            assert batch[i] == pytest.approx(scalar, rel=1e-12), (
                "%s: t=%d g=%d ipt=%d" % (gpu.name, t[i], g[i], ipt[i])
            )

    @pytest.mark.parametrize("gpu", SPECS, ids=lambda g: g.name)
    @settings(max_examples=25, deadline=None)
    @given(
        tiles_m=st.integers(1, 6),
        tiles_n=st.integers(1, 6),
        ipt=st.integers(1, 16),
        g_frac=st.floats(0.01, 1.0),
    )
    def test_matches_executor(self, gpu, tiles_m, tiles_n, ipt, g_frac):
        """Closed form == discrete-event executor on every new preset,
        including grid sizes scaled to each device's own SM count."""
        cost = KernelCostModel(
            gpu=gpu, blocking=Blocking(16, 16, 8), dtype=FP16_FP32
        )
        grid = grid_of(tiles_m, tiles_n, ipt, dtype=FP16_FP32)
        g = max(1, min(int(g_frac * gpu.num_sms), grid.total_iters))
        ev = executor_makespan(stream_k_schedule(grid, g), gpu, cost)
        batch = basic_streamk_makespan_batch(
            np.array([grid.num_tiles]), np.array([g]), np.array([ipt]), cost
        )
        assert batch[0] == pytest.approx(ev, rel=1e-9)

    def test_specs_disagree_with_each_other(self):
        """Sanity: the cross-hardware fixtures are not vacuous — distinct
        rate tables produce distinct makespans for the same workload."""
        t = np.array([50]); g = np.array([40]); ipt = np.array([8])
        spans = {
            gpu.name: basic_streamk_makespan_batch(
                t, g, ipt,
                KernelCostModel(
                    gpu=gpu, blocking=Blocking(128, 128, 32), dtype=FP16_FP32
                ),
            )[0]
            for gpu in (A100, H100_SXM, V100_SXM2)
        }
        assert len(set(spans.values())) == len(spans)


class TestValidation:
    def test_empty(self, cost_4sm):
        e = np.empty(0, dtype=np.int64)
        assert basic_streamk_makespan_batch(e, e, e, cost_4sm).shape == (0,)

    def test_rejects_nonpositive(self, cost_4sm):
        with pytest.raises(ConfigurationError):
            basic_streamk_makespan_batch(
                np.array([0]), np.array([1]), np.array([1]), cost_4sm
            )

    def test_rejects_mismatched_lengths(self, cost_4sm):
        with pytest.raises(ConfigurationError):
            basic_streamk_makespan_batch(
                np.array([1, 2]), np.array([1]), np.array([1]), cost_4sm
            )


def window_max_walk(t, g, ipt, cost):
    """Test-local reference for one row of ``basic_streamk_walk_batch``:
    the same float operations, but each fixup chain takes the maximum of
    ``sig(y) - y*fx`` over its whole peer window ``[x+1, y_last]``.

    Returns ``(makespan, stores, windows)``; ``windows`` lists each owner's
    window of values, in CTA order.
    """
    c = cost.cycles_per_iter
    pro = cost.prologue_cycles
    sp = cost.store_partials_cycles
    fx = cost.fixup_cycles_per_peer
    st_ = cost.store_tile_cycles
    total = t * ipt
    g_eff = min(g, total)
    base, rem = divmod(total, g_eff)

    def begin(x):
        return x * base + min(x, rem)

    val = [-math.inf] * g_eff
    for y in range(g_eff):
        head = -begin(y) % ipt
        if head:
            hh = min(head, begin(y + 1) - begin(y))
            val[y] = pro + c * hh + sp - fx * y
    makespan, stores, windows = -math.inf, 0, []
    for x in range(g_eff):
        b, e = begin(x), begin(x + 1)
        head = -b % ipt
        hh = min(head, e - b)
        if head:
            now = pro + (c * hh + sp)
            stores += 1 if x else 0
        else:
            now = float(pro)
        n_full, last_part = divmod(e - b - hh, ipt)
        finish = now + n_full * (c * ipt + st_) + c * last_part
        if last_part:
            tile_end = b + hh + (n_full + 1) * ipt
            y_last = x
            while y_last + 1 < g_eff and begin(y_last + 1) < tile_end:
                y_last += 1
            window = val[x + 1:y_last + 1]
            windows.append(window)
            finish = (
                max(
                    finish + (y_last - x) * fx,
                    max(window) + (y_last + 1) * fx,
                )
                + st_
            )
        makespan = max(makespan, finish)
    return makespan, stores, windows


class TestFirstPeerWindowMax:
    """The fixup chain's window maximum is its first peer's value."""

    @pytest.mark.parametrize("binding", BINDINGS, ids="/".join)
    def test_cost_constants_are_non_negative(self, binding):
        """The precondition of the first-peer argument."""
        cost = binding_cost(*binding)
        for value in (
            cost.cycles_per_iter,
            cost.prologue_cycles,
            cost.store_partials_cycles,
            cost.fixup_cycles_per_peer,
        ):
            assert value >= 0

    @settings(max_examples=200, deadline=None)
    @given(
        binding=st.sampled_from(BINDINGS),
        t=st.integers(1, 6),
        g_over_t=st.integers(2, 40),
        ipt=st.integers(1, 512),
    )
    def test_multi_peer_rows_match_window_max_walk(
        self, binding, t, g_over_t, ipt
    ):
        """``g > t`` puts up to ~g/t peers in one tile's window."""
        cost = binding_cost(*binding)
        g = t * g_over_t
        ref, ref_stores, windows = window_max_walk(t, g, ipt, cost)
        for window in windows:
            assert all(math.isfinite(v) for v in window)
            assert all(b <= a for a, b in zip(window, window[1:])), window
        got, stores = basic_streamk_walk_batch(
            np.array([t]), np.array([g]), np.array([ipt]), cost
        )
        assert got[0].tobytes() == np.float64(ref).tobytes()
        assert stores[0] == ref_stores

    def test_corpus_sized_window(self):
        """One tile split over the 164 CTA slots of an RTX 3090: the owner
        waits on all 163 peers."""
        cost = binding_cost("rtx3090", "fp16_fp32")
        ref, ref_stores, windows = window_max_walk(1, 164, 512, cost)
        assert max(len(w) for w in windows) >= 35
        got, stores = basic_streamk_walk_batch(
            np.array([1]), np.array([164]), np.array([512]), cost
        )
        assert got[0].tobytes() == np.float64(ref).tobytes()
        assert stores[0] == ref_stores


class TestRowOrderAndChunking:
    """Rows are walked sorted by grid size and in chunks; neither may
    change a row's result."""

    @pytest.mark.parametrize("row_chunk", [1, 7, 64, 4096])
    def test_shuffled_rows_equal_one_row_calls(self, cost_a100, row_chunk):
        rng = np.random.default_rng(0x0DE5)
        p = A100.num_sms
        n = 240
        t = rng.integers(1, 2 * p, size=n)
        g = rng.integers(1, 2 * p + 1, size=n)
        ipt = rng.integers(1, 300, size=n)
        perm = rng.permutation(n)
        t, g, ipt = t[perm], g[perm], ipt[perm]
        got, stores = basic_streamk_walk_batch(
            t, g, ipt, cost_a100, row_chunk=row_chunk
        )
        for i in range(n):
            one, one_stores = basic_streamk_walk_batch(
                t[i:i + 1], g[i:i + 1], ipt[i:i + 1], cost_a100
            )
            assert got[i].tobytes() == one[0].tobytes(), i
            assert stores[i] == one_stores[0], i


class TestFixupStoresMatchSchedule:
    """``plan_batch`` folds the boundary count into the Stream-K walk; it
    must equal the schedule builder's count of partial-sum stores."""

    @pytest.mark.parametrize(
        "binding", [("a100", "fp16_fp32"), ("h100_sxm", "fp64"),
                    ("rtx3090", "bf16_fp32"), ("v100_sxm2", "fp32")],
        ids="/".join,
    )
    def test_sampled_regime_b_rows(self, binding):
        gpu = GPU_PRESETS[binding[0]]
        dtype = DTYPE_CONFIGS[binding[1]]
        shapes = generate_corpus(CorpusSpec(size=2000, seed=3))
        plans = plan_batch(shapes, dtype, gpu)
        rows = np.flatnonzero(plans.kinds == 1)  # basic_stream_k
        assert rows.size >= 20
        blocking = Blocking(*dtype.default_blocking)
        rng = np.random.default_rng(5)
        for i in rng.choice(rows, size=20, replace=False):
            m, n, k = (int(v) for v in shapes[i])
            grid = TileGrid(GemmProblem(m, n, k, dtype=dtype), blocking)
            schedule = stream_k_schedule(grid, int(plans.g[i]))
            assert plans.fixup_stores[i] == schedule.total_fixup_stores, (
                m, n, k,
            )
