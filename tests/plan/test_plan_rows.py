"""The row path and the vectorized path of ``plan_batch`` agree bit for bit.

``plan_batch`` plans batches of fewer than ``_ROW_PATH_MAX_ROWS`` rows
with Python ints and floats (``_plan_rows``) and larger ones with numpy
(``_plan_vectorized``).  Both private paths are called directly here on
the same input, and every ``PlanBatch`` column must match byte for byte
and dtype for dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.dtypes import DTYPE_CONFIGS, get_dtype_config
from repro.gemm.tiling import Blocking
from repro.gpu.costmodel import KernelCostModel
from repro.gpu.spec import GPU_PRESETS, get_gpu
from repro.model.paramcache import calibrate_cached
from repro.plan import plan_batch
from repro.plan.core import _ROW_PATH_MAX_ROWS, _plan_rows, _plan_vectorized

COLUMNS = (
    "shapes",
    "kinds",
    "g",
    "num_tiles",
    "iters_per_tile",
    "k_aligned_fraction",
    "fixup_stores",
    "makespan_cycles",
    "time_s",
)

#: Every (GPU preset, dtype) pair the preset has a MAC rate for.
BINDINGS = sorted(
    (gpu_name, dtype_name)
    for gpu_name, gpu in GPU_PRESETS.items()
    for dtype_name in DTYPE_CONFIGS
    if gpu.supports_dtype(get_dtype_config(dtype_name))
)


def _binding(gpu_name, dtype_name):
    gpu = get_gpu(gpu_name)
    dtype = get_dtype_config(dtype_name)
    blocking = Blocking(*dtype.default_blocking)
    cost = KernelCostModel(gpu=gpu, blocking=blocking, dtype=dtype)
    return cost, calibrate_cached(gpu, blocking, dtype)


def assert_paths_agree(shapes, gpu_name, dtype_name):
    cost, params = _binding(gpu_name, dtype_name)
    shapes = np.asarray(shapes, dtype=np.int64)
    rows = _plan_rows(shapes, cost, params)
    vec = _plan_vectorized(shapes, cost, params)
    for name in COLUMNS:
        got, want = getattr(rows, name), getattr(vec, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), (
            "%s/%s column %s: row path %r != vectorized %r"
            % (gpu_name, dtype_name, name, got, want)
        )
    for name in ("dtype_name", "gpu_name", "engine_version", "gpu_fingerprint"):
        assert getattr(rows, name) == getattr(vec, name), name


def test_every_preset_binding_is_covered():
    assert "hypothetical_4sm" in {gpu for gpu, _ in BINDINGS}
    assert {dtype for _, dtype in BINDINGS} == set(DTYPE_CONFIGS)


# Log-uniform-ish dimensions: small values (edge tiles, k < blk_k) are as
# likely as the large ones that push two-tile and Stream-K regimes.
_DIM = st.integers(min_value=0, max_value=14).flatmap(
    lambda e: st.integers(min_value=1 << e, max_value=(2 << e) - 1)
)


@settings(max_examples=150, deadline=None)
@given(
    binding=st.sampled_from(BINDINGS),
    shapes=st.lists(st.tuples(_DIM, _DIM, _DIM), min_size=1, max_size=12),
)
def test_row_path_matches_vectorized(binding, shapes):
    assert_paths_agree(shapes, *binding)


@pytest.mark.parametrize("gpu_name,dtype_name", BINDINGS)
def test_seeded_log_uniform_sweep(gpu_name, dtype_name):
    """A wide fixed sample per binding: a reordered float sum changes
    only a few rows in a thousand, too rare for the property's draws."""
    rng = np.random.default_rng(BINDINGS.index((gpu_name, dtype_name)))
    shapes = np.exp(rng.uniform(0.0, np.log(16384.0), size=(500, 3)))
    assert_paths_agree(shapes.astype(np.int64), gpu_name, dtype_name)


def _edge_shapes(gpu_name, dtype_name):
    """Shapes on the regime and integer-width boundaries of one binding."""
    gpu = get_gpu(gpu_name)
    blk = get_dtype_config(dtype_name).default_blocking
    p = gpu.num_sms

    def tiles(tiles_m, tiles_n, ipt):
        return (tiles_m * blk[0], tiles_n * blk[1], ipt * blk[2])

    return [
        tiles(p, 2, 7),  # t % p == 0
        tiles(p, 1, 1),  # t == p
        tiles(p + 1, 1, 9),  # t == p + 1
        tiles(p - 1, 1, 9) if p > 1 else tiles(1, 1, 9),  # t == p - 1
        tiles(1, 1, 3),  # t < p and total < g's cap
        tiles(2, 1, 1),
        (blk[0] - 1, 2 * blk[1] + 1, blk[2] - 1),  # k < blk_k, ragged tiles
        (1, 1, 1),
        # t * ipt >= 2**31: the vectorized walks switch from int32 to int64.
        tiles(3 * p + 5, 1, (1 << 31) // (3 * p + 5) + 1),  # two-tile
        tiles(min(3, p - 1) or 1, 1, 1 << 30),  # basic Stream-K
    ]


@pytest.mark.parametrize("gpu_name,dtype_name", BINDINGS)
def test_edge_shapes(gpu_name, dtype_name):
    edges = _edge_shapes(gpu_name, dtype_name)
    # One batch mixing every edge (the vectorized walks run in int64) and
    # each edge alone (int32 wherever it fits).
    assert_paths_agree(edges, gpu_name, dtype_name)
    for shape in edges:
        assert_paths_agree([shape], gpu_name, dtype_name)


def test_edge_shapes_reach_every_regime():
    cost, params = _binding("a100", "fp16_fp32")
    shapes = np.asarray(_edge_shapes("a100", "fp16_fp32"), dtype=np.int64)
    kinds = set(_plan_rows(shapes, cost, params).kinds.tolist())
    assert kinds == {0, 1, 2}


def test_empty_batch():
    assert_paths_agree(np.empty((0, 3), dtype=np.int64), "a100", "fp64")


def test_plan_batch_is_identical_on_both_sides_of_the_crossover():
    """The public entry point: rows planned in a batch just below the
    crossover (row path) equal the same rows in a batch at it
    (vectorized path)."""
    gpu = get_gpu("a100")
    dtype = get_dtype_config("fp16_fp32")
    rng = np.random.default_rng(3)
    shapes = np.exp(rng.uniform(0, np.log(16384), size=(_ROW_PATH_MAX_ROWS, 3)))
    shapes = shapes.astype(np.int64) + 1
    whole = plan_batch(shapes, dtype, gpu)
    small = plan_batch(shapes[:-1], dtype, gpu)
    for name in COLUMNS:
        assert getattr(small, name).tobytes() == getattr(whole, name)[:-1].tobytes()
