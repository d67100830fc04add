"""Shared fixtures: small problems, grids, GPUs, and cost models."""

import os

import numpy as np
import pytest

from repro.gemm import FP16_FP32, FP64, Blocking, GemmProblem, TileGrid, random_operands
from repro.gpu import A100, HYPOTHETICAL_4SM, KernelCostModel


def pytest_collection_modifyitems(config, items):
    """``REPRO_TEST_REVERSE=1`` runs the suite in reversed order, so a
    test that only passes after another has warmed some shared state
    shows up as a failure."""
    if os.environ.get("REPRO_TEST_REVERSE") == "1":
        items.reverse()


@pytest.fixture
def small_problem():
    """A ragged FP64 problem exercising edge tiles on every axis."""
    return GemmProblem(100, 70, 53, dtype=FP64)


@pytest.fixture
def small_grid(small_problem):
    return TileGrid(small_problem, Blocking(16, 16, 8))


@pytest.fixture
def small_operands(small_problem):
    return random_operands(small_problem, seed=1)


@pytest.fixture
def fp16_problem():
    return GemmProblem(96, 80, 64, dtype=FP16_FP32)


@pytest.fixture
def fp16_grid(fp16_problem):
    return TileGrid(fp16_problem, Blocking(32, 32, 16))


@pytest.fixture
def gpu4():
    return HYPOTHETICAL_4SM


@pytest.fixture
def a100():
    return A100


@pytest.fixture
def cost4(small_grid, gpu4):
    return KernelCostModel(
        gpu=gpu4, blocking=small_grid.blocking, dtype=small_grid.problem.dtype
    )


def assert_schedule_correct(schedule, a, b, reference, atol_scale=1.0):
    """Validate structure and numerics of a schedule in one call."""
    schedule.validate()
    out = schedule.execute(a, b)
    err = np.abs(out.astype(np.float64) - reference).max()
    scale = max(1.0, np.abs(reference).max())
    assert err / scale < 1e-10 * atol_scale, (
        "schedule %s wrong by %.3e" % (schedule.name, err)
    )
    return out
