"""Blocking / TileGrid bookkeeping tests, including ragged edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gemm import FP64, Blocking, GemmProblem, TileGrid, ceil_div


class TestCeilDiv:
    @pytest.mark.parametrize(
        "a,b,expect", [(0, 4, 0), (1, 4, 1), (4, 4, 1), (5, 4, 2), (8, 4, 2)]
    )
    def test_known_values(self, a, b, expect):
        assert ceil_div(a, b) == expect

    @given(a=st.integers(0, 10**6), b=st.integers(1, 10**4))
    def test_matches_float_ceiling(self, a, b):
        assert ceil_div(a, b) == -(-a // b) == (a + b - 1) // b


class TestBlocking:
    def test_tile_macs(self):
        assert Blocking(4, 5, 6).tile_macs == 120

    def test_as_tuple(self):
        assert Blocking(1, 2, 3).as_tuple == (1, 2, 3)

    @pytest.mark.parametrize("bad", [(0, 4, 4), (4, -2, 4), (4, 4, 0)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Blocking(*bad)


class TestTileGridExact:
    """100x70x53 with 16x16x8 blocking: ragged on every axis."""

    @pytest.fixture
    def grid(self):
        return TileGrid(GemmProblem(100, 70, 53, dtype=FP64), Blocking(16, 16, 8))

    def test_tile_counts(self, grid):
        assert grid.tiles_m == 7  # ceil(100/16)
        assert grid.tiles_n == 5  # ceil(70/16)
        assert grid.num_tiles == 35

    def test_iters_per_tile(self, grid):
        assert grid.iters_per_tile == 7  # ceil(53/8)

    def test_total_iters(self, grid):
        assert grid.total_iters == 35 * 7

    def test_interior_tile_extents(self, grid):
        ms, ns = grid.tile_extents(0)
        assert (ms.start, ms.stop) == (0, 16)
        assert (ns.start, ns.stop) == (0, 16)

    def test_edge_tile_clamped(self, grid):
        last = grid.num_tiles - 1
        ms, ns = grid.tile_extents(last)
        assert ms.stop == 100 and ms.stop - ms.start == 100 - 6 * 16
        assert ns.stop == 70 and ns.stop - ns.start == 70 - 4 * 16

    def test_last_k_iter_clamped(self, grid):
        ks = grid.iter_k_extent(6)
        assert (ks.start, ks.stop) == (48, 53)

    def test_k_range_spans_iters(self, grid):
        ks = grid.k_range_extent(2, 5)
        assert (ks.start, ks.stop) == (16, 40)

    def test_k_range_clamped_at_end(self, grid):
        ks = grid.k_range_extent(5, 7)
        assert (ks.start, ks.stop) == (40, 53)

    def test_empty_k_range(self, grid):
        ks = grid.k_range_extent(3, 3)
        assert ks.start == ks.stop == 24

    def test_tile_mac_count_edge(self, grid):
        last = grid.num_tiles - 1
        assert grid.tile_mac_count(last) == 4 * 6 * 53

    def test_fragment_and_output_bytes(self, grid):
        assert grid.fragment_bytes_a() == 16 * 8 * 8
        assert grid.fragment_bytes_b() == 8 * 16 * 8
        assert grid.tile_output_bytes() == 16 * 16 * 8


class TestCoordinateRoundtrip:
    @given(
        tiles_m=st.integers(1, 20),
        tiles_n=st.integers(1, 20),
        data=st.data(),
    )
    def test_coords_index_bijection(self, tiles_m, tiles_n, data):
        grid = TileGrid(
            GemmProblem(tiles_m * 8, tiles_n * 8, 8, dtype=FP64),
            Blocking(8, 8, 8),
        )
        idx = data.draw(st.integers(0, grid.num_tiles - 1))
        row, col = grid.tile_coords(idx)
        assert grid.tile_index(row, col) == idx
        assert 0 <= row < tiles_m and 0 <= col < tiles_n

    # 1x1 blocking on a 300x300 output walks 90,000 tiles: measured
    # 132-221 ms on a 2-vCPU x86 box, over Hypothesis's 200 ms default.
    @settings(deadline=1000)
    @given(
        m=st.integers(1, 300),
        n=st.integers(1, 300),
        k=st.integers(1, 300),
        bm=st.integers(1, 64),
        bn=st.integers(1, 64),
        bk=st.integers(1, 64),
    )
    def test_tiles_cover_output_exactly(self, m, n, k, bm, bn, bk):
        """Union of tile extents is a disjoint exact cover of (m, n)."""
        grid = TileGrid(GemmProblem(m, n, k, dtype=FP64), Blocking(bm, bn, bk))
        covered = 0
        for t in range(grid.num_tiles):
            ms, ns = grid.tile_extents(t)
            assert ms.stop > ms.start and ns.stop > ns.start
            covered += (ms.stop - ms.start) * (ns.stop - ns.start)
        assert covered == m * n


class TestErrors:
    def test_tile_index_out_of_range(self, small_grid):
        with pytest.raises(ConfigurationError):
            small_grid.tile_extents(small_grid.num_tiles)

    def test_negative_tile_index(self, small_grid):
        with pytest.raises(ConfigurationError):
            small_grid.tile_coords(-1)

    def test_bad_tile_coordinates(self, small_grid):
        with pytest.raises(ConfigurationError):
            small_grid.tile_index(small_grid.tiles_m, 0)

    def test_iter_out_of_range(self, small_grid):
        with pytest.raises(ConfigurationError):
            small_grid.iter_k_extent(small_grid.iters_per_tile)

    def test_inverted_k_range(self, small_grid):
        with pytest.raises(ConfigurationError):
            small_grid.k_range_extent(3, 2)
