"""Tests for :mod:`repro.kernels.corner_turn`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.kernels.corner_turn import (
    DRAW_WORDS,
    TILE_WORDS,
    CornerTurnWorkload,
    _source_matrix,
    blocked_corner_turn,
    corner_turn_reference,
    is_transpose,
)


class TestWorkload:
    def test_canonical_size(self):
        w = CornerTurnWorkload()
        assert w.words == 1024 * 1024
        assert w.nbytes == 4 * 1024 * 1024

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigError):
            CornerTurnWorkload(rows=0, cols=4)

    def test_matrix_deterministic(self):
        w = CornerTurnWorkload(rows=8, cols=8)
        assert np.array_equal(w.make_matrix(1), w.make_matrix(1))
        assert not np.array_equal(w.make_matrix(1), w.make_matrix(2))

    def test_matrix_shared_and_read_only(self):
        """Equal (rows, cols, seed) returns the one generated array, which
        no mapping may write into."""
        matrix = CornerTurnWorkload(rows=8, cols=4).make_matrix(3)
        assert matrix is CornerTurnWorkload(rows=8, cols=4).make_matrix(3)
        assert matrix.dtype == np.float32
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        fresh = np.random.default_rng(3).standard_normal((8, 4))
        assert np.array_equal(matrix, fresh.astype(np.float32))

    def test_op_counts(self):
        c = CornerTurnWorkload(rows=4, cols=8).op_counts()
        assert c.loads == 32
        assert c.stores == 32
        assert c.flops == 0


class TestReference:
    def test_transpose(self, rng):
        m = rng.normal(size=(4, 6)).astype(np.float32)
        t = corner_turn_reference(m)
        assert t.shape == (6, 4)
        assert np.array_equal(t, m.T)
        assert t.flags["C_CONTIGUOUS"]

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            corner_turn_reference(np.zeros(4))


class TestIsTranspose:
    """The mappings' functional check: exact, with no tolerance."""

    @pytest.fixture
    def matrix(self, rng):
        return rng.normal(size=(6, 4)).astype(np.float32)

    def test_exact_transpose_passes(self, matrix):
        assert is_transpose(corner_turn_reference(matrix), matrix)
        assert is_transpose(blocked_corner_turn(matrix, 2), matrix)

    def test_one_ulp_off_fails(self, matrix):
        out = corner_turn_reference(matrix)
        out[3, 1] = np.nextafter(out[3, 1], np.float32(np.inf))
        assert not is_transpose(out, matrix)

    def test_two_swapped_elements_fail(self, matrix):
        out = corner_turn_reference(matrix)
        out[0, 0], out[2, 5] = out[2, 5], out[0, 0]
        assert not is_transpose(out, matrix)

    def test_wrong_shape_fails(self, matrix):
        assert not is_transpose(matrix.copy(), matrix)
        assert not is_transpose(corner_turn_reference(matrix)[:, :3], matrix)


class TestIsTransposeByTiles:
    """The check compares tile by tile; every element still counts."""

    T = TILE_WORDS

    @pytest.fixture(scope="class")
    def matrix(self):
        rng = np.random.default_rng(5)
        return rng.normal(size=(2 * self.T + 4, 3 * self.T)).astype(
            np.float32
        )

    def test_exact_transpose_passes(self, matrix):
        assert is_transpose(corner_turn_reference(matrix), matrix)

    @pytest.mark.parametrize(
        "at",
        [(0, 0), (T - 1, T - 1), (T, T), (T - 1, T), (3 * T - 1, 2 * T + 3)],
    )
    def test_one_ulp_off_at_a_tile_corner_fails(self, matrix, at):
        out = corner_turn_reference(matrix)
        out[at] = np.nextafter(out[at], np.float32(np.inf))
        assert not is_transpose(out, matrix)

    def test_pair_swapped_across_a_tile_edge_fails(self, matrix):
        out = corner_turn_reference(matrix)
        a, b = (self.T - 1, 5), (self.T, 5)
        out[a], out[b] = out[b].copy(), out[a].copy()
        assert out[a] != out[b]
        assert not is_transpose(out, matrix)

    def test_ragged_shape(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(130, 260)).astype(np.float32)
        out = corner_turn_reference(matrix)
        assert is_transpose(out, matrix)
        out[259, 129] = -out[259, 129]  # the last, partial tile
        assert not is_transpose(out, matrix)

    def test_wrong_shape_fails(self, matrix):
        assert not is_transpose(matrix.copy(), matrix)
        assert not is_transpose(corner_turn_reference(matrix)[:-1], matrix)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            is_transpose(np.zeros(4), np.zeros(4))


class TestSourceDraw:
    """Drawing band by band leaves the bytes of one whole draw."""

    @pytest.mark.parametrize(
        "rows,cols",
        [
            (3, 5),
            (7, DRAW_WORDS // 3),  # bands of 3 rows: the last has 1
            (DRAW_WORDS // 100 + 17, 100),
            (5, DRAW_WORDS + 1),  # wider than a band: one row per band
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_banded_draw_equals_one_draw(self, rows, cols, seed):
        whole = np.random.default_rng(seed).standard_normal((rows, cols))
        drawn = _source_matrix.__wrapped__(rows, cols, seed)
        assert drawn.dtype == np.float32
        assert drawn.tobytes() == whole.astype(np.float32).tobytes()


class TestBlocked:
    @pytest.mark.parametrize(
        "block", [1, 2, 4, 8, 48, TILE_WORDS, 2 * TILE_WORDS]
    )
    def test_tiles_of_blocks_match_reference(self, block):
        # At block 48 the tiles are 96 words: the last column of tiles
        # is ragged.
        rng = np.random.default_rng(block)
        m = rng.normal(size=(4 * block, 3 * block)).astype(np.float32)
        assert np.array_equal(
            blocked_corner_turn(m, block), corner_turn_reference(m)
        )

    @pytest.mark.parametrize("block", [1, 2, 4, 8])
    def test_matches_reference(self, block, rng):
        m = rng.normal(size=(16, 8)).astype(np.float32)
        assert np.array_equal(
            blocked_corner_turn(m, block), corner_turn_reference(m)
        )

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            blocked_corner_turn(np.zeros((10, 10)), 4)

    def test_bad_block_rejected(self):
        with pytest.raises(ConfigError):
            blocked_corner_turn(np.zeros((8, 8)), 0)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            blocked_corner_turn(np.zeros(8), 2)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 6).map(lambda k: 2 ** k),
    st.integers(1, 6).map(lambda k: 2 ** k),
    st.sampled_from([1, 2, 4]),
)
def test_blocked_transpose_is_involution(rows, cols, block):
    if rows % block or cols % block:
        return
    rng = np.random.default_rng(0)
    m = rng.normal(size=(rows, cols)).astype(np.float32)
    twice = blocked_corner_turn(blocked_corner_turn(m, block), block)
    assert np.array_equal(twice, m)
