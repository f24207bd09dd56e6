"""Tests for :mod:`repro.kernels.corner_turn`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.kernels.corner_turn import (
    CornerTurnWorkload,
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


class TestBlocked:
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
