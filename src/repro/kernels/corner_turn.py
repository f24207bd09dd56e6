"""Corner turn: matrix transpose (§3.1).

"The corner turn is a matrix transpose operation that tests memory
bandwidth.  The data in the source matrix is transposed and stored in the
destination matrix."  The canonical workload is a 1024 x 1024 matrix of
4-byte elements — chosen larger than Imagine's SRF and Raw's local
memories but smaller than VIRAM's on-chip DRAM.

This module provides the functional reference (a plain transpose), the
blocked variant every mapping performs (so outputs are produced by the same
traversal the cycles are charged for), and the workload parameter record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError
from repro.kernels.opcount import OpCounts
from repro.units import WORD_BYTES


@dataclass(frozen=True)
class CornerTurnWorkload:
    """Corner-turn problem size.

    ``rows`` x ``cols`` matrix of 4-byte (32-bit) elements.
    """

    rows: int = 1024
    cols: int = 1024

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigError(f"matrix shape must be positive, got {self}")

    @property
    def words(self) -> int:
        """Matrix size in 32-bit words."""
        return self.rows * self.cols

    @property
    def nbytes(self) -> int:
        return self.words * WORD_BYTES

    def make_matrix(self, seed: int = 0) -> np.ndarray:
        """A deterministic float32 source matrix, read-only and shared.

        Consecutive runs at one (shape, seed) — the machines of Table 3,
        the §4.6 sweep at each size — get the same array instead of
        regenerating it; a mapping that wrote into its input would raise
        rather than corrupt the next run's matrix.
        """
        return _source_matrix(self.rows, self.cols, seed)

    def op_counts(self) -> OpCounts:
        """The corner turn moves data: one load and one store per element."""
        return OpCounts(loads=float(self.words), stores=float(self.words))


@lru_cache(maxsize=1)
def _source_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """One-entry memo behind :meth:`CornerTurnWorkload.make_matrix`."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols)).astype(np.float32)
    matrix.flags.writeable = False
    return matrix


def corner_turn_reference(matrix: np.ndarray) -> np.ndarray:
    """The functional answer: a contiguous transposed copy."""
    if matrix.ndim != 2:
        raise ConfigError(f"expected a 2-D matrix, got shape {matrix.shape}")
    return np.ascontiguousarray(matrix.T)


def is_transpose(output: np.ndarray, matrix: np.ndarray) -> bool:
    """Whether ``output`` is exactly ``matrix.T``: shape and every bit.

    A transpose only moves values, so any difference is a bug; a
    tolerance would let a corrupted element through.  Compares against
    the transposed view, without building a contiguous copy.
    """
    return bool(np.array_equal(output, matrix.T))


def blocked_corner_turn(matrix: np.ndarray, block: int) -> np.ndarray:
    """Transpose via square blocks, as every mapping in the paper does
    (VIRAM: 16x16 vector-register blocks; Raw: 64x64 tile-memory blocks).

    The matrix dimensions must be divisible by ``block`` — true for all
    canonical and test workloads; the mappings check this before charging
    cycles.
    """
    if matrix.ndim != 2:
        raise ConfigError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rows, cols = matrix.shape
    if block <= 0:
        raise ConfigError(f"block size must be positive, got {block}")
    if rows % block or cols % block:
        raise ConfigError(
            f"matrix shape {rows}x{cols} not divisible by block {block}"
        )
    out = np.empty((cols, rows), dtype=matrix.dtype)
    for bi in range(0, rows, block):
        for bj in range(0, cols, block):
            tile = matrix[bi : bi + block, bj : bj + block]
            out[bj : bj + block, bi : bi + block] = tile.T
    return out
