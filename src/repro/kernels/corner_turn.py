"""Corner turn: matrix transpose (§3.1).

"The corner turn is a matrix transpose operation that tests memory
bandwidth.  The data in the source matrix is transposed and stored in the
destination matrix."  The canonical workload is a 1024 x 1024 matrix of
4-byte elements — chosen larger than Imagine's SRF and Raw's local
memories but smaller than VIRAM's on-chip DRAM.

This module provides the functional reference (a plain transpose), the
blocked variant every mapping performs, the exact check of a mapping's
output, and the workload parameter record.  The blocked variant copies
whole groups of the mapping's blocks at a time, square tiles of
:data:`TILE_WORDS` words on a side: a transpose's result does not depend
on its traversal, and tiles that fit in cache copy several times faster
than one block or one whole-matrix view at a time.  The check compares
tile by tile for the same reason.
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


#: Side of the square tiles :func:`blocked_corner_turn` copies and
#: :func:`is_transpose` compares, in words: a 128 x 128 float32 tile is
#: 64 KB, so a tile and its transpose stay in cache.
TILE_WORDS = 128

#: About how many float64 samples :func:`_source_matrix` draws at once.
DRAW_WORDS = 1 << 16


@lru_cache(maxsize=1)
def _source_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """One-entry memo behind :meth:`CornerTurnWorkload.make_matrix`.

    The float32 matrix is drawn band by band of whole rows, each band
    through one float64 buffer of about :data:`DRAW_WORDS` samples:
    ``standard_normal`` consumes the generator's stream in order, so the
    values equal one whole-matrix draw cast to float32, without the
    whole-matrix float64 temporary (32 MB at 2048 x 2048).
    """
    rng = np.random.default_rng(seed)
    matrix = np.empty((rows, cols), dtype=np.float32)
    band = max(1, DRAW_WORDS // cols)
    buffer = np.empty((band, cols), dtype=np.float64)
    for r0 in range(0, rows, band):
        out = buffer[: min(band, rows - r0)]
        rng.standard_normal(out=out)
        matrix[r0 : r0 + out.shape[0]] = out
    matrix.flags.writeable = False
    return matrix


def corner_turn_reference(matrix: np.ndarray) -> np.ndarray:
    """The functional answer: a contiguous transposed copy."""
    if matrix.ndim != 2:
        raise ConfigError(f"expected a 2-D matrix, got shape {matrix.shape}")
    return np.ascontiguousarray(matrix.T)


def is_transpose(output: np.ndarray, matrix: np.ndarray) -> bool:
    """Whether ``output`` is exactly ``matrix.T``: shape and every value.

    A transpose only moves values, so any difference is a bug; a
    tolerance would let a corrupted element through.  After the shape,
    each :data:`TILE_WORDS`-square tile of ``output`` is compared with
    the transposed view of its source tile, which covers every element
    without a whole-matrix strided pass or a contiguous copy.
    """
    if matrix.ndim != 2:
        raise ConfigError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if output.shape != matrix.shape[::-1]:
        return False
    rows, cols = matrix.shape
    for i in range(0, rows, TILE_WORDS):
        for j in range(0, cols, TILE_WORDS):
            if not np.array_equal(
                output[j : j + TILE_WORDS, i : i + TILE_WORDS],
                matrix[i : i + TILE_WORDS, j : j + TILE_WORDS].T,
            ):
                return False
    return True


def blocked_corner_turn(matrix: np.ndarray, block: int) -> np.ndarray:
    """Transpose via square blocks, as every mapping in the paper does
    (VIRAM: 16x16 vector-register blocks; Raw: 64x64 tile-memory blocks).

    The matrix dimensions must be divisible by ``block`` — true for all
    canonical and test workloads; the mappings check this before charging
    cycles.  The copy moves square tiles of whole blocks, the largest
    multiple of ``block`` up to :data:`TILE_WORDS` on a side (``block``
    itself when that is larger).
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
    tile = max(block, TILE_WORDS - TILE_WORDS % block)
    out = np.empty((cols, rows), dtype=matrix.dtype)
    for i in range(0, rows, tile):
        for j in range(0, cols, tile):
            out[j : j + tile, i : i + tile] = (
                matrix[i : i + tile, j : j + tile].T
            )
    return out
