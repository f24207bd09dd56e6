"""Corner turn on VIRAM (§3.1).

"Our V[I]RAM corner turn uses a blocking algorithm with a 16 x 16 element
matrix.  Blocking allows the vector registers to be used for temporary
storage between the loads and stores.  We used strided load operations
with padding added to the matrix rows to avoid DRAM bank conflicts.
Initial load latencies are not hidden.  Stores are done sequentially from
the vector registers to the memory."

Cycle accounting (all emergent from the machine model):

* ``strided loads`` — each 16x16 block is read column-major with strided
  vector loads at the 4-word/cycle address-generator limit.
* ``sequential stores`` — the transposed block is written as sixteen
  unit-stride 16-word runs at 8 words/cycle.
* ``dram row activations`` — the strided column walk cycles every bank
  through multiple rows, so each access reopens a row; the exposed excess
  of that activation work over the transfer time is §4.2's "overhead due
  to DRAM pre-charge cycles", while the sequential stores reuse open rows
  and expose nothing ("would be mostly hidden with sequential accesses").
* ``tlb misses`` — each sweep of 64 source pages against the 48-entry
  TLB misses (§4.2 lumps this with the precharge overhead as ~21%).
* ``startup latency`` — one exposed DRAM access latency per block
  ("initial load latencies are not hidden").

The load/store address stream is exact: every word of every block goes
through the banked-DRAM and TLB models.  It is built and costed a piece
of whole blocks at a time (about ``PIECE_WORDS`` addresses, 512 blocks),
never as one megaword array: DRAM open rows carry from piece to piece,
and the TLB walks the joined page sequence once, so every count equals
what one pass over the whole stream gives (see
:meth:`ViramMachine.stream_batch`).

The canonical matrices fit VIRAM's 13 MB of on-chip DRAM (§3.1 sized the
workload for this).  When they do not, the mapping models §4.6's
prediction — "If the application size is larger than the on-chip DRAM,
the data needs to come from off-chip memory and VIRAM would lose much of
its advantage" — by streaming blocks through the 2-word/cycle off-chip
DMA interface (Table 1), which then dominates the on-chip work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.base import KernelRun
from repro.arch.viram.machine import ViramMachine, padded_pitch
from repro.calibration import Calibration
from repro.kernels.corner_turn import (
    CornerTurnWorkload,
    blocked_corner_turn,
    is_transpose,
)
from repro.kernels.workloads import canonical_corner_turn
from repro.mappings import batch
from repro.mappings.base import require, resolve_calibration
from repro.memory.dram import PIECE_WORDS
from repro.sim.accounting import CycleBreakdown
from repro.units import WORD_BYTES

BLOCK = 16


def run(
    workload: Optional[CornerTurnWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """Run the VIRAM corner turn; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate(_structure(workload, cal, seed), [cal])[0]


def run_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[CornerTurnWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One :class:`KernelRun` per calibration, sharing one structure pass
    (addresses, activation counts, TLB walk, functional output)."""
    cals = list(calibrations)
    batch.require_uniform_structure("viram", cals)
    return _evaluate(_structure(workload, cals[0], seed), cals)


def _structure(
    workload: Optional[CornerTurnWorkload],
    cal: Calibration,
    seed: int,
) -> Dict:
    """The calibration-independent pass: build and cost the blocked
    load/store address stream piece by piece, walk the TLB, compute the
    functional output and check it against the exact transpose.
    Everything here depends only on the workload, the seed, and the
    structural calibration fields (TLB geometry)."""
    workload = workload or canonical_corner_turn()
    machine = ViramMachine(calibration=cal.viram)
    require(
        workload.rows % BLOCK == 0 and workload.cols % BLOCK == 0,
        f"matrix {workload.rows}x{workload.cols} not divisible by the "
        f"{BLOCK}x{BLOCK} vector-register block",
    )

    src_pitch = padded_pitch(workload.cols, machine)
    dst_pitch = padded_pitch(workload.rows, machine)
    src_bytes = workload.rows * src_pitch * WORD_BYTES
    dst_bytes = workload.cols * dst_pitch * WORD_BYTES
    fits_onchip = (
        src_bytes + dst_bytes <= machine.config.onchip_dram_bytes
    )

    # Block-column-outer order: the destination block-row's DRAM rows and
    # page stay live across the whole sweep of source block-rows.  Each
    # block is one strided column-major load (Tiled2D order="col") then
    # one sequential row-major store (order="row").  The interleaved
    # load/store stream is built with broadcasting, a piece of whole
    # blocks at a time, and each piece is costed in one batched pass.
    dest_base = workload.rows * src_pitch  # destination follows the source
    n_block_rows = workload.rows // BLOCK
    n_block_cols = workload.cols // BLOCK
    n_blocks = n_block_rows * n_block_cols
    block_words = BLOCK * BLOCK
    offs = np.arange(BLOCK, dtype=np.int64)
    load_offsets = (offs[:, None] + src_pitch * offs[None, :]).reshape(-1)
    store_offsets = (dst_pitch * offs[:, None] + offs[None, :]).reshape(-1)
    blocks_per_piece = PIECE_WORDS // (2 * block_words)

    def pieces():
        for first in range(0, n_blocks, blocks_per_piece):
            blocks = np.arange(
                first, min(first + blocks_per_piece, n_blocks), dtype=np.int64
            )
            bj, bi = np.divmod(blocks, n_block_rows)
            load_bases = bi * BLOCK * src_pitch + bj * BLOCK
            store_bases = dest_base + bj * BLOCK * dst_pitch + bi * BLOCK
            n = blocks.size
            addresses = np.empty((n, 2 * block_words), dtype=np.int64)
            addresses[:, :block_words] = (
                load_bases[:, None] + load_offsets[None, :]
            )
            addresses[:, block_words:] = (
                store_bases[:, None] + store_offsets[None, :]
            )
            seg_lengths = np.full(2 * n, block_words, dtype=np.int64)
            strided = np.zeros(2 * n, dtype=bool)
            strided[0::2] = True  # loads are strided, stores sequential
            yield addresses.reshape(-1), seg_lengths, strided

    cost = machine.stream_batch(pieces())

    matrix = workload.make_matrix(seed)
    output = blocked_corner_turn(matrix, BLOCK)
    ok = is_transpose(output, matrix)

    return {
        "workload": workload,
        "machine": machine,
        "fits_onchip": fits_onchip,
        "src_pitch": src_pitch,
        "n_blocks": n_blocks,
        "issue_loads": float(cost.issue_cycles[0::2].sum()),
        "issue_stores": float(cost.issue_cycles[1::2].sum()),
        "issue_cycles": cost.issue_cycles,
        "worst": cost.worst,
        "activations": int(cost.activations.sum()),
        "tlb_misses": machine.tlb.misses,
        "output": output,
        "ok": ok,
    }


def _evaluate(s: Dict, cals: Sequence[Calibration]) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration from the shared
    structure; cost terms are vectorized over the leading batch axis."""
    workload = s["workload"]
    machine = s["machine"]
    n_blocks = s["n_blocks"]

    row_cycle = batch.cal_vector(cals, "viram", "dram_row_cycle")
    load_latency = batch.cal_vector(cals, "viram", "exposed_load_latency")
    tlb_miss_cycles = batch.cal_vector(cals, "viram", "tlb_miss_cycles")

    # Exposed row-activation time under the bank-parallel policy, per
    # cell: the same max(0, worst*row_cycle - issue) expression the DRAM
    # applies, broadcast over the batch axis and reduced per row.  The
    # (B, S) intermediate is chunked along B to bound memory.
    worst = s["worst"]
    issue = s["issue_cycles"]
    activation_cycles = np.empty(len(cals), dtype=np.float64)
    for start, stop in batch.batch_rows(len(cals), worst.size):
        activation_cycles[start:stop] = np.maximum(
            0.0, worst[None, :] * row_cycle[start:stop, None] - issue[None, :]
        ).sum(axis=1)

    startup = n_blocks * load_latency
    tlb_stall = s["tlb_misses"] * tlb_miss_cycles

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        breakdown = CycleBreakdown(
            {
                "strided loads": s["issue_loads"],
                "sequential stores": s["issue_stores"],
                "dram row activations": float(activation_cycles[i]),
                "startup latency": float(startup[i]),
            }
        )
        breakdown.charge("tlb misses", float(tlb_stall[i]))

        if not s["fits_onchip"]:
            # §4.6 regime: every word enters and leaves through the
            # off-chip DMA interface (2 words/cycle).  The on-chip work
            # overlaps with the transfer; only its excess over the DMA
            # time is exposed.
            dma_cycles = (
                2.0
                * workload.words
                / machine.config.offchip_dma_words_per_cycle
            )
            onchip_cycles = breakdown.total
            exposed_onchip = max(0.0, onchip_cycles - dma_cycles)
            breakdown = CycleBreakdown(
                {
                    "off-chip dma": dma_cycles,
                    "on-chip (exposed)": exposed_onchip,
                }
            )

        total = breakdown.total
        overhead = breakdown.get("dram row activations") + breakdown.get(
            "tlb misses"
        )
        runs.append(
            KernelRun(
                kernel="corner_turn",
                machine="viram",
                spec=machine.spec,
                breakdown=breakdown,
                ops=workload.op_counts(),
                output=s["output"],
                functional_ok=s["ok"],
                metrics={
                    "block": BLOCK,
                    "src_pitch_words": s["src_pitch"],
                    "fits_onchip": s["fits_onchip"],
                    "dram_activations": s["activations"],
                    "tlb_misses": s["tlb_misses"],
                    # §4.2: "about 21% of the total cycles are overhead
                    # due to DRAM pre-charge cycles ... and TLB misses".
                    "precharge_tlb_fraction": (
                        overhead / total if total else 0.0
                    ),
                    # §4.2: "24% are due to a limitation in strided load
                    # performance imposed by the number of address
                    # generators" (strided loads take twice the
                    # sequential-rate time).
                    "strided_penalty_fraction": (
                        breakdown.get("strided loads") / 2.0 / total
                        if total
                        else 0.0
                    ),
                },
            )
        )
    return runs
