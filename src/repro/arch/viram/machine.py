"""The VIRAM machine model: vector issue + on-chip banked DRAM + TLB.

The model exposes small costing methods the kernel mappings compose:

* :meth:`ViramMachine.load` / :meth:`ViramMachine.store` — stream a word
  pattern through the on-chip DRAM at the sequential (8 words/cycle) or
  strided/indexed (4 words/cycle, address-generator-bound) rate, with
  open-row state tracked per bank (2 wings x 4 banks = 8 independent
  banks) and the TLB fed the same addresses.
* :meth:`ViramMachine.vfu_cycles` — issue time for vector element
  operations at 8 per cycle per VFU; floating point is restricted to VFU0.
* :meth:`ViramMachine.dead_time` — exposed per-instruction dependency/
  startup cycles (§4.4's "waiting for the results from previous vector
  operations and the cycles needed to initialize the vector operations").

Strided column walks interact with bank geometry: a walk whose DRAM-row
advance shares a factor with the bank count concentrates on a bank
subset; §3.1's "padding added to the matrix rows to avoid DRAM bank
conflicts" is realised by :func:`padded_pitch`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.arch.base import MachineSpec
from repro.calibration import DEFAULT_CALIBRATION, ViramCalibration
from repro.errors import CapacityError, ConfigError
from repro.memory.dram import DRAM, DRAMBatchCost, DRAMConfig, DRAMCost
from repro.memory.streams import AccessPattern
from repro.memory.tlb import TLB
from repro.arch.viram.config import ViramConfig
from repro.trace.tracer import active_tracer
from repro.units import WORD_BYTES

#: Table 2 row: 200 MHz, 16 ALUs, 3.2 peak GFLOPS.  The per-cycle flop
#: peak of 16 is the Table 2 basis (both VFUs); the FP-capable issue rate
#: is 8/cycle (VFU0 only), which is exactly §4.3's x1.52 CSLC factor.
VIRAM_SPEC = MachineSpec(
    name="viram",
    display_name="VIRAM",
    clock_hz=200e6,
    n_alus=16,
    peak_gflops=3.2,
    flops_per_cycle=16.0,
)


class ViramMachine:
    """Stateful VIRAM resources plus costing methods (see module doc)."""

    spec = VIRAM_SPEC

    def __init__(
        self,
        config: Optional[ViramConfig] = None,
        calibration: Optional[ViramCalibration] = None,
    ) -> None:
        self.config = config or ViramConfig()
        self.cal = calibration or DEFAULT_CALIBRATION.viram
        self.dram = DRAM(
            DRAMConfig(
                name="viram-onchip",
                banks=self.config.total_banks,
                row_words=self.config.dram_row_words,
                row_cycle=self.cal.dram_row_cycle,
                access_latency=self.cal.exposed_load_latency,
                activation_policy="bank-parallel",
            )
        )
        self.tlb = TLB(
            entries=self.cal.tlb_entries,
            page_words=self.cal.page_words,
            miss_cycles=self.cal.tlb_miss_cycles,
        )

    def reset(self) -> None:
        self.dram.reset()
        self.tlb.reset()

    # ------------------------------------------------------------------
    # Memory system
    # ------------------------------------------------------------------

    def check_fits_onchip(self, nbytes: int, what: str) -> None:
        """The paper sized workloads to fit VIRAM's 13 MB (§3.1)."""
        if nbytes > self.config.onchip_dram_bytes:
            raise CapacityError(
                f"{what} ({nbytes} B) exceeds VIRAM on-chip DRAM "
                f"({self.config.onchip_dram_bytes} B)"
            )

    def load(self, pattern: AccessPattern, *, strided: bool) -> DRAMCost:
        """Vector load of ``pattern`` from the on-chip DRAM.

        Sequential (unit-stride) loads move 8 words/cycle through the
        256-bit datapath; strided or indexed loads are limited to 4
        words/cycle by the address generators.  The TLB sees the same
        address stream; its misses are charged by the mapping.
        """
        rate = (
            self.config.strided_words_per_cycle
            if strided
            else self.config.seq_words_per_cycle
        )
        cost = self.dram.access(pattern, rate_words_per_cycle=rate, kind="read")
        self.tlb.access_addresses(pattern.addresses())
        return cost

    def store(self, pattern: AccessPattern, *, strided: bool) -> DRAMCost:
        """Vector store of ``pattern`` to the on-chip DRAM (rates as for
        :meth:`load`)."""
        rate = (
            self.config.strided_words_per_cycle
            if strided
            else self.config.seq_words_per_cycle
        )
        cost = self.dram.access(pattern, rate_words_per_cycle=rate, kind="write")
        self.tlb.access_addresses(pattern.addresses())
        return cost

    def stream_batch(
        self, pieces: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> DRAMBatchCost:
        """Cost a program-ordered run of vector memory segments.

        ``pieces`` yields consecutive ``(addresses, seg_lengths,
        strided)`` pieces of the run: segment ``i`` of a piece spans the
        next ``seg_lengths[i]`` of its addresses and issues at the
        strided (4 words/cycle) or sequential (8 words/cycle) rate per
        ``strided[i]``.  Returns the per-segment costs of the whole run.
        Equivalent to a :meth:`load`/:meth:`store` call per segment —
        same DRAM open-row evolution, same TLB miss stream — but one
        vectorised DRAM pass per piece, which is what makes blocked
        mappings with tens of thousands of tiny tiles fast.

        Open rows carry from piece to piece inside the DRAM model, so
        the split changes no cost; pieces of about
        :data:`~repro.memory.dram.PIECE_WORDS` addresses keep each pass
        in cache.  The TLB walks once, over the run's page sequence: the
        pieces' run-length-encoded pages, joined so that a same-page run
        crossing a piece boundary stays one lookup.
        """
        costs = []
        page_runs = []
        last_page = None
        for addresses, seg_lengths, strided in pieces:
            rates = np.where(
                strided,
                float(self.config.strided_words_per_cycle),
                float(self.config.seq_words_per_cycle),
            )
            costs.append(self.dram.access_run(addresses, seg_lengths, rates))
            pages = self.tlb.page_runs(addresses)
            if pages.size and pages[0] == last_page:
                pages = pages[1:]
            if pages.size:
                last_page = pages[-1]
                page_runs.append(pages)
        if page_runs:
            self.tlb.access_pages(np.concatenate(page_runs))
        return DRAMBatchCost(
            words=np.concatenate([c.words for c in costs]),
            issue_cycles=np.concatenate([c.issue_cycles for c in costs]),
            activation_cycles=np.concatenate(
                [c.activation_cycles for c in costs]
            ),
            activations=np.concatenate([c.activations for c in costs]),
            worst=np.concatenate([c.worst for c in costs]),
            access_latency=self.dram.config.access_latency,
        )

    # ------------------------------------------------------------------
    # Vector issue
    # ------------------------------------------------------------------

    def vfu_cycles(self, element_ops: float) -> float:
        """Issue cycles for ``element_ops`` on one VFU (8 element-ops per
        cycle at 32-bit precision)."""
        if element_ops < 0:
            raise ConfigError(f"negative element op count {element_ops}")
        cycles = element_ops / self.config.lane_ops_per_cycle
        tracer = active_tracer()
        if tracer is not None and cycles > 0:
            tracer.span(
                "vfu issue",
                "viram/vfu",
                cycles,
                args={"element_ops": element_ops},
            )
        return cycles

    def fp_issue_cycles(self, flops: float) -> float:
        """Issue cycles for floating-point element operations.

        FP is restricted to VFU0 when ``fp_on_vfu0_only`` (the hardware's
        documented limitation), halving FP issue bandwidth relative to the
        16-op/cycle Table 2 peak — the mechanism behind §4.3's x1.52.
        """
        if flops < 0:
            raise ConfigError(f"negative element op count {flops}")
        # The vfu_cycles formula is inlined so one costing call emits
        # exactly one span on the vfu track.
        if self.config.fp_on_vfu0_only:
            cycles = flops / self.config.lane_ops_per_cycle
        else:
            cycles = flops / (
                self.config.n_vfus * self.config.lane_ops_per_cycle
            )
        tracer = active_tracer()
        if tracer is not None and cycles > 0:
            tracer.span(
                "fp issue", "viram/vfu", cycles, args={"flops": flops}
            )
        return cycles

    def instruction_count(
        self, element_ops: float, vl: Optional[int] = None
    ) -> float:
        """Vector instructions needed for ``element_ops`` at vector length
        ``vl`` (default: the maximum 32-bit VL of 64)."""
        if vl is None:
            vl = self.config.max_vl_32bit
        if vl <= 0 or vl > self.config.max_vl_32bit:
            raise ConfigError(
                f"vl must be in [1, {self.config.max_vl_32bit}], got {vl}"
            )
        if element_ops < 0:
            raise ConfigError(f"negative element op count {element_ops}")
        return element_ops / vl

    def dead_time(self, n_instructions: float) -> float:
        """Exposed dependency-wait/startup cycles for an instruction
        stream (§4.4's gap between the compute lower bound and simulated
        cycles)."""
        if n_instructions < 0:
            raise ConfigError(f"negative instruction count {n_instructions}")
        cycles = n_instructions * self.cal.vector_dead_time
        tracer = active_tracer()
        if tracer is not None and cycles > 0:
            tracer.span(
                "dead time",
                "viram/vfu",
                cycles,
                args={"instructions": n_instructions},
            )
        return cycles

    def register_file_words(self) -> int:
        """32-bit words the vector register file can hold (8 KB)."""
        return self.config.vector_register_file_bytes // WORD_BYTES

    def blocks_for(self, rows: int, cols: int, block: int) -> int:
        """Number of ``block`` x ``block`` tiles covering a matrix."""
        if rows % block or cols % block:
            raise ConfigError(
                f"matrix {rows}x{cols} not divisible by block {block}"
            )
        return (rows // block) * (cols // block)

    def __repr__(self) -> str:
        return f"ViramMachine(clock={self.config.clock_hz / 1e6:.0f} MHz)"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def padded_pitch(cols: int, machine: ViramMachine) -> int:
    """Row pitch avoiding DRAM bank conflicts on strided column walks.

    §3.1: "We used strided load operations with padding added to the
    matrix rows to avoid DRAM bank conflicts."  Delegates to
    :func:`repro.memory.dram.pad_pitch_for_banks` with the on-chip DRAM
    geometry.
    """
    from repro.memory.dram import pad_pitch_for_banks

    return pad_pitch_for_banks(cols, machine.dram.config)
