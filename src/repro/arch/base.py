"""Common machine-model types: specs and kernel-run records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ConfigError
from repro.kernels.opcount import OpCounts
from repro.sim.accounting import CycleBreakdown
from repro.units import GIGA, KILO


@dataclass(frozen=True)
class MachineSpec:
    """Headline machine parameters (the paper's Table 2 row).

    ``peak_gflops`` is the *published* figure (Table 2) rather than a
    derived one, because the paper's values fold in implementation details
    (e.g. Raw's 4.64 GFLOPS rather than 16 tiles x 300 MHz = 4.8);
    ``flops_per_cycle`` is the per-cycle arithmetic peak used for
    utilization accounting (§4.3's "percent of peak" statements).
    """

    name: str
    display_name: str
    clock_hz: float
    n_alus: int
    peak_gflops: float
    flops_per_cycle: float

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigError(f"{self.name}: clock must be positive")
        if self.n_alus <= 0:
            raise ConfigError(f"{self.name}: ALU count must be positive")
        if self.peak_gflops <= 0 or self.flops_per_cycle <= 0:
            raise ConfigError(f"{self.name}: peaks must be positive")

    @property
    def clock_mhz(self) -> float:
        return self.clock_hz / 1e6


@dataclass
class KernelRun:
    """The result of running one kernel mapping on one machine.

    Combines the *functional* outcome (``output``, checked against the
    reference implementation by the mapping before this record is built)
    with the *performance* outcome (``breakdown`` of cycles by category,
    operation census, and free-form ``metrics`` such as ALU utilization
    or percent-of-peak that the paper quotes).

    Runs served by the cache tiers carry no ``output`` array, only its
    ``output_digest`` (see :func:`repro.perf.cache.cached_form`); a
    ``cache=False`` run carries the array.
    """

    kernel: str
    machine: str
    spec: MachineSpec
    breakdown: CycleBreakdown
    ops: OpCounts
    output: Optional[np.ndarray] = None
    functional_ok: bool = True
    metrics: Dict[str, Any] = field(default_factory=dict)
    output_digest: Optional[str] = None

    @property
    def cycles(self) -> float:
        """Total modelled cycles."""
        return self.breakdown.total

    @property
    def kilocycles(self) -> float:
        """Cycles in the paper's Table 3 unit (10^3 cycles)."""
        return self.cycles / KILO

    @property
    def seconds(self) -> float:
        """Execution time at the machine's clock (Figure 9's unit)."""
        return self.cycles / self.spec.clock_hz

    @property
    def flops_per_cycle(self) -> float:
        """Achieved arithmetic throughput."""
        if self.cycles == 0:
            return 0.0
        return self.ops.flops / self.cycles

    @property
    def percent_of_peak(self) -> float:
        """Achieved arithmetic throughput as a fraction of machine peak
        (the quantity behind §4.3's "31.4% of the peak" statements)."""
        return self.flops_per_cycle / self.spec.flops_per_cycle

    @property
    def gflops(self) -> float:
        return self.flops_per_cycle * self.spec.clock_hz / GIGA

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"{self.kernel} on {self.spec.display_name}: "
            f"{self.kilocycles:,.0f} kcycles "
            f"({self.seconds * 1e3:.2f} ms at {self.spec.clock_mhz:.0f} MHz)",
            self.breakdown.format(),
            f"ops: {self.ops.format()}",
            f"achieved {self.flops_per_cycle:.2f} flops/cycle "
            f"({100 * self.percent_of_peak:.1f}% of peak)",
            f"functional check: {'ok' if self.functional_ok else 'FAILED'}",
        ]
        for key, value in self.metrics.items():
            lines.append(f"metric {key} = {value}")
        return "\n".join(lines)
