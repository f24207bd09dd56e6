"""Set-associative cache hierarchy with trace-driven simulation.

The PowerPC G4 baseline rows of the paper are dominated by cache behaviour
(§4.5: the corner turn "is limited by main memory bandwidth"; beam
steering's calibration tables stress the hierarchy), so the baseline model
needs a real cache.  This module provides:

* :class:`CacheLevel` — one set-associative, LRU, write-allocate cache
  level simulated line-by-line from an address trace.
* :class:`CacheHierarchy` — L1 + optional L2 composition: L1 misses are
  replayed into L2; the result carries per-level hit/miss counts and a
  stall-cycle total computed from per-level latencies.

Traces are word-address numpy arrays (see :mod:`repro.memory.streams`);
the simulator converts them to line addresses internally.  The G4 beam
steering mappings (scalar and AltiVec) run it at full size, on all
51,456 calibration-table reads of the canonical workload.  The G4 corner
turn uses closed-form miss counts instead, validated exactly against
this simulator (``tests/mappings/test_ppc_analytic_vs_trace.py``); the
G4 CSLC charges compulsory streaming misses.

A lookup visits the accesses set by set, since sets are independent,
and simulates only the first access of each run of repeats of one line
within a set: a repeat hits the MRU way and leaves the LRU order as it
is.  Tallies, missed lines and LRU state equal a per-access simulation
(``tests/memory/test_cache.py`` keeps one as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.trace.tracer import TRACK_SEP, active_tracer
from repro.units import WORD_BYTES


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    assoc: int
    hit_cycles: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError(f"{self.name}: size must be positive")
        if self.line_bytes <= 0 or self.line_bytes % WORD_BYTES:
            raise ConfigError(
                f"{self.name}: line size must be a positive multiple of "
                f"{WORD_BYTES} bytes"
            )
        if self.size_bytes % self.line_bytes:
            raise ConfigError(f"{self.name}: size not a multiple of line size")
        if self.assoc <= 0:
            raise ConfigError(f"{self.name}: associativity must be positive")
        if self.n_lines % self.assoc:
            raise ConfigError(
                f"{self.name}: line count {self.n_lines} not divisible by "
                f"associativity {self.assoc}"
            )
        if self.hit_cycles < 0:
            raise ConfigError(f"{self.name}: negative hit latency")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.assoc

    @property
    def line_words(self) -> int:
        return self.line_bytes // WORD_BYTES


@dataclass
class LevelResult:
    """Hit/miss tally for one level over one trace."""

    name: str
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class CacheLevel:
    """One set-associative LRU cache level.

    State persists across :meth:`lookup_lines` calls so multi-phase kernels
    see warm caches.  Lines are identified by line address (word address
    divided by line words); sets are selected by line address modulo set
    count.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # set index -> list of line tags in LRU order (front = MRU).
        self._sets: Dict[int, List[int]] = {}

    def reset(self) -> None:
        self._sets.clear()

    def lookup_lines(self, line_addresses: Sequence[int]) -> LevelResult:
        """Run ``line_addresses`` through the cache; returns hit/miss tally.

        Returns the tally; the caller can obtain the missing line addresses
        with :meth:`miss_lines` semantics via :meth:`lookup_lines_misses`.
        """
        result, _ = self._lookup(line_addresses, collect_misses=False)
        return result

    def lookup_lines_misses(
        self, line_addresses: Sequence[int]
    ) -> "tuple[LevelResult, np.ndarray]":
        """Like :meth:`lookup_lines` but also returns the missed lines in
        order, for replay into the next level."""
        return self._lookup(line_addresses, collect_misses=True)

    def _lookup(
        self, line_addresses: Sequence[int], collect_misses: bool
    ) -> "tuple[LevelResult, np.ndarray]":
        lines = np.asarray(line_addresses, dtype=np.int64).reshape(-1)
        n_sets = self.config.n_sets
        assoc = self.config.assoc
        # Sets are independent: visit the accesses set by set, each set's
        # in program order.
        order = np.argsort(lines % n_sets, kind="stable")
        by_set = lines[order]
        # A repeat of the line its set just touched hits the MRU way and
        # leaves the LRU order as it is, so only the first access of each
        # such run needs simulating.
        heads = np.ones(lines.size, dtype=bool)
        heads[1:] = by_set[1:] != by_set[:-1]
        head_at = np.flatnonzero(heads)
        sets = self._sets
        missed: List[int] = []
        for i, line in zip(head_at.tolist(), by_set[head_at].tolist()):
            set_idx = line % n_sets
            ways = sets.get(set_idx)
            if ways is None:
                ways = []
                sets[set_idx] = ways
            try:
                pos = ways.index(line)
            except ValueError:
                missed.append(i)
                ways.insert(0, line)
                if len(ways) > assoc:
                    ways.pop()
            else:
                if pos != 0:
                    ways.insert(0, ways.pop(pos))
        result = LevelResult(
            name=self.config.name,
            accesses=int(lines.size),
            hits=int(lines.size) - len(missed),
        )
        tracer = active_tracer()
        if tracer is not None and result.accesses:
            tracer.instant(
                "lookup",
                f"cache{TRACK_SEP}{self.config.name}",
                args={
                    "accesses": result.accesses,
                    "hits": result.hits,
                    "misses": result.misses,
                },
            )
            tracer.count(f"cache.{self.config.name}.hits", float(result.hits))
            tracer.count(
                f"cache.{self.config.name}.misses", float(result.misses)
            )
        if not collect_misses:
            return result, np.empty(0, dtype=np.int64)
        # The missed lines in program order, as the next level sees them.
        in_order = np.zeros(lines.size, dtype=bool)
        in_order[order[missed]] = True
        return result, lines[in_order]

    def resident_lines(self) -> int:
        """Number of lines currently cached."""
        return sum(len(ways) for ways in self._sets.values())


@dataclass(frozen=True)
class HierarchyResult:
    """Outcome of running a trace through the hierarchy."""

    word_accesses: int
    l1: LevelResult
    l2: Optional[LevelResult]
    memory_accesses: int
    stall_cycles: float

    @property
    def stalls_per_access(self) -> float:
        if self.word_accesses == 0:
            return 0.0
        return self.stall_cycles / self.word_accesses


class CacheHierarchy:
    """L1 (+ optional L2) in front of a fixed-latency memory.

    ``memory_latency`` is charged once per line that misses the last level.
    L1 hit time is *not* charged (it is part of the load/store instruction
    cost in the CPU models); L2 hit time is charged per L1 miss that hits
    in L2.
    """

    def __init__(
        self,
        l1: CacheConfig,
        l2: Optional[CacheConfig],
        memory_latency: float,
    ) -> None:
        if memory_latency < 0:
            raise ConfigError("negative memory latency")
        if l2 is not None and l2.line_bytes < l1.line_bytes:
            raise ConfigError("L2 line size smaller than L1 line size")
        self.l1 = CacheLevel(l1)
        self.l2 = CacheLevel(l2) if l2 is not None else None
        self.memory_latency = memory_latency

    def reset(self) -> None:
        self.l1.reset()
        if self.l2 is not None:
            self.l2.reset()

    def run_trace(self, word_addresses: Sequence[int]) -> HierarchyResult:
        """Simulate a word-address trace; returns per-level tallies.

        Adjacent accesses to the same line still perform separate lookups
        (they hit), matching a CPU issuing one load/store per word.
        """
        words = np.asarray(word_addresses, dtype=np.int64)
        l1_lines = words // self.l1.config.line_words
        l1_result, l1_misses = self.l1.lookup_lines_misses(l1_lines)

        if self.l2 is None:
            memory_accesses = l1_result.misses
            stall = memory_accesses * self.memory_latency
            return HierarchyResult(
                word_accesses=int(words.size),
                l1=l1_result,
                l2=None,
                memory_accesses=memory_accesses,
                stall_cycles=stall,
            )

        ratio = self.l2.config.line_words // self.l1.config.line_words
        l2_lines = l1_misses // ratio if ratio > 1 else l1_misses
        l2_result, _ = self.l2.lookup_lines_misses(l2_lines)
        memory_accesses = l2_result.misses
        stall = (
            l2_result.hits * self.l2.config.hit_cycles
            + memory_accesses
            * (self.l2.config.hit_cycles + self.memory_latency)
        )
        return HierarchyResult(
            word_accesses=int(words.size),
            l1=l1_result,
            l2=l2_result,
            memory_accesses=memory_accesses,
            stall_cycles=stall,
        )
