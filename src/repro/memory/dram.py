"""Banked DRAM with open-row state and activate/precharge exposure.

Organization
------------
The model uses a conventional row-interleaved organization: word address
``a`` maps to

* bank ``(a // row_words) % banks`` and
* row ``a // (row_words * banks)`` within that bank,

so consecutive ``row_words`` words live in one bank's open row and
consecutive DRAM rows rotate across banks.  Each bank holds one open row;
an access to a different row in the same bank costs a row cycle
(precharge + activate).  This captures the behaviours the paper leans on:

* VIRAM (§4.2): strided corner-turn loads touch a new DRAM row per matrix
  row, costing precharge overhead, while sequential stores reuse open rows
  ("[precharge cycles] would be mostly hidden with sequential accesses").
* Imagine (§4.2): the 8-word output blocks written at non-unit stride
  cause a row switch per block, making memory transfers 87% of the cycles.

Exposure policy
---------------
How much of the row-cycle time is *exposed* (i.e., lengthens the access
stream) depends on the memory controller:

* ``"bank-parallel"`` — activations overlap with data transfer in other
  banks; time is exposed only when the most-loaded bank's activation work
  exceeds the pattern's transfer time.  This models VIRAM's wide on-chip
  interface with independent pipelined banks.
* ``"serialized"`` — every activation stalls the stream for a full row
  cycle.  This models a simple streaming controller that processes one
  access stream in order (Imagine's memory controllers reorder across
  streams but each stream's row switches still cost time).

Two implementations are provided and cross-validated by tests:

* :class:`DRAM` — vectorised (numpy) stateful costing of whole patterns.
* :class:`DRAMReference` — a per-access pure-Python simulator with
  identical semantics, used as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.memory.streams import AccessPattern
from repro.trace.tracer import TRACK_SEP, active_tracer

_POLICIES = ("bank-parallel", "serialized")

#: Addresses per :meth:`DRAM.access_run` call for the megaword streams
#: (the VIRAM corner turn, Imagine stream programs).  ``access_run``
#: makes several whole-array passes over its addresses and per-bank
#: passes over the run starts; at 2^18 int64 addresses (2 MB) they stay
#: in cache.  On a 2-vCPU Xeon container (best of 3), ``access_run`` on
#: the 8.39M-address VIRAM 2048^2 stream took 0.48 s in one call,
#: 0.17-0.18 s in pieces of 2^16-2^18 addresses, 0.20 s at 2^19 and
#: 0.30 s at 2^21, with identical per-segment costs and open rows.
PIECE_WORDS = 1 << 18


@dataclass(frozen=True)
class DRAMConfig:
    """Static DRAM organization and timing.

    Parameters
    ----------
    name:
        Diagnostic label ("viram-onchip", "imagine-offchip", ...).
    banks:
        Number of independent banks (VIRAM: 2 wings x 4 banks = 8).
    row_words:
        Words per bank row (row buffer size).
    row_cycle:
        Cycles of precharge + activate exposed per row switch (before any
        bank-parallel amortisation).
    access_latency:
        Pipelined access latency in cycles; reported separately because the
        studied architectures generally hide it (§2.5), but mappings can
        charge it where the paper says it is exposed (VIRAM's "initial load
        latencies are not hidden").
    activation_policy:
        ``"bank-parallel"`` or ``"serialized"`` (see module docstring).
    """

    name: str
    banks: int
    row_words: int
    row_cycle: float
    access_latency: float
    activation_policy: str = "bank-parallel"

    def __post_init__(self) -> None:
        if self.banks <= 0:
            raise ConfigError(f"{self.name}: banks must be positive")
        if self.row_words <= 0:
            raise ConfigError(f"{self.name}: row_words must be positive")
        if self.row_cycle < 0:
            raise ConfigError(f"{self.name}: negative row_cycle")
        if self.access_latency < 0:
            raise ConfigError(f"{self.name}: negative access_latency")
        if self.activation_policy not in _POLICIES:
            raise ConfigError(
                f"{self.name}: activation_policy must be one of {_POLICIES}"
            )


@dataclass(frozen=True)
class DRAMCost:
    """Cost of streaming one pattern through the DRAM.

    ``issue_cycles`` is data-transfer time at the caller-supplied rate;
    ``activation_cycles`` is exposed row-switch time; ``access_latency`` is
    the (usually hidden) pipeline latency, reported for callers that need
    to expose it.
    """

    words: int
    issue_cycles: float
    activation_cycles: float
    activations: int
    access_latency: float

    @property
    def stream_cycles(self) -> float:
        """Exposed cycles for the stream: transfer plus row switches."""
        return self.issue_cycles + self.activation_cycles

    @property
    def cycles_per_word(self) -> float:
        if self.words == 0:
            return 0.0
        return self.stream_cycles / self.words


@dataclass(frozen=True)
class DRAMBatchCost:
    """Per-segment costs of one batched access run (see
    :meth:`DRAM.access_run`).

    Each field is an array with one entry per segment; entry ``i`` is
    exactly what a standalone :meth:`DRAM.access` call for segment ``i``
    would have returned, given the open-row state left by segments
    ``0..i-1``.

    ``worst`` is segment ``i``'s most-loaded-bank activation count — the
    quantity the ``bank-parallel`` exposure policy multiplies by the row
    cycle.  Exposing it lets callers re-derive ``activation_cycles`` for
    a *different* row-cycle value (the tensorized sweep engine evaluates
    one address run under a whole batch of calibrations) without
    re-walking the address stream: activation counts depend only on
    addresses and geometry, never on the timing constants.
    """

    words: np.ndarray
    issue_cycles: np.ndarray
    activation_cycles: np.ndarray
    activations: np.ndarray
    worst: np.ndarray
    access_latency: float

    @property
    def n_segments(self) -> int:
        return int(self.words.size)

    def segment(self, i: int) -> DRAMCost:
        """Segment ``i``'s cost as a standalone :class:`DRAMCost`."""
        return DRAMCost(
            words=int(self.words[i]),
            issue_cycles=float(self.issue_cycles[i]),
            activation_cycles=float(self.activation_cycles[i]),
            activations=int(self.activations[i]),
            access_latency=self.access_latency,
        )


def _bank_and_row(
    dram_rows: np.ndarray, config: DRAMConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Split global DRAM rows into (bank, row-within-bank) arrays."""
    banks = config.banks
    if banks & (banks - 1) == 0:
        bank = np.bitwise_and(dram_rows, banks - 1)
        row = np.right_shift(dram_rows, banks.bit_length() - 1)
        return bank, row
    return dram_rows % banks, dram_rows // banks


def _row_runs(
    addresses: np.ndarray, config: DRAMConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each same-row run starts, and its (bank, row-within-bank).

    A run is a maximal stretch of consecutive addresses in one DRAM row
    (``a // row_words``).  Addresses are non-negative, so when
    ``row_words`` is a power of two (every modelled machine's is) the
    division reduces to a shift — int64 division has no SIMD path and
    dominates large runs.  Only per-run arrays outlive this call, and
    the per-address ones are dropped before the bank/row split, which
    bounds a megaword stream's peak memory.
    """
    row_words = config.row_words
    if row_words & (row_words - 1) == 0:
        # Call the ufunc directly: the operator form (``addresses >> k``
        # with a Python-int scalar) takes numpy's slow scalar-promotion
        # path and costs ~10x more on megaword address runs.
        dram_rows = np.right_shift(addresses, row_words.bit_length() - 1)
    else:
        dram_rows = addresses // row_words
    starts = np.empty(dram_rows.size, dtype=bool)
    starts[0] = True
    np.not_equal(dram_rows[1:], dram_rows[:-1], out=starts[1:])
    positions = np.flatnonzero(starts)
    run_rows = dram_rows[positions]
    del dram_rows, starts
    return (positions, *_bank_and_row(run_rows, config))


def _run_segments(run_starts: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Segment id of each run-start position (both arrays sorted).

    Equals ``np.searchsorted(seg_starts, run_starts, "right") - 1`` —
    the last segment starting at or before the position, which skips
    zero-length segments — but searches once per segment instead of
    once per position (runs far outnumber segments): bin each segment
    start at the first run start it does not follow, and the running
    total of the bins counts the segments starting at or before each
    run start.
    """
    before = np.bincount(
        np.searchsorted(run_starts, seg_starts),
        minlength=run_starts.size + 1,
    )
    segments = np.cumsum(before[: run_starts.size])
    segments -= 1
    return segments


class DRAM:
    """Vectorised stateful DRAM cost model (see module docstring).

    The object keeps the open-row register of every bank across calls, so
    a sequence of :meth:`access` calls models a program-ordered access
    stream: rows opened by one pattern stay open for the next.
    """

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self._open_rows: Dict[int, int] = {}
        self._total_activations = 0
        self._total_words = 0

    @property
    def open_rows(self) -> Dict[int, int]:
        """Copy of the per-bank open-row registers (bank -> row)."""
        return dict(self._open_rows)

    @property
    def total_activations(self) -> int:
        return self._total_activations

    @property
    def total_words(self) -> int:
        return self._total_words

    def reset(self) -> None:
        """Close all rows and clear counters."""
        self._open_rows.clear()
        self._total_activations = 0
        self._total_words = 0

    def access(
        self,
        pattern: AccessPattern,
        *,
        rate_words_per_cycle: float,
        kind: str = "read",
    ) -> DRAMCost:
        """Cost of streaming ``pattern`` at the given issue rate.

        ``rate_words_per_cycle`` is the *architectural* issue limit of the
        requester (address generators, port width); the DRAM adds exposed
        row-switch time on top.  ``kind`` is informational ("read"/"write").
        """
        if rate_words_per_cycle <= 0:
            raise ConfigError(
                f"rate_words_per_cycle must be positive, got {rate_words_per_cycle}"
            )
        if kind not in ("read", "write"):
            raise ConfigError(f"kind must be 'read' or 'write', got {kind!r}")
        addresses = pattern.addresses()
        n = int(addresses.size)
        if n == 0:
            return DRAMCost(0, 0.0, 0.0, 0, self.config.access_latency)
        batch = self.access_run(
            addresses,
            np.asarray([n], dtype=np.int64),
            np.asarray([rate_words_per_cycle], dtype=np.float64),
        )
        return batch.segment(0)

    def access_run(
        self,
        addresses: Sequence[int],
        seg_lengths: Sequence[int],
        rates_words_per_cycle: Sequence[float],
    ) -> DRAMBatchCost:
        """Cost of streaming many back-to-back patterns in one call.

        ``addresses`` is the program-ordered concatenation of the
        segments' word addresses; segment ``i`` spans the next
        ``seg_lengths[i]`` entries and issues at
        ``rates_words_per_cycle[i]``.  Semantically identical to calling
        :meth:`access` once per segment (open-row state threads through
        the whole run and persists afterwards), but activation counting
        is vectorised over the entire address stream — one numpy pass
        instead of per-segment Python calls — which is what makes
        blocked mappings (the VIRAM corner turn's thousands of 16x16
        tiles) fast.  Because the state persists, consecutive calls on
        consecutive pieces of a run cost exactly what one call on the
        whole run would; megaword streams are submitted in pieces of
        about :data:`PIECE_WORDS` addresses, whose passes stay in cache.

        The cost is paid per row opened, not per word: consecutive
        addresses in one DRAM row form a run, only a run's first access
        can activate, so the per-bank pass walks run starts only.  A
        sequential stream has one run start per ``row_words`` words.
        """
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        seg_lengths = np.ascontiguousarray(seg_lengths, dtype=np.int64)
        rates = np.ascontiguousarray(rates_words_per_cycle, dtype=np.float64)
        n_seg = int(seg_lengths.size)
        if rates.size != n_seg:
            raise ConfigError(
                f"{rates.size} rates for {n_seg} segments"
            )
        if n_seg and seg_lengths.min() < 0:
            raise ConfigError("negative segment length")
        if n_seg and rates.min() <= 0:
            raise ConfigError("rate_words_per_cycle must be positive")
        if int(seg_lengths.sum()) != int(addresses.size):
            raise ConfigError(
                f"segment lengths sum to {int(seg_lengths.sum())} but "
                f"{int(addresses.size)} addresses were given"
            )

        tracer = active_tracer()
        issue_cycles = np.zeros(n_seg, dtype=np.float64)
        nonempty = seg_lengths > 0
        issue_cycles[nonempty] = seg_lengths[nonempty] / rates[nonempty]

        worst = np.zeros(n_seg, dtype=np.int64)
        activations = np.zeros(n_seg, dtype=np.int64)
        if addresses.size:
            # Only the start of a same-row run can activate: every later
            # access in the run goes to the bank and row its start left
            # open.  So the bank pass walks run starts, not words.
            run_starts, bank, row = _row_runs(addresses, self.config)
            seg = _run_segments(
                run_starts, np.cumsum(seg_lengths) - seg_lengths
            )
            # Per bank, in program order: a run start activates when its
            # row differs from the bank's previous run (or its open row,
            # for the bank's first run).  Banks are independent, so each
            # is one vectorised pass.
            for b in range(self.config.banks):
                idx = np.flatnonzero(bank == b)
                if idx.size == 0:
                    continue
                rows_b = row[idx]
                changed = np.empty(idx.size, dtype=bool)
                changed[0] = self._open_rows.get(b) != int(rows_b[0])
                changed[1:] = rows_b[1:] != rows_b[:-1]
                per_seg = np.bincount(seg[idx[changed]], minlength=n_seg)
                np.maximum(worst, per_seg, out=worst)
                activations += per_seg
                self._open_rows[b] = int(rows_b[-1])
                if tracer is not None:
                    tracer.count(
                        f"dram.{self.config.name}.bank{b:02d}.activations",
                        float(per_seg.sum()),
                    )

        if self.config.activation_policy == "serialized":
            activation_cycles = activations * self.config.row_cycle
        else:
            # Bank-parallel: per segment, the most-loaded bank's activation
            # work is exposed only where it exceeds the transfer time.
            activation_cycles = np.maximum(
                0.0, worst * self.config.row_cycle - issue_cycles
            )

        self._total_activations += int(activations.sum())
        self._total_words += int(addresses.size)
        if tracer is not None:
            # One span per segment on the device's track, back-to-back at
            # the track cursor: cost models compute durations, not start
            # times, so the timeline shows relative occupancy, and the
            # track's busy sum equals the run's exposed DRAM cycles.
            track = f"dram{TRACK_SEP}{self.config.name}"
            stream = issue_cycles + activation_cycles
            for i in range(n_seg):
                tracer.span(
                    "segment",
                    track,
                    float(stream[i]),
                    args={
                        "words": int(seg_lengths[i]),
                        "activations": int(activations[i]),
                    },
                )
            tracer.count(
                f"dram.{self.config.name}.words", float(addresses.size)
            )
            tracer.count(
                f"dram.{self.config.name}.activations",
                float(activations.sum()),
            )
        return DRAMBatchCost(
            words=seg_lengths,
            issue_cycles=issue_cycles,
            activation_cycles=activation_cycles,
            activations=activations,
            worst=worst,
            access_latency=self.config.access_latency,
        )


class DRAMReference:
    """Per-access pure-Python DRAM simulator (test oracle for :class:`DRAM`).

    Semantics are identical to :class:`DRAM`; only the implementation
    differs (an explicit loop with per-bank open-row registers).  Tests
    cross-validate activation counts exactly and cycle totals to floating
    point tolerance.
    """

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self._open_rows: Dict[int, int] = {}

    def reset(self) -> None:
        self._open_rows.clear()

    def access(
        self,
        pattern: AccessPattern,
        *,
        rate_words_per_cycle: float,
        kind: str = "read",
    ) -> DRAMCost:
        """Reference implementation of :meth:`DRAM.access`."""
        if rate_words_per_cycle <= 0:
            raise ConfigError(
                f"rate_words_per_cycle must be positive, got {rate_words_per_cycle}"
            )
        addresses = pattern.addresses()
        config = self.config
        activations = 0
        per_bank: Dict[int, int] = {}
        for a in addresses:
            dram_row = int(a) // config.row_words
            bank = dram_row % config.banks
            row = dram_row // config.banks
            if self._open_rows.get(bank) != row:
                activations += 1
                per_bank[bank] = per_bank.get(bank, 0) + 1
                self._open_rows[bank] = row
        n = int(addresses.size)
        issue_cycles = n / rate_words_per_cycle if n else 0.0
        if config.activation_policy == "serialized":
            activation_cycles = activations * config.row_cycle
        else:
            worst = max(per_bank.values()) if per_bank else 0
            activation_cycles = max(0.0, worst * config.row_cycle - issue_cycles)
        return DRAMCost(
            words=n,
            issue_cycles=issue_cycles,
            activation_cycles=activation_cycles,
            activations=activations,
            access_latency=config.access_latency,
        )


def pad_pitch_for_banks(cols: int, config: DRAMConfig) -> int:
    """Row pitch (>= ``cols``) that spreads strided column walks over banks.

    A matrix stored with row pitch ``p`` is walked column-wise with stride
    ``p``; successive accesses advance ``p // row_words`` DRAM rows, and if
    that advance shares a factor with the bank count the walk hits only a
    subset of banks (the "DRAM bank conflicts" §3.1 avoids with padding).
    This helper returns the smallest pitch whose row advance is coprime
    with the bank count (odd, for power-of-two bank counts).  When the
    advance is zero (several matrix rows share a DRAM row) no padding is
    needed.
    """
    import math

    if cols <= 0:
        raise ConfigError(f"cols must be positive, got {cols}")
    pitch = cols
    while True:
        advance = pitch // config.row_words
        if advance == 0 or math.gcd(advance, config.banks) == 1:
            return pitch
        # Step to the next row boundary: the advance increases by one,
        # which flips parity (and so reaches coprimality for power-of-two
        # bank counts within at most ``banks`` steps).
        remainder = pitch % config.row_words
        pitch += config.row_words - remainder if remainder else config.row_words
