"""Fully-associative LRU TLB model.

VIRAM's corner-turn overhead includes TLB misses (§4.2: "about 21% of the
total cycles are overhead due to DRAM pre-charge cycles ... and TLB
misses").  The mappings feed the TLB the page sequence their address
streams touch; the model returns the miss count under LRU replacement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.trace.tracer import active_tracer


class TLB:
    """Fully-associative, LRU translation buffer.

    Parameters
    ----------
    entries:
        Number of TLB entries.
    page_words:
        Page size in 32-bit words.
    miss_cycles:
        Exposed refill cost per miss (hardware table walk).
    """

    def __init__(self, entries: int, page_words: int, miss_cycles: float) -> None:
        if entries <= 0:
            raise ConfigError(f"TLB entries must be positive, got {entries}")
        if page_words <= 0:
            raise ConfigError(f"page_words must be positive, got {page_words}")
        if miss_cycles < 0:
            raise ConfigError(f"negative miss_cycles {miss_cycles}")
        self.entries = entries
        self.page_words = page_words
        self.miss_cycles = miss_cycles
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self._misses = 0
        self._accesses = 0

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def accesses(self) -> int:
        return self._accesses

    @property
    def resident_pages(self) -> Tuple[int, ...]:
        """The resident pages, least recently used first."""
        return tuple(self._resident)

    @property
    def stall_cycles(self) -> float:
        """Total exposed refill cycles so far."""
        return self._misses * self.miss_cycles

    def reset(self) -> None:
        self._resident.clear()
        self._misses = 0
        self._accesses = 0

    def access_pages(self, pages: Sequence[int]) -> int:
        """Run a page-id sequence through the TLB; returns misses added.

        Consecutive repeats are cheap, so callers may pass raw per-access
        page streams; for long streams prefer :meth:`access_addresses`,
        which compresses runs first.
        """
        # Hot loop: native-int list, bound methods, and batched counter
        # updates keep full-size workloads cheap without changing the
        # miss semantics.
        pages = np.asarray(pages, dtype=np.int64).tolist()
        misses = 0
        resident = self._resident
        move_to_end = resident.move_to_end
        popitem = resident.popitem
        entries = self.entries
        for page in pages:
            if page in resident:
                move_to_end(page)
                continue
            misses += 1
            resident[page] = None
            if len(resident) > entries:
                popitem(last=False)
        self._accesses += len(pages)
        self._misses += misses
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("tlb.accesses", float(len(pages)))
            tracer.count("tlb.misses", float(misses))
            if misses:
                # The exposed refill time for this batch, at the track
                # cursor; the tlb track's busy sum therefore equals
                # misses * miss_cycles — the ledger's "tlb misses".
                tracer.span(
                    "refill",
                    "tlb",
                    misses * self.miss_cycles,
                    args={"misses": misses, "pages": len(pages)},
                )
        return misses

    def access_addresses(self, word_addresses: Sequence[int]) -> int:
        """Translate a word-address stream; returns misses added.

        The stream is compressed to its run-length-encoded page sequence
        first (:meth:`page_runs`), which keeps full-size workloads fast
        without changing the miss count.
        """
        addresses = np.asarray(word_addresses, dtype=np.int64)
        if addresses.size == 0:
            return 0
        return self.access_pages(self.page_runs(addresses))

    def page_runs(self, word_addresses: np.ndarray) -> np.ndarray:
        """The run-length-encoded page sequence of a word-address stream.

        Consecutive accesses to the same page cost one lookup: repeated
        hits never alter LRU order relative to a single hit.
        """
        pages = word_addresses // self.page_words
        keep = np.ones(pages.size, dtype=bool)
        keep[1:] = pages[1:] != pages[:-1]
        return pages[keep]
