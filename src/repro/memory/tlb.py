"""Fully-associative LRU TLB model.

VIRAM's corner-turn overhead includes TLB misses (§4.2: "about 21% of the
total cycles are overhead due to DRAM pre-charge cycles ... and TLB
misses").  The mappings feed the TLB the page sequence their address
streams touch; the model returns the miss count under LRU replacement.

The model walks an ``OrderedDict`` per lookup (:func:`lru_walk`), but
only over a reduced page sequence (:func:`reduced_lookups`): adjacent
repeats collapse, and so does the middle of every stretch in which each
lookup repeats the page ``k`` lookups earlier, for ``k`` up to
:data:`REPEAT_PERIODS`'s largest and at most ``entries``.  Inside such a
stretch every lookup hits, since its page was used fewer than
``entries`` distinct pages ago, and a hit only reorders the resident
pages; keeping the stretch's first period and its last ``length mod k``
lookups reproduces the order its last ``k`` lookups leave.  Misses and
the resident pages are therefore those of the plain walk, which the
tests hold it to.  A blocked corner turn that sweeps a few pages in
turn is almost all such stretches: at 2048² VIRAM's walk visits 98,304
of its 835,584 lookups.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence, Tuple

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
        which compresses runs first.  The walk visits only
        :func:`reduced_lookups` of ``pages``, which changes no miss and
        no resident page; :attr:`accesses`, the ``tlb.accesses`` count
        and the refill span's ``pages`` count every lookup passed in.
        """
        pages = np.asarray(pages, dtype=np.int64)
        misses = lru_walk(
            self._resident,
            reduced_lookups(pages, self.entries).tolist(),
            self.entries,
        )
        self._accesses += pages.size
        self._misses += misses
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("tlb.accesses", float(pages.size))
            tracer.count("tlb.misses", float(misses))
            if misses:
                # The exposed refill time for this batch, at the track
                # cursor; the tlb track's busy sum therefore equals
                # misses * miss_cycles — the ledger's "tlb misses".
                tracer.span(
                    "refill",
                    "tlb",
                    misses * self.miss_cycles,
                    args={"misses": misses, "pages": pages.size},
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
        page_words = self.page_words
        if page_words & (page_words - 1) == 0:
            # A shift, as in repro.memory.dram._row_runs: int64 division
            # has no SIMD path.  An arithmetic shift floors like ``//``.
            pages = np.right_shift(word_addresses, page_words.bit_length() - 1)
        else:
            pages = word_addresses // page_words
        return _collapse(pages)


#: The repeat periods :func:`reduced_lookups` collapses, shortest first.
REPEAT_PERIODS = (2, 3, 4)


def lru_walk(
    resident: "OrderedDict[int, None]", pages: List[int], entries: int
) -> int:
    """Walk ``pages`` through the LRU set ``resident`` (least recently
    used first, at most ``entries`` pages), one lookup at a time, and
    return the misses.  ``resident`` is updated in place."""
    # Hot loop: native-int list, bound methods, and one counter keep
    # long walks cheap.
    misses = 0
    move_to_end = resident.move_to_end
    popitem = resident.popitem
    for page in pages:
        if page in resident:
            move_to_end(page)
            continue
        misses += 1
        resident[page] = None
        if len(resident) > entries:
            popitem(last=False)
    return misses


def reduced_lookups(pages: np.ndarray, entries: int) -> np.ndarray:
    """The page sequence :func:`lru_walk` needs to visit for ``pages``.

    It gives the same misses and leaves the same resident pages, in the
    same order, from any starting state (see the module docstring):
    adjacent repeats collapse, then for each ``k`` of
    :data:`REPEAT_PERIODS` up to ``entries`` every stretch in which each
    lookup repeats the page ``k`` lookups earlier keeps only its last
    ``length mod k`` lookups, after the period before it, and adjacent
    repeats collapse again.
    """
    pages = _collapse(pages)
    for k in REPEAT_PERIODS:
        if k > entries or pages.size <= k:
            break
        repeats = np.empty(pages.size - k + 2, dtype=np.int8)
        repeats[0] = repeats[-1] = 0
        np.equal(pages[k:], pages[:-k], out=repeats[1:-1], casting="unsafe")
        edges = np.diff(repeats)
        # Stretch i covers lookups [starts[i], ends[i]); it repeats the
        # period pages[starts[i] - k : starts[i]].
        starts = np.flatnonzero(edges == 1) + k
        ends = np.flatnonzero(edges == -1) + k
        cuts = ends - (ends - starts) % k
        long = cuts > starts
        if not long.any():
            continue
        # Stretches are at least one lookup apart, so the marks below
        # never share an index.
        marks = np.zeros(pages.size + 1, dtype=np.int8)
        marks[starts[long]] = 1
        marks[cuts[long]] = -1
        pages = _collapse(pages[np.cumsum(marks[:-1]) == 0])
    return pages


def _collapse(pages: np.ndarray) -> np.ndarray:
    """``pages`` without adjacent repeats: a hit on the most recently
    used page changes nothing."""
    if pages.size < 2:
        return pages
    keep = np.empty(pages.size, dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep]
