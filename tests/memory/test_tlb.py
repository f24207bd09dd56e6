"""Tests for :mod:`repro.memory.tlb`."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memory.tlb import TLB, lru_walk, reduced_lookups
from repro.trace.tracer import tracing


class TestBasic:
    def test_compulsory_miss_then_hit(self):
        tlb = TLB(entries=4, page_words=1024, miss_cycles=6.0)
        assert tlb.access_pages([3]) == 1
        assert tlb.access_pages([3]) == 0
        assert tlb.misses == 1
        assert tlb.stall_cycles == 6.0

    def test_capacity_eviction_lru(self):
        tlb = TLB(entries=2, page_words=1024, miss_cycles=1.0)
        tlb.access_pages([0, 1, 2])  # 0 evicted
        assert tlb.access_pages([0]) == 1
        assert tlb.access_pages([2]) == 0  # still resident

    def test_lru_refresh_on_hit(self):
        tlb = TLB(entries=2, page_words=1024, miss_cycles=1.0)
        tlb.access_pages([0, 1, 0, 2])  # hit on 0 makes 1 the LRU victim
        assert tlb.access_pages([0]) == 0
        assert tlb.access_pages([1]) == 1

    def test_sweep_larger_than_capacity_always_misses(self):
        """The VIRAM corner-turn situation: 64 pages per sweep against a
        48-entry TLB means every sweep misses everything (§4.2)."""
        tlb = TLB(entries=48, page_words=1024, miss_cycles=6.0)
        sweep = list(range(64))
        first = tlb.access_pages(sweep)
        second = tlb.access_pages(sweep)
        assert first == 64
        assert second == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(entries=0, page_words=1, miss_cycles=1.0),
            dict(entries=1, page_words=0, miss_cycles=1.0),
            dict(entries=1, page_words=1, miss_cycles=-1.0),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            TLB(**kwargs)


class TestAddressInterface:
    def test_addresses_map_to_pages(self):
        tlb = TLB(entries=4, page_words=100, miss_cycles=1.0)
        misses = tlb.access_addresses([0, 50, 99, 100, 250])
        assert misses == 3  # pages 0, 1, 2

    def test_empty(self):
        tlb = TLB(entries=4, page_words=100, miss_cycles=1.0)
        assert tlb.access_addresses(np.array([], dtype=np.int64)) == 0

    def test_reset(self):
        tlb = TLB(entries=4, page_words=100, miss_cycles=1.0)
        tlb.access_addresses([0])
        tlb.reset()
        assert tlb.misses == 0
        assert tlb.access_addresses([0]) == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=200),
    st.integers(1, 16),
)
def test_rle_compression_preserves_miss_count(addresses, entries):
    """access_addresses (run-length compressed) matches the per-access
    page walk exactly."""
    page_words = 64
    fast = TLB(entries=entries, page_words=page_words, miss_cycles=1.0)
    slow = TLB(entries=entries, page_words=page_words, miss_cycles=1.0)
    fast_misses = fast.access_addresses(addresses)
    slow_misses = slow.access_pages([a // page_words for a in addresses])
    assert fast_misses == slow_misses


@given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
def test_misses_bounded(pages):
    tlb = TLB(entries=8, page_words=1, miss_cycles=1.0)
    misses = tlb.access_pages(pages)
    assert len(set(pages)) >= 1
    assert misses >= len(set(pages)) - 8  # at most 8 were resident-free
    assert misses <= len(pages)
    assert misses >= min(len(set(pages)), 1)


# -- the reduced walk against the plain one -------------------------------
#
# ``access_pages`` walks ``reduced_lookups`` of its input; ``lru_walk`` over
# the whole input is the reference.  Sequences are built from repeated
# periods of 1-6 pages (the stretches the reduction drops), cut off at a
# random phase, with noise between them; ``entries`` runs below the
# periods too, where a stretch must be walked in full.

_PAGE = st.integers(0, 12)


@st.composite
def periodic_pages(draw):
    pages = []
    for _ in range(draw(st.integers(0, 6))):
        period = draw(st.lists(_PAGE, min_size=1, max_size=6))
        pages += period * draw(st.integers(1, 12))
        pages += period[: draw(st.integers(0, len(period) - 1))]
        pages += draw(st.lists(_PAGE, max_size=4))
    return pages


@settings(max_examples=400, deadline=None)
@given(
    pages=periodic_pages(),
    prefix=st.lists(_PAGE, max_size=12),
    entries=st.integers(1, 8),
)
def test_reduced_walk_equals_plain_walk(pages, prefix, entries):
    """Misses, accesses, the resident order and the refill span all equal
    the plain walk's, from a random resident state."""
    miss_cycles = 6.0
    tlb = TLB(entries=entries, page_words=1, miss_cycles=miss_cycles)
    reference: "OrderedDict[int, None]" = OrderedDict()
    assert tlb.access_pages(prefix) == lru_walk(reference, prefix, entries)
    assert tlb.resident_pages == tuple(reference)

    expected = lru_walk(reference, pages, entries)
    with tracing() as tracer:
        misses = tlb.access_pages(pages)
    assert misses == expected
    assert tlb.misses == lru_walk(OrderedDict(), prefix + pages, entries)
    assert tlb.accesses == len(prefix) + len(pages)
    assert tlb.resident_pages == tuple(reference)

    refills = [
        (e.name, e.dur, dict(e.args)) for e in tracer.events
        if e.track == "tlb"
    ]
    assert refills == (
        [("refill", expected * miss_cycles,
          {"misses": expected, "pages": len(pages)})]
        if expected else []
    )
    assert tracer.counters["tlb.accesses"] == len(pages)
    assert tracer.counters["tlb.misses"] == expected


class TestReducedLookups:
    def test_periodic_sweep_keeps_one_period(self):
        pages = np.array([4, 9] * 1000, dtype=np.int64)
        assert reduced_lookups(pages, entries=2).tolist() == [4, 9]

    def test_partial_last_period_is_kept(self):
        pages = np.array([1, 2, 3] * 50 + [1, 2, 7], dtype=np.int64)
        assert reduced_lookups(pages, entries=3).tolist() == [
            1, 2, 3, 1, 2, 7,
        ]

    def test_period_longer_than_entries_is_walked_in_full(self):
        # With one entry every lookup of a two-page sweep misses.
        pages = np.array([0, 1] * 100, dtype=np.int64)
        assert reduced_lookups(pages, entries=1).tolist() == pages.tolist()
        tlb = TLB(entries=1, page_words=1, miss_cycles=1.0)
        assert tlb.access_pages(pages) == 200

    def test_adjacent_repeats_collapse(self):
        pages = np.array([5, 5, 5, 6, 6, 5], dtype=np.int64)
        assert reduced_lookups(pages, entries=8).tolist() == [5, 6, 5]


@pytest.mark.parametrize("page_words", [64, 100])
def test_page_runs_floor_like_division(page_words):
    """The power-of-two shift and the division give the same pages."""
    addresses = np.array(
        [0, 1, 63, 64, 65, 99, 100, 6400, 6401, 1 << 40], dtype=np.int64
    )
    tlb = TLB(entries=4, page_words=page_words, miss_cycles=1.0)
    pages = addresses // page_words
    keep = np.ones(pages.size, dtype=bool)
    keep[1:] = pages[1:] != pages[:-1]
    assert tlb.page_runs(addresses).tolist() == pages[keep].tolist()
