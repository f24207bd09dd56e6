"""Tests for :mod:`repro.memory.cache`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.memory.cache import (
    CacheConfig,
    CacheHierarchy,
    CacheLevel,
    LevelResult,
)


def l1_config(**overrides):
    defaults = dict(
        name="l1", size_bytes=1024, line_bytes=32, assoc=2, hit_cycles=0.0
    )
    defaults.update(overrides)
    return CacheConfig(**defaults)


def l2_config(**overrides):
    defaults = dict(
        name="l2", size_bytes=8192, line_bytes=32, assoc=4, hit_cycles=10.0
    )
    defaults.update(overrides)
    return CacheConfig(**defaults)


class TestConfig:
    def test_geometry(self):
        c = l1_config()
        assert c.n_lines == 32
        assert c.n_sets == 16
        assert c.line_words == 8

    @pytest.mark.parametrize(
        "overrides",
        [
            {"size_bytes": 0},
            {"line_bytes": 0},
            {"line_bytes": 6},  # not a word multiple
            {"size_bytes": 1000},  # not a line multiple
            {"assoc": 0},
            {"assoc": 5},  # lines not divisible
            {"hit_cycles": -1.0},
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ConfigError):
            l1_config(**overrides)


class TestCacheLevel:
    def test_compulsory_miss_then_hit(self):
        level = CacheLevel(l1_config())
        first = level.lookup_lines([7])
        second = level.lookup_lines([7])
        assert first.misses == 1
        assert second.hits == 1

    def test_capacity_eviction_lru(self):
        # Direct-mapped-ish: assoc 2, 16 sets; three lines in one set.
        level = CacheLevel(l1_config())
        same_set = [0, 16, 32]  # all map to set 0
        level.lookup_lines(same_set)
        result = level.lookup_lines([0])  # evicted (LRU among 3)
        assert result.misses == 1

    def test_lru_order_updated_on_hit(self):
        level = CacheLevel(l1_config())
        level.lookup_lines([0, 16])  # set 0 holds {16, 0}
        level.lookup_lines([0])  # touch 0 -> MRU
        level.lookup_lines([32])  # evicts 16, not 0
        result = level.lookup_lines([0])
        assert result.hits == 1

    def test_misses_returned_in_order(self):
        level = CacheLevel(l1_config())
        result, misses = level.lookup_lines_misses([5, 5, 9, 5, 9])
        assert misses.tolist() == [5, 9]
        assert result.hits == 3

    def test_resident_lines(self):
        level = CacheLevel(l1_config())
        level.lookup_lines([1, 2, 3])
        assert level.resident_lines() == 3

    def test_reset(self):
        level = CacheLevel(l1_config())
        level.lookup_lines([1])
        level.reset()
        assert level.lookup_lines([1]).misses == 1


class TestHierarchy:
    def test_l1_hit_costs_nothing(self):
        h = CacheHierarchy(l1_config(), l2_config(), memory_latency=100.0)
        h.run_trace([0])  # warm
        result = h.run_trace([0])
        assert result.stall_cycles == 0.0

    def test_l2_hit_cost(self):
        h = CacheHierarchy(l1_config(), l2_config(), memory_latency=100.0)
        # Fill set 0 of L1 beyond assoc so line 0 falls to L2.
        h.run_trace(np.array([0, 16, 32]) * 8)  # word addresses
        result = h.run_trace([0])
        assert result.l1.misses == 1
        assert result.l2.hits == 1
        assert result.stall_cycles == 10.0

    def test_memory_miss_cost(self):
        h = CacheHierarchy(l1_config(), l2_config(), memory_latency=100.0)
        result = h.run_trace([0])
        assert result.memory_accesses == 1
        assert result.stall_cycles == 110.0  # l2 lookup + dram

    def test_word_accesses_within_line_hit(self):
        h = CacheHierarchy(l1_config(), l2_config(), memory_latency=100.0)
        result = h.run_trace([0, 1, 2, 3, 4, 5, 6, 7])
        assert result.l1.misses == 1
        assert result.l1.hits == 7

    def test_no_l2(self):
        h = CacheHierarchy(l1_config(), None, memory_latency=50.0)
        result = h.run_trace([0, 0])
        assert result.l2 is None
        assert result.stall_cycles == 50.0

    def test_l2_smaller_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheHierarchy(
                l1_config(line_bytes=32),
                l2_config(line_bytes=16, size_bytes=4096, assoc=4),
                memory_latency=10.0,
            )

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            CacheHierarchy(l1_config(), None, memory_latency=-1.0)

    def test_stalls_per_access(self):
        h = CacheHierarchy(l1_config(), None, memory_latency=50.0)
        result = h.run_trace([0, 0, 0, 0])
        assert result.stalls_per_access == pytest.approx(12.5)


class TestStreamingPattern:
    def test_sequential_stream_miss_rate_is_one_per_line(self):
        h = CacheHierarchy(l1_config(), None, memory_latency=1.0)
        words = np.arange(800)
        result = h.run_trace(words)
        assert result.l1.misses == 100  # 800 words / 8 per line

    def test_small_working_set_stays_resident(self):
        h = CacheHierarchy(l1_config(), None, memory_latency=1.0)
        words = np.tile(np.arange(64), 10)  # 8 lines, well within 32
        result = h.run_trace(words)
        assert result.l1.misses == 8


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=300))
def test_miss_count_bounded_by_distinct_lines_and_accesses(words):
    """Misses are at least the compulsory (distinct-line) count and at
    most the access count."""
    h = CacheHierarchy(l1_config(), None, memory_latency=1.0)
    result = h.run_trace(words)
    distinct_lines = len({w // 8 for w in words})
    assert result.l1.misses >= distinct_lines
    assert result.l1.misses <= len(words)
    assert result.l1.hits + result.l1.misses == len(words)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
def test_fully_assoc_equals_infinite_when_capacity_sufficient(words):
    """A cache big enough for all distinct lines has only compulsory
    misses."""
    big = CacheConfig(
        name="big", size_bytes=32 * 1024, line_bytes=32, assoc=1024 // 1,
        hit_cycles=0.0,
    )
    # size 32KB / 32B = 1024 lines, assoc 1024 -> fully associative.
    h = CacheHierarchy(big, None, memory_latency=1.0)
    result = h.run_trace(words)
    assert result.l1.misses == len({w // 8 for w in words})


class ReferenceLRU:
    """The per-access LRU that :class:`CacheLevel` must equal: every
    access looks up its set's MRU-first list, moves a hit to the front,
    and inserts a miss at the front, evicting the LRU way."""

    def __init__(self, config):
        self.config = config
        self.sets = {}

    def lookup(self, lines):
        hits = 0
        misses = []
        for line in np.asarray(lines, dtype=np.int64).tolist():
            ways = self.sets.setdefault(line % self.config.n_sets, [])
            if line in ways:
                hits += 1
                ways.remove(line)
            else:
                misses.append(line)
                if len(ways) == self.config.assoc:
                    ways.pop()
            ways.insert(0, line)
        result = LevelResult(
            name=self.config.name, accesses=len(lines), hits=hits
        )
        return result, np.asarray(misses, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(
    assoc=st.sampled_from([1, 2, 4, 8]),
    n_sets=st.sampled_from([1, 2, 16]),
    calls=st.lists(
        st.lists(st.integers(-4, 60), max_size=120).flatmap(
            # Runs of repeats, as a per-word trace of a line produces.
            lambda lines: st.lists(
                st.integers(1, 4), min_size=len(lines), max_size=len(lines)
            ).map(
                lambda repeats: [
                    line
                    for line, count in zip(lines, repeats)
                    for _ in range(count)
                ]
            )
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_level_equals_per_access_lru(assoc, n_sets, calls):
    """Tallies, missed lines (order and dtype) and per-set LRU order
    equal the reference after every call of a multi-call trace."""
    config = CacheConfig(
        name="l",
        size_bytes=assoc * n_sets * 32,
        line_bytes=32,
        assoc=assoc,
        hit_cycles=0.0,
    )
    level = CacheLevel(config)
    reference = ReferenceLRU(config)
    for lines in calls:
        result, misses = level.lookup_lines_misses(np.array(lines))
        expected, expected_misses = reference.lookup(lines)
        assert result == expected
        assert misses.dtype == expected_misses.dtype
        assert misses.tolist() == expected_misses.tolist()
        assert level._sets == reference.sets
        assert level.resident_lines() == sum(
            len(ways) for ways in reference.sets.values()
        )


def test_canonical_beam_steering_tally():
    """The G4 table reads of the canonical beam-steering workload: the
    tally both G4 beam-steering rows are built on."""
    from repro.arch.ppc.machine import PpcMachine
    from repro.kernels.workloads import canonical_beam_steering
    from repro.mappings.ppc_beam_steering import table_read_trace

    result = PpcMachine().make_hierarchy().run_trace(
        table_read_trace(canonical_beam_steering())
    )
    assert (result.l1.accesses, result.l1.hits) == (51_456, 50_451)
    assert (result.l2.accesses, result.l2.hits) == (1_005, 0)
    assert result.memory_accesses == 1_005
