"""Tests for :mod:`repro.arch.viram`."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.viram.config import ViramConfig
from repro.arch.viram.machine import VIRAM_SPEC, ViramMachine, padded_pitch
from repro.errors import CapacityError, ConfigError
from repro.memory.streams import Sequential, Strided
from repro.memory.tlb import TLB
from repro.trace.tracer import tracing


class TestConfig:
    def test_published_values(self):
        """§2.1's numbers."""
        c = ViramConfig()
        assert c.clock_hz == 200e6
        assert c.max_vl_32bit == 64
        assert c.seq_words_per_cycle == 8
        assert c.strided_words_per_cycle == 4
        assert c.total_banks == 8  # two wings of four banks
        assert c.vector_register_file_bytes == 8 * 1024
        assert c.onchip_dram_bytes == 13 * 1024 * 1024

    def test_spec_matches_table2(self):
        assert VIRAM_SPEC.clock_mhz == 200
        assert VIRAM_SPEC.n_alus == 16
        assert VIRAM_SPEC.peak_gflops == 3.2

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ViramConfig(clock_hz=0)
        with pytest.raises(ConfigError):
            ViramConfig(address_generators=0)
        with pytest.raises(ConfigError):
            ViramConfig(vector_register_bits=100)  # not word multiple


class TestMemory:
    def test_sequential_rate(self):
        m = ViramMachine()
        cost = m.load(Sequential(0, 800), strided=False)
        assert cost.issue_cycles == 100.0

    def test_strided_rate_is_address_generator_bound(self):
        m = ViramMachine()
        cost = m.load(Strided(0, 800, 2048), strided=True)
        assert cost.issue_cycles == 200.0

    def test_tlb_sees_accesses(self):
        m = ViramMachine()
        m.load(Sequential(0, 8), strided=False)
        assert m.tlb.accesses > 0

    def test_capacity_check(self):
        m = ViramMachine()
        m.check_fits_onchip(13 * 1024 * 1024, "exact fit")
        with pytest.raises(CapacityError):
            m.check_fits_onchip(14 * 1024 * 1024, "too big")

    def test_reset_clears_state(self):
        m = ViramMachine()
        m.load(Strided(0, 64, 2048), strided=True)
        m.reset()
        assert m.dram.total_activations == 0
        assert m.tlb.misses == 0


PAGE_WORDS = 64


def _machine(tlb_entries):
    """A VIRAM with a small-page TLB, so short streams cross pages."""
    machine = ViramMachine()
    machine.tlb = TLB(entries=tlb_entries, page_words=PAGE_WORDS,
                      miss_cycles=1.0)
    return machine


def _pieces(segments, strided, bounds):
    """``stream_batch`` pieces: segments ``bounds[k]..bounds[k+1]``."""
    for a, b in zip(bounds, bounds[1:]):
        yield (
            np.asarray([x for seg in segments[a:b] for x in seg],
                       dtype=np.int64),
            np.asarray([len(seg) for seg in segments[a:b]], dtype=np.int64),
            np.asarray(strided[a:b], dtype=bool),
        )


# Addresses on a dozen pages, so same-page runs often cross segment
# (and so piece) boundaries.
_segments = st.lists(
    st.lists(
        st.builds(lambda page, off: page * PAGE_WORDS + off,
                  st.integers(0, 11), st.integers(0, PAGE_WORDS - 1)),
        max_size=12,
    ),
    min_size=1,
    max_size=8,
)


class TestStreamBatchPieces:
    @settings(max_examples=120, deadline=None)
    @given(
        _segments,
        st.lists(st.booleans(), min_size=8, max_size=8),
        st.lists(st.integers(0, 8), max_size=5),
        st.integers(1, 6),
    )
    # The cut falls inside a same-page run (page 0 on both sides): one
    # lookup, as in the whole stream, not one per piece.
    @example(
        segments=[[0, 1], [2, 3], [PAGE_WORDS]],
        strided=[True, False] * 4,
        cuts=[1],
        entries=1,
    )
    def test_pieces_leave_dram_and_tlb_as_one_call(
        self, segments, strided, cuts, entries
    ):
        n = len(segments)
        bounds = [0, *sorted(min(c, n) for c in cuts), n]
        whole, pieced = _machine(entries), _machine(entries)
        one = whole.stream_batch(_pieces(segments, strided, [0, n]))
        many = pieced.stream_batch(_pieces(segments, strided, bounds))

        for name in ("words", "issue_cycles", "activation_cycles",
                     "activations", "worst"):
            assert np.array_equal(getattr(many, name), getattr(one, name))
        assert pieced.dram.open_rows == whole.dram.open_rows
        assert pieced.dram.total_activations == whole.dram.total_activations
        assert pieced.tlb.accesses == whole.tlb.accesses
        assert pieced.tlb.misses == whole.tlb.misses
        assert pieced.tlb.resident_pages == whole.tlb.resident_pages

        # One call walks the TLB as the whole address stream would.
        direct = TLB(entries=entries, page_words=PAGE_WORDS, miss_cycles=1.0)
        direct.access_addresses(
            np.asarray([x for seg in segments for x in seg], dtype=np.int64)
        )
        assert whole.tlb.accesses == direct.accesses
        assert whole.tlb.misses == direct.misses
        assert whole.tlb.resident_pages == direct.resident_pages

    def test_one_refill_span_for_the_whole_run(self):
        segments = [[0, PAGE_WORDS], [2 * PAGE_WORDS, 0], [PAGE_WORDS]]
        machine = _machine(tlb_entries=2)
        with tracing() as tracer:
            machine.stream_batch(
                _pieces(segments, [True, False, True], [0, 1, 2, 3])
            )
        # Pages 0,1 | 2,0 | 1 against two entries: every lookup misses.
        refills = [e for e in tracer.events if e.track == "tlb"]
        assert len(refills) == 1
        assert refills[0].dur == machine.tlb.misses == 5


class TestVectorIssue:
    def test_vfu_rate(self):
        m = ViramMachine()
        assert m.vfu_cycles(80) == 10.0

    def test_fp_restricted_to_vfu0(self):
        """The x1.52 mechanism: FP runs at 8/cycle, not 16."""
        m = ViramMachine()
        assert m.fp_issue_cycles(160) == 20.0

    def test_fp_unrestricted_variant(self):
        m = ViramMachine(config=ViramConfig(fp_on_vfu0_only=False))
        assert m.fp_issue_cycles(160) == 10.0

    def test_instruction_count_default_vl(self):
        m = ViramMachine()
        assert m.instruction_count(640) == 10.0

    def test_instruction_count_custom_vl(self):
        m = ViramMachine()
        assert m.instruction_count(640, vl=16) == 40.0

    def test_instruction_count_invalid_vl(self):
        m = ViramMachine()
        with pytest.raises(ConfigError):
            m.instruction_count(10, vl=0)
        with pytest.raises(ConfigError):
            m.instruction_count(10, vl=65)

    def test_dead_time(self):
        m = ViramMachine()
        assert m.dead_time(10) == 10 * m.cal.vector_dead_time

    def test_negative_inputs_rejected(self):
        m = ViramMachine()
        with pytest.raises(ConfigError):
            m.vfu_cycles(-1)
        with pytest.raises(ConfigError):
            m.dead_time(-1)

    def test_blocks_for(self):
        m = ViramMachine()
        assert m.blocks_for(64, 32, 16) == 8
        with pytest.raises(ConfigError):
            m.blocks_for(65, 32, 16)


class TestPaddedPitch:
    def test_canonical_matrix_needs_no_pad(self):
        """1024 words/row over 1024-word DRAM rows: advance 1 is already
        coprime with 8 banks."""
        m = ViramMachine()
        assert padded_pitch(1024, m) == 1024

    def test_conflicting_pitch_padded(self):
        m = ViramMachine()
        pitch = padded_pitch(2048, m)  # advance 2 -> conflicts
        assert pitch > 2048
        assert (pitch // 1024) % 2 == 1
