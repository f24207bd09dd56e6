"""Property tests for ``DRAM.access_run`` on awkward inputs.

The base equivalence suite (``test_dram.py``) samples geometries
uniformly.  This module pins the hard cases:

* geometries with a non-power-of-two bank count or row size (true
  modulo arithmetic) alongside power-of-two ones (the shift-and-mask
  fast path every modelled machine takes);
* zero-length segments, injected deliberately, including runs that are
  empty end to end;
* same-row runs that straddle segment boundaries — ``access_run`` costs
  only the first access of a same-row run, so a run's continuation in
  the next segment must not activate;
* a run split over two consecutive ``access_run`` calls, the second
  continuing a row the first left open, and a run cut into many
  consecutive pieces at random segment boundaries (how the megaword
  mappings submit their streams), which must equal one call exactly;
* a row cycle large enough (1e6) that bank-parallel exposure is never
  hidden behind issue time, which pins each segment's most-loaded-bank
  count (``DRAMBatchCost.worst``) through ``activation_cycles``.

Three paths must agree exactly: batched :meth:`DRAM.access_run` calls,
per-segment :meth:`DRAM.access` calls on a second instance, and the
pure-Python :class:`DRAMReference` on a third.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory.dram import DRAM, DRAMConfig, DRAMReference
from repro.memory.streams import Custom, Sequential, Strided


def make_config(banks, row_words, policy, row_cycle=3.0):
    return DRAMConfig(
        name="property-test",
        banks=banks,
        row_words=row_words,
        row_cycle=row_cycle,
        access_latency=10.0,
        activation_policy=policy,
    )


def _is_pow2(n):
    return n & (n - 1) == 0


# At least one of (banks, row_words) is not a power of two ...
_nonpow2_geometries = st.tuples(
    st.integers(1, 13), st.integers(5, 130)
).filter(lambda g: not (_is_pow2(g[0]) and _is_pow2(g[1])))
# ... or both are, as on every modelled machine.
_pow2_geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from([1, 4, 16, 64, 128])
)
_geometries = st.one_of(_nonpow2_geometries, _pow2_geometries)

# 3.0 lets issue time hide activations; 1e6 never does.
_row_cycles = st.sampled_from([3.0, 1e6])


@st.composite
def patterns_with_empties(draw, row_words):
    """Pattern sequences where zero-length segments are first-class:
    every sequence embeds at least one, and some are empty throughout.

    A ``same-row`` pattern stays in the DRAM row (of ``row_words``
    words) where the previous non-empty pattern ended, so a same-row
    run straddles the segment boundary."""
    n = draw(st.integers(1, 6))
    patterns = []
    last = None
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["empty", "seq", "zero-seq", "strided", "custom", "same-row"]
            )
        )
        if kind == "same-row":
            start = last if last is not None else draw(st.integers(0, 2000))
            base = start - start % row_words
            offsets = draw(
                st.lists(st.integers(0, row_words - 1), min_size=1, max_size=30)
            )
            patterns.append(Custom([base + o for o in offsets]))
        elif kind == "empty":
            patterns.append(Custom([]))
        elif kind == "zero-seq":
            patterns.append(Sequential(draw(st.integers(0, 500)), 0))
        elif kind == "seq":
            patterns.append(
                Sequential(draw(st.integers(0, 500)), draw(st.integers(0, 80)))
            )
        elif kind == "strided":
            patterns.append(
                Strided(
                    draw(st.integers(0, 500)),
                    draw(st.integers(0, 40)),
                    draw(st.integers(1, 200)),
                )
            )
        else:
            patterns.append(
                Custom(draw(st.lists(st.integers(0, 2000), max_size=60)))
            )
        addresses = patterns[-1].addresses()
        if addresses.size:
            last = int(addresses[-1])
    # Guarantee the batch contains a zero-length segment somewhere.
    patterns.insert(draw(st.integers(0, len(patterns))), Custom([]))
    return patterns


def _run_batch(dram, patterns, rate=4.0):
    arrays = [p.addresses() for p in patterns]
    return dram.access_run(
        np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64),
        np.asarray([a.size for a in arrays], dtype=np.int64),
        np.full(len(patterns), rate),
    )


@st.composite
def geometry_and_patterns(draw):
    geometry = draw(_geometries)
    return geometry, draw(patterns_with_empties(row_words=geometry[1]))


@settings(max_examples=120, deadline=None)
@given(
    geometry_and_patterns(),
    st.sampled_from(["bank-parallel", "serialized"]),
    _row_cycles,
    st.integers(0, 8),
)
# The second call's first run continues the row (64..127, bank 1) the
# first call's sequential stream left open: no activation there.
@example(
    case=((8, 64), [Sequential(0, 100), Custom([]), Custom([100, 127, 64])]),
    policy="bank-parallel",
    row_cycle=1e6,
    split=2,
)
def test_batch_equals_scalar_equals_reference(case, policy, row_cycle, split):
    """``split`` cuts the sequence over two consecutive ``access_run``
    calls; the second continues whatever rows the first left open."""
    (banks, row_words), patterns = case
    config = make_config(banks, row_words, policy, row_cycle)
    batched = DRAM(config)
    scalar = DRAM(config)
    reference = DRAMReference(config)

    split = min(split, len(patterns))
    first = _run_batch(batched, patterns[:split])
    second = _run_batch(batched, patterns[split:])
    assert first.n_segments + second.n_segments == len(patterns)
    segments = [first.segment(i) for i in range(first.n_segments)] + [
        second.segment(i) for i in range(second.n_segments)
    ]
    for pattern, seg in zip(patterns, segments):
        scalar_cost = scalar.access(pattern, rate_words_per_cycle=4)
        ref_cost = reference.access(pattern, rate_words_per_cycle=4)
        assert seg.words == scalar_cost.words == ref_cost.words
        assert (
            seg.activations
            == scalar_cost.activations
            == ref_cost.activations
        )
        assert seg.issue_cycles == pytest.approx(ref_cost.issue_cycles)
        assert seg.activation_cycles == pytest.approx(
            ref_cost.activation_cycles
        )

    # Open-row state after the run is identical on every path, so a
    # subsequent access would also agree.
    assert batched.open_rows == scalar.open_rows
    assert batched.total_activations == scalar.total_activations
    assert batched.total_words == scalar.total_words


@settings(max_examples=40, deadline=None)
@given(_geometries, st.sampled_from(["bank-parallel", "serialized"]))
def test_all_empty_run_costs_nothing(geometry, policy):
    banks, row_words = geometry
    dram = DRAM(make_config(banks, row_words, policy))
    batch = _run_batch(dram, [Custom([]), Sequential(7, 0), Custom([])])
    for i in range(batch.n_segments):
        seg = batch.segment(i)
        assert seg.words == 0
        assert seg.activations == 0
        assert seg.issue_cycles == 0.0
        assert seg.activation_cycles == 0.0
    assert dram.total_activations == 0
    assert dram.total_words == 0
    assert dram.open_rows == {}


@settings(max_examples=40, deadline=None)
@given(
    _geometries,
    st.sampled_from(["bank-parallel", "serialized"]),
    st.lists(st.integers(0, 2000), min_size=1, max_size=60),
)
def test_empty_segments_leave_state_untouched(geometry, policy, addresses):
    """A zero-length segment between two real ones must not disturb the
    open-row threading: removing it changes nothing."""
    banks, row_words = geometry
    config = make_config(banks, row_words, policy)
    with_gap = DRAM(config)
    without_gap = DRAM(config)
    half = len(addresses) // 2
    first, second = Custom(addresses[:half]), Custom(addresses[half:])
    gap_batch = _run_batch(with_gap, [first, Custom([]), second])
    flat_batch = _run_batch(without_gap, [first, second])
    assert gap_batch.segment(0).activations == flat_batch.segment(0).activations
    assert gap_batch.segment(2).activations == flat_batch.segment(1).activations
    assert with_gap.open_rows == without_gap.open_rows
    assert with_gap.total_activations == without_gap.total_activations


@settings(max_examples=120, deadline=None)
@given(
    geometry_and_patterns(),
    st.sampled_from(["bank-parallel", "serialized"]),
    _row_cycles,
    st.lists(st.integers(0, 7), max_size=6),
)
# A same-row run crosses the one cut: the second piece's first access
# must not activate the row the first piece left open.
@example(
    case=((8, 64), [Sequential(0, 40), Custom([41, 63]), Custom([100])]),
    policy="bank-parallel",
    row_cycle=1e6,
    cuts=[1],
)
def test_pieces_equal_one_call(case, policy, row_cycle, cuts):
    """Costing a run in consecutive pieces, cut at random segment
    boundaries (empty pieces included), equals costing it in one call:
    the same per-segment arrays, open rows and totals, and the
    reference's per-segment costs."""
    (banks, row_words), patterns = case
    n = len(patterns)
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    config = make_config(banks, row_words, policy, row_cycle)
    whole_dram = DRAM(config)
    pieced_dram = DRAM(config)
    reference = DRAMReference(config)

    whole = _run_batch(whole_dram, patterns)
    pieces = [
        _run_batch(pieced_dram, patterns[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    for name in ("words", "issue_cycles", "activation_cycles",
                 "activations", "worst"):
        joined = np.concatenate([getattr(p, name) for p in pieces])
        assert np.array_equal(joined, getattr(whole, name)), name
    assert pieced_dram.open_rows == whole_dram.open_rows
    assert pieced_dram.total_activations == whole_dram.total_activations
    assert pieced_dram.total_words == whole_dram.total_words

    for i, pattern in enumerate(patterns):
        ref_cost = reference.access(pattern, rate_words_per_cycle=4)
        seg = whole.segment(i)
        assert seg.words == ref_cost.words
        assert seg.activations == ref_cost.activations
        assert seg.issue_cycles == pytest.approx(ref_cost.issue_cycles)
        assert seg.activation_cycles == pytest.approx(
            ref_cost.activation_cycles
        )
