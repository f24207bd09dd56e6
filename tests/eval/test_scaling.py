"""Tests for :mod:`repro.eval.scaling` — the §4.6 capacity crossover."""

import pytest

from repro.errors import ExperimentError
from repro.eval.scaling import (
    SCALING_MACHINES,
    corner_turn_scaling,
    crossover_summary,
    render_scaling,
    scaling_requests,
)
from repro.eval.tables import run_table3
from repro.perf.cache import cache_key

#: Small sweep that still crosses VIRAM's 13 MB boundary (2048^2 x 4 B
#: matrices are 16 MB each).
SWEEP = (512, 2048)


@pytest.fixture(scope="module")
def points():
    return corner_turn_scaling(sizes=SWEEP)


class TestSweep:
    def test_one_point_per_size_and_machine(self, points):
        assert len(points) == len(SWEEP) * 3

    def test_viram_crosses_capacity(self, points):
        viram = {p.size: p for p in points if p.machine == "viram"}
        assert viram[512].fits_onchip
        assert not viram[2048].fits_onchip

    def test_raw_and_imagine_scale_linearly(self, points):
        for machine in ("raw", "imagine"):
            per_word = [
                p.cycles_per_word for p in points if p.machine == machine
            ]
            assert max(per_word) / min(per_word) < 1.3

    def test_empty_sweep_rejected(self):
        with pytest.raises(ExperimentError):
            corner_turn_scaling(sizes=())

    def test_memoised(self):
        a = corner_turn_scaling(sizes=SWEEP)
        b = corner_turn_scaling(sizes=SWEEP)
        assert a is b


class TestRequests:
    @pytest.mark.parametrize("machine", SCALING_MACHINES)
    def test_canonical_size_keys_the_table3_cell(self, machine):
        """The sweep's 1024² cell is a cache hit on Table 3's run, not a
        second simulation of the same corner turn."""
        table3 = {}

        def record(kernel_name, machine_name, **kwargs):
            table3[(kernel_name, machine_name)] = kwargs

        run_table3(runner=record)
        [(kernel, _, kwargs)] = scaling_requests((1024,), (machine,))
        assert cache_key(kernel, machine, kwargs) == cache_key(
            "corner_turn", machine, table3[("corner_turn", machine)]
        )


class TestCrossoverSummary:
    def test_offchip_penalty_near_2x(self, points):
        """The 2-word/cycle DMA interface roughly doubles VIRAM's
        per-word cost (§4.6: 'would lose much of its advantage')."""
        summary = crossover_summary(points)
        assert 1.5 < summary["offchip_penalty"] < 2.5

    def test_advantage_vs_raw_worsens(self, points):
        summary = crossover_summary(points)
        assert (
            summary["viram_over_raw_offchip"]
            > summary["viram_over_raw_onchip"]
        )

    def test_requires_a_crossing(self):
        onchip_only = corner_turn_scaling(sizes=(512,))
        with pytest.raises(ExperimentError):
            crossover_summary(onchip_only)


class TestRender:
    def test_marks_offchip_points(self, points):
        text = render_scaling(points)
        assert "*" in text
        assert "viram" in text and "raw" in text
