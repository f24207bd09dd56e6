"""Tests for :mod:`repro.eval.sensitivity`."""

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.errors import ExperimentError
from repro.eval.sensitivity import (
    CONSTANT_CELLS,
    perturbed_calibration,
    render,
    sweep,
)


class TestPerturbation:
    def test_scales_single_constant(self):
        cal = perturbed_calibration("viram", "dram_row_cycle", 2.0)
        assert cal.viram.dram_row_cycle == pytest.approx(
            2 * DEFAULT_CALIBRATION.viram.dram_row_cycle
        )
        # Everything else untouched.
        assert cal.viram.vector_dead_time == (
            DEFAULT_CALIBRATION.viram.vector_dead_time
        )
        assert cal.raw == DEFAULT_CALIBRATION.raw

    def test_floored_constant_stays_valid(self):
        cal = perturbed_calibration(
            "imagine", "cluster_schedule_inefficiency", 0.5
        )
        assert cal.imagine.cluster_schedule_inefficiency >= 1.0

    def test_unknown_machine(self):
        with pytest.raises(ExperimentError):
            perturbed_calibration("trips", "x", 1.1)

    def test_unknown_constant(self):
        with pytest.raises(ExperimentError):
            perturbed_calibration("viram", "warp_speed", 1.1)


class TestSweep:
    @pytest.fixture(scope="class")
    def rows(self, request):
        from repro.kernels.workloads import (
            small_beam_steering,
            small_corner_turn,
            small_cslc,
        )

        workloads = {
            "corner_turn": small_corner_turn(),
            "cslc": small_cslc(),
            "beam_steering": small_beam_steering(),
        }
        constants = [
            ("viram", "dram_row_cycle"),
            ("imagine", "gather_derate"),
            ("raw", "stream_ops_per_output"),
            ("ppc", "trig_call_cycles"),
        ]
        return sweep(constants=constants, workloads=workloads)

    def test_row_per_cell(self, rows):
        assert len(rows) == sum(
            len(CONSTANT_CELLS[c])
            for c in (
                ("viram", "dram_row_cycle"),
                ("imagine", "gather_derate"),
                ("raw", "stream_ops_per_output"),
                ("ppc", "trig_call_cycles"),
            )
        )

    def test_elasticities_nonnegative_and_sublinear(self, rows):
        """More cycles when a cost constant grows, and never more than
        proportionally (every constant prices only part of the cell).
        The second case is the canonical sweep: every calibrated
        constant at ±25% on the Table 3 workloads."""
        for r in [*rows, *sweep()]:
            assert -0.01 <= r.elasticity <= 1.05, (r.machine, r.constant)

    def test_monotone_direction(self, rows):
        for r in rows:
            assert r.up_cycles >= r.down_cycles - 1e-9

    def test_invalid_delta(self):
        with pytest.raises(ExperimentError):
            sweep(delta=0.0)
        with pytest.raises(ExperimentError):
            sweep(delta=1.5)

    def test_unmapped_constant_rejected(self):
        with pytest.raises(ExperimentError):
            sweep(constants=[("viram", "page_words")])

    def test_render(self, rows):
        text = render(rows)
        assert "elasticity" in text
        assert "viram.dram_row_cycle" in text
