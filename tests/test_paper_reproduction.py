"""The golden test: canonical-size reproduction fidelity.

Runs the full Table 3 sweep at the paper's workload sizes and asserts
the *shape* criteria from DESIGN.md §5:

* every Table 3 cell within a factor band of the published value,
* per-kernel platform ordering preserved,
* the §4 breakdown percentages near the paper's statements,
* the §4.5 AltiVec gains near the paper's factors.

These tolerances are deliberately loose enough to survive calibration
refinements but tight enough that a broken mechanism fails loudly.
"""

import pytest

from repro.eval.experiments import run_experiment
from repro.eval.tables import PAPER_TABLE3, run_table3
from repro.mappings.registry import KERNELS, MACHINES


@pytest.fixture(scope="module")
def canonical_results():
    return run_table3()


CELL_TOLERANCE = 1.2  # each cell within 1.2x either way


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("machine", MACHINES)
def test_table3_cell_within_band(canonical_results, kernel, machine):
    model = canonical_results[(kernel, machine)].kilocycles
    paper = PAPER_TABLE3[(kernel, machine)]
    ratio = model / paper
    assert 1 / CELL_TOLERANCE < ratio < CELL_TOLERANCE, (
        f"{kernel} on {machine}: model {model:,.0f}k vs paper "
        f"{paper:,.0f}k (ratio {ratio:.2f})"
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_platform_ordering_preserved(canonical_results, kernel):
    """Who beats whom on each kernel must match Table 3."""
    model_order = sorted(
        MACHINES, key=lambda m: canonical_results[(kernel, m)].cycles
    )
    paper_order = sorted(MACHINES, key=lambda m: PAPER_TABLE3[(kernel, m)])
    assert model_order == paper_order


def test_winners_match_paper(canonical_results):
    """Raw wins corner turn and beam steering; Imagine wins CSLC."""
    for kernel, winner in (
        ("corner_turn", "raw"),
        ("cslc", "imagine"),
        ("beam_steering", "raw"),
    ):
        best = min(
            MACHINES, key=lambda m: canonical_results[(kernel, m)].cycles
        )
        assert best == winner, kernel


def test_all_functional_checks_pass(canonical_results):
    for (kernel, machine), run_ in canonical_results.items():
        assert run_.functional_ok, f"{kernel} on {machine}"


def test_research_chips_beat_altivec_by_10x_or_more(canonical_results):
    """§4.6: 'VIRAM outperformed the G4 Altivec by more than a factor of
    10 on all three of our kernels' — and Raw/Imagine are in the same
    class (Figure 8's log scale)."""
    for kernel in KERNELS:
        altivec = canonical_results[(kernel, "altivec")].cycles
        for machine in ("viram", "raw"):
            speedup = altivec / canonical_results[(kernel, machine)].cycles
            assert speedup > 8.0, (kernel, machine, speedup)


class TestBreakdownAnchors:
    """§4.2-§4.5 quantitative statements, through the experiment
    registry's checks."""

    @pytest.mark.parametrize(
        "experiment_id,tolerance",
        [
            ("sec4.2", 0.35),
            ("sec4.3", 0.50),
            ("sec4.4", 0.50),
            ("sec4.5", 0.35),
        ],
    )
    def test_checks_within_tolerance(
        self, canonical_results, experiment_id, tolerance
    ):
        outcome = run_experiment(experiment_id, results=canonical_results)
        for name, ratio in outcome.check_ratios().items():
            assert 1 - tolerance < ratio < 1 + tolerance, (
                f"{experiment_id}:{name} ratio {ratio:.2f}"
            )


class TestAblations:
    def test_network_port_same(self, canonical_results):
        outcome = run_experiment(
            "ablation_imagine_network_port", results=canonical_results
        )
        model, paper = outcome.checks["port_over_base"]
        assert model == pytest.approx(paper, abs=0.02)

    def test_streamed_fft_near_70_percent(self, canonical_results):
        outcome = run_experiment(
            "ablation_raw_streamed_fft", results=canonical_results
        )
        model, paper = outcome.checks["fft_improvement"]
        assert model == pytest.approx(paper, abs=0.2)

    def test_load_balance_near_8_percent(self, canonical_results):
        outcome = run_experiment(
            "ablation_raw_load_balance", results=canonical_results
        )
        model, paper = outcome.checks["idle_fraction"]
        assert model == pytest.approx(paper, abs=0.02)

    def test_srf_tables_about_2x(self, canonical_results):
        outcome = run_experiment(
            "ablation_imagine_srf_tables", results=canonical_results
        )
        model, paper = outcome.checks["srf_speedup"]
        assert 1.5 < model < 3.5
        assert paper == 2.0
