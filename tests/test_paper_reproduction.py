"""The golden test: canonical-size reproduction fidelity.

Runs the full Table 3 sweep at the paper's workload sizes and asserts
the *shape* criteria from DESIGN.md §5:

* every quantitative claim of the experiment registry (Tables 1-4,
  Figures 8-9, the §4 breakdowns, the §4.5 AltiVec gains, §4.6 and the
  what-ifs) inside its band, one test per row of
  :data:`repro.eval.experiments.CLAIMS` (Table 3's rows are
  ``test_table3_cell_within_band``),
* per-kernel platform ordering preserved,
* the structural claims beside the table: Raw runs closest to its
  Table 4 bound, Figure 9 is Figure 8 at the clocks, and Imagine FFT
  utilization rises with size.

These tolerances are deliberately loose enough to survive calibration
refinements but tight enough that a broken mechanism fails loudly.
"""

import pytest

from repro.eval.experiments import (
    CLAIMS,
    EXPERIMENTS,
    FIGURE_CLOCKS_HZ,
    RESEARCH,
    run_experiment,
)
from repro.eval.tables import PAPER_TABLE3, run_table3
from repro.mappings.registry import KERNELS, MACHINES


@pytest.fixture(scope="module")
def canonical_results():
    return run_table3()


@pytest.mark.parametrize("kernel", KERNELS)
def test_platform_ordering_preserved(canonical_results, kernel):
    """Who beats whom on each kernel must match Table 3."""
    model_order = sorted(
        MACHINES, key=lambda m: canonical_results[(kernel, m)].cycles
    )
    paper_order = sorted(MACHINES, key=lambda m: PAPER_TABLE3[(kernel, m)])
    assert model_order == paper_order


def test_all_functional_checks_pass(canonical_results):
    for (kernel, machine), run_ in canonical_results.items():
        assert run_.functional_ok, f"{kernel} on {machine}"


def test_raw_and_imagine_beat_altivec_on_every_kernel(canonical_results):
    """§4.6: Raw is in VIRAM's class, more than 8x the G4 AltiVec on all
    three kernels, and Imagine beats AltiVec on every kernel (Figure 8's
    bars all sit above 1).  VIRAM's own 'more than a factor of 10' is
    the ``sec4.6`` ``viram_min_speedup_over_altivec`` claim row."""
    for kernel in KERNELS:
        altivec = canonical_results[(kernel, "altivec")].cycles
        for machine, floor in (("imagine", 1.0), ("raw", 8.0)):
            speedup = altivec / canonical_results[(kernel, machine)].cycles
            assert speedup > floor, (kernel, machine, speedup)


@pytest.fixture(scope="module")
def outcomes(canonical_results):
    """Every registered experiment's outcome on the canonical runs."""
    return {
        experiment_id: run_experiment(experiment_id, results=canonical_results)
        for experiment_id in EXPERIMENTS
    }


def _assert_claim(outcomes, claim):
    model, paper = outcomes[claim.experiment].checks[claim.check]
    if claim.low == claim.high:
        expected = claim.low * paper if claim.on == "ratio" else claim.low
        assert model == expected, (model, paper)
    else:
        value = model / paper if claim.on == "ratio" else model
        assert claim.low < value < claim.high, (
            f"{claim.on} {value:.4g} not in ({claim.low}, {claim.high})"
        )


@pytest.mark.parametrize(
    "claim",
    [claim for claim in CLAIMS if claim.experiment != "table3"],
    ids=lambda claim: f"{claim.experiment}-{claim.check}",
)
def test_claim(outcomes, claim):
    _assert_claim(outcomes, claim)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("machine", MACHINES)
def test_table3_cell_within_band(outcomes, kernel, machine):
    """Table 3's rows of :data:`CLAIMS`, one test per cell."""
    (claim,) = (
        c for c in CLAIMS
        if (c.experiment, c.check) == ("table3", f"{kernel}_{machine}")
    )
    _assert_claim(outcomes, claim)


def test_table4_raw_runs_closest(outcomes):
    """Raw runs closest to its §2.5 bound (§4.2: 'nearly identical to
    the maximum performance predicted by the instruction issue rate')."""
    checks = outcomes["table4"].checks
    gaps = {m: checks[f"{m}_achieved_over_bound"][0] for m in RESEARCH}
    assert gaps["raw"] == min(gaps.values())


def test_figure9_is_figure8_at_the_clocks(outcomes):
    """'PPC=1 GHz, VIRAM=200 MHz, Imagine=300 MHz, and Raw=300 MHz'."""
    clocks = FIGURE_CLOCKS_HZ["figure9"]
    figure8 = outcomes["figure8"].data
    for kernel, row in outcomes["figure9"].data.items():
        for machine, time_speedup in row.items():
            expected = (
                figure8[kernel][machine] * clocks[machine] / clocks["altivec"]
            )
            assert time_speedup == pytest.approx(expected, rel=1e-9)


def test_imagine_fft_utilization_rises_with_size(outcomes):
    """§4.3: the 128-point FFT's small size 'reduces the amount of
    software pipelining and increases start-up overheads'."""
    data = outcomes["ablation_imagine_fft_size"].data
    utils = [data[n] for n in sorted(data)]
    assert all(a < b for a, b in zip(utils, utils[1:]))
