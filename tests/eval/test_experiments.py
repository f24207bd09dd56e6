"""Tests for :mod:`repro.eval.experiments` at small workload sizes.

Every registered experiment must run end to end, produce a non-empty
rendering, and carry well-formed (model, paper) checks.  Canonical-size
fidelity is asserted separately in tests/test_paper_reproduction.py.
"""

from dataclasses import replace

import pytest

from repro.errors import ExperimentError
from repro.eval.experiments import (
    EXPERIMENTS,
    VARIANTS,
    _checks,
    run_experiment,
)
from repro.eval.tables import run_table3


@pytest.fixture(scope="module")
def small_env():
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
    return workloads, run_table3(workloads)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
class TestAllExperiments:
    def test_runs_and_renders(self, experiment_id, small_env):
        workloads, results = small_env
        outcome = run_experiment(
            experiment_id, results=results, workloads=workloads
        )
        assert outcome.id == experiment_id
        assert outcome.title
        assert outcome.rendered
        assert outcome.data

    def test_checks_are_pairs(self, experiment_id, small_env):
        workloads, results = small_env
        outcome = run_experiment(
            experiment_id, results=results, workloads=workloads
        )
        for name, pair in outcome.checks.items():
            assert len(pair) == 2, name
            model, paper = pair
            assert isinstance(model, (int, float))
            assert isinstance(paper, (int, float))


class TestRegistry:
    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("table99")

    def test_expected_experiments_present(self):
        for experiment_id in (
            "table1",
            "table2",
            "table3",
            "table4",
            "figure8",
            "figure9",
            "sec4.2",
            "sec4.3",
            "sec4.4",
            "sec4.5",
            "ablation_imagine_network_port",
            "ablation_raw_streamed_fft",
            "ablation_raw_load_balance",
            "ablation_imagine_srf_tables",
        ):
            assert experiment_id in EXPERIMENTS


class TestClaims:
    def test_checks_must_name_exactly_the_claims(self):
        gains = {"cslc_gain": 6.0, "beam_steering_gain": 2.0}
        with pytest.raises(ExperimentError):
            _checks("sec4.5", gains)
        with pytest.raises(ExperimentError):
            _checks("sec4.5", dict(gains, corner_turn_gain=1.2, extra=1.0))
        assert list(_checks("sec4.5", dict(gains, corner_turn_gain=1.2))) == [
            "cslc_gain",
            "beam_steering_gain",
            "corner_turn_gain",
        ]

    def test_variant_must_flip_a_listed_option(self):
        with pytest.raises(ExperimentError):
            replace(VARIANTS[0], option="tables_in_srf")
