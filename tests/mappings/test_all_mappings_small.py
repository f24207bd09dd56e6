"""Cross-cutting invariants for every mapping at small workload sizes.

These are the integration tests: all fifteen kernel x machine cells run
the full pipeline (pattern generation, machine models, functional
computation) on small workloads, and every KernelRun must satisfy the
same structural invariants.
"""

import numpy as np
import pytest

from repro.arch.base import KernelRun
from repro.mappings import ppc_corner_turn, raw_corner_turn, viram_corner_turn
from repro.mappings.registry import KERNELS, MACHINES, run

CELLS = [(k, m) for k in KERNELS for m in MACHINES]


@pytest.fixture(scope="module")
def small_runs():
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
    # cache=False: these tests check the mappings' functional output,
    # which only an uncached run carries (cached runs hold its digest).
    return {
        (kernel, machine): run(
            kernel, machine, cache=False, workload=workloads[kernel]
        )
        for kernel, machine in CELLS
    }


@pytest.mark.parametrize("kernel,machine", CELLS)
class TestInvariants:
    def test_returns_kernel_run(self, small_runs, kernel, machine):
        assert isinstance(small_runs[(kernel, machine)], KernelRun)

    def test_positive_cycles(self, small_runs, kernel, machine):
        assert small_runs[(kernel, machine)].cycles > 0

    def test_breakdown_sums_to_total(self, small_runs, kernel, machine):
        r = small_runs[(kernel, machine)]
        assert r.cycles == pytest.approx(
            sum(v for _, v in r.breakdown.items())
        )

    def test_no_negative_categories(self, small_runs, kernel, machine):
        r = small_runs[(kernel, machine)]
        assert all(v >= 0 for _, v in r.breakdown.items())

    def test_functional_ok(self, small_runs, kernel, machine):
        assert small_runs[(kernel, machine)].functional_ok

    def test_output_present_and_finite(self, small_runs, kernel, machine):
        r = small_runs[(kernel, machine)]
        assert r.output is not None
        assert np.all(np.isfinite(np.asarray(r.output, dtype=np.complex128)))

    def test_ops_census_positive(self, small_runs, kernel, machine):
        assert small_runs[(kernel, machine)].ops.total > 0

    def test_within_physical_peak(self, small_runs, kernel, machine):
        """No mapping may exceed its machine's arithmetic peak."""
        r = small_runs[(kernel, machine)]
        assert r.percent_of_peak <= 1.0 + 1e-9

    def test_spec_name_consistent(self, small_runs, kernel, machine):
        r = small_runs[(kernel, machine)]
        assert r.machine == machine
        assert r.spec.name == machine


class TestCrossMachineFunctionalAgreement:
    """All machines must compute the same answer for the same kernel."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_outputs_agree(self, small_runs, kernel):
        outputs = [small_runs[(kernel, m)].output for m in MACHINES]
        reference = outputs[0]
        for machine, output in zip(MACHINES[1:], outputs[1:]):
            assert output.shape == reference.shape, machine
            assert np.allclose(
                np.asarray(output, dtype=np.complex128),
                np.asarray(reference, dtype=np.complex128),
                rtol=1e-4,
                atol=1e-6,
            ), f"{kernel} output differs on {machine}"


class TestDeterminism:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_same_seed_same_cycles(self, machine, small_cs):
        a = run("cslc", machine, cache=False, workload=small_cs, seed=7)
        b = run("cslc", machine, cache=False, workload=small_cs, seed=7)
        assert a.cycles == b.cycles
        assert a.output is not None
        assert np.array_equal(a.output, b.output)


@pytest.mark.parametrize(
    "machine,mapping",
    [
        ("viram", viram_corner_turn),
        ("raw", raw_corner_turn),
        ("altivec", ppc_corner_turn),
    ],
    ids=["viram", "raw", "altivec"],
)
def test_one_ulp_wrong_transpose_fails_the_check(
    machine, mapping, small_ct, monkeypatch
):
    """The corner-turn check is exact: a transpose one ulp off in one
    element must read ``functional_ok=False`` (a tolerance accepts it)."""
    blocked = mapping.blocked_corner_turn

    def one_ulp_off(matrix, block):
        out = blocked(matrix, block)
        out[1, 2] = np.nextafter(out[1, 2], np.float32(np.inf))
        return out

    kwargs = dict(cache=False, workload=small_ct)
    assert run("corner_turn", machine, **kwargs).functional_ok
    monkeypatch.setattr(mapping, "blocked_corner_turn", one_ulp_off)
    assert not run("corner_turn", machine, **kwargs).functional_ok
