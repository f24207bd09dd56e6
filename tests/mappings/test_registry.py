"""Tests for :mod:`repro.mappings.registry`."""

import inspect

import pytest

from repro.errors import MappingError
from repro.mappings import registry
from repro.mappings.registry import KERNELS, MACHINES, available, run


class TestRegistry:
    def test_all_fifteen_cells_present(self):
        pairs = available()
        assert len(pairs) == 15
        for kernel in KERNELS:
            for machine in MACHINES:
                assert (kernel, machine) in pairs

    def test_unknown_kernel(self):
        with pytest.raises(MappingError):
            run("matmul", "viram")

    def test_unknown_machine(self):
        with pytest.raises(MappingError):
            run("cslc", "trips")

    def test_run_dispatches(self, small_ct):
        result = run("corner_turn", "raw", workload=small_ct)
        assert result.kernel == "corner_turn"
        assert result.machine == "raw"

    def test_kwargs_forwarded(self, small_cs):
        balanced = run("cslc", "raw", workload=small_cs, balanced=True)
        skewed = run("cslc", "raw", workload=small_cs, balanced=False)
        assert skewed.cycles > balanced.cycles

    def test_machine_order_matches_table3(self):
        assert MACHINES == ("ppc", "altivec", "viram", "imagine", "raw")

    def test_options_are_each_mappings_extra_keywords(self):
        # OPTIONS is what `repro list` prints, the fuzzer toggles and
        # the what-ifs flip: exactly the keywords both entry points of a
        # pair take beyond the ones every mapping takes.
        common = {"workload", "calibration", "calibrations", "seed"}
        for pair in available():
            for fn in (registry._REGISTRY[pair], registry.batch_runner(*pair)):
                extra = tuple(
                    name
                    for name in inspect.signature(fn).parameters
                    if name not in common
                )
                assert extra == registry.OPTIONS.get(pair, ()), (pair, fn)
