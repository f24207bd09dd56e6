"""Tests for :mod:`repro.mappings.raw_matmul` (extension, §2.3's cited
Raw results)."""

import pytest

from repro.errors import MappingError
from repro.kernels.matmul import MatmulWorkload
from repro.mappings.raw_matmul import run, speedup_vs_single_tile

SMALL = MatmulWorkload(32, 32, 32)
#: The size the cited-speedup claims are stated at.
CITED = MatmulWorkload(64, 64, 64)


class TestModes:
    def test_all_modes_functional(self):
        for mode in ("single", "mimd", "stream"):
            result = run(SMALL, mode=mode)
            assert result.functional_ok, mode
            assert result.cycles > 0

    def test_unknown_mode(self):
        with pytest.raises(MappingError):
            run(SMALL, mode="vliw")

    def test_indivisible_rejected(self):
        with pytest.raises(MappingError):
            run(MatmulWorkload(30, 32, 32))

    def test_stream_cheaper_than_mimd(self):
        assert run(SMALL, mode="stream").cycles < run(SMALL, mode="mimd").cycles

    def test_single_tile_slowest(self):
        single = run(SMALL, mode="single")
        mimd = run(SMALL, mode="mimd")
        assert single.cycles > 10 * mimd.cycles


class TestCitedSpeedups:
    """§2.3: 'speedup of up to 12 relative to single-tile performance on
    ILP benchmarks.  Speedups greater than 16 ... on streaming
    benchmarks.'  Dense matmul sits at the favourable end of the ILP
    band; the streaming mode must exceed 16."""

    def test_mimd_band(self):
        for workload in (SMALL, CITED):
            s = speedup_vs_single_tile(workload)
            assert 10.0 < s["mimd_speedup"] < 18.0, workload

    def test_stream_exceeds_16(self):
        for workload in (SMALL, CITED):
            s = speedup_vs_single_tile(workload)
            assert s["stream_speedup"] > 16.0, workload

    def test_stream_beats_mimd(self):
        s = speedup_vs_single_tile(SMALL)
        assert s["stream_speedup"] > s["mimd_speedup"]

    def test_single_tile_stalls_when_working_set_spills(self):
        big = run(CITED, mode="single")
        assert big.breakdown.get("cache stalls") > 0
        tiny = run(MatmulWorkload(16, 16, 16), mode="single")
        assert tiny.breakdown.get("cache stalls") == 0.0
