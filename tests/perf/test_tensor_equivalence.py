"""Batch-vs-per-cell equivalence properties for the tensor engine.

The tensorized sweep engine's core claim (:mod:`repro.perf.tensorsweep`)
is that a mapping's batch entry point is *bitwise* identical to cold
per-cell ``run`` calls — ``run()`` is literally the batch of one.
Hypothesis stresses that claim with randomized calibration grids across
every registered (kernel, machine) pair — all four architecture
families times three kernels — plus the Raw matmul extension in each of
its modes.

A second group pins the planner-side fallback rules: an active tracer
must force per-cell execution (a traced run has to emit its spans), and
the fallback path must still produce bitwise-identical results;
non-batchable requests and singleton groups must demote to
:class:`~repro.perf.tensorsweep.SingleCell` units.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import DEFAULT_CALIBRATION
from repro.check.oracles import diff_runs
from repro.eval.sensitivity import (
    CONSTANT_FLOORS,
    perturbed_calibration,
    sweep,
)
from repro.kernels.workloads import (
    small_beam_steering,
    small_corner_turn,
    small_cslc,
)
from repro.mappings import batch, raw_matmul, registry
from repro.perf import tensorsweep
from repro.perf.cache import RUN_CACHE
from repro.perf.diskcache import DISK_CACHE
from repro.perf.planner import execute_requests
from repro.perf.tensorsweep import TENSOR_STATS, BatchGroup, SingleCell
from repro.trace.tracer import tracing

WORKLOADS = {
    "corner_turn": small_corner_turn(),
    "cslc": small_cslc(),
    "beam_steering": small_beam_steering(),
}

COMMON = dict(max_examples=10, deadline=None)

#: Per-field perturbation factors.  The window mirrors the sensitivity
#: sweep's ±25% range: wide enough to change every float expression,
#: narrow enough that fraction-valued constants stay physical.
_factor = st.floats(min_value=0.75, max_value=1.25, allow_nan=False)


def _grid_strategy(group_name):
    """Grids of 2–5 calibrations perturbing every *batchable* (float,
    non-structural) constant of one machine group independently."""
    group = getattr(DEFAULT_CALIBRATION, group_name)
    names = [
        f.name
        for f in dataclasses.fields(group)
        if f.name not in batch.STRUCTURAL_CAL_FIELDS[group_name]
    ]
    cell = st.fixed_dictionaries({name: _factor for name in names})

    def build(cells):
        cals = []
        for factors in cells:
            # Perturb relative to each constant's hard floor (the same
            # convention as perturbed_calibration): an inefficiency
            # factor can never drop below 1.
            new_group = dataclasses.replace(
                group,
                **{
                    name: (floor := CONSTANT_FLOORS.get(
                        (group_name, name), 0.0
                    )) + (getattr(group, name) - floor) * factor
                    for name, factor in factors.items()
                },
            )
            cals.append(
                dataclasses.replace(
                    DEFAULT_CALIBRATION, **{group_name: new_group}
                )
            )
        return cals

    return st.lists(cell, min_size=2, max_size=5).map(build)


def _assert_bitwise_equal(per_cell, batched):
    assert len(per_cell) == len(batched)
    for i, (a, b) in enumerate(zip(per_cell, batched)):
        diffs = diff_runs(a, b, rtol=0.0)
        assert not diffs, f"cell {i}: {diffs[:3]}"


class TestBatchMatchesPerCell:
    """run_batch(cals) must be bitwise-equal to per-cell run() calls."""

    @pytest.mark.parametrize("kernel,machine", registry.available())
    @settings(**COMMON)
    @given(data=st.data())
    def test_registry_pair(self, kernel, machine, data):
        runner = registry.batch_runner(kernel, machine)
        assert runner is not None, "every registry pair has a batch entry"
        cals = data.draw(_grid_strategy(batch.CAL_GROUP[machine]))
        workload = WORKLOADS[kernel]
        per_cell = [
            registry.run(
                kernel,
                machine,
                cache=False,
                calibration=cal,
                workload=workload,
            )
            for cal in cals
        ]
        batched = runner(cals, workload=workload)
        _assert_bitwise_equal(per_cell, batched)

    @pytest.mark.parametrize("mode", raw_matmul.MODES)
    @settings(**COMMON)
    @given(data=st.data())
    def test_raw_matmul(self, mode, data):
        cals = data.draw(_grid_strategy("raw"))
        per_cell = [
            raw_matmul.run(calibration=cal, mode=mode) for cal in cals
        ]
        batched = raw_matmul.run_batch(cals, mode=mode)
        _assert_bitwise_equal(per_cell, batched)


def _sensitivity_grid(n=3):
    """A small batchable grid, perturbing one VIRAM float constant."""
    return [
        perturbed_calibration("viram", "dram_row_cycle", 1 + 0.05 * k)
        for k in range(n)
    ]


def _requests(cals, small_ct):
    return [
        (
            "corner_turn",
            "viram",
            {"workload": small_ct, "calibration": cal},
        )
        for cal in cals
    ]


class TestDenseSweep:
    """The 25-point sensitivity grid runs as tensor batches, none of its
    cells on the per-cell path.  That the batches equal per-cell runs is
    :class:`TestBatchMatchesPerCell`'s claim, over every batch group."""

    def test_dense_grid_is_batched(self):
        DISK_CACHE.disable()
        RUN_CACHE.clear()
        TENSOR_STATS.reset()
        sweep(points=25)
        stats = TENSOR_STATS.snapshot()
        assert stats["batched_cells"] >= 1000, stats
        assert stats["fallback_cells"] == 0, stats
        assert stats["tracer_fallbacks"] == 0, stats


class TestTracerFallback:
    """An active tracer forces per-cell execution — and the per-cell
    path it falls back to is bitwise-identical to the batch path."""

    @pytest.fixture(autouse=True)
    def fresh_state(self):
        RUN_CACHE.clear()
        RUN_CACHE.enable()
        TENSOR_STATS.reset()
        yield
        RUN_CACHE.clear()

    def test_tracing_forces_per_cell_fallback(self, small_ct):
        requests = _requests(_sensitivity_grid(), small_ct)
        with tracing() as tracer:
            traced_runs = execute_requests(requests)
        stats = TENSOR_STATS.snapshot()
        assert stats["batches"] == 0
        assert stats["batched_cells"] == 0
        assert stats["tracer_fallbacks"] == len(requests)
        assert stats["fallback_cells"] == len(requests)
        # The traced runs really executed per cell: one trace per run.
        assert len(tracer.runs) == len(requests)
        assert all(run is not None for run in traced_runs)

    def test_same_grid_batches_without_tracer(self, small_ct):
        requests = _requests(_sensitivity_grid(), small_ct)
        execute_requests(requests)
        stats = TENSOR_STATS.snapshot()
        assert stats["batches"] == 1
        assert stats["batched_cells"] == len(requests)
        assert stats["fallback_cells"] == 0

    def test_traced_fallback_is_bitwise_identical(self, small_ct):
        requests = _requests(_sensitivity_grid(), small_ct)
        with tracing():
            traced = execute_requests(requests)
        RUN_CACHE.clear()
        batched = execute_requests(requests)
        _assert_bitwise_equal(traced, batched)


class TestPlanUnits:
    """Unit-partitioning edge cases: what batches and what falls back."""

    @pytest.fixture(autouse=True)
    def fresh_stats(self):
        TENSOR_STATS.reset()
        yield

    def _pairs(self, cals, small_ct, **extra):
        return [
            (
                (
                    "corner_turn",
                    "viram",
                    {"workload": small_ct, "calibration": cal, **extra},
                ),
                None,
            )
            for cal in cals
        ]

    def test_uniform_grid_is_one_batch(self, small_ct):
        units = tensorsweep.plan_units(
            self._pairs(_sensitivity_grid(4), small_ct)
        )
        assert len(units) == 1
        (group,) = units
        assert isinstance(group, BatchGroup)
        assert len(group) == 4
        assert group.positions == [0, 1, 2, 3]

    def test_cache_kwarg_forces_single(self, small_ct):
        units = tensorsweep.plan_units(
            self._pairs(_sensitivity_grid(3), small_ct, cache=False)
        )
        assert all(isinstance(u, SingleCell) for u in units)
        assert TENSOR_STATS.snapshot()["fallback_cells"] == 3

    def test_singleton_group_demotes_to_single(self, small_ct):
        units = tensorsweep.plan_units(
            self._pairs(_sensitivity_grid(1), small_ct)
        )
        assert len(units) == 1
        assert isinstance(units[0], SingleCell)
        assert TENSOR_STATS.snapshot()["batches"] == 0

    def test_structural_fields_split_groups(self, small_ct):
        # tlb_entries is structural for VIRAM: cells differing in it
        # generate different TLB walks and must not share a batch.
        base = _sensitivity_grid(2)
        other_geometry = [
            dataclasses.replace(
                cal,
                viram=dataclasses.replace(
                    cal.viram, tlb_entries=cal.viram.tlb_entries * 2
                ),
            )
            for cal in _sensitivity_grid(2)
        ]
        units = tensorsweep.plan_units(
            self._pairs(base + other_geometry, small_ct)
        )
        assert len(units) == 2
        assert all(isinstance(u, BatchGroup) for u in units)
        assert [u.positions for u in units] == [[0, 1], [2, 3]]
