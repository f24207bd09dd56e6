"""Tests for :mod:`repro.arch.imagine.stream_program`."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.imagine import stream_program
from repro.arch.imagine.machine import ImagineMachine
from repro.arch.imagine.stream_program import (
    StreamOp,
    StreamProgram,
    execute,
    execute_measured,
    replay,
)
from repro.calibration import DEFAULT_CALIBRATION
from repro.errors import ScheduleError
from repro.eval.sensitivity import perturbed_calibration
from repro.mappings import (
    imagine_beam_steering,
    imagine_corner_turn,
    imagine_cslc,
)
from repro.memory.streams import Custom, Gather, Sequential


@pytest.fixture
def machine():
    return ImagineMachine()


class TestProgramConstruction:
    def test_builder_methods(self):
        p = StreamProgram()
        p.load("a", Sequential(0, 8))
        p.kernel("k", 100.0, deps=("a",))
        p.store("out", Sequential(8, 8), deps=("k",))
        assert len(p) == 3
        assert [op.kind for op in p.ops] == ["load", "kernel", "store"]

    def test_duplicate_name_rejected(self):
        p = StreamProgram()
        p.load("a", Sequential(0, 8))
        with pytest.raises(ScheduleError):
            p.load("a", Sequential(0, 8))

    def test_forward_dep_rejected(self):
        p = StreamProgram()
        with pytest.raises(ScheduleError):
            p.kernel("k", 1.0, deps=("ghost",))

    def test_kernel_with_pattern_rejected(self):
        with pytest.raises(ScheduleError):
            StreamOp("k", "kernel", pattern=Sequential(0, 1))

    def test_memory_op_needs_pattern(self):
        with pytest.raises(ScheduleError):
            StreamOp("l", "load")

    def test_bad_kind(self):
        with pytest.raises(ScheduleError):
            StreamOp("x", "dma")


class TestExecution:
    def test_dependent_chain_serialises(self, machine):
        p = StreamProgram()
        p.load("a", Sequential(0, 200))  # 200 ctrl-cycles / 2 = 100
        p.kernel("k", 50.0, deps=("a",))
        p.store("out", Sequential(200, 200), deps=("k",))
        schedule = execute(p, machine)
        assert schedule.makespan == pytest.approx(100 + 50 + 100, rel=0.05)

    def test_kernel_overlaps_independent_memory(self, machine):
        """Software pipelining: a prefetch issued before the kernel runs
        under it."""
        p = StreamProgram()
        p.load("a", Sequential(0, 200))
        p.load("b", Sequential(200, 200))  # prefetch for the next round
        p.kernel("k", 150.0, deps=("a",))
        schedule = execute(p, machine)
        # b runs on the memory system while k runs on the clusters.
        assert schedule.makespan == pytest.approx(100 + 150, rel=0.05)

    def test_memory_stripes_across_controllers(self, machine):
        p = StreamProgram()
        p.load("a", Sequential(0, 1000))
        schedule = execute(p, machine)
        assert schedule.makespan == pytest.approx(
            1000 / machine.config.memory_words_per_cycle, rel=0.05
        )

    def test_memory_wall_and_exposure(self, machine):
        p = StreamProgram()
        p.load("a", Sequential(0, 200))
        p.kernel("k", 500.0, deps=("a",))
        schedule = execute(p, machine)
        assert schedule.memory_wall == pytest.approx(100, rel=0.05)
        assert schedule.exposed_over_memory == pytest.approx(500, rel=0.05)

    def test_gather_derated(self, machine):
        from repro.memory.streams import Gather

        p = StreamProgram()
        p.load("g", Gather(0, list(range(100))), gather=True)
        schedule = execute(p, machine)
        assert schedule.memory_busy == pytest.approx(
            100 * machine.cal.gather_derate
            / machine.config.memory_words_per_cycle
        )

    def test_op_intervals_reported(self, machine):
        p = StreamProgram()
        p.load("a", Sequential(0, 20))
        p.kernel("k", 5.0, deps=("a",))
        schedule = execute(p, machine)
        assert schedule.op_intervals["k"][0] == pytest.approx(
            schedule.op_intervals["a"][1]
        )

    def test_in_order_memory_no_backfill(self, machine):
        """The memory system serves streams in issue order: a later load
        cannot jump a blocked store (why the mappings emit programs in
        software-pipelined order)."""
        p = StreamProgram()
        p.load("a", Sequential(0, 20))
        p.kernel("k", 400.0, deps=("a",))
        p.store("out", Sequential(100, 20), deps=("k",))
        p.load("late", Sequential(200, 20))
        schedule = execute(p, machine)
        assert schedule.op_intervals["late"][0] >= (
            schedule.op_intervals["out"][1] - 1e-9
        )


# -- replay against the reference scheduler ------------------------------
#
# ``execute_measured`` schedules with the DependencyScheduler, which stays
# the reference for ``replay`` (as DRAMReference is for DRAM): every
# comparison below is exact float equality.


def _kernel_cycles(costs):
    """The measured kernel durations, in program order."""
    return [c.cycles for c in costs if c.kind == "kernel"]


def _timeline(schedule):
    return (schedule.makespan, schedule.memory_busy, schedule.cluster_busy)


MAPPINGS = [imagine_corner_turn, imagine_cslc, imagine_beam_steering]

#: The default calibration plus every Imagine timing constant at x0.8
#: and x1.3 (the inefficiency factor scales its excess over 1).
CALIBRATIONS = [DEFAULT_CALIBRATION] + [
    perturbed_calibration("imagine", constant, factor)
    for constant in (
        "dram_row_cycle",
        "kernel_startup",
        "comm_exposure",
        "cluster_schedule_inefficiency",
        "gather_derate",
    )
    for factor in (0.8, 1.3)
]


@pytest.fixture(scope="module", params=MAPPINGS, ids=lambda m: m.__name__)
def measured_programs(request):
    """``(calibration, schedule, costs, machine)`` of one mapping's
    canonical host program, measured under each of the calibrations."""
    module = request.param
    measured = []
    with pytest.MonkeyPatch.context() as mp:
        def capture(program, machine):
            schedule, costs = execute_measured(program, machine)
            measured.append((schedule, costs, machine))
            return schedule, costs

        mp.setattr(module, "execute_measured", capture)
        for cal in CALIBRATIONS:
            module._structure(None, cal, 0, False)
    assert len(measured) == len(CALIBRATIONS)
    return [
        (cal.imagine,) + entry for cal, entry in zip(CALIBRATIONS, measured)
    ]


class TestReplayMatchesMappingPrograms:
    def test_each_measurement_replays_exactly(self, measured_programs):
        for cal, schedule, costs, machine in measured_programs:
            cells = replay(
                costs,
                machine,
                row_cycle=[cal.dram_row_cycle],
                gather_derate=[cal.gather_derate],
                kernel_cycles=[_kernel_cycles(costs)],
            )
            assert cells == [_timeline(schedule)]

    def test_default_structure_replays_every_calibration(
        self, measured_programs
    ):
        # The batch path: one structure pass (measured under the first
        # calibration) re-timed under every cell's constants must equal
        # each cell's own measured schedule.
        _, _, base_costs, machine = measured_programs[0]
        cells = replay(
            base_costs,
            machine,
            row_cycle=[cal.dram_row_cycle for cal, *_ in measured_programs],
            gather_derate=[
                cal.gather_derate for cal, *_ in measured_programs
            ],
            kernel_cycles=[
                _kernel_cycles(costs) for _, _, costs, _ in measured_programs
            ],
        )
        assert cells == [
            _timeline(schedule) for _, schedule, _, _ in measured_programs
        ]


@pytest.fixture(scope="module")
def canonical_programs():
    """The host program of each Imagine mapping's canonical run."""
    programs = []
    with pytest.MonkeyPatch.context() as mp:
        for module in MAPPINGS:
            def capture(program, machine):
                programs.append(program)
                return execute_measured(program, machine)

            mp.setattr(module, "execute_measured", capture)
            module._structure(None, DEFAULT_CALIBRATION, 0, False)
    assert len(programs) == len(MAPPINGS)
    return programs


class TestGroupedCosting:
    """``execute_measured`` costs memory ops in groups of about
    ``PIECE_WORDS`` words; the grouping must not change a number."""

    @pytest.mark.parametrize("piece_words", [1, 1000, 5000])
    def test_small_groups_equal_one_group(
        self, canonical_programs, monkeypatch, piece_words
    ):
        for program in canonical_programs:
            results = []
            # One group for the whole program, then many.  At 1 word
            # every op is alone; at 1,000 CSLC's 256-word streams share
            # groups, and at 5,000 the beam-steering and corner-turn
            # loads do too; every corner-turn store (8,192 words) is
            # alone in its own.
            for words in (1 << 62, piece_words):
                monkeypatch.setattr(stream_program, "PIECE_WORDS", words)
                machine = ImagineMachine()
                schedule, costs = execute_measured(program, machine)
                results.append((
                    schedule,
                    costs,
                    machine.dram.total_activations,
                    machine.dram.open_rows,
                ))
            assert results[1] == results[0]


# A random host program: (kind, deps, payload) per op, where deps index
# earlier ops and the payload specifies a memory op's pattern (None for
# kernels, whose durations are drawn separately).
_OP = st.sampled_from(["load", "store", "gather", "kernel"])
_CYCLES = st.floats(min_value=0.0, max_value=5e3, allow_nan=False)


@st.composite
def program_specs(draw):
    spec = []
    for i in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(_OP)
        deps = draw(
            st.lists(
                st.integers(min_value=0, max_value=i - 1),
                max_size=3,
                unique=True,
            )
            if i
            else st.just([])
        )
        if kind == "kernel":
            payload = None
        elif kind == "gather":
            payload = draw(
                st.lists(
                    st.integers(min_value=0, max_value=4096), max_size=40
                )
            )
        elif draw(st.booleans()):
            payload = (
                draw(st.integers(min_value=0, max_value=1 << 14)),
                draw(st.integers(min_value=0, max_value=300)),
            )
        else:
            payload = draw(
                st.lists(
                    st.integers(min_value=0, max_value=1 << 14), max_size=60
                )
            )
        spec.append((kind, sorted(deps), payload))
    return spec


def _build(spec, kernel_cycles):
    """The program of ``spec``, its kernels taking ``kernel_cycles`` in
    program order."""
    durations = iter(kernel_cycles)
    program = StreamProgram()
    for i, (kind, deps, payload) in enumerate(spec):
        name = f"op{i}"
        dep_names = [f"op{d}" for d in deps]
        if kind == "kernel":
            program.kernel(name, next(durations), deps=dep_names)
        elif kind == "gather":
            program.load(name, Gather(64, payload), deps=dep_names,
                         gather=True)
        else:
            pattern = (
                Sequential(*payload)
                if isinstance(payload, tuple)
                else Custom(payload)
            )
            add = program.load if kind == "load" else program.store
            add(name, pattern, deps=dep_names)
    return program


def cell_constants(n_kernels):
    """One cell's ``(row cycle, gather derate, kernel durations)``."""
    return st.tuples(
        st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        st.lists(_CYCLES, min_size=n_kernels, max_size=n_kernels),
    )


def _machine(row_cycle, gather_derate):
    return ImagineMachine(
        calibration=replace(
            DEFAULT_CALIBRATION.imagine,
            dram_row_cycle=row_cycle,
            gather_derate=gather_derate,
        )
    )


class TestReplayProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), spec=program_specs())
    def test_replay_equals_reference_schedule(self, data, spec):
        # Measure under one set of constants, replay under another: the
        # replay must equal the reference scheduler run directly under
        # the second set, exactly.
        n_kernels = sum(1 for kind, _, _ in spec if kind == "kernel")
        measure_rc, measure_gd, measure_k = data.draw(
            cell_constants(n_kernels)
        )
        rc, gd, kernels = data.draw(cell_constants(n_kernels))
        _, costs = execute_measured(
            _build(spec, measure_k), _machine(measure_rc, measure_gd)
        )
        reference = execute(_build(spec, kernels), _machine(rc, gd))
        cells = replay(
            costs,
            _machine(measure_rc, measure_gd),
            row_cycle=[rc],
            gather_derate=[gd],
            kernel_cycles=[kernels],
        )
        assert cells == [_timeline(reference)]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), spec=program_specs())
    def test_batch_equals_batches_of_one(self, data, spec):
        n_kernels = sum(1 for kind, _, _ in spec if kind == "kernel")
        machine = ImagineMachine()
        _, costs = execute_measured(
            _build(spec, [1.0] * n_kernels), machine
        )
        cells = data.draw(
            st.lists(cell_constants(n_kernels), min_size=1, max_size=6)
        )
        row_cycle, gather_derate, kernel_cycles = map(list, zip(*cells))
        batched = replay(
            costs,
            machine,
            row_cycle=row_cycle,
            gather_derate=gather_derate,
            kernel_cycles=kernel_cycles,
        )
        singles = [
            replay(costs, machine, row_cycle=[rc], gather_derate=[gd],
                   kernel_cycles=[k])[0]
            for rc, gd, k in cells
        ]
        assert batched == singles

    def test_empty_program(self, machine):
        _, costs = execute_measured(StreamProgram(), machine)
        assert replay(
            costs, machine, row_cycle=[4.0, 8.0], gather_derate=[2.0, 1.0],
            kernel_cycles=[[], []],
        ) == [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]


class TestReplayErrors:
    def _costs(self, machine):
        p = StreamProgram()
        p.load("a", Sequential(0, 16))
        p.kernel("k", 10.0, deps=("a",))
        return execute_measured(p, machine)[1]

    def test_kernel_row_length_checked(self, machine):
        with pytest.raises(ScheduleError, match="1 kernel durations"):
            replay(self._costs(machine), machine, row_cycle=[4.0],
                   gather_derate=[2.0], kernel_cycles=[[1.0, 2.0]])

    def test_cell_axes_must_agree(self, machine):
        with pytest.raises(ScheduleError, match="per cell"):
            replay(self._costs(machine), machine, row_cycle=[4.0, 4.0],
                   gather_derate=[2.0], kernel_cycles=[[1.0]])

    def test_negative_duration_rejected(self, machine):
        # As the reference scheduler rejects a negative task duration.
        with pytest.raises(ScheduleError, match="negative"):
            replay(self._costs(machine), machine, row_cycle=[4.0],
                   gather_derate=[2.0], kernel_cycles=[[-1.0]])
