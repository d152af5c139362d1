"""Tests for the failure-injection harnesses."""

import pytest

from helpers import saxpy_program

from repro.compiler import compile_program
from repro.config import CompilerConfig
from repro.core.failure import (
    boundary_steps,
    crash_sweep,
    reference_pm,
    run_with_crashes,
)
from repro.core.machine import PersistentMachine
from repro.errors import MachineLimitError
from repro.trace import EK


@pytest.fixture(scope="module")
def compiled():
    return compile_program(saxpy_program(n=8), CompilerConfig(store_threshold=4))


class TestReferencePM:
    def test_matches_interpreter(self, compiled):
        from repro.compiler import run_single
        from helpers import data_words

        assert reference_pm(compiled) == data_words(run_single(compiled.program)[1])

    def test_deterministic(self, compiled):
        assert reference_pm(compiled) == reference_pm(compiled)


class TestBoundarySteps:
    def test_matches_the_boundaries_of_the_trace(self, compiled):
        from repro.compiler import run_single

        machine = PersistentMachine(compiled)
        steps = boundary_steps(machine)
        events = run_single(compiled.program)[0]
        assert machine.finished
        assert machine.stats.steps == len(events)
        assert steps == [
            i + 1 for i, e in enumerate(events) if e.kind == EK.BOUNDARY
        ]

    def test_step_bound_raises_machine_limit(self, compiled):
        machine = PersistentMachine(compiled, max_steps=10)
        with pytest.raises(MachineLimitError) as info:
            boundary_steps(machine)
        assert info.value.steps == 10
        assert info.value.limit == 10


class TestRunWithCrashes:
    def test_no_crash_points_is_plain_run(self, compiled):
        image, stats = run_with_crashes(compiled, [])
        assert image == reference_pm(compiled)
        assert stats.crashes == 0

    def test_crash_point_past_end_ignored(self, compiled):
        image, stats = run_with_crashes(compiled, [10**9])
        assert stats.crashes == 0
        assert image == reference_pm(compiled)

    def test_crash_counts_recorded(self, compiled):
        _, stats = run_with_crashes(compiled, [5, 20])
        assert stats.crashes == 2

    def test_unsorted_points_accepted(self, compiled):
        image, _ = run_with_crashes(compiled, [50, 5])
        assert image == reference_pm(compiled)

    def test_duplicate_points_collapse(self, compiled):
        image, stats = run_with_crashes(compiled, [5, 5, 5])
        assert stats.crashes == 1
        assert image == reference_pm(compiled)

    def test_fired_points_recorded(self, compiled):
        _, stats = run_with_crashes(compiled, [5, 20])
        assert stats.crash_points_fired == [5, 20]

    def test_points_past_completion_not_recorded(self, compiled):
        _, stats = run_with_crashes(compiled, [5, 10**9])
        assert stats.crash_points_fired == [5]


class TestCrashSweep:
    def test_sweep_returns_empty_on_consistent_machine(self, compiled):
        assert crash_sweep(compiled, stride=9) == []

    def test_stride_controls_points(self, compiled):
        # merely checks the harness runs with a large stride
        assert crash_sweep(compiled, stride=50) == []
