"""Tests for the batched campaign engine and the run_coverage routing."""

import pytest

from repro.analysis import (
    iteration_runner,
    march_runner,
    run_coverage,
    schedule_runner,
)
from repro.faults import single_cell_universe, standard_universe
from repro.march.library import MARCH_C_MINUS, MATS
from repro.memory import SinglePortRAM
from repro.prt import PiIteration, standard_schedule
from repro.sim import compile_march, run_campaign


def _report_key(report):
    return (report.detected, report.total, report.missed_faults)


class TestRunCampaign:
    def test_full_saf_detection(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = single_cell_universe(16, classes=("SAF", "TF"))
        result = run_campaign(stream, universe)
        assert result.detection_ratio == 1.0
        assert result.faults_total == len(universe)
        assert result.missed == []

    def test_outcomes_preserve_universe_order(self):
        stream = compile_march(MATS, 8)
        universe = standard_universe(8)
        result = run_campaign(stream, universe)
        assert [fault for fault, _ in result.outcomes] == list(universe)

    def test_reference_pass_cached(self):
        stream = compile_march(MATS, 8)
        assert not stream.reference_verified
        run_campaign(stream, single_cell_universe(8, classes=("SAF",)))
        assert stream.reference_verified
        assert stream.reference_operations == stream.operation_count
        # Second campaign reuses the cache (no way to observe directly,
        # but it must not clear it).
        run_campaign(stream, single_cell_universe(8, classes=("SAF",)))
        assert stream.reference_verified

    def test_reference_pass_rejects_inconsistent_stream(self):
        stream = compile_march(MATS, 8)
        broken = type(stream)(
            source=stream.source, name=stream.name, n=stream.n, m=stream.m,
            ops=stream.ops[:-1] + (("r", 0, 0, None, 0, 0),),
            info=stream.info,
        )
        with pytest.raises(ValueError, match="fault-free"):
            run_campaign(broken, single_cell_universe(8, classes=("SAF",)))

    def test_early_abort_replays_fewer_operations(self):
        stream = compile_march(MARCH_C_MINUS, 32)
        universe = single_cell_universe(32, classes=("SAF",))
        result = run_campaign(stream, universe)
        # Every fault is detected well before the full 10n replay.
        assert result.operations_replayed < len(universe) * stream.operation_count

    def test_ram_factory_geometry_mismatch_rejected(self):
        stream = compile_march(MARCH_C_MINUS, 8)
        universe = single_cell_universe(8, classes=("SAF",))
        with pytest.raises(ValueError, match="compiled for"):
            run_campaign(stream, universe,
                         ram_factory=lambda: SinglePortRAM(16))

    def test_geometry_mismatch_rejected_on_every_engine(self):
        universe = single_cell_universe(8, classes=("SAF",))
        for engine in ("auto", "interpreted"):
            with pytest.raises(ValueError):
                run_coverage(march_runner(MARCH_C_MINUS), universe, 8,
                             ram_factory=lambda: SinglePortRAM(16),
                             engine=engine)

    def test_duck_typed_ram_factory(self):
        # A front-end honouring only the read/write/idle/n/m contract must
        # still work on the compiled campaign path (portable executor).
        class Bare:
            def __init__(self, n):
                self._inner = SinglePortRAM(n)
                self.n, self.m = n, 1

            def read(self, addr):
                return self._inner.read(addr)

            def write(self, addr, value):
                self._inner.write(addr, value)

            def idle(self, cycles):
                self._inner.idle(cycles)

            def attach_behavior(self, behavior):
                self._inner.attach_behavior(behavior)

            def detach_behavior(self):
                self._inner.detach_behavior()

            @property
            def decoder(self):
                return self._inner.decoder

        universe = single_cell_universe(8, classes=("SAF", "TF"))
        report = run_coverage(march_runner(MARCH_C_MINUS), universe, 8,
                              ram_factory=lambda: Bare(8), engine="compiled")
        native = run_coverage(march_runner(MARCH_C_MINUS), universe, 8,
                              engine="compiled")
        assert _report_key(report) == _report_key(native)

    def test_compile_memoized_across_runs(self):
        from repro.sim import cached_schedule_stream

        schedule = standard_schedule(n=14)
        first = cached_schedule_stream(schedule, 14, 1)
        assert cached_schedule_stream(schedule, 14, 1) is first
        # The adapters hit the same cache: repeated runs do not re-lower.
        ram = SinglePortRAM(14)
        assert schedule.run(ram).passed
        assert cached_schedule_stream(schedule, 14, 1) is first

    def test_workers_progress_fires_per_chunk(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        seen = []
        run_campaign(stream, universe, workers=2, chunk_size=100,
                     progress=lambda done, total: seen.append((done, total)))
        assert len(seen) >= 2  # one callback per chunk, not one at the end
        assert seen[-1] == (len(universe), len(universe))

    def test_chunk_size_validation(self):
        stream = compile_march(MATS, 8)
        with pytest.raises(ValueError):
            run_campaign(stream, [], chunk_size=0)

    def test_progress_callback(self):
        stream = compile_march(MATS, 8)
        universe = single_cell_universe(8, classes=("SAF",))
        seen = []
        run_campaign(stream, universe, chunk_size=5,
                     progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (len(universe), len(universe))
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    def test_workers_match_serial(self):
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        serial = run_campaign(stream, universe)
        parallel = run_campaign(stream, universe, workers=2, chunk_size=64)
        assert [d for _, d in serial.outcomes] == [d for _, d in parallel.outcomes]

    def test_repr(self):
        stream = compile_march(MATS, 8)
        result = run_campaign(stream, single_cell_universe(8, classes=("SAF",)))
        assert "detected" in repr(result)


class TestRunCoverageRouting:
    """run_coverage(engine=...) must give identical reports on every path."""

    def test_march_compiled_matches_interpreted(self):
        universe = standard_universe(16)
        compiled = run_coverage(march_runner(MARCH_C_MINUS), universe, 16,
                                engine="compiled")
        interpreted = run_coverage(march_runner(MARCH_C_MINUS), universe, 16,
                                   engine="interpreted")
        assert _report_key(compiled) == _report_key(interpreted)

    def test_schedule_compiled_matches_interpreted(self):
        universe = standard_universe(14)
        runner = schedule_runner(standard_schedule(n=14))
        compiled = run_coverage(runner, universe, 14, engine="compiled")
        interpreted = run_coverage(runner, universe, 14, engine="interpreted")
        assert _report_key(compiled) == _report_key(interpreted)

    def test_iteration_compiled_matches_interpreted(self):
        universe = standard_universe(14)
        iteration = PiIteration(generator=(1, 0, 1, 1), seed=(0, 0, 1))
        compiled = run_coverage(iteration_runner(iteration), universe, 14,
                                engine="compiled")
        interpreted = run_coverage(iteration_runner(iteration), universe, 14,
                                   engine="interpreted")
        assert _report_key(compiled) == _report_key(interpreted)

    def test_opaque_runner_falls_back(self):
        universe = single_cell_universe(8, classes=("SAF",))
        calls = []

        def custom_runner(ram):
            calls.append(1)
            ram.write(0, 1)
            return ram.read(0) != 1

        report = run_coverage(custom_runner, universe, 8)
        assert len(calls) == len(universe)
        assert report.coverage_of("SAF") == 1 / 16  # only SA0 at cell 0

    def test_engine_compiled_requires_compilable(self):
        with pytest.raises(ValueError, match="compilable"):
            run_coverage(lambda ram: False,
                         single_cell_universe(8, classes=("SAF",)), 8,
                         engine="compiled")

    def test_engine_validation(self):
        with pytest.raises(ValueError, match="engine"):
            run_coverage(march_runner(MATS),
                         single_cell_universe(8, classes=("SAF",)), 8,
                         engine="bogus")

    def test_ram_factory_called_once_per_fault(self):
        universe = single_cell_universe(8, classes=("SAF",))
        calls = []

        def factory():
            calls.append(1)
            return SinglePortRAM(8)

        run_coverage(march_runner(MATS), universe, 8, ram_factory=factory,
                     engine="compiled")
        assert len(calls) == len(universe)

    def test_runner_is_still_callable(self):
        runner = march_runner(MATS)
        assert runner(SinglePortRAM(8)) is False
        assert runner.compile(8, 1).operation_count == MATS.operation_count(8)

    def test_duck_typed_iteration_runner_not_compilable(self):
        class FakeIteration:
            def run(self, ram):
                class R:
                    passed = True
                return R()

        runner = iteration_runner(FakeIteration())
        assert not hasattr(runner, "compile")
        report = run_coverage(runner, single_cell_universe(4, classes=("SAF",)), 4)
        assert report.overall == 0.0
