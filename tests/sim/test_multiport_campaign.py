"""Compiled port-parallel π-tests == interpreted, cycle for cycle.

The contract of the cycle-grouped IR: lowering the dual-/quad-port
schemes (``repro.prt.dual_port``) to grouped records and replaying them
through ``MultiPortRAM.apply_stream`` must produce *identical* results
to the interpreted engines -- same ``PiIterationResult`` /
``QuadPortResult`` objects, same memory images, same ``RamStats``
(including the paper's 2n and n cycle claims, which the old
one-op-per-record executor inflated to ~3n) -- on healthy and faulted
memories, and the campaign engines built on top -- the per-fault scalar
replay *and* the lane-parallel batched engine -- must reproduce the
interpreted ``CoverageReport`` byte for byte over the full
``standard_universe(256)``.
"""

import pickle

import pytest

from repro.analysis import (
    dual_port_runner,
    multi_schedule_runner,
    quad_port_runner,
    run_coverage,
)
from repro.faults import FaultInjector, standard_universe
from repro.gf2 import poly_from_string, primitive_polynomial
from repro.gf2m import GF2m
from repro.memory import (
    DualPortRAM,
    MultiPortRAM,
    PackedMemoryArray,
    PortConflictError,
    QuadPortRAM,
    SinglePortRAM,
    apply_stream_generic,
)
from repro.memory.decoder import AddressDecoder
from repro.prt import (
    DualPortPiIteration,
    QuadPortPiIteration,
    standard_multi_schedule,
)
from repro.sim import (
    OpStream,
    build_lane_model,
    cached_dual_port_stream,
    cached_multi_schedule_stream,
    cached_quad_port_stream,
    compile_dual_port_pi,
    compile_multi_schedule,
    compile_quad_port_pi,
    replay_dual_port_iteration,
    replay_multi_schedule,
    replay_quad_port_iteration,
    run_campaign,
    run_campaign_batched,
)
from tests.sim.conftest import assert_reports_identical, report_key

F16 = GF2m(poly_from_string("1+z+z^4"))
F256 = GF2m(primitive_polynomial(8))


def _stats_tuple(ram):
    return (ram.stats.reads, ram.stats.writes, ram.stats.cycles)


def _run_both(iteration, stream, replay, ram_a, ram_b, fault=None):
    """(compiled, interpreted) results; PortConflictError -> "conflict"."""
    injectors = (FaultInjector([fault]), FaultInjector([fault])) \
        if fault is not None else (None, None)
    results = []
    for ram, injector, run in ((ram_a, injectors[0],
                                lambda r: replay(stream, r)),
                               (ram_b, injectors[1], iteration.run)):
        if injector is not None:
            injector.install(ram)
        try:
            result = run(ram)
        except PortConflictError:
            result = "conflict"
        if injector is not None:
            injector.remove(ram)
        results.append(result)
    return results


class TestDualPortEquivalence:
    @pytest.mark.parametrize("n", [9, 14, 50])
    def test_healthy(self, n):
        iteration = DualPortPiIteration(seed=(0, 1))
        stream = compile_dual_port_pi(iteration, n)
        ram_c, ram_i = DualPortRAM(n), DualPortRAM(n)
        compiled = replay_dual_port_iteration(stream, ram_c)
        interpreted = iteration.run(ram_i)
        assert compiled == interpreted
        assert compiled.passed
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)
        assert ram_c.dump() == ram_i.dump()

    def test_cycle_count_is_2n_claim_c4(self):
        """Compiled replay must keep the paper's 2n cycles -- the old
        one-op-per-record path charged ~3n (the cycle-accounting drift
        the grouped IR exists to fix)."""
        n = 50
        iteration = DualPortPiIteration(seed=(0, 1))
        stream = compile_dual_port_pi(iteration, n)
        assert stream.replay_cycles == 2 * n + 2 == iteration.cycle_count(n)
        ram = DualPortRAM(n)
        replay_dual_port_iteration(stream, ram)
        assert ram.stats.cycles == 2 * n + 2

    def test_healthy_wom(self):
        iteration = DualPortPiIteration(field=F16, generator=(1, 2, 2),
                                        seed=(0, 1))
        stream = compile_dual_port_pi(iteration, 16, m=4)
        ram_c, ram_i = DualPortRAM(16, m=4), DualPortRAM(16, m=4)
        compiled = replay_dual_port_iteration(stream, ram_c)
        interpreted = iteration.run(ram_i)
        assert compiled == interpreted
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)

    def test_null_tap_still_reads(self):
        # g = 1 + x^2 has a zero middle coefficient: the port-1 read
        # still issues (fixed cycle pattern) but contributes nothing.
        iteration = DualPortPiIteration(generator=(1, 0, 1), seed=(0, 1))
        n = 10
        stream = compile_dual_port_pi(iteration, n)
        assert stream.counts_by_kind()["ra"] == 2 * n
        ram_c, ram_i = DualPortRAM(n), DualPortRAM(n)
        compiled = replay_dual_port_iteration(stream, ram_c)
        interpreted = iteration.run(ram_i)
        assert compiled == interpreted
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)
        assert ram_c.dump() == ram_i.dump()

    def test_faulted_equivalence_and_stats(self):
        n = 14
        iteration = DualPortPiIteration(seed=(0, 1))
        stream = compile_dual_port_pi(iteration, n)
        for fault in standard_universe(n):
            compiled, interpreted = _run_both(
                iteration, stream, replay_dual_port_iteration,
                DualPortRAM(n), DualPortRAM(n), fault)
            assert compiled == interpreted, fault.name

    def test_trace_matches_interpreted(self):
        n = 9
        iteration = DualPortPiIteration(seed=(0, 1))
        stream = compile_dual_port_pi(iteration, n)
        ram_c, ram_i = DualPortRAM(n, trace=True), DualPortRAM(n, trace=True)
        replay_dual_port_iteration(stream, ram_c)
        iteration.run(ram_i)
        assert list(ram_c.trace) == list(ram_i.trace)

    def test_compile_validation(self):
        iteration = DualPortPiIteration(seed=(0, 1))
        with pytest.raises(ValueError, match="more than 2 cells"):
            compile_dual_port_pi(iteration, 2)
        wom = DualPortPiIteration(field=F16, generator=(1, 2, 2), seed=(0, 1))
        with pytest.raises(ValueError, match="does not match field"):
            compile_dual_port_pi(wom, 16, m=1)


class TestQuadPortEquivalence:
    @pytest.mark.parametrize("n", [12, 40])
    def test_healthy(self, n):
        iteration = QuadPortPiIteration(seed=(0, 1))
        stream = compile_quad_port_pi(iteration, n)
        ram_c, ram_i = QuadPortRAM(n), QuadPortRAM(n)
        compiled = replay_quad_port_iteration(stream, ram_c)
        interpreted = iteration.run(ram_i)
        assert compiled == interpreted
        assert compiled.passed
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)
        assert ram_c.dump() == ram_i.dump()

    def test_cycle_count_is_n(self):
        """Two concurrent automata: a full pass in n + 2 cycles."""
        n = 40
        iteration = QuadPortPiIteration(seed=(0, 1))
        stream = compile_quad_port_pi(iteration, n)
        assert stream.replay_cycles == n + 2 == iteration.cycle_count(n)
        ram = QuadPortRAM(n)
        replay_quad_port_iteration(stream, ram)
        assert ram.stats.cycles == n + 2

    def test_faulted_equivalence(self):
        n = 12
        iteration = QuadPortPiIteration(seed=(0, 1))
        stream = compile_quad_port_pi(iteration, n)
        for fault in standard_universe(n):
            compiled, interpreted = _run_both(
                iteration, stream, replay_quad_port_iteration,
                QuadPortRAM(n), QuadPortRAM(n), fault)
            assert compiled == interpreted, fault.name

    def test_per_automaton_accumulators_are_independent(self):
        # A fault in one half must corrupt only that automaton's
        # accumulator chain: the grouped records interleave both
        # automata's reads, so a shared accumulator would cross-talk.
        from repro.faults import StuckAtFault

        n = 12
        iteration = QuadPortPiIteration(seed=(1, 1))
        stream = compile_quad_port_pi(iteration, n)
        for cell, faulty_half in ((2, 0), (8, 1)):
            probe = QuadPortRAM(n)
            replay_quad_port_iteration(stream, probe)
            target = probe.dump()[cell] ^ 1
            ram = QuadPortRAM(n)
            FaultInjector([StuckAtFault(cell, target)]).install(ram)
            result = replay_quad_port_iteration(stream, ram)
            ram_i = QuadPortRAM(n)
            FaultInjector([StuckAtFault(cell, target)]).install(ram_i)
            assert result == iteration.run(ram_i)
            assert not result.halves[faulty_half].passed
            assert result.halves[1 - faulty_half].passed

    def test_compile_validation(self):
        iteration = QuadPortPiIteration(seed=(0, 1))
        with pytest.raises(ValueError, match="even n"):
            compile_quad_port_pi(iteration, 13)
        with pytest.raises(ValueError, match="even n"):
            compile_quad_port_pi(iteration, 4)


class TestGroupedConflictSemantics:
    """The cycle-group conflict contract (issue satellite): write/write
    raises with the offending cycle, read+write same cell returns the
    old value, and grouped streams survive pickling unchanged."""

    def test_same_address_writes_rejected_at_compile_time(self):
        with pytest.raises(ValueError, match="two simultaneous writes"):
            OpStream(source="dual-port", name="bad", n=4, m=1,
                     ops=(("grp", 0, 0, 2, None, 0),
                          ("w", 0, 1, 1, None, 0),
                          ("w", 1, 1, 0, None, 0)),
                     info=((0, "grp"), (0, "w"), (0, "w")), ports=2)

    def test_replay_conflict_names_the_cycle(self):
        # A hand-built record list bypasses OpStream validation; the
        # replay-time check must still fire, naming the cycle index.
        ram = DualPortRAM(8)
        ram.apply_stream([("grp", 0, 0, 2, None, 0),
                          ("w", 0, 3, 1, None, 0),
                          ("w", 1, 4, 1, None, 0)])  # fine: distinct cells
        with pytest.raises(PortConflictError, match="cycle 1"):
            ram.apply_stream([("grp", 0, 0, 2, None, 0),
                              ("w", 0, 5, 1, None, 0),
                              ("w", 1, 5, 0, None, 0)])

    def test_decoder_alias_conflict_surfaces_from_grouped_replay(self):
        # AF-C: two logical addresses share one physical cell, so a
        # compile-time-clean double write becomes a physical conflict.
        decoder = AddressDecoder(8, overrides={1: (1, 2)})
        ram = DualPortRAM(8, decoder=decoder)
        with pytest.raises(PortConflictError, match="cycle 0"):
            ram.apply_stream([("grp", 0, 0, 2, None, 0),
                              ("w", 0, 1, 1, None, 0),
                              ("w", 1, 2, 0, None, 0)])

    def test_campaign_counts_decoder_conflict_as_detection(self):
        from repro.faults import decoder_universe

        n = 14
        iteration = DualPortPiIteration(seed=(0, 1))
        stream = compile_dual_port_pi(iteration, n)
        universe = decoder_universe(n)
        campaign = run_campaign(stream, universe)
        report = run_coverage(dual_port_runner(iteration), universe, n,
                              engine="interpreted")
        detected = {fault.name for fault, hit in campaign.outcomes if hit}
        missed = set(report.missed_faults)
        assert detected.isdisjoint(missed)
        assert len(detected) + len(missed) == len(universe)

    def test_read_racing_write_returns_old_value(self):
        ram = DualPortRAM(8)
        ram.write(3, 1, port=0)
        mismatches = []
        # One cycle: port 0 reads cell 3 (expects the OLD value 1),
        # port 1 writes 0 over it.
        ram.apply_stream([("grp", 0, 0, 2, None, 0),
                          ("r", 0, 3, None, 1, 0),
                          ("w", 1, 3, 0, None, 0)],
                         mismatches=mismatches)
        assert mismatches == []
        assert ram.read(3) == 0  # the write did commit

    def test_group_structure_validation(self):
        def stream(ops, info, ports=2):
            return OpStream(source="dual-port", name="bad", n=4, m=1,
                            ops=ops, info=info, ports=ports)

        with pytest.raises(ValueError, match="grouped into one cycle"):
            stream((("grp", 0, 0, 3, None, 0),
                    ("r", 0, 0, None, 0, 0),
                    ("r", 1, 1, None, 0, 0),
                    ("r", 2, 2, None, 0, 0)),
                   ((0, "g"), (0, "r"), (0, "r"), (0, "r")))
        with pytest.raises(ValueError, match="only .* records follow"):
            stream((("grp", 0, 0, 2, None, 0),
                    ("r", 0, 0, None, 0, 0)),
                   ((0, "g"), (0, "r")))
        with pytest.raises(ValueError, match="cannot appear inside"):
            stream((("grp", 0, 0, 2, None, 0),
                    ("i", 0, 0, 0, None, 4),
                    ("r", 1, 1, None, 0, 0)),
                   ((0, "g"), (0, "i"), (0, "r")))
        with pytest.raises(ValueError, match="used twice"):
            stream((("grp", 0, 0, 2, None, 0),
                    ("r", 0, 0, None, 0, 0),
                    ("r", 0, 1, None, 0, 0)),
                   ((0, "g"), (0, "r"), (0, "r")))
        with pytest.raises(ValueError, match="port 5 out of range"):
            stream((("grp", 0, 0, 2, None, 0),
                    ("r", 0, 0, None, 0, 0),
                    ("r", 5, 1, None, 0, 0)),
                   ((0, "g"), (0, "r"), (0, "r")))
        with pytest.raises(ValueError, match="positive int"):
            stream((("grp", 0, 0, 0, None, 0),), ((0, "g"),))

    def test_single_port_ram_rejects_grouped_streams(self):
        stream = compile_dual_port_pi(DualPortPiIteration(seed=(0, 1)), 9)
        with pytest.raises(ValueError, match="multi-port front-end"):
            SinglePortRAM(9).apply_stream(stream.ops, tables=stream.tables)

    def test_grouped_stream_pickle_roundtrip(self):
        stream = cached_dual_port_stream(DualPortPiIteration(seed=(0, 1)), 14)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone == stream
        assert clone.ops == stream.ops and clone.ports == stream.ports
        ram_a, ram_b = DualPortRAM(14), DualPortRAM(14)
        assert replay_dual_port_iteration(stream, ram_a) == \
            replay_dual_port_iteration(clone, ram_b)
        assert _stats_tuple(ram_a) == _stats_tuple(ram_b)

    def test_grouped_stream_broadcast_roundtrip(self):
        # The WorkerPool broadcast is the pickle path campaigns actually
        # use: a worker must replay the exact same grouped records.
        from repro.sim import PoolUnavailable, WorkerPool

        stream = cached_quad_port_stream(QuadPortPiIteration(seed=(0, 1)), 12)
        universe = standard_universe(12)
        serial = run_campaign(stream, universe)
        try:
            with WorkerPool(2) as pool:
                sharded = run_campaign(stream, universe, workers=2,
                                       pool=pool)
        except PoolUnavailable:
            pytest.skip("platform cannot spawn worker processes")
        if sharded.workers_used == 0:
            pytest.skip("pool degraded to serial on this platform")
        assert [d for _, d in sharded.outcomes] == \
            [d for _, d in serial.outcomes]


class TestGenericGroupedExecutor:
    """The portable fallback (`apply_stream_generic`) must match the
    native multi-port executor op for op, cycle for cycle."""

    def test_matches_native_on_cycle_capable_front_end(self):
        iteration = DualPortPiIteration(seed=(0, 1))
        stream = compile_dual_port_pi(iteration, 14)
        ram_n, ram_g = DualPortRAM(14), DualPortRAM(14)
        mm_n, mm_g, cap_n, cap_g = [], [], [], []
        a = ram_n.apply_stream(stream.ops, tables=stream.tables,
                               mismatches=mm_n, captured=cap_n)
        b = apply_stream_generic(ram_g, stream.ops, tables=stream.tables,
                                 mismatches=mm_g, captured=cap_g)
        assert (a, mm_n, cap_n) == (b, mm_g, cap_g)
        assert _stats_tuple(ram_n) == _stats_tuple(ram_g)
        assert ram_n.dump() == ram_g.dump()

    def test_quad_stream_through_generic(self):
        iteration = QuadPortPiIteration(seed=(0, 1))
        stream = compile_quad_port_pi(iteration, 12)
        ram_n, ram_g = QuadPortRAM(12), QuadPortRAM(12)
        cap_n, cap_g = [], []
        ram_n.apply_stream(stream.ops, tables=stream.tables, captured=cap_n)
        apply_stream_generic(ram_g, stream.ops, tables=stream.tables,
                             captured=cap_g)
        assert cap_n == cap_g
        assert _stats_tuple(ram_n) == _stats_tuple(ram_g)

    def test_cycle_less_front_end_preserves_data_semantics(self):
        # No cycle() method: grouped execution degrades to
        # reads-then-writes through the public per-op API -- values and
        # verdicts identical, only the cycle count inflates.
        class BareRAM:
            def __init__(self, n):
                self._inner = SinglePortRAM(n)
                self.n, self.m = n, 1

            def read(self, addr):
                return self._inner.read(addr)

            def write(self, addr, value):
                self._inner.write(addr, value)

            def idle(self, cycles):
                self._inner.idle(cycles)

        iteration = DualPortPiIteration(seed=(0, 1))
        stream = compile_dual_port_pi(iteration, 14)
        bare = BareRAM(14)
        native = DualPortRAM(14)
        cap_b, cap_n = [], []
        apply_stream_generic(bare, stream.ops, tables=stream.tables,
                             captured=cap_b)
        native.apply_stream(stream.ops, tables=stream.tables, captured=cap_n)
        assert cap_b == cap_n
        assert bare._inner.dump() == native.dump()


class TestGroupedRetentionClock:
    """The DRF ``clock(cycle)`` pre-increment contract under grouped
    streams: one cycle group advances the clock by exactly one tick,
    ``"i"`` idles advance retention by their full count, and decay fires
    at ``elapsed > retention`` -- identically on the native multi-port
    executor, the generic executor and the packed executor.  Off-by-one
    cycle accounting in any executor shifts the decay boundary and fails
    the sweep."""

    RETENTION = 8

    @staticmethod
    def _stream(pause):
        # clock 0: seed cell 2; clock 1: one grouped cycle not touching
        # cell 2; clock 2: pause; clock 2+pause: grouped read-back.
        # Decay iff (2 + pause) - 0 > retention, i.e. pause >= 7.
        return (
            ("w", 0, 2, 1, None, 0),
            ("grp", 0, 0, 2, None, 0),
            ("r", 0, 3, None, 0, 0),
            ("r", 1, 4, None, 0, 0),
            ("i", 0, 0, 0, None, pause),
            ("grp", 0, 0, 2, None, 0),
            ("r", 0, 2, None, 1, 0),
            ("r", 1, 3, None, 0, 0),
        )

    def _scalar(self, ops, apply):
        from repro.faults import DataRetentionFault

        ram = MultiPortRAM(8, ports=2)
        injector = FaultInjector(
            [DataRetentionFault(2, retention=self.RETENTION)])
        injector.install(ram)
        mismatches = []
        apply(ram, ops, mismatches)
        injector.remove(ram)
        return bool(mismatches), ram.dump()

    def test_decay_boundary_identical_across_executors(self):
        from repro.faults import DataRetentionFault

        verdicts = []
        for pause in range(4, 10):
            ops = self._stream(pause)
            detected, dump = self._scalar(
                ops,
                lambda ram, ops, mm: ram.apply_stream(ops, mismatches=mm))
            # Pin the scalar contract itself, not just cross-engine
            # agreement: the read-back executes at clock 2 + pause.
            assert detected == (2 + pause > self.RETENTION), pause
            verdicts.append(detected)
            generic = self._scalar(
                ops,
                lambda ram, ops, mm: apply_stream_generic(ram, ops,
                                                          mismatches=mm))
            assert generic == (detected, dump), pause
            fault = DataRetentionFault(2, retention=self.RETENTION)
            model = build_lane_model("retention", [fault.vector_semantics()])
            packed = PackedMemoryArray(8, lanes=1)
            model.install(packed)
            lanes, _ = packed.apply_stream(
                ops, model=model, stop_when_all_detected=False)
            assert bool(lanes) == detected, pause
            assert packed.dump_lane(0) == dump, pause
        assert verdicts == [False, False, False, True, True, True]


class TestMultiPortCampaign256:
    """The acceptance sweep: CoverageReport byte-identical between the
    interpreted, compiled and *batched* dual-/quad-port campaigns over
    the full ``standard_universe(256)``.  The batched engine resolves
    grouped multi-port streams in lane passes on the packed memory --
    no scalar delegation -- so its report is pinned against the proven
    per-fault path too."""

    def test_dual_port_byte_identical(self, universe_256):
        iteration = DualPortPiIteration(seed=(0, 1))
        compiled = run_coverage(dual_port_runner(iteration), universe_256,
                                256, engine="compiled")
        interpreted = run_coverage(dual_port_runner(iteration), universe_256,
                                   256, engine="interpreted")
        batched = run_coverage(dual_port_runner(iteration), universe_256,
                               256, engine="batched")
        assert_reports_identical(compiled, interpreted, batched)

    def test_quad_port_byte_identical(self, universe_256):
        iteration = QuadPortPiIteration(seed=(0, 1))
        compiled = run_coverage(quad_port_runner(iteration), universe_256,
                                256, engine="compiled")
        interpreted = run_coverage(quad_port_runner(iteration), universe_256,
                                   256, engine="interpreted")
        batched = run_coverage(quad_port_runner(iteration), universe_256,
                               256, engine="batched")
        assert_reports_identical(compiled, interpreted, batched)

    def test_batched_engine_lane_resolves_identically(self, universe_256):
        # The tentpole acceptance: the whole standard universe rides
        # lane passes through the grouped packed executor -- zero
        # faults delegated to the per-fault scalar path.
        iteration = DualPortPiIteration(seed=(0, 1))
        stream = cached_dual_port_stream(iteration, 256)
        batched = run_campaign_batched(stream, universe_256)
        assert batched.faults_batched == len(universe_256)
        compiled = run_campaign(stream, universe_256)
        assert [d for _, d in batched.outcomes] == \
            [d for _, d in compiled.outcomes]

    def test_word_oriented_dual_port_byte_identical(self, universe_m8):
        # m=8 acceptance: the word-lane packed executor runs the
        # grouped dual-port stream over GF(2^8) bit planes.
        iteration = DualPortPiIteration(field=F256, generator=(1, 2, 2),
                                        seed=(0, 1))
        runner = dual_port_runner(iteration)
        compiled = run_coverage(runner, universe_m8, 32, m=8,
                                engine="compiled")
        batched = run_coverage(runner, universe_m8, 32, m=8,
                               engine="batched")
        assert_reports_identical(compiled, batched)

    def test_sharded_workers_byte_identical(self, universe_256):
        iteration = QuadPortPiIteration(seed=(0, 1))
        runner = quad_port_runner(iteration)
        serial = run_coverage(runner, universe_256, 256, engine="compiled")
        sharded = run_coverage(runner, universe_256, 256, engine="compiled",
                               workers=2)
        assert_reports_identical(serial, sharded)

    def test_batched_sharded_workers_byte_identical(self, universe_256):
        iteration = DualPortPiIteration(seed=(0, 1))
        runner = dual_port_runner(iteration)
        serial = run_coverage(runner, universe_256, 256, engine="batched")
        sharded = run_coverage(runner, universe_256, 256, engine="batched",
                               workers=2)
        assert_reports_identical(serial, sharded)


class TestMultiScheduleEquivalence:
    """Verifying multi-port schedules (``repro.prt.multi_schedule``):
    the interpreted chain of dual-/quad-port iterations and its compiled
    grouped-stream lowering must agree result for result, stat for stat,
    and the coverage harness must reach the schedules on every engine."""

    @pytest.mark.parametrize("ports,n", [(2, 14), (4, 12)])
    def test_healthy_interpreted_vs_compiled(self, ports, n):
        schedule = standard_multi_schedule(ports=ports)
        ram_i = MultiPortRAM(n, ports=ports)
        ram_c = MultiPortRAM(n, ports=ports)
        interpreted = schedule.run_interpreted(ram_i)
        stream = cached_multi_schedule_stream(schedule, n)
        compiled = replay_multi_schedule(stream, ram_c)
        assert compiled == interpreted
        assert compiled.passed
        assert _stats_tuple(ram_c) == _stats_tuple(ram_i)
        assert ram_c.dump() == ram_i.dump()
        assert stream.operation_count == schedule.operation_count(n)
        assert stream.replay_cycles == ram_c.stats.cycles

    def test_run_dispatches_to_compiled_path(self):
        n = 14
        schedule = standard_multi_schedule(ports=2)
        via_run = schedule.run(MultiPortRAM(n, ports=2))
        interpreted = schedule.run_interpreted(MultiPortRAM(n, ports=2))
        assert via_run == interpreted

    @pytest.mark.parametrize("ports", [2, 4])
    def test_faulted_equivalence(self, ports):
        n = 12
        schedule = standard_multi_schedule(ports=ports)
        stream = cached_multi_schedule_stream(schedule, n)
        for fault in standard_universe(n):
            results = []
            for run in (lambda r: replay_multi_schedule(stream, r),
                        schedule.run_interpreted):
                ram = MultiPortRAM(n, ports=ports)
                injector = FaultInjector([fault])
                injector.install(ram)
                try:
                    result = run(ram)
                except PortConflictError:
                    result = "conflict"
                injector.remove(ram)
                results.append(result)
            assert results[0] == results[1], fault.name

    @pytest.mark.parametrize("ports", [2, 4])
    def test_coverage_engines_byte_identical(self, ports):
        n = 24
        runner = multi_schedule_runner(standard_multi_schedule(ports=ports))
        universe = standard_universe(n)
        interpreted = run_coverage(runner, universe, n, engine="interpreted")
        compiled = run_coverage(runner, universe, n, engine="compiled")
        batched = run_coverage(runner, universe, n, engine="batched")
        assert_reports_identical(compiled, interpreted, batched)

    def test_word_schedule_byte_identical(self):
        n, m = 16, 8
        runner = multi_schedule_runner(
            standard_multi_schedule(ports=2, field=F256))
        universe = standard_universe(n, m=m)
        compiled = run_coverage(runner, universe, n, m=m, engine="compiled")
        batched = run_coverage(runner, universe, n, m=m, engine="batched")
        assert_reports_identical(compiled, batched)

    def test_readback_mismatch_lands_on_last_iteration(self):
        # Flip one read-back expectation in an otherwise healthy stream:
        # the mismatch must be charged to the *last* iteration's
        # verify_mismatches, matching the interpreted attribution.
        n = 12
        schedule = standard_multi_schedule(ports=2)
        stream = compile_multi_schedule(schedule, n)
        readback = next(s for s in stream.segments if s.label == "readback")
        ops = list(stream.ops)
        index = next(i for i in range(readback.start, readback.stop)
                     if ops[i][0] == "r")
        kind, port, addr, value, expected, idle = ops[index]
        ops[index] = (kind, port, addr, value, expected ^ 1, idle)
        poisoned = OpStream(source=stream.source, name="poisoned",
                            n=n, m=1, ops=tuple(ops), info=stream.info,
                            tables=stream.tables, segments=stream.segments,
                            ports=stream.ports)
        result = replay_multi_schedule(poisoned, MultiPortRAM(n, ports=2))
        assert not result.passed
        assert result.iteration_results[-1].verify_mismatches == 1
        assert all(r.passed for r in result.iteration_results[:-1])

    def test_standard_multi_schedule_factory(self):
        schedule = standard_multi_schedule(ports=2)
        assert len(schedule) == 3
        assert schedule.ports == 2
        assert schedule.verify
        assert schedule.name == "multi-2p-3"
        quad = standard_multi_schedule(ports=4, verify=False,
                                       pause_between=3)
        assert quad.ports == 4
        assert not quad.verify
        assert quad.pause_between == 3
        with pytest.raises(ValueError):
            standard_multi_schedule(ports=3)


class TestCampaignFrontEndGuards:
    def test_default_factory_builds_matching_multiport_ram(self):
        stream = compile_dual_port_pi(DualPortPiIteration(seed=(0, 1)), 9)
        result = run_campaign(stream, standard_universe(9))
        assert result.faults_total == len(standard_universe(9))

    def test_too_few_ports_rejected(self):
        stream = compile_quad_port_pi(QuadPortPiIteration(seed=(0, 1)), 12)
        with pytest.raises(ValueError, match="needs 4 ports"):
            run_campaign(stream, standard_universe(12),
                         ram_factory=lambda: DualPortRAM(12),
                         reference_check=False)

    def test_run_coverage_default_front_end_per_engine(self):
        # No ram_factory on any engine: the runner's `ports` attribute
        # picks a perfect MultiPortRAM for the interpreted loop, the
        # stream's `ports` for the compiled campaign.
        iteration = DualPortPiIteration(seed=(0, 1))
        universe = standard_universe(14)
        compiled = run_coverage(dual_port_runner(iteration), universe, 14,
                                engine="compiled")
        interpreted = run_coverage(dual_port_runner(iteration), universe, 14,
                                   engine="interpreted")
        assert report_key(compiled) == report_key(interpreted)

    def test_reference_pass_uses_multiport_ram(self):
        stream = compile_dual_port_pi(DualPortPiIteration(seed=(0, 1)), 9)
        assert not stream.reference_verified
        run_campaign(stream, [])
        assert stream.reference_verified
        assert stream.reference_operations == stream.operation_count

    def test_multiport_ram_factory_with_single_port_stream(self):
        # The other direction: a flat stream on a multi-port front-end
        # keeps the sequential one-op-per-cycle discipline.
        from repro.march.library import MARCH_C_MINUS
        from repro.sim import compile_march

        stream = compile_march(MARCH_C_MINUS, 14)
        result = run_campaign(stream, standard_universe(14),
                              ram_factory=lambda: MultiPortRAM(14, ports=2))
        baseline = run_campaign(stream, standard_universe(14))
        assert [d for _, d in result.outcomes] == \
            [d for _, d in baseline.outcomes]
