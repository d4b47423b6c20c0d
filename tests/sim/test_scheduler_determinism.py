"""Scheduler determinism: every execution path, byte-identical results.

The parallel scheduler's core promise is that parallelism is *invisible*
in the results: serial execution, static cost-model shards, work
stealing (where shards split at run time and remainders migrate between
workers), and loopback remote dispatch must all produce identical
verdicts -- and identical pickled :class:`CoverageReport`s -- for
arbitrary universes and streams.  Hypothesis drives the universe/stream
choice; fixed seeds keep the suite reproducible.

The re-queue mechanics are additionally pinned down deterministically:
a fake flow injects mid-shard splits (exactly what a stealing worker
emits when it runs out of budget) and the drain must merge the pieces
into the same positions the unsplit shard would have filled.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import march_runner, run_coverage
from repro.faults import standard_universe
from repro.march.library import MARCH_C_MINUS, MARCH_X, MATS
from repro.sim import (
    RemotePool,
    ReproDaemon,
    WorkerPool,
    compile_march,
    run_campaign,
)
from repro.sim.campaign import _drain_flow

_TESTS = {"mats": MATS, "march-x": MARCH_X, "march-c-": MARCH_C_MINUS}


@pytest.fixture(scope="module")
def local_pool():
    with WorkerPool(2) as pool:
        yield pool


@pytest.fixture(scope="module")
def remote_pool():
    with ReproDaemon().start() as one, ReproDaemon().start() as two, \
            RemotePool([one.address, two.address]) as pool:
        yield pool


def _verdicts(result):
    return [detected for _fault, detected in result.outcomes]


class TestSchedulerDeterminism:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(test_name=st.sampled_from(sorted(_TESTS)),
           n=st.integers(min_value=4, max_value=12),
           data=st.data())
    def test_all_paths_agree(self, local_pool, remote_pool, test_name, n,
                             data):
        stream = compile_march(_TESTS[test_name], n)
        everything = list(standard_universe(n))
        # A random sub-universe: list-mode shards, arbitrary class mix.
        keep = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(everything) - 1),
            min_size=2, max_size=min(len(everything), 200), unique=True))
        faults = [everything[index] for index in sorted(keep)]

        serial = run_campaign(stream, list(faults))
        static = run_campaign(stream, list(faults), pool=local_pool,
                              scheduler="static")
        stealing = run_campaign(stream, list(faults), pool=local_pool,
                                scheduler="stealing")
        remote = run_campaign(stream, list(faults), pool=remote_pool)

        # The parallel paths must actually have engaged (degradation
        # would make this test vacuous).
        assert static.workers_used == 2
        assert stealing.workers_used == 2
        assert remote.workers_used == 2
        assert _verdicts(static) == _verdicts(serial)
        assert _verdicts(stealing) == _verdicts(serial)
        assert _verdicts(remote) == _verdicts(serial)
        # Scalar replay counts are per-fault deterministic, so even the
        # operation totals agree on every scalar path.
        assert static.operations_replayed == serial.operations_replayed
        assert stealing.operations_replayed == serial.operations_replayed
        assert remote.operations_replayed == serial.operations_replayed

    def test_reports_byte_identical_across_paths(self, local_pool,
                                                 remote_pool):
        def report(**kwargs):
            return run_coverage(march_runner(MARCH_C_MINUS),
                                standard_universe(24), n=24,
                                engine="compiled", **kwargs)

        serial = pickle.dumps(report())
        assert pickle.dumps(report(pool=local_pool)) == serial
        assert pickle.dumps(report(workers=2)) == serial
        assert pickle.dumps(report(pool=remote_pool)) == serial


class _SplittingFlow:
    """A fake flow that splits every shard once, mid-range.

    First delivery of a shard covers ``[lo, mid)`` and hands back a
    remainder task for ``[mid, hi)`` -- the exact payload shape a
    stealing worker produces when its budget expires.  The drain must
    re-queue the remainder and merge both halves.
    """

    def __init__(self, tasks):
        self._queue = list(tasks)

    def put(self, task):
        self._queue.append(task)

    def next(self, timeout):
        if not self._queue:
            raise StopIteration
        mode, token, spec, lo, hi, faults, rf, n, m, budget = \
            self._queue.pop(0)
        if hi - lo > 1:
            mid = lo + (hi - lo) // 2
            remainder = (mode, token, spec, mid, hi,
                         faults[mid - lo:] if faults else None,
                         rf, n, m, budget)
            return ("scalar", lo, mid,
                    [(True, index) for index in range(lo, mid)],
                    remainder, 0.0)
        return ("scalar", lo, hi,
                [(True, index) for index in range(lo, hi)], None, 0.0)


class TestStealInjection:
    def test_drain_merges_split_shards_in_position(self):
        total = 37
        tasks = [("list", 0, None, lo, min(lo + 10, total),
                  list(range(lo, min(lo + 10, total))), None, 8, 1, 0.0)
                 for lo in range(0, total, 10)]
        outcomes = [None] * total

        def merge(tag, lo, hi, data):
            assert tag == "scalar"
            assert outcomes[lo:hi] == [None] * (hi - lo)  # no duplicates
            outcomes[lo:hi] = data
            return hi - lo

        seen = []
        done = _drain_flow(_SplittingFlow(tasks), len(tasks), total,
                           lambda d, t: seen.append(d), 0, total, merge)
        assert done == total
        # Every position filled exactly once, with its own index: the
        # splits landed where the unsplit shards would have.
        assert outcomes == [(True, index) for index in range(total)]
        assert seen == sorted(seen)  # progress is monotonic

    def test_drain_rejects_short_coverage(self):
        # A worker that silently covers fewer faults than expected must
        # fail the campaign loudly, never merge truncated verdicts.
        flow = _SplittingFlow([("list", 0, None, 0, 1, [0], None, 8, 1,
                                None)])
        with pytest.raises(RuntimeError, match="covered 1"):
            _drain_flow(flow, 1, 5, None, 0, 5, lambda *a: 1)
