"""Multi-host dispatch over loopback daemons.

Everything here runs against real sockets on 127.0.0.1 -- in-process
:class:`ReproDaemon` instances, which to the pool are indistinguishable
from daemons on another machine.  The contract under test is the
ISSUE's: reports byte-identical to serial execution, streams shipped to
a host at most once, shards re-queued (not lost, not duplicated) when a
daemon dies mid-campaign, and graceful serial degradation when every
daemon is gone.
"""

import pickle
import threading

import pytest

from repro.analysis import march_runner, run_coverage
from repro.faults import standard_universe
from repro.march.library import MARCH_C_MINUS, MATS
from repro.sim import (
    PoolUnavailable,
    RemotePool,
    ReproDaemon,
    compile_march,
    run_campaign,
    run_campaign_batched,
)
from repro.sim.remote import _parse_address


def _verdicts(result):
    return [(repr(fault), detected) for fault, detected in result.outcomes]


@pytest.fixture
def daemon_pair():
    with ReproDaemon().start() as one, ReproDaemon().start() as two:
        yield one, two


class TestAddressParsing:
    def test_host_port(self):
        assert _parse_address("10.0.0.7:9009") == ("10.0.0.7", 9009)
        assert _parse_address(":9009") == ("127.0.0.1", 9009)

    def test_rejects_portless(self):
        for bad in ("just-a-host", "host:", "host:abc"):
            with pytest.raises(ValueError, match="host:port"):
                _parse_address(bad)

    def test_pool_fails_fast_on_typo(self):
        with pytest.raises(ValueError, match="host:port"):
            RemotePool(["nope"])
        with pytest.raises(ValueError, match="at least one"):
            RemotePool([])


class TestLoopbackParity:
    def test_campaign_matches_serial(self, daemon_pair):
        one, two = daemon_pair
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        serial = run_campaign(stream, universe)
        with RemotePool([one.address, two.address]) as pool:
            remote = run_campaign(stream, universe, pool=pool)
        assert remote.workers_used == 2
        assert _verdicts(remote) == _verdicts(serial)

    def test_batched_campaign_matches_serial(self, daemon_pair):
        one, two = daemon_pair
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        serial = run_campaign_batched(stream, universe)
        with RemotePool([one.address, two.address]) as pool:
            remote = run_campaign_batched(stream, universe, pool=pool)
        assert _verdicts(remote) == _verdicts(serial)

    def test_coverage_report_byte_identical(self, daemon_pair):
        # The acceptance criterion verbatim: a loopback RemotePool
        # produces a CoverageReport byte-identical to serial execution
        # over the full standard universe.
        one, two = daemon_pair
        universe = standard_universe(256)
        serial = run_coverage(march_runner(MARCH_C_MINUS),
                              standard_universe(256), n=256,
                              engine="compiled")
        with RemotePool([one.address, two.address]) as pool:
            remote = run_coverage(march_runner(MARCH_C_MINUS), universe,
                                  n=256, pool=pool, engine="compiled")
        assert pickle.dumps(remote) == pickle.dumps(serial)

    def test_stream_ships_once_per_host(self, daemon_pair):
        one, two = daemon_pair
        stream = compile_march(MARCH_C_MINUS, 16)
        other = compile_march(MATS, 16)
        universe = standard_universe(16)
        with RemotePool([one.address, two.address]) as pool:
            run_campaign(stream, universe, pool=pool)
            run_campaign(stream, universe, pool=pool)  # same digest
            stats = pool.broadcast_stats()
            assert stats["streams"] == 1
            assert stats["sent"] == 2          # once per host, not per run
            assert stats["dedup_hits"] == 1
            run_campaign(other, universe, pool=pool)
            stats = pool.broadcast_stats()
            assert stats["streams"] == 2
            assert stats["sent"] == 4


class TestWorkerLoss:
    def test_daemon_killed_mid_campaign_requeues_shards(self):
        # One slow daemon is killed while it holds a shard; the survivor
        # must pick the shard back up -- verdicts neither lost (the
        # covered-count check would throw) nor duplicated (the reply
        # died with the socket).
        slow = ReproDaemon(delay_s=0.05).start()
        survivor = ReproDaemon().start()
        try:
            stream = compile_march(MARCH_C_MINUS, 16)
            universe = standard_universe(16)
            serial = run_campaign(stream, universe)
            pool = RemotePool([slow.address, survivor.address])
            killer = threading.Timer(0.1, slow.close)
            killer.start()
            try:
                remote = run_campaign(stream, universe, pool=pool)
            finally:
                killer.cancel()
                killer.join()
            assert _verdicts(remote) == _verdicts(serial)
            assert not pool.broken  # one daemon lost is not a failure
            pool.close()
        finally:
            slow.close()
            survivor.close()

    def test_report_identical_after_daemon_kill(self):
        slow = ReproDaemon(delay_s=0.05).start()
        survivor = ReproDaemon().start()
        try:
            serial = run_coverage(march_runner(MARCH_C_MINUS),
                                  standard_universe(256), n=256,
                                  engine="compiled")
            pool = RemotePool([slow.address, survivor.address])
            killer = threading.Timer(0.1, slow.close)
            killer.start()
            try:
                remote = run_coverage(march_runner(MARCH_C_MINUS),
                                      standard_universe(256), n=256,
                                      pool=pool, engine="compiled")
            finally:
                killer.cancel()
                killer.join()
            assert pickle.dumps(remote) == pickle.dumps(serial)
            pool.close()
        finally:
            slow.close()
            survivor.close()

    def test_all_daemons_dead_degrades_to_serial(self):
        daemon = ReproDaemon().start()
        address = daemon.address
        daemon.close()
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        serial = run_campaign(stream, universe)
        pool = RemotePool([address])
        degraded = run_campaign(stream, universe, pool=pool)
        assert pool.broken
        assert degraded.workers_used == 0
        assert _verdicts(degraded) == _verdicts(serial)

    def test_broken_pool_refuses_further_work(self):
        daemon = ReproDaemon().start()
        address = daemon.address
        daemon.close()
        pool = RemotePool([address])
        stream = compile_march(MATS, 8)
        with pytest.raises(PoolUnavailable):
            pool.broadcast_stream(stream)
        assert pool.broken
        with pytest.raises(PoolUnavailable):
            pool.flow()

    def test_daemon_restart_is_picked_up(self):
        # A daemon restarted between campaigns reconnects at the next
        # broadcast -- and, being a fresh process, is re-shipped the
        # stream (has-stream says no).
        first = ReproDaemon().start()
        port = first.port
        stream = compile_march(MARCH_C_MINUS, 16)
        universe = standard_universe(16)
        serial = run_campaign(stream, universe)
        pool = RemotePool([first.address])
        before = run_campaign(stream, universe, pool=pool)
        assert _verdicts(before) == _verdicts(serial)
        first.close()
        second = ReproDaemon(port=port).start()
        try:
            after = run_campaign(stream, universe, pool=pool)
            assert _verdicts(after) == _verdicts(serial)
            assert pool.broadcast_stats()["sent"] == 2  # re-shipped once
            pool.close()
        finally:
            second.close()


class TestProtocol:
    def test_version_mismatch_refuses(self):
        import socket as socket_module

        from repro.sim.remote import _recv_frame, _send_frame

        with ReproDaemon().start() as daemon:
            sock = socket_module.create_connection(
                (daemon.host, daemon.port), timeout=5.0)
            try:
                _send_frame(sock, ("hello", 999))
                reply = _recv_frame(sock)
                assert reply[0] == "error"
            finally:
                sock.close()

    def test_daemon_side_error_reply(self):
        from repro.sim.remote import _recv_frame, _send_frame
        import socket as socket_module

        with ReproDaemon().start() as daemon:
            sock = socket_module.create_connection(
                (daemon.host, daemon.port), timeout=5.0)
            try:
                _send_frame(sock, ("hello", 1))
                assert _recv_frame(sock)[0] == "ok"
                # A shard naming a stream this daemon never saw.
                _send_frame(sock, ("shard", ("list", "no-such-digest",
                                             None, 0, 1, [], None, 8, 1,
                                             None)))
                reply = _recv_frame(sock)
                assert reply[0] == "error"
                _send_frame(sock, ("stop",))
                assert _recv_frame(sock)[0] == "ok"
            finally:
                sock.close()


class TestCli:
    def test_main_requires_listen(self, capsys):
        from repro.sim.remote import main

        with pytest.raises(SystemExit):
            main([])
