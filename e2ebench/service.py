"""service-mix: an open-loop client against the HTTP service.

The server runs in a child process -- ``python -m repro.server`` on an
ephemeral loopback port, or ``server_entry.py`` for a traced run -- with
a fresh ``--cache-dir`` and a ``--cache-size`` smaller than the number of
distinct configs.  A run has three phases:

1. set-up: the child is timed from spawn until it prints its address,
   along with a few probe children started and stopped before and after
   the measurement;
2. warm-up: a closed loop sends every distinct config once -- these are
   the cache misses, timed as ``campaign_s`` and ``faults_per_s``;
3. open loop: one asyncio client with two connection slots sends a
   seeded schedule at ``RATE`` requests per second (see
   :func:`workloads.service_schedule`); each request is timed from when
   it was *due* to its last response byte, so a stall also charges the
   requests queued behind it.  In the gaps of the schedule, while no
   request is in flight, the client times the host-speed loop on the
   server's cpu; those samples scale the open-loop latencies.

Each open-loop response is checked against the warm-up response of its
config (byte-identical report); the warm-up reports themselves go
through :mod:`checks` after the server has stopped.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import hostspeed
import workloads
from library import vm_hwm_mb

#: Open-loop arrival rate (requests/s): the service child is about 28%
#: busy at it on the reference host at the commit that introduced the
#: benchmark.  At 200/s (half busy) one run in ten fell into a growing
#: backlog (p50 318 ms) when the host slowed.
RATE = 100.0
#: Server children started only to time set-up.
SETUP_PROBES = 6
#: Host-speed samples taken right after each server start.
SETUP_SPEED_SAMPLES = 3
#: Free time an open-loop gap needs for a sample: the server has had
#: ``GAP_SETTLE_S`` since the last response, and the next request is not
#: due for ``GAP_SAMPLE_S`` after that.
GAP_SETTLE_S = 0.0005
GAP_SAMPLE_S = 0.003
# The server child runs on one cpu and the client on another.  Host-speed
# samples are taken by the client on the server's cpu while the server
# is idle: after it starts, before each warm-up request, and in the gaps
# of the open loop.  They scale the set-up, the warm-up (cold) metrics
# and the open-loop latencies.  A run gets about a thousand gap samples;
# in six runs that straddled a host slowdown of 25%, the raw p50
# latencies ranged over 23% and the scaled ones over 4%.  Samples taken
# concurrently with the server would grow with its own load and hide
# part of any change.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, CLIENT_CPU = _CPUS[0], _CPUS[-1]


def _speed_sample(iterations: int = hostspeed.PASS) -> float:
    """One host-speed sample on the server's cpu."""
    os.sched_setaffinity(0, {SERVER_CPU})
    try:
        return hostspeed.sample(iterations)
    finally:
        os.sched_setaffinity(0, {CLIENT_CPU})


_HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One server child: start, address, peak memory, stop."""

    def __init__(self, root: str, work: str, env: dict,
                 trace_out: str | None = None):
        cache_dir = os.path.join(work, "cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        size = str(workloads.SERVICE_CACHE_SIZE)
        if trace_out is None:
            command = [sys.executable, "-u", "-m", "repro.server",
                       "--host", "127.0.0.1", "--port", "0",
                       "--cache-dir", cache_dir, "--cache-size", size]
        else:
            command = [sys.executable, "-u",
                       os.path.join(_HERE, "server_entry.py"),
                       "--cache-dir", cache_dir, "--cache-size", size,
                       "--trace-out", trace_out]
        self._stderr = open(os.path.join(work, "server.err"), "ab")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr,
            preexec_fn=lambda: os.sched_setaffinity(0, {SERVER_CPU}))
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        self.setup_s = time.monotonic() - spawned
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def stop(self) -> float:
        """Stop the child (SIGINT, then kill); returns its peak RSS."""
        rss = 0.0
        if self.proc.poll() is None:
            rss = vm_hwm_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return rss


async def _http(port: int, method: str, path: str, body: bytes = b"",
                rid: str = "") -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(body)}\r\nx-bench-id: {rid}\r\n\r\n"
            .encode("ascii") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head else 0
    return status, payload


def _report_bytes(payload: bytes) -> bytes | None:
    """The ``"report"`` member of a ``/coverage`` response, verbatim."""
    start = payload.find(b'"report": ')
    end = payload.rfind(b', "cached": ')
    return payload[start:end] if 0 <= start < end else None


async def _warm_up(port: int, bodies: list[bytes], speed: list[float]):
    """Closed loop over the distinct configs: one cold request each,
    with a host-speed sample before each (not counted in the loop)."""
    results = []
    loop_s = 0.0
    for index, body in enumerate(bodies):
        speed.append(_speed_sample())
        began = time.perf_counter()
        status, payload = await _http(port, "POST", "/coverage", body,
                                      f"warm-{index}")
        results.append((time.perf_counter() - began, status, payload))
        loop_s += results[-1][0]
    return results, loop_s


async def _open_loop(port: int, schedule, bodies: list[bytes],
                     expected: list[bytes | None], speed: list[float]):
    """Send ``schedule`` on time over two connection slots, appending a
    host-speed sample to ``speed`` in every gap long enough for one."""
    records = [None] * len(schedule)
    verify_seen: dict[int, bytes] = {}
    cursor = iter(range(len(schedule)))
    start = time.perf_counter()
    waiting: dict[int, float] = {}  # slot -> due of its next request
    in_flight = 0
    last_done = start

    async def idle_sample() -> None:
        """Sample the speed if no request is in flight and none is due
        for a while; called by a slot before it waits for its due."""
        if in_flight or len(waiting) < 2:
            return
        at = last_done + GAP_SETTLE_S
        if min(waiting.values()) - max(at, time.perf_counter()) \
                < GAP_SAMPLE_S:
            return
        if time.perf_counter() < at:
            await asyncio.sleep(at - time.perf_counter())
        speed.append(_speed_sample(hostspeed.SHORT))

    async def slot(me: int):
        nonlocal in_flight, last_done
        for index in cursor:
            due_offset, route, config = schedule[index]
            due = start + due_offset
            waiting[me] = due
            await idle_sample()
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            del waiting[me]
            sent = time.perf_counter()
            in_flight += 1
            try:
                status, payload = await _http(port, "POST", route,
                                              bodies[config], f"open-{index}")
            except (OSError, ValueError) as exc:
                records[index] = (sent - due, None, 0, repr(exc))
                continue
            finally:
                in_flight -= 1
                last_done = time.perf_counter()
            done = last_done
            error = None
            if status != 200:
                error = f"status {status}"
            elif route == "/coverage":
                report = _report_bytes(payload)
                if report is None or report != expected[config]:
                    error = "report differs from the warm-up response"
            else:
                digest = hashlib.sha256(payload).digest()
                if verify_seen.setdefault(config, digest) != digest:
                    error = "verify response changed between requests"
            records[index] = (sent - due, done - due, len(payload), error)

    await asyncio.gather(slot(0), slot(1))
    return records


def _stats(port: int) -> dict:
    status, payload = asyncio.run(_http(port, "GET", "/stats"))
    return json.loads(payload)["cache"] if status == 200 else {}


def _setup_speed() -> list[float]:
    """Host-speed samples on the server's cpu, taken right after a
    server has started; they scale that set-up time."""
    return [_speed_sample() for _ in range(SETUP_SPEED_SAMPLES)]


def measure(root: str, work: str, env: dict, seed: int, seconds: float,
            trace_out: str | None, probes: bool) -> dict:
    """One service-mix measurement; see the module docstring."""
    def probe() -> tuple[float, list[float]]:
        server = Server(root, work, env)
        try:
            return server.setup_s, _setup_speed()
        finally:
            server.stop()

    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {CLIENT_CPU})
    # Half the set-up probes before the measured server, half after.
    count = SETUP_PROBES if probes else 0
    try:
        setups = [probe() for _ in range(count // 2)]
        configs = workloads.service_configs()
        bodies = [json.dumps(body).encode("utf-8") for body in configs]
        schedule = workloads.service_schedule(seed, configs, RATE, seconds)
        speed: list[float] = []
        server = Server(root, work, env, trace_out)
        try:
            setups.append((server.setup_s, _setup_speed()))
            warm, warm_s = asyncio.run(_warm_up(server.port, bodies, speed))
            expected = [_report_bytes(payload) for _s, _status, payload
                        in warm]
            before = _stats(server.port)
            open_speed: list[float] = []
            records = asyncio.run(_open_loop(server.port, schedule, bodies,
                                             expected, open_speed))
            after = _stats(server.port)
        finally:
            rss = server.stop()
        setups += [probe() for _ in range(count - count // 2)]
    finally:
        os.sched_setaffinity(0, previous)

    from checks import Checker, json_report_parts

    checker = Checker("service-mix", seed)
    errors, failed = [], 0
    cold = []
    for body, (taken, status, payload) in zip(configs, warm, strict=True):
        name = workloads.config_id(body)
        if status == 200:
            classes, missed = json_report_parts(json.loads(payload)["report"])
            problems = checker.check(body, classes, missed)
        else:
            classes, problems = {}, [f"{name}: warm-up status {status}"]
        if problems:
            failed += 1
            errors.extend(problems)
        cold.append({"id": name, "s": taken,
                     "faults": sum(total for _d, total in classes.values())})
    latencies, late, sizes, hops = [], [], [], []
    for index, (lateness, latency, size, error) in enumerate(records):
        late.append(lateness * 1e3)
        if error is not None:
            failed += 1
            errors.append(f"open-{index}: {error}")
            continue
        latencies.append(latency * 1e3)
        sizes.append(size)
        hops.append((f"open-{index}", latency - lateness))
    return {
        "setup_samples": setups,
        "loop_s": warm_s,
        "cold": cold,
        "warm_ms": latencies,
        "late_ms": late,
        "speed": speed,
        # A server too slow to leave a gap falls back on the warm-up's.
        "latency_speed": open_speed or speed,
        "response_bytes": sizes,
        "client_s": hops,
        "rss_mb": rss,
        "attempted": len(warm) + len(records),
        "failed": failed,
        "errors": errors,
        "cache_before": before,
        "cache_after": after,
    }
