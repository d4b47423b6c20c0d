"""One library workload in a fresh process (spawned by ``run.py``).

Sets up like a library user (imports, a result cache, and for
``lane-sharded`` a started worker pool), then runs the workload's
closed loop of cache-miss requests through ``execute_request`` -- as
many whole rounds as take about ``--seconds`` on the reference host --
with each request replayed as cache hits right after it, samples the
peak memory of every process that executes requests, and checks every
report outside the timed region.  Prints one JSON object as its last line.

``--probe`` stops after set-up and prints the set-up time only.  The
measuring process starts ``--probes`` such processes one at a time,
spread evenly between its cold requests (outside the timed region), so
the set-up samples cover the whole run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import subprocess
import sys
import time

import hostspeed
import workloads
from checks import Checker, report_parts, split_missed

WARM_SAMPLES = 3000
#: Hits between two short host-speed samples while a config is replayed.
WARM_SAMPLE_EVERY = 5
#: Host-speed samples a child takes on each cpu right after its set-up,
#: which scale its set-up time (see :mod:`hostspeed`).
SETUP_SPEED_SAMPLES = 3
#: Wall clock of one round of either library workload on the reference
#: host (2 cpus, Python 3.11) at the commit that introduced the benchmark.
ROUND_SECONDS = 9.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of one process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class PeakMemory:
    """Peak resident memory of this process plus its live pool workers.

    Sampled after every cold request: a pool recycles its workers once
    it has pinned ``max_streams`` streams, so workers read only at the
    end would miss every generation but the last.  Each sample sums the
    processes alive at that moment; the peak is the largest sum.
    """

    def __init__(self):
        self.peak_mb = 0.0

    def sample(self) -> None:
        total = vm_hwm_mb()
        for child in multiprocessing.active_children():
            # A worker may exit between the listing and the read.
            with contextlib.suppress(OSError):
                total += vm_hwm_mb(child.pid)
        self.peak_mb = max(self.peak_mb, total)


def probe_setup(args) -> tuple[float, list[float]]:
    """Start one set-up-only process; its set-up time and speed samples."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--probe", "--spawned-at", str(time.monotonic())],
        capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["setup_speed"]


def requests_for(workload: str, seed: int) -> list[list[dict]]:
    if workload == "default-sweep":
        return workloads.default_sweep(seed)
    return workloads.lane_large(seed, workers=2 if workload == "lane-sharded"
                                else 0)


def setup(workload: str, tracer):
    """Everything a caller does before its first request."""
    from repro.analysis.request import CampaignRequest, execute_request
    from repro.server.cache import ResultCache

    if tracer is not None:
        from spans import install_library

        install_library(tracer)
    cache = ResultCache(maxsize=1 << 16)
    pool, pool_start = None, 0.0
    if workload == "lane-sharded":
        from repro.sim.pool import WorkerPool

        start = time.perf_counter()
        pool = WorkerPool(2)
        list(pool.imap(abs, [0]))  # start the workers now, not mid-request
        pool_start = time.perf_counter() - start
    return CampaignRequest, execute_request, cache, pool, pool_start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--probes", type=int, default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
    CampaignRequest, execute_request, cache, pool, pool_start = setup(
        args.workload, tracer)
    setup_s = time.monotonic() - args.spawned_at
    here = os.sched_getaffinity(0)
    setup_speed = []
    for cpu in sorted(here):
        os.sched_setaffinity(0, {cpu})
        setup_speed += [hostspeed.sample() for _ in range(SETUP_SPEED_SAMPLES)]
    os.sched_setaffinity(0, here)
    if args.probe:
        if pool is not None:
            pool.close()
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0

    errors: list[str] = []
    attempted = failed = 0

    def send(body: dict, rid: str):
        """One request; a failure is counted and returns None."""
        nonlocal attempted, failed
        attempted += 1
        request = CampaignRequest(**body)
        try:
            if tracer is None:
                return execute_request(request, cache=cache, pool=pool)
            with tracer.span("request", request_id=rid):
                return execute_request(request, cache=cache, pool=pool)
        except Exception as exc:  # a failed request counts, not fatal
            failed += 1
            errors.append(f"{workloads.config_id(body)}: {exc!r}")
            return None

    # A fixed number of whole rounds, sized so they take about --seconds
    # on the reference host: every run of a seed does the same work.
    rounds = requests_for(args.workload, args.seed)
    rounds = rounds[:max(1, round(args.seconds / ROUND_SECONDS))]
    bodies = [body for batch in rounds for body in batch]
    hits_each = -(-WARM_SAMPLES // len(bodies))
    # Set-up probe j runs before cold request at[j].
    at = [(2 * j + 1) * len(bodies) // (2 * args.probes)
          for j in range(args.probes)]
    setups = [(setup_s, setup_speed)]
    cold = []  # (body, seconds, request id, cached, report parts)
    warm_ms: list[list[float]] = []  # hit latencies, one list per config
    warm_speed: list[list[float]] = []  # speed samples around those hits
    aside_s = 0.0  # spent on hits, probes and samples, not cold requests
    speed: list[float] = []
    memory = PeakMemory()
    start = time.perf_counter()
    for index, body in enumerate(bodies):
        began_aside = time.perf_counter()
        setups.extend(probe_setup(args) for _ in range(at.count(index)))
        speed.append(hostspeed.sample())
        aside_s += time.perf_counter() - began_aside
        rid = f"cold-{attempted}"
        began = time.perf_counter()
        first = send(body, rid)
        if first is None:
            continue
        # Keep only what the checks need, as few objects as possible:
        # thousands of retained fault-name strings per report would
        # make every later garbage collection, and the hit tail, slower.
        cold.append((body, time.perf_counter() - began, rid,
                     first.cached, report_parts(first.report)))
        # Replay each request as cache hits right after it: every
        # config gets the same share of the warm samples, and they
        # span the same window as the cold ones.
        began_warm = time.perf_counter()
        warm_ms.append([])
        around = [speed[-1]]
        for hit in range(hits_each):
            if hit and hit % WARM_SAMPLE_EVERY == 0:
                around.append(hostspeed.sample(hostspeed.SHORT))
            began = time.perf_counter()
            outcome = send(body, f"warm-{attempted}")
            if outcome is None:
                continue
            warm_ms[-1].append((time.perf_counter() - began) * 1e3)
            if not outcome.cached \
                    or report_parts(outcome.report) != cold[-1][4]:
                failed += 1
                errors.append(f"{workloads.config_id(body)}: repeat "
                              f"request was not a hit on its own entry")
            outcome = None  # free the report outside the timed region
        first = None
        # The host's speed moves within seconds, so each config's hits
        # are scaled by the samples just before its request, between its
        # hits and just after them.
        speed.append(hostspeed.sample())
        warm_speed.append(around + speed[-1:])
        memory.sample()
        aside_s += time.perf_counter() - began_warm
    loop_s = time.perf_counter() - start - aside_s
    cache_stats = cache.stats()

    memory.sample()
    if pool is not None:
        pool.close()

    checker = Checker(args.workload, args.seed)
    for body, _seconds, _rid, cached, (classes, missed) in cold:
        problems = checker.check(body, classes, split_missed(missed))
        if cached:
            problems.append(f"{workloads.config_id(body)}: cold request "
                            f"was served from the cache")
        if problems:
            failed += 1
            errors.extend(problems)

    result = {
        "setup_samples": setups,
        "loop_s": loop_s,
        "cold": [{"id": workloads.config_id(body), "s": seconds,
                  "faults": sum(total for _d, total in classes.values())}
                 for body, seconds, _rid, _cached, (classes, _m) in cold],
        "warm_ms": warm_ms,
        "warm_speed": warm_speed,
        "speed": speed,
        "rss_mb": memory.peak_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "cache": cache_stats,
    }
    if tracer is not None:
        from spans import layer_metrics

        tracer.dump(args.trace_out)
        result["layers"] = layer_metrics(
            tracer.spans, tracer.counts,
            [rid for _body, _seconds, rid, _cached, _parts in cold],
            {"pool.start_s": pool_start,
             "cache.evictions": cache_stats["evictions"],
             "cache.disk_promotions": cache_stats["disk_promotions"]})
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
