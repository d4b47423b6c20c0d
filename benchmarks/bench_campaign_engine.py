"""BENCH -- campaign engines: interpreted vs compiled vs bit-packed vs sharded.

Times single-fault coverage campaigns for March C- and the standard
3-iteration PRT schedule over ``standard_universe(n)`` samples at
n in {64, 256, 1024}, on four paths:

* ``interpreted`` -- the seed behaviour: re-run the interpreted engine
  for every fault (``run_coverage(engine="interpreted")``),
* ``compiled``    -- compile once, replay with early abort (the default
  ``repro.sim`` campaign path, single process),
* ``compiled-mp`` -- the same with ``workers=2`` (omitted when the
  platform cannot fork),
* ``batched``     -- the bit-packed lane-parallel engine
  (``repro.sim.batched``): one replay pass per vectorizable fault
  class, scalar fallback for anything without lane semantics (since
  the uint64 column kernel PR that is the empty set for every built-in
  class).

A second section times the batched engine on its home turf -- the full
single-cell SAF/TF universe (one lane per fault, zero scalar fallback)
-- against the compiled single-process engine; that ratio is the
headline ``single_cell_batched_speedup`` in the JSON summary.

A third section times the *port-parallel* π-schemes (dual-/quad-port,
``repro.prt.dual_port``): the interpreted per-cycle engine vs the
compiled cycle-grouped replay vs the batched lane-parallel engine
(``multiport_rows``; the packed executor runs cycle groups natively,
so the batched column is lane passes, not scalar delegation; detection
happens at the final signature, so the compiled ratio isolates the
grouped executor win and the batched ratio the lane-vs-scalar win).

A fourth section keeps the historical *process sharding* rows: the
NPSF + bridging + decoder universe that used to be the batched engine's
worst case (pure scalar fallback, the sharding pool's whole reason to
exist).  Since the uint64 column kernel PR these classes carry lane
encodings, so the "scalar-heavy" rows now resolve entirely in lane
passes and the pool is never started -- the rows are retained under
their original identities precisely to pin that cliff: ``sharded_s``
tracking ``batched_s`` (instead of interpreted/workers) *is* the win.
Alongside them, the ``standard lane-sharded`` rows measure the current
scheduler on its real workload: the *full* ``standard_universe(n)``
through ``run_campaign_batched`` serially vs ``workers=N``, where past
the lane-shard threshold whole lane-pass chunks fan out across the pool
(``sharded_vs_serial`` is the cores-are-a-real-win ratio the CI gate
checks on multi-core hosts).

A fifth section times the *word-lane* packed executor (``wordlane_rows``):
the full word-oriented ``standard_universe(n, m=8)`` (per-bit single-cell
faults, inter-cell and intra-word coupling) on March C- and a GF(2^8)
PRT schedule, plus a CFst-only coupling universe (the last coupling
class to join the lane passes) and an NPSF-only universe (lane-encoded
by the uint64 column kernel PR) -- compiled per-fault replay vs the
batched engine.  The acceptance bar is >= 5x over the compiled engine
at n=1024 (``min_wordlane_speedup``).

A sixth section (``fallback_summary``) is the *vectorization census*:
for the full ``standard_universe`` at each n and m in {1, 8}, the
per-class lane/vs/fallback split from ``partition_universe`` plus a
lane-vs-scalar wall-clock split on a sampled subset -- and, per
geometry, one census row per cycle-grouped multi-port campaign
(dual-/quad-port streams through ``run_campaign_batched``), whose
``fallback`` records any faults the engine handed back to the scalar
path (a ``delegated`` entry there means the grouped packed executor
regressed to scalar delegation).  ``fallback_rows`` lists the
identities of census entries whose fallback set is non-empty -- the
committed baseline keeps it ``[]``, and ``tools/check_bench.py`` fails
when a class that vectorized in the baseline regresses to the scalar
fallback.

A seventh section (``class_cost_rows``) is the *cost-model calibration*:
one class-pure scalar campaign per fault class (March C- over the
standard + NPSF universes), emitting measured ``per_fault_us`` rows that
``repro.sim.costs.CostModel.from_benchmark`` reads back to re-derive the
relative cost table on any host.  The committed baseline is where the
default table's numbers come from (NPSF ~3x a stuck-at replay).

An eighth section (``shard_balance_rows``) measures what that table
buys: a skewed universe (cheap single-cell SAF/TF head, expensive NPSF
tail) is cut by the legacy fixed ``chunk_size=128`` plan, by the
cost-model plan, and by the cost-model plan with the work-stealing
budget armed (oversized shards split mid-run exactly as a stealing
worker splits them), and every shard is executed through the worker-side
task runner with its wall clock recorded.  The figure of merit is the
*imbalance ratio* -- max/mean shard wall time -- which bounds how long a
straggler shard idles the other workers; ``tools/check_bench.py`` fails
when the stealing plan stops beating fixed-128 on it.

A ninth section (``cache_rows``) times the serving layer's
content-addressed result cache (``repro.server.cache``): one cold
campaign through ``execute_request`` (full ``standard_universe(n)``,
batched engine) vs the warm repeat served from the cache -- the warm hit
unpickles a byte-identical report without touching the engines or even
materializing the universe.  The acceptance bar is >= 100x at n=1024
(``min_cache_speedup``); in practice the hit is microseconds against a
half-second campaign, three to four orders of magnitude.

Reports are cross-checked for equality on every path before a number is
emitted.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_campaign_engine.py \
        [--out benchmarks/out/bench_campaign_engine.json] [--quick]

``--quick`` is the CI smoke mode: n=64 plus a small single-cell /
sharded section, a couple of seconds total, emitting rows whose
``(test, n, universe)`` identities match the full run so
``tools/check_bench.py`` can diff them against the checked-in baseline.

The JSON summary records per-(test, n) wall-clock seconds and speedups,
so the benchmark trajectory can be tracked across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import (  # noqa: E402
    CampaignRequest,
    dual_port_runner,
    execute_request,
    march_runner,
    quad_port_runner,
    run_coverage,
    schedule_runner,
)
from repro.faults import (  # noqa: E402
    bridging_universe,
    coupling_universe,
    decoder_universe,
    npsf_universe,
    single_cell_universe,
    standard_universe,
)
from repro.gf2 import primitive_polynomial  # noqa: E402
from repro.gf2m import GF2m  # noqa: E402
from repro.march.library import MARCH_C_MINUS  # noqa: E402
from repro.prt import (  # noqa: E402
    DualPortPiIteration,
    QuadPortPiIteration,
    standard_schedule,
)
from repro.server.cache import ResultCache  # noqa: E402
from repro.sim import (  # noqa: E402
    CostModel,
    cached_dual_port_stream,
    cached_quad_port_stream,
    compile_march,
    partition_universe,
    run_campaign_batched,
    shutdown_shared_pools,
)
# The shard-balance section measures the scheduler's own unit of work
# (per-shard wall clock through the worker-side task runner), which the
# public campaign surface deliberately does not expose.
from repro.sim.campaign import (  # noqa: E402
    STEAL_BUDGET_S,
    _reference_pass,
    _run_task,
    _scalar_task,
)
from repro.sim.pool import _WORKER_STREAMS  # noqa: E402

SIZES = (64, 256, 1024)
SAMPLE = {64: None, 256: 400, 1024: 200}  # None = full universe
SHARDED_SAMPLE = 500  # scalar-fallback faults per sharded row
TESTS = (
    ("March C-", lambda n: march_runner(MARCH_C_MINUS)),
    ("PRT-3", lambda n: schedule_runner(standard_schedule(n=n))),
)
MULTIPORT_SCHEMES = (
    ("PRT dual-port",
     lambda: dual_port_runner(DualPortPiIteration(seed=(0, 1)))),
    ("PRT quad-port",
     lambda: quad_port_runner(QuadPortPiIteration(seed=(0, 1)))),
)


def _report_key(report):
    return (report.detected, report.total, report.missed_faults)


def _time_coverage(runner, universe, n, **kwargs):
    start = time.perf_counter()
    report = run_coverage(runner, universe, n, **kwargs)
    return time.perf_counter() - start, report


def bench_one(name: str, runner_factory, n: int, workers: int) -> dict:
    universe = standard_universe(n)
    sample = SAMPLE[n]
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    t_int, r_int = _time_coverage(runner_factory(), universe, n,
                                  engine="interpreted")
    t_cmp, r_cmp = _time_coverage(runner_factory(), universe, n,
                                  engine="compiled")
    if _report_key(r_int) != _report_key(r_cmp):
        raise AssertionError(
            f"{name} n={n}: compiled campaign diverged from interpreted"
        )
    t_bat, r_bat = _time_coverage(runner_factory(), universe, n,
                                  engine="batched")
    if _report_key(r_int) != _report_key(r_bat):
        raise AssertionError(
            f"{name} n={n}: batched campaign diverged from interpreted"
        )
    row = {
        "test": name,
        "n": n,
        "faults": len(universe),
        "coverage": round(r_int.overall, 4),
        "interpreted_s": round(t_int, 3),
        "compiled_s": round(t_cmp, 3),
        "speedup": round(t_int / t_cmp, 2) if t_cmp else float("inf"),
        "batched_s": round(t_bat, 3),
        "speedup_batched": round(t_int / t_bat, 2) if t_bat else float("inf"),
    }
    if workers > 0:
        t_mp, r_mp = _time_coverage(runner_factory(), universe, n,
                                    engine="compiled", workers=workers)
        if _report_key(r_int) == _report_key(r_mp):
            row["compiled_mp_s"] = round(t_mp, 3)
            row["speedup_mp"] = round(t_int / t_mp, 2) if t_mp else float("inf")
    return row


def bench_single_cell(n: int) -> list[dict]:
    """The batched engine's home turf: a full single-cell SAF/TF universe
    (one lane per fault, zero scalar fallback) vs the compiled engine."""
    universe = single_cell_universe(n, classes=("SAF", "TF"))
    rows = []
    for name, build in TESTS:
        t_cmp, r_cmp = _time_coverage(build(n), universe, n,
                                      engine="compiled")
        t_bat, r_bat = _time_coverage(build(n), universe, n,
                                      engine="batched")
        if _report_key(r_cmp) != _report_key(r_bat):
            raise AssertionError(
                f"{name} n={n}: batched single-cell campaign diverged "
                f"from compiled"
            )
        speedup = round(t_cmp / t_bat, 2) if t_bat else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": "single-cell SAF/TF",
            "faults": len(universe),
            "coverage": round(r_cmp.overall, 4),
            "compiled_s": round(t_cmp, 3),
            "batched_s": round(t_bat, 3),
            "speedup_batched_vs_compiled": speedup,
        })
        print(f"{name:>9} n={n:<5} single-cell faults={len(universe):<5} "
              f"compiled {t_cmp:>7.3f}s  batched {t_bat:>7.3f}s  "
              f"x{speedup}")
    return rows


def bench_multiport(n: int) -> list[dict]:
    """The port-parallel π-schemes: interpreted cycle() loop vs compiled
    cycle-grouped replay (``MultiPortRAM.apply_stream``) vs the batched
    lane-parallel engine (the packed executor runs cycle groups
    natively -- pre-cycle reads, in-order write commit, one clock tick
    per group -- so the batched column is lane passes, not scalar
    delegation).

    Detection happens at the final signature window, so early abort buys
    nothing here -- the compiled ratio is the grouped executor vs the
    per-cycle interpreted engine (acceptance bar >= 3x at n=1024), and
    the batched ratio is lane-vs-scalar replay of the same grouped
    stream.
    """
    universe = standard_universe(n)
    sample = SAMPLE.get(n)
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    rows = []
    for name, build in MULTIPORT_SCHEMES:
        t_int, r_int = _time_coverage(build(), universe, n,
                                      engine="interpreted")
        t_cmp, r_cmp = _time_coverage(build(), universe, n,
                                      engine="compiled")
        if _report_key(r_int) != _report_key(r_cmp):
            raise AssertionError(
                f"{name} n={n}: compiled multi-port campaign diverged "
                f"from interpreted"
            )
        t_bat, r_bat = _time_coverage(build(), universe, n,
                                      engine="batched")
        if _report_key(r_int) != _report_key(r_bat):
            raise AssertionError(
                f"{name} n={n}: batched multi-port campaign diverged "
                f"from interpreted"
            )
        speedup = round(t_int / t_cmp, 2) if t_cmp else float("inf")
        speedup_bat = round(t_cmp / t_bat, 2) if t_bat else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": "standard, port-parallel",
            "faults": len(universe),
            "coverage": round(r_int.overall, 4),
            "interpreted_s": round(t_int, 3),
            "compiled_s": round(t_cmp, 3),
            "speedup_multiport": speedup,
            "batched_s": round(t_bat, 3),
            "speedup_batched_vs_compiled": speedup_bat,
        })
        print(f"{name:>14} n={n:<5} faults={len(universe):<5} "
              f"interpreted {t_int:>7.3f}s  compiled {t_cmp:>7.3f}s  "
              f"x{speedup}  batched {t_bat:>7.3f}s  x{speedup_bat}")
    return rows


MULTIPORT_CENSUS = (
    ("PRT dual-port",
     lambda n: cached_dual_port_stream(DualPortPiIteration(seed=(0, 1)), n)),
    ("PRT quad-port",
     lambda n: cached_quad_port_stream(QuadPortPiIteration(seed=(0, 1)), n)),
)


def bench_multiport_census(n: int) -> list[dict]:
    """Lane-resolution census for the cycle-grouped multi-port campaigns.

    Feeds the compiled dual-/quad-port streams straight to
    ``run_campaign_batched`` and records how many faults rode lane
    passes (``faults_batched``) vs the per-fault scalar path.  The
    committed baseline keeps ``fallback`` empty: every standard-universe
    fault lane-resolves through the grouped packed executor.  A
    ``delegated`` entry appearing here means grouped streams regressed
    to scalar delegation -- ``tools/check_bench.py`` fails on it exactly
    like a fault class dropping out of the lane passes.
    """
    universe = standard_universe(n)
    sample = SAMPLE.get(n)
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    rows = []
    for name, stream_of in MULTIPORT_CENSUS:
        stream = stream_of(n)
        start = time.perf_counter()
        result = run_campaign_batched(stream, universe)
        lane_s = time.perf_counter() - start
        fallback_counts: dict[str, int] = {}
        if result.faults_batched != len(universe):
            fallback_counts["delegated"] = \
                len(universe) - result.faults_batched
        row = {
            "test": name,
            "n": n,
            "m": 1,
            "universe": "standard multi-port census",
            "faults": len(universe),
            "faults_batched": result.faults_batched,
            "fallback": fallback_counts,
            "lane_s": round(lane_s, 3),
        }
        rows.append(row)
        fallback_text = f"fallback={fallback_counts}" if fallback_counts \
            else "fallback=none"
        print(f" census   n={n:<5} [{name}] faults={len(universe):<6} "
              f"lanes {lane_s:>7.3f}s  {fallback_text}")
    return rows


WORDLANE_M = 8
WORDLANE_TESTS = (
    ("March C-", lambda n: march_runner(MARCH_C_MINUS)),
    ("PRT-3", lambda n: schedule_runner(standard_schedule(
        field=GF2m(primitive_polynomial(WORDLANE_M)), n=n))),
)


def bench_wordlane(n: int) -> list[dict]:
    """The word-lane packed executor: compiled per-fault replay vs lane
    passes with m=8 bit planes per lane, plus a CFst-only row (the state
    coupling class now resolved by the settle-hook lane model)."""
    rows = []
    sample = SAMPLE.get(n)

    def _capped(universe):
        if sample is not None and len(universe) > sample:
            return universe.sample(sample)
        return universe

    universe = _capped(standard_universe(n, m=WORDLANE_M))
    jobs = [(name, build, universe, WORDLANE_M, f"standard m={WORDLANE_M}")
            for name, build in WORDLANE_TESTS]
    jobs.append(("March C-", WORDLANE_TESTS[0][1],
                 _capped(coupling_universe(n, classes=("CFst",))), 1,
                 "CFst coupling"))
    jobs.append(("March C-", WORDLANE_TESTS[0][1],
                 _capped(npsf_universe(n, max_victims=32)), 1,
                 "NPSF lanes"))
    for name, build, faults, m, label in jobs:
        t_cmp, r_cmp = _time_coverage(build(n), faults, n, m=m,
                                      engine="compiled")
        t_bat, r_bat = _time_coverage(build(n), faults, n, m=m,
                                      engine="batched")
        if _report_key(r_cmp) != _report_key(r_bat):
            raise AssertionError(
                f"{name} n={n} [{label}]: batched word-lane campaign "
                f"diverged from compiled"
            )
        speedup = round(t_cmp / t_bat, 2) if t_bat else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": label,
            "m": m,
            "faults": len(faults),
            "coverage": round(r_cmp.overall, 4),
            "compiled_s": round(t_cmp, 3),
            "batched_s": round(t_bat, 3),
            "speedup_batched_vs_compiled": speedup,
        })
        print(f"{name:>9} n={n:<5} [{label}] faults={len(faults):<5} "
              f"compiled {t_cmp:>7.3f}s  batched {t_bat:>7.3f}s  "
              f"x{speedup}")
    return rows


def bench_fallback_census(n: int, m: int) -> dict:
    """The vectorization census for one ``standard_universe(n, m)``.

    Counts, per descriptor kind, how many faults the lane passes absorb
    and which fault classes (if any) still take the per-fault scalar
    path, then splits the March C- campaign wall clock into the lane
    portion and the scalar-fallback portion on a sampled subset
    (``timed_faults``).  The committed baseline pins ``fallback`` empty
    at every geometry -- ``tools/check_bench.py`` fails the build when a
    class regresses out of the lane passes.
    """
    universe = standard_universe(n, m=m)
    classes, fallback = partition_universe(universe, n=n, m=m)
    vectorized = {kind: len(group) for kind, group in sorted(classes.items())}
    fallback_counts: dict[str, int] = {}
    for _, fault in fallback:
        cls = fault.fault_class
        fallback_counts[cls] = fallback_counts.get(cls, 0) + 1
    timed = universe
    sample = SAMPLE.get(n)
    if sample is not None and len(timed) > sample:
        timed = timed.sample(sample)
    timed_classes, timed_fallback = partition_universe(timed, n=n, m=m)
    lane_faults = [fault for group in timed_classes.values()
                   for _, fault, _ in group]
    scalar_faults = [fault for _, fault in timed_fallback]
    lane_s = 0.0
    if lane_faults:
        lane_s, _ = _time_coverage(march_runner(MARCH_C_MINUS), lane_faults,
                                   n, m=m, engine="batched")
    scalar_s = 0.0
    if scalar_faults:
        scalar_s, _ = _time_coverage(march_runner(MARCH_C_MINUS),
                                     scalar_faults, n, m=m,
                                     engine="compiled")
    row = {
        "test": "March C-",
        "n": n,
        "m": m,
        "universe": f"standard census m={m}",
        "faults": len(universe),
        "vectorized": vectorized,
        "fallback": fallback_counts,
        "timed_faults": len(timed),
        "lane_s": round(lane_s, 3),
        "scalar_s": round(scalar_s, 3),
    }
    fallback_text = f"fallback={fallback_counts}" if fallback_counts \
        else "fallback=none"
    print(f" census   n={n:<5} m={m} faults={len(universe):<6} "
          f"lanes {lane_s:>7.3f}s  scalar {scalar_s:>7.3f}s  "
          f"{fallback_text}")
    return row


def scalar_heavy_universe(n: int, sample: int | None = SHARDED_SAMPLE):
    """NPSF + bridging + decoder: the classes that *used* to be scalar.

    Historically the sharding benchmark's subject (nothing here was
    lane-vectorizable); since the uint64 column kernel PR all three
    classes carry lane encodings, so these rows now measure the lane
    passes absorbing the pool's former workload.  The universe carries a
    spec, so any genuine remainder would still shard as
    ``(spec, index range)``.
    """
    universe = npsf_universe(n, max_victims=32) \
        + bridging_universe(n) + decoder_universe(n, max_addresses=16)
    if sample is not None and len(universe) > sample:
        universe = universe.sample(sample)
    return universe


def bench_sharded(name: str, make_runner, n: int, workers: int) -> dict:
    """Serial vs ``workers=N`` batched on the ex-scalar-heavy universe.

    Kept under the historical row identities: with NPSF/bridging/decoder
    lane-encoded there is no scalar remainder to shard, so ``sharded_s``
    should track ``batched_s`` (lane passes, pool never started), both
    far below the interpreted column.
    """
    universe = scalar_heavy_universe(n)
    t_int, r_int = _time_coverage(make_runner(), universe, n,
                                  engine="interpreted")
    t_bat, r_bat = _time_coverage(make_runner(), universe, n,
                                  engine="batched")
    if _report_key(r_int) != _report_key(r_bat):
        raise AssertionError(
            f"{name} n={n}: batched scalar-heavy campaign diverged "
            f"from interpreted"
        )
    t_shd, r_shd = _time_coverage(make_runner(), universe, n,
                                  engine="batched", workers=workers)
    if _report_key(r_int) != _report_key(r_shd):
        raise AssertionError(
            f"{name} n={n}: sharded campaign diverged from interpreted"
        )
    row = {
        "test": name,
        "n": n,
        "universe": "scalar-heavy NPSF/BF/AF",
        "faults": len(universe),
        "workers": workers,
        "coverage": round(r_int.overall, 4),
        "interpreted_s": round(t_int, 3),
        "batched_s": round(t_bat, 3),
        "sharded_s": round(t_shd, 3),
        "speedup_sharded": round(t_int / t_shd, 2) if t_shd else float("inf"),
        "sharded_vs_serial": round(t_bat / t_shd, 2) if t_shd
        else float("inf"),
    }
    print(f"{name:>9} n={n:<5} scalar-heavy faults={row['faults']:<5} "
          f"interpreted {t_int:>7.3f}s  batched {t_bat:>7.3f}s  "
          f"sharded({workers}w) {t_shd:>7.3f}s  x{row['speedup_sharded']} "
          f"(vs serial x{row['sharded_vs_serial']})")
    return row


def bench_lane_sharded(n: int, workers: int) -> dict:
    """The scheduler on its real workload: full standard universe,
    serial batched vs ``workers=N``.

    Past ``LANE_SHARD_MIN_FAULTS`` whole lane-pass chunks fan out across
    the pool alongside any scalar remainder; below it (the quick-mode
    n=64 row) the pool never engages and the row just pins the identity
    for baseline matching.  ``sharded_vs_serial`` on a multi-core host
    is the acceptance ratio ``tools/check_bench.py`` gates on.
    """
    universe = standard_universe(n)
    t_bat, r_bat = _time_coverage(march_runner(MARCH_C_MINUS), universe, n,
                                  engine="batched")
    t_shd, r_shd = _time_coverage(march_runner(MARCH_C_MINUS), universe, n,
                                  engine="batched", workers=workers)
    if _report_key(r_bat) != _report_key(r_shd):
        raise AssertionError(
            f"March C- n={n}: lane-sharded campaign diverged from serial "
            f"batched"
        )
    ratio = round(t_bat / t_shd, 2) if t_shd else float("inf")
    row = {
        "test": "March C-",
        "n": n,
        "universe": "standard lane-sharded",
        "faults": len(universe),
        "workers": workers,
        "coverage": round(r_bat.overall, 4),
        "batched_s": round(t_bat, 3),
        "sharded_s": round(t_shd, 3),
        "sharded_vs_serial": ratio,
    }
    print(f" March C- n={n:<5} lane-sharded faults={len(universe):<6} "
          f"batched {t_bat:>7.3f}s  sharded({workers}w) {t_shd:>7.3f}s  "
          f"x{ratio} vs serial")
    return row


CLASS_COST_SAMPLE = 150


def bench_class_costs(n: int) -> list[dict]:
    """Cost-model calibration: measured scalar replay cost per class.

    One class-pure campaign per fault class over the standard + NPSF
    universes (the classes the default table names), emitting
    ``per_fault_us`` rows that :meth:`CostModel.from_benchmark` reads
    back -- the committed baseline is the provenance of the built-in
    ``DEFAULT_CLASS_COSTS`` numbers.
    """
    universe = standard_universe(n) + npsf_universe(n, max_victims=32)
    by_class: dict[str, list] = {}
    for fault in universe:
        by_class.setdefault(fault.fault_class, []).append(fault)
    measured: dict[str, tuple[int, float]] = {}
    for fault_class in sorted(by_class):
        faults = by_class[fault_class]
        if len(faults) > CLASS_COST_SAMPLE:
            step = len(faults) // CLASS_COST_SAMPLE
            faults = faults[::step][:CLASS_COST_SAMPLE]
        elapsed, _report = _time_coverage(march_runner(MARCH_C_MINUS),
                                          faults, n, engine="compiled")
        measured[fault_class] = (len(faults), elapsed / len(faults))
    floor = min(per_fault for _count, per_fault in measured.values())
    rows = []
    for fault_class, (count, per_fault) in sorted(measured.items()):
        rows.append({
            "fault_class": fault_class,
            "n": n,
            "faults": count,
            "per_fault_us": round(per_fault * 1e6, 2),
            "relative_cost": round(per_fault / floor, 2),
        })
        print(f"  cost    n={n:<5} {fault_class:<5} faults={count:<5} "
              f"{per_fault * 1e6:>8.1f}us/fault  "
              f"x{per_fault / floor:.2f} vs cheapest")
    return rows


SHARD_BALANCE_WORKERS = 2
SHARD_BALANCE_STRATEGIES = ("fixed-128", "cost-model", "stealing")


def _drain_balance_queue(tasks: list) -> list[float]:
    """Execute shard tasks through the worker-side runner, in-process.

    Remainder tasks (a budgeted shard splitting mid-range, exactly what
    a stealing worker hands back) are re-queued just as the real drain
    re-queues them; the returned list holds one wall-clock entry per
    executed shard piece.
    """
    times = []
    queue = list(tasks)
    while queue:
        _tag, _lo, _hi, _data, remainder, elapsed = _run_task(queue.pop(0))
        times.append(elapsed)
        if remainder is not None:
            queue.append(remainder)
    return times


def bench_shard_balance(n: int, workers: int) -> list[dict]:
    """Fixed-size vs cost-model vs stealing plans on a skewed universe.

    The universe is deliberately adversarial for fixed ``chunk_size=128``
    shards: a cheap single-cell SAF/TF head (early-abort replays) ahead
    of an NPSF tail (per-write neighbourhood settles), so equal fault
    *counts* are maximally unequal *work*.  Each plan's shards run
    through the worker-side task runner and the imbalance ratio
    (max/mean shard wall time -- how long the straggler idles everyone
    else) lands in the JSON; the stealing plan arms the real
    ``STEAL_BUDGET_S`` so oversized shards split exactly as they do
    inside the pool.
    """
    faults = list(single_cell_universe(n, classes=("SAF", "TF"))) \
        + list(npsf_universe(n, max_victims=32))
    stream = compile_march(MARCH_C_MINUS, n)
    _reference_pass(stream, n, 1)
    token = f"bench-balance-{n}"
    _WORKER_STREAMS[token] = stream
    model = CostModel()
    plans = (
        ("fixed-128", model.plan(faults, workers, chunk_size=128), None),
        ("cost-model", model.plan(faults, workers), None),
        ("stealing", model.plan(faults, workers), STEAL_BUDGET_S),
    )
    rows = []
    try:
        for strategy, plan, budget in plans:
            times = _drain_balance_queue(
                [_scalar_task("list", token, None, lo, hi, faults,
                              None, n, 1, budget) for lo, hi in plan])
            mean = sum(times) / len(times)
            imbalance = round(max(times) / mean, 2) if mean else 1.0
            rows.append({
                "test": "March C-",
                "n": n,
                "universe": f"skewed NPSF tail [{strategy}]",
                "strategy": strategy,
                "workers": workers,
                "faults": len(faults),
                "shards": len(times),
                "max_shard_s": round(max(times), 4),
                "mean_shard_s": round(mean, 4),
                "imbalance": imbalance,
            })
            print(f" balance  n={n:<5} [{strategy:<10}] "
                  f"shards={len(times):<4} max {max(times):>7.4f}s  "
                  f"mean {mean:>7.4f}s  imbalance x{imbalance}")
    finally:
        _WORKER_STREAMS.pop(token, None)
    return rows


CACHE_TESTS = (("March C-", "march-c"), ("PRT-3", "prt3"))
CACHE_WARM_REPEATS = 5


def bench_cache(n: int) -> list[dict]:
    """The content-addressed result cache: cold campaign vs warm hit.

    One cold ``execute_request`` over the *full* ``standard_universe(n)``
    (batched engine -- the fastest cold path, so the reported speedup is
    the cache against the engines' best effort, not a strawman), then
    the warm repeat of the identical request.  The warm path resolves the
    memoized request, hashes nothing new, and unpickles the stored
    report -- it never materializes the universe.  ``warm_s`` is the
    best of a few repeats (a sub-millisecond path measured once is all
    timer noise); the hit is verified byte-identical to the cold report
    before any number is emitted.
    """
    rows = []
    for name, selector in CACHE_TESTS:
        cache = ResultCache()
        request = CampaignRequest(test=selector, n=n, engine="batched")
        start = time.perf_counter()
        cold = execute_request(request, cache=cache)
        cold_s = time.perf_counter() - start
        if cold.cached:
            raise AssertionError(f"{name} n={n}: cold request hit the cache")
        warm_s = float("inf")
        for _ in range(CACHE_WARM_REPEATS):
            start = time.perf_counter()
            warm = execute_request(request, cache=cache)
            warm_s = min(warm_s, time.perf_counter() - start)
            if not warm.cached:
                raise AssertionError(
                    f"{name} n={n}: warm request missed the cache")
            if pickle.dumps(warm.report) != pickle.dumps(cold.report):
                raise AssertionError(
                    f"{name} n={n}: cache hit diverged from the cold report")
        speedup = round(cold_s / warm_s, 2) if warm_s else float("inf")
        rows.append({
            "test": name,
            "n": n,
            "universe": "standard (result cache)",
            "faults": sum(cold.report.total.values()),
            "coverage": round(cold.report.overall, 4),
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 6),
            "speedup_warm": speedup,
        })
        print(f"{name:>9} n={n:<5} cache cold {cold_s:>7.3f}s  "
              f"warm {warm_s * 1e6:>8.1f}us  x{speedup}")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON summary here (default: stdout)")
    parser.add_argument("--workers", type=int, default=2,
                        help="processes for the multiprocessing and "
                             "sharded rows (0 disables them)")
    parser.add_argument("--sizes", type=int, nargs="*", default=list(SIZES))
    parser.add_argument("--single-cell-n", type=int, default=1024,
                        help="memory size for the single-cell batched "
                             "headline row")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: n=64 rows plus small "
                             "single-cell/sharded sections (seconds, not "
                             "minutes), row identities matching the full "
                             "run for baseline comparison")
    args = parser.parse_args(argv)

    if args.quick and (args.sizes != list(SIZES) or args.single_cell_n != 1024):
        parser.error("--quick selects its own sizes so its rows match the "
                     "checked-in baseline; drop --sizes/--single-cell-n")
    if args.quick:
        sizes = [64]
        single_cell_sizes = [256]
        sharded_sizes = [64]
        multiport_sizes = [64]
        wordlane_sizes = [64]
        census_sizes = [64]
        cache_sizes = [64]
        class_cost_sizes = [64]
        balance_sizes = [64]
    else:
        sizes = list(args.sizes)
        single_cell_sizes = sorted({256, args.single_cell_n})
        sharded_sizes = [64, 1024]
        multiport_sizes = [64, 1024]
        wordlane_sizes = [64, 1024]
        census_sizes = [64, 1024]
        cache_sizes = [1024]
        class_cost_sizes = [256]
        balance_sizes = [256]

    rows = []
    for n in sizes:
        for name, build in TESTS:
            row = bench_one(name, lambda n=n, build=build: build(n), n,
                            args.workers)
            rows.append(row)
            speedup_mp = row.get("speedup_mp")
            mp_text = f"  mp x{speedup_mp}" if speedup_mp else ""
            print(f"{name:>9} n={n:<5} faults={row['faults']:<5} "
                  f"interpreted {row['interpreted_s']:>7.3f}s  "
                  f"compiled {row['compiled_s']:>7.3f}s  "
                  f"x{row['speedup']}{mp_text}  "
                  f"batched {row['batched_s']:>7.3f}s  "
                  f"x{row['speedup_batched']}")
    single_cell_rows = []
    for n in single_cell_sizes:
        single_cell_rows.extend(bench_single_cell(n))
    multiport_rows = []
    for n in multiport_sizes:
        multiport_rows.extend(bench_multiport(n))
    wordlane_rows = []
    for n in wordlane_sizes:
        wordlane_rows.extend(bench_wordlane(n))
    fallback_summary = []
    for n in census_sizes:
        for m in (1, WORDLANE_M):
            fallback_summary.append(bench_fallback_census(n, m))
        fallback_summary.extend(bench_multiport_census(n))
    cache_rows = []
    for n in cache_sizes:
        cache_rows.extend(bench_cache(n))
    sharded_rows = []
    if args.workers > 0:
        for n in sharded_sizes:
            for name, build in TESTS:
                sharded_rows.append(bench_sharded(
                    name, lambda n=n, build=build: build(n), n,
                    args.workers))
            sharded_rows.append(bench_lane_sharded(n, args.workers))
    class_cost_rows = []
    for n in class_cost_sizes:
        class_cost_rows.extend(bench_class_costs(n))
    shard_balance_rows = []
    for n in balance_sizes:
        shard_balance_rows.extend(
            bench_shard_balance(n, SHARD_BALANCE_WORKERS))
    summary = {
        "benchmark": "campaign_engine",
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "rows": rows,
        "min_single_process_speedup": min(r["speedup"] for r in rows),
        "single_cell_rows": single_cell_rows,
        "single_cell_batched_speedup": min(
            r["speedup_batched_vs_compiled"] for r in single_cell_rows
        ),
        "multiport_rows": multiport_rows,
        "min_multiport_speedup": min(
            r["speedup_multiport"] for r in multiport_rows
        ),
        "min_multiport_lane_speedup": min(
            r["speedup_batched_vs_compiled"] for r in multiport_rows
        ),
        "wordlane_rows": wordlane_rows,
        # The documented >= 5x acceptance bar is stated at n=1024; the
        # quick run has no n=1024 rows, so it falls back to what it has
        # (small-n rows are overhead-dominated and not held to the bar).
        "min_wordlane_speedup": min(
            r["speedup_batched_vs_compiled"]
            for r in ([r for r in wordlane_rows if r["n"] == 1024]
                      or wordlane_rows)
        ),
        "fallback_summary": fallback_summary,
        # Identities of census entries still carrying scalar-fallback
        # faults.  The committed baseline keeps this empty: every
        # built-in class of the standard universe resolves in lane
        # passes at every benchmarked geometry.
        "fallback_rows": [
            {"test": row["test"], "n": row["n"], "m": row["m"],
             "universe": row["universe"], "fallback": row["fallback"]}
            for row in fallback_summary if row["fallback"]
        ],
        "cache_rows": cache_rows,
        # The serving-layer acceptance bar: a warm request >= 100x the
        # cold campaign at n=1024 (quick mode's n=64 rows are still far
        # above the bar, but the documented number is the full-run one).
        "min_cache_speedup": min(r["speedup_warm"] for r in cache_rows),
        "sharded_rows": sharded_rows,
        # Cost-model calibration: CostModel.from_benchmark(summary)
        # rebuilds the relative class-cost table from these rows.
        "class_cost_rows": class_cost_rows,
        "shard_balance_rows": shard_balance_rows,
    }
    if sharded_rows:
        summary["min_sharded_speedup"] = min(
            r["speedup_sharded"] for r in sharded_rows
            if "speedup_sharded" in r)
    if shard_balance_rows:
        by_plan = {}
        for row in shard_balance_rows:
            by_plan.setdefault(row["strategy"], []).append(row["imbalance"])
        # >1 means stealing shards are flatter than fixed-128 shards at
        # every benchmarked geometry; check_bench fails when it dips
        # below 1.
        summary["min_balance_gain"] = round(
            min(fixed / steal for fixed, steal
                in zip(by_plan["fixed-128"], by_plan["stealing"],
                       strict=True)), 2)
    shutdown_shared_pools()
    text = json.dumps(summary, indent=2)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
