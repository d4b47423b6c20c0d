"""The batched fault-campaign engine: one compiled stream, many faults.

The standard single-fault-injection methodology re-runs the complete test
for every fault of a universe.  Interpreted, that costs
``O(|universe| * test_length)`` with a large per-operation Python
constant (March element walks, LFSR stepping, background recomputation).
:func:`run_campaign` replays a compiled :class:`~repro.sim.ir.OpStream`
instead:

* **compile once** -- addresses, data values, recurrence multipliers and
  expected values are resolved a single time, not per fault;
* **cached fault-free reference pass** -- the stream is validated once on
  a healthy memory (zero mismatches) and the result cached on the stream;
* **early abort** -- a fault is *detected* at the first mismatching
  checked read, so the typical detected fault costs a short prefix of the
  stream, not the full test;
* **cost-model shards** -- faults are processed in chunks sized by a
  per-class :class:`~repro.sim.costs.CostModel` (an NPSF replay costs
  ~3x a bridging one), giving a progress hook and the unit of work for
  the ``workers=N`` process fan-out.

The ``workers=N`` path shards over the persistent pools of
:mod:`repro.sim.pool`: the compiled stream is broadcast once per host
(shared memory for large streams, never per chunk), and a universe
carrying a :class:`~repro.faults.universe.UniverseSpec` travels as
``(spec, index range)`` shards that workers enumerate locally -- no
fault pickling at all.  Scheduling is *work stealing* by default:
shards flow through a shared task queue
(:meth:`~repro.sim.pool.WorkerPool.flow`), and a worker whose shard
exceeds its time budget returns the remainder to the queue for an idle
sibling -- a skewed tail no longer serializes behind one worker.  The
verdict merge is keyed by universe index, so results are byte-identical
regardless of steal order.  Pools outlive campaigns, so back-to-back
campaigns (``compare``, benchmark sweeps, services) amortize pool
startup.  A :class:`~repro.sim.remote.RemotePool` plugs into the same
``pool=`` seam to fan the identical shard tasks out to worker daemons
on other hosts.

Replay cost is ``O(|universe| * detection_prefix)`` -- for strong tests
the mean prefix is a small fraction of the test length, which is where
the engine's wall-clock win over the interpreted loop comes from (see
``benchmarks/bench_campaign_engine.py``).
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from time import perf_counter

from repro.faults.base import Fault, VectorSemantics
from repro.faults.injector import FaultInjector
from repro.faults.universe import UniverseSpec, materialize_spec
from repro.memory.multiport import MultiPortRAM, PortConflictError
from repro.memory.ram import SinglePortRAM
from repro.memory.stream_exec import apply_stream_generic
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.ir import OpStream
from repro.sim.pool import (
    PoolUnavailable,
    WorkerPool,
    shared_pool,
    worker_stream,
)

__all__ = ["CampaignResult", "run_campaign", "partition_universe"]

#: Schedulers the sharded path understands.  ``"stealing"`` (default)
#: lets a worker return the unfinished remainder of an oversized shard
#: to the task queue; ``"static"`` executes the planned shards as cut.
SCHEDULERS = ("stealing", "static")

#: Wall-clock seconds a stealing worker spends on one shard before
#: returning the remainder to the queue.  Small enough that a skewed
#: tail redistributes within a fraction of a second; large enough that
#: a shard amortizes its dispatch overhead many times over.
STEAL_BUDGET_S = 0.1

#: Serial-path chunk length (progress cadence) when ``chunk_size`` is
#: left to the engine.
SERIAL_CHUNK = 128


@dataclass
class CampaignResult:
    """Outcome of one batched campaign.

    ``outcomes`` preserves universe order: ``(fault, detected)`` pairs,
    which is what lets :func:`repro.analysis.coverage.run_coverage` build
    a report identical to the interpreted per-fault loop's.
    ``faults_batched`` counts the faults the bit-packed engine resolved
    lane-parallel (always 0 for :func:`run_campaign`; see
    :func:`repro.sim.batched.run_campaign_batched`).
    """

    stream_name: str
    n: int
    m: int
    outcomes: list[tuple[Fault, bool]] = dataclass_field(default_factory=list)
    operations_replayed: int = 0
    reference_operations: int = 0
    workers_used: int = 0
    faults_batched: int = 0

    @property
    def faults_total(self) -> int:
        """Number of faults injected."""
        return len(self.outcomes)

    @property
    def detected_total(self) -> int:
        """Number of detected faults."""
        return sum(1 for _, detected in self.outcomes if detected)

    @property
    def detection_ratio(self) -> float:
        """Detected / total (1.0 for an empty campaign)."""
        if not self.outcomes:
            return 1.0
        return self.detected_total / self.faults_total

    @property
    def missed(self) -> list[Fault]:
        """The faults that escaped, in universe order."""
        return [fault for fault, detected in self.outcomes if not detected]

    def __repr__(self) -> str:
        return (
            f"CampaignResult({self.stream_name!r}, "
            f"{self.detected_total}/{self.faults_total} detected, "
            f"{self.operations_replayed} ops replayed)"
        )


def _default_ram_factory(n: int, m: int):
    return SinglePortRAM(n, m=m)


def _stream_ram(n: int, m: int, ports: int):
    """The canonical perfect memory for a stream: single-port for flat
    streams, an N-port front-end for cycle-grouped ones."""
    if ports > 1:
        return MultiPortRAM(n, m=m, ports=ports)
    return SinglePortRAM(n, m=m)


def _run_one(stream: OpStream, fault: Fault, ram_factory, n: int,
             m: int) -> tuple[bool, int]:
    """Inject one fault into a fresh RAM and replay with early abort.

    A :class:`~repro.memory.multiport.PortConflictError` raised
    mid-replay counts as a *detection*: healthy-logical streams never
    conflict (validated at compile time), so a replay-time conflict
    means the injected fault -- a decoder fault aliasing two addresses
    onto one cell -- drove the test into undefined port behaviour, which
    is exactly how the interpreted multi-port engines fail on it too.
    """
    ram = ram_factory() if ram_factory is not None \
        else _stream_ram(n, m, stream.ports)
    if ram.n != n or ram.m != m:
        # A stream compiled for one geometry replayed on another would
        # silently test the wrong address space (or crash mid-replay).
        raise ValueError(
            f"ram_factory built a {ram.n}x{ram.m}-bit RAM but the stream "
            f"{stream.name!r} was compiled for {n}x{m}"
        )
    if getattr(ram, "ports", 1) < stream.ports:
        raise ValueError(
            f"ram_factory built a {getattr(ram, 'ports', 1)}-port RAM but "
            f"the stream {stream.name!r} needs {stream.ports} ports"
        )
    injector = FaultInjector([fault])
    injector.install(ram)
    mismatches: list[tuple[int, int]] = []
    apply = getattr(ram, "apply_stream", None)
    try:
        # Duck-typed front-ends honour only the read/write/idle
        # contract: replay those through the portable executor.
        executed = (apply(stream.ops, tables=stream.tables,
                          stop_on_mismatch=True, mismatches=mismatches)
                    if apply is not None
                    else apply_stream_generic(ram, stream.ops,
                                              tables=stream.tables,
                                              stop_on_mismatch=True,
                                              mismatches=mismatches))
    except PortConflictError:
        injector.remove(ram)
        return True, 0
    injector.remove(ram)
    return bool(mismatches), executed


def partition_universe(
    universe: Iterable[Fault], n: int, m: int = 1,
) -> tuple[dict[str, list[tuple[int, Fault, VectorSemantics]]],
           list[tuple[int, Fault]]]:
    """Split a universe into lane-vectorizable classes and a remainder.

    A fault is vectorizable when it describes itself through
    :meth:`~repro.faults.base.Fault.vector_semantics` *and* every bit the
    descriptor touches exists in the ``n x m`` geometry -- the contract
    of :class:`~repro.memory.packed.PackedMemoryArray` (word-oriented
    geometries pack ``m`` bit planes per lane, so a descriptor may name
    any ``bit < m``).  Everything else lands in the scalar ``fallback``
    list.

    Returns ``(classes, fallback)``: ``classes`` maps the descriptor kind
    (``"stuck"``, ``"transition"``, ``"coupling"``, ``"stuck-open"``,
    ``"state"``, ``"npsf"``, ``"bridge"``, ``"retention"``, ``"linked"``,
    ``"decoder"``) to ``(universe_index, fault, semantics)`` triples,
    ``fallback`` holds ``(universe_index, fault)`` pairs; indices let the
    batched engine reassemble outcomes in universe order.

    >>> from repro.faults import single_cell_universe
    >>> classes, fallback = partition_universe(
    ...     single_cell_universe(8), n=8)
    >>> sorted((kind, len(group)) for kind, group in classes.items())
    [('retention', 8), ('stuck', 16), ('stuck-open', 8), ('transition', 16)]
    >>> len(fallback)   # every built-in class carries lane semantics
    0
    """
    classes: dict[str, list[tuple[int, Fault, VectorSemantics]]] = {}
    fallback: list[tuple[int, Fault]] = []
    for index, fault in enumerate(universe):
        semantics = fault.vector_semantics()
        if semantics is not None and _fits_geometry(semantics, n, m):
            classes.setdefault(semantics.kind, []).append(
                (index, fault, semantics)
            )
        else:
            fallback.append((index, fault))
    return classes, fallback


def _fits_geometry(semantics: VectorSemantics, n: int, m: int) -> bool:
    """True when every bit the descriptor touches exists in an n x m array.

    Kind-aware: the structural kinds carry their sites in ``extra``
    (decoder override pairs, NPSF neighbourhood patterns, linked
    component descriptors), so the generic cell/bit/victim check alone
    would accept descriptors the lane models cannot place.
    """
    kind = semantics.kind
    if kind == "linked":
        # Only pure edge-coupling compositions have a lane model; each
        # component must individually fit.
        return bool(semantics.extra) and all(
            part.kind == "coupling" and _fits_geometry(part, n, m)
            for part in semantics.extra
        )
    if kind == "decoder":
        if not semantics.extra:
            return False
        for addr, cells in semantics.extra:
            if not 0 <= addr < n:
                return False
            if any(not 0 <= cell < n for cell in cells):
                return False
        return True
    if not 0 <= semantics.bit < m or not 0 <= semantics.cell < n:
        return False
    if kind == "npsf":
        if semantics.value is None or not 0 <= semantics.value < (1 << m):
            return False
        return bool(semantics.extra) and all(
            0 <= cell < n and 0 <= pattern < (1 << m)
            for cell, pattern in semantics.extra
        )
    if kind == "retention":
        return semantics.value is not None \
            and 0 <= semantics.value < (1 << m)
    if kind == "bridge":
        # A bridge shorts whole cells: victim_bit stays None.
        return semantics.victim_cell is not None \
            and 0 <= semantics.victim_cell < n
    if semantics.victim_cell is None:
        return True
    return 0 <= semantics.victim_bit < m and 0 <= semantics.victim_cell < n


# -- process sharding -------------------------------------------------------
#
# A shard is a self-describing task tuple executed by ``_run_task``
# inside a pool worker (or a remote daemon -- the task format is the
# wire format of :mod:`repro.sim.remote`).  ``token`` names the stream a
# broadcast pinned in the worker.  Scalar shards are
#
#     (mode, token, spec, lo, hi, faults, ram_factory, n, m, budget)
#
# where ``mode`` selects how the shard's faults are obtained:
#
# ``"slice"``     ``materialize_spec(spec)[lo:hi]`` -- the universe is
#                 re-enumerated locally (cached per worker), so the task
#                 carries no fault objects at all;
# ``"fallback"``  the ``[lo:hi]`` slice of the *scalar-fallback* portion
#                 of the spec'd universe (the batched engine's remainder),
#                 derived locally via ``partition_universe``;
# ``"list"``      an explicit pickled fault list (universes without a
#                 spec -- hand-built lists, custom iterables).
#
# ``budget`` (seconds, or None) arms work stealing: a worker exceeding
# it returns ``(done_so_far, remainder_task)`` and the scheduler
# re-queues the remainder for an idle sibling.  Lane shards
# (:mod:`repro.sim.batched` fans whole lane passes out the same flow)
# are
#
#     ("lane"|"lane-list", token, spec, kind, lo, hi, faults, n, m)
#
# covering members ``[lo:hi]`` of the partition class ``kind``.
# Every completed task yields one payload
#
#     (tag, lo, hi, data, remainder, elapsed_s)
#
# merged into position-keyed arrays, which is why verdicts are
# byte-identical regardless of completion or steal order.


@lru_cache(maxsize=8)
def _spec_partition(spec: UniverseSpec, n: int, m: int):
    """Worker-side cache: the partition of a spec'd universe.

    Deterministic mirror of the partition the parent computed -- same
    spec, same geometry, same enumeration order.
    """
    return partition_universe(materialize_spec(spec), n, m)


def _spec_fallback(spec: UniverseSpec, n: int, m: int) -> tuple[Fault, ...]:
    """The scalar-fallback faults of a spec'd universe (worker side)."""
    _classes, fallback = _spec_partition(spec, n, m)
    return tuple(fault for _index, fault in fallback)


def _shard_faults(mode, spec, lo, hi, faults, n, m):
    if mode == "list":
        return faults
    if mode == "slice":
        return materialize_spec(spec)[lo:hi]
    if mode == "fallback":
        return _spec_fallback(spec, n, m)[lo:hi]
    raise ValueError(f"unknown shard mode {mode!r}")


def _run_scalar_task(task) -> tuple:
    """Replay one scalar shard, honouring the work-stealing budget.

    Returns the flow payload ``("scalar", lo, done, outcomes, remainder,
    elapsed)``: with no budget (static scheduling) ``done == hi`` and
    ``remainder`` is None; a budgeted shard that ran out of time covers
    a prefix and hands the rest back as a ready-to-queue task.
    """
    mode, token, spec, lo, hi, faults, ram_factory, n, m, budget = task
    stream = worker_stream(token)
    shard = _shard_faults(mode, spec, lo, hi, faults, n, m)
    outcomes: list[tuple[bool, int]] = []
    start = perf_counter()
    for index, fault in enumerate(shard):
        outcomes.append(_run_one(stream, fault, ram_factory, n, m))
        if budget is not None and index + 1 < len(shard) \
                and perf_counter() - start >= budget:
            done = lo + index + 1
            rest = list(shard[index + 1:]) if mode == "list" else None
            remainder = (mode, token, spec, done, hi, rest,
                         ram_factory, n, m, budget)
            return ("scalar", lo, done, outcomes, remainder,
                    perf_counter() - start)
    return ("scalar", lo, hi, outcomes, None, perf_counter() - start)


def _run_lane_task(task) -> tuple:
    """Execute one lane pass (a chunk of one fault class) worker-side.

    The pass is indivisible -- it replays the stream once over packed
    columns -- so lane tasks never split; the parent sizes the chunks.
    Returns ``("lane", lo, hi, (kind, detected_mask, executed), None,
    elapsed)`` with lane ``i`` of the mask holding the verdict of class
    member ``lo + i``.
    """
    # Late imports: batched.py imports this module, and under fork the
    # worker has everything loaded anyway.
    from repro.memory.packed import PackedMemoryArray
    from repro.sim.batched import build_lane_model

    tag, token, spec, kind, lo, hi, faults, n, m = task
    stream = worker_stream(token)
    start = perf_counter()
    if tag == "lane":
        classes, _fallback = _spec_partition(spec, n, m)
        semantics = [sem for _i, _f, sem in classes[kind][lo:hi]]
    else:  # "lane-list": explicit faults (universes without a spec)
        semantics = [fault.vector_semantics() for fault in faults]
    model = build_lane_model(kind, semantics)
    packed = PackedMemoryArray(n, lanes=len(semantics), m=m)
    model.install(packed)
    detected, executed = packed.apply_stream(stream.ops, tables=stream.tables,
                                             model=model)
    return ("lane", lo, hi, (kind, detected, executed), None,
            perf_counter() - start)


def _run_task(task) -> tuple:
    """Pool/daemon unit of work: dispatch one shard task by its tag."""
    tag = task[0]
    if tag in ("slice", "fallback", "list"):
        return _run_scalar_task(task)
    if tag in ("lane", "lane-list"):
        return _run_lane_task(task)
    raise ValueError(f"unknown shard task tag {tag!r}")


def _scalar_task(mode, token, spec, lo, hi, faults, ram_factory, n, m,
                 budget) -> tuple:
    """Build one scalar shard task for the ``[lo:hi)`` fault range."""
    if spec is None:
        return ("list", token, None, lo, hi, faults[lo:hi],
                ram_factory, n, m, budget)
    return (mode, token, spec, lo, hi, None, ram_factory, n, m, budget)


def _reference_pass(stream: OpStream, n: int, m: int) -> None:
    """Fault-free replay on a canonical perfect memory; caches success
    (and the stream's operation count) on the stream.

    Uses a canonical default front-end (``SinglePortRAM``, or a perfect
    ``MultiPortRAM`` for cycle-grouped streams) rather than
    ``ram_factory`` so the factory is called exactly once per fault (the
    legacy campaign contract) and so the check answers the right
    question: is the stream self-consistent on a *perfect* memory?
    """
    if stream.reference_verified:
        return
    ram = _stream_ram(n, m, stream.ports)
    mismatches: list[tuple[int, int]] = []
    executed = ram.apply_stream(stream.ops, tables=stream.tables,
                                mismatches=mismatches)
    if mismatches:
        index, actual = mismatches[0]
        record = stream.ops[index]
        raise ValueError(
            f"compiled stream {stream.name!r} fails on a fault-free memory: "
            f"op {index} ({record[0]} addr={record[2]}) expected "
            f"{record[4]} read {actual} -- the stream is not self-consistent "
            f"(hand-built records, or a compiler bug)"
        )
    stream.reference_verified = True
    stream.reference_operations = executed


def _check_chunk_size(chunk_size) -> int | None:
    """Validate the ``chunk_size`` override (None = cost-model sizing)."""
    if chunk_size is None:
        return None
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int) \
            or chunk_size < 1:
        raise ValueError(
            f"chunk_size must be None (shards sized by the per-class cost "
            f"model) or a positive int (fixed shards of that many faults), "
            f"got {chunk_size!r}"
        )
    return chunk_size


def _check_scheduler(scheduler: str) -> str:
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")
    return scheduler


def run_campaign(stream: OpStream, universe: Iterable[Fault],
                 ram_factory: Callable[[], object] | None = None,
                 workers: int = 0, chunk_size: int | None = None,
                 progress: Callable[[int, int], None] | None = None,
                 reference_check: bool = True,
                 pool: WorkerPool | None = None,
                 scheduler: str = "stealing",
                 cost_model: CostModel | None = None) -> CampaignResult:
    """Replay one compiled stream against every fault of a universe.

    Parameters
    ----------
    stream:
        The compiled test (see :mod:`repro.sim.compilers`).
    universe:
        Iterable of faults; injected one at a time (single-fault
        methodology), outcome order preserved.  A universe carrying a
        :class:`~repro.faults.universe.UniverseSpec` (everything the
        :mod:`repro.faults.universe` generators produce) is sharded
        *by spec*: workers re-enumerate their faults locally instead of
        unpickling them per chunk.
    ram_factory:
        Overrides the default ``SinglePortRAM(stream.n, m=stream.m)`` --
        or, for a cycle-grouped stream, the default
        ``MultiPortRAM(stream.n, m=stream.m, ports=stream.ports)``.  The
        factory's RAM must offer at least ``stream.ports`` ports.  With
        ``workers > 0`` it must be picklable (a module-level function or
        functools.partial, not a lambda).
    workers:
        ``0`` (default) runs in-process -- unless ``pool`` is given, in
        which case its worker count applies.  ``N > 0`` fans shards out
        to the persistent ``shared_pool(N)`` (or ``pool``); falls back
        to in-process execution if the platform cannot spawn workers
        (sandboxes, missing /dev/shm).
    chunk_size:
        ``None`` (default) sizes shards by the per-class
        :class:`~repro.sim.costs.CostModel` -- roughly equal predicted
        *work* per shard, so an NPSF-heavy tail is cut finer than a
        stuck-at head.  A positive int forces the legacy fixed-size
        shards (also the serial progress cadence).
    progress:
        Optional ``progress(done, total)`` hook called after each chunk
        (the universe is materialized up front, so ``total`` is always
        its concrete size).
    reference_check:
        Validate the stream on a fault-free memory first (cached on the
        stream, so repeated campaigns pay it once).
    pool:
        An explicit pool to shard on: a
        :class:`~repro.sim.pool.WorkerPool` (e.g. one ``with
        WorkerPool(4) as pool`` block around many campaigns) or a
        :class:`~repro.sim.remote.RemotePool` of worker daemons on
        other hosts.  Default: the process-wide shared pool for
        ``workers``.
    scheduler:
        ``"stealing"`` (default): workers return the remainder of a
        shard that exceeds its time budget to the shared queue, so a
        mispredicted or skewed shard redistributes instead of idling
        the siblings.  ``"static"``: run the planned shards as cut.
        Verdicts are byte-identical either way.
    cost_model:
        Overrides the default :class:`~repro.sim.costs.CostModel` used
        for shard planning.

    >>> from repro.faults import single_cell_universe
    >>> from repro.march.library import MARCH_C_MINUS
    >>> from repro.sim.compilers import compile_march
    >>> stream = compile_march(MARCH_C_MINUS, 8)
    >>> result = run_campaign(stream, single_cell_universe(8, classes=("SAF",)))
    >>> result.detection_ratio
    1.0
    """
    n, m = stream.n, stream.m
    chunk_size = _check_chunk_size(chunk_size)
    _check_scheduler(scheduler)
    if reference_check:
        _reference_pass(stream, n, m)
    progress = _monotonic_progress(progress)
    result = CampaignResult(stream_name=stream.name, n=n, m=m,
                            reference_operations=stream.reference_operations or 0)
    faults = list(universe)
    outcomes: list[tuple[bool, int]] | None = None
    if (workers > 0 or pool is not None) and len(faults) > 1:
        effective = workers or getattr(pool, "workers", 0)
        outcomes = _run_sharded(stream, faults,
                                getattr(universe, "spec", None), "slice",
                                ram_factory, n, m, effective, pool,
                                chunk_size, progress, scheduler, cost_model)
        if outcomes is not None:
            result.workers_used = effective
    if outcomes is None:  # serial path, or process fan-out unavailable
        outcomes = []
        done = 0
        serial_chunk = chunk_size or SERIAL_CHUNK
        for lo in range(0, len(faults), serial_chunk):
            chunk = faults[lo:lo + serial_chunk]
            for fault in chunk:
                outcomes.append(_run_one(stream, fault, ram_factory, n, m))
            done += len(chunk)
            if progress is not None:
                progress(done, len(faults))
    for fault, (detected, executed) in zip(faults, outcomes, strict=True):
        result.outcomes.append((fault, detected))
        result.operations_replayed += executed
    return result


#: Exceptions that mean "the pool cannot serve this campaign" -- callers
#: mark the pool broken and degrade to single-process execution.
POOL_FAILURES = (PoolUnavailable, OSError, PermissionError, ImportError)

#: Seconds to wait for any single shard result.  A worker killed
#: mid-shard (OOM, segfault) loses its task: the flow would block on it
#: forever, so the drain polls with this timeout and declares the pool
#: broken instead -- the campaign then re-runs serially.  Ordinary
#: shards finish in well under a second (budgeted shards by
#: construction); only a dead worker plausibly exceeds this.
SHARD_TIMEOUT = 300.0


def _drain_flow(flow, outstanding: int, expected: int, progress, done: int,
                total: int, on_payload) -> int:
    """Drain a task flow, re-queueing stolen remainders as they surface.

    ``on_payload(tag, lo, hi, data)`` merges one completed task into the
    caller's position-keyed arrays and returns the number of faults it
    covered; ``done``/``total`` let the batched engine account for lane
    passes that already happened.  Raises :class:`PoolUnavailable` when
    no result arrives within ``SHARD_TIMEOUT`` (a worker died with tasks
    in flight), and ``RuntimeError`` when the workers covered a
    different fault count than the parent expects (spec drift) --
    silently-truncated verdicts must never merge.
    """
    covered = 0
    while outstanding:
        try:
            payload = flow.next(SHARD_TIMEOUT)
        except StopIteration:
            break
        except multiprocessing.TimeoutError:
            raise PoolUnavailable(
                f"no shard result within {SHARD_TIMEOUT:.0f}s with "
                f"{outstanding} task(s) outstanding -- worker lost mid-task?"
            ) from None
        outstanding -= 1
        tag, lo, hi, data, remainder, _elapsed = payload
        if remainder is not None:
            flow.put(remainder)
            outstanding += 1
        step = on_payload(tag, lo, hi, data)
        covered += step
        done += step
        if progress is not None:
            progress(done, total)
    if covered != expected:
        raise RuntimeError(
            f"sharded campaign covered {covered} outcomes for "
            f"{expected} faults -- the universe spec does not "
            f"re-enumerate identically in the workers"
        )
    return done


def _monotonic_progress(progress):
    """Wrap a progress hook so reported ``done`` never decreases.

    When a pool breaks mid-drain the campaign re-runs the remainder
    serially from zero; without the clamp the hook would observe
    ``done`` jump backwards and the same faults counted twice.
    """
    if progress is None:
        return None
    best = 0

    def hook(done: int, total: int) -> None:
        nonlocal best
        if done > best:
            best = done
            progress(done, total)

    return hook


def _run_sharded(stream, faults, spec, mode, ram_factory, n, m, workers,
                 pool, chunk_size, progress, scheduler="stealing",
                 cost_model=None) -> list[tuple[bool, int]] | None:
    """Fan shards out over a task flow; ``None`` when unavailable.

    The cost model cuts the plan, the flow schedules it (stolen
    remainders re-queue through :func:`_drain_flow`), and completed
    payloads merge into a position-keyed array -- identical verdicts to
    the serial path regardless of which worker ran what.
    """
    if pool is None:
        pool = shared_pool(workers)
    model = cost_model or DEFAULT_COST_MODEL
    budget = STEAL_BUDGET_S if scheduler == "stealing" else None
    plan = model.plan(faults, workers=getattr(pool, "workers", workers),
                      chunk_size=chunk_size)
    outcomes: list = [None] * len(faults)

    def merge(tag, lo, hi, data):
        outcomes[lo:hi] = data
        return hi - lo

    try:
        token = pool.broadcast_stream(stream)
        flow = pool.flow(_run_task)
        try:
            for lo, hi in plan:
                flow.put(_scalar_task(mode, token, spec, lo, hi, faults,
                                      ram_factory, n, m, budget))
            _drain_flow(flow, len(plan), len(faults), progress, 0,
                        len(faults), merge)
        finally:
            flow.close()
        return outcomes
    except POOL_FAILURES:
        # Could not start (sandbox) or lost a worker mid-run: a broken
        # pool is closed so the next campaign gets a fresh one, and this
        # campaign degrades to the serial path rather than failing.
        pool.mark_broken()
        return None
