"""The bit-packed campaign engine: one replay pass per fault *class*.

The scalar campaign engine (:func:`repro.sim.campaign.run_campaign`)
replays a compiled :class:`~repro.sim.ir.OpStream` once per fault.  For
the fault classes that dominate real universes the *operations* of every
one of those replays are identical; only the fault site differs.  This
engine exploits that: it packs one fault per *lane* of a
:class:`~repro.memory.packed.PackedMemoryArray` (lane-parallel int
columns, ``m`` planes per lane for word-oriented geometries) and
replays the stream **once per class**, applying each lane's fault as
a mask operation positioned in the faulty bit's plane:

* stuck-at:   ``new |= sa1_mask[addr]``, ``new &= ~sa0_mask[addr]``
* transition: ``new &= ~(~old & new & tf_up_mask[addr])`` (blocked rise),
  and the dual for blocked falls
* stuck-open: writes to the open cell are masked off, and reads route
  through a per-lane sense latch (the classical two-read SOF model)
* coupling:   on an aggressor-bit transition, ``victim ^= fired`` (CFin)
  or force the fired lanes (CFid)
* state coupling (CFst): after every committed write, lanes whose
  aggressor bit holds the coupling state force their victim bit -- the
  lane-parallel analogue of the scalar ``settle`` hook
* NPSF / bridging: enforced conditions -- while every neighbour holds
  the deleted pattern the victim is forced, and a shorted pair settles
  to its wired-AND/OR -- evaluated as whole-cell match-and-blend column
  ops after each relevant write (plus one initial settle)
* retention (DRF): the executor's cycle clock drives idle-aware decay;
  a cell unaccessed past its retention interval decays lazily at its
  next read, exactly like the scalar model
* linked faults: the coupling components fire in order under a shared
  aggressor transition, one group pass per component rank
* decoder (AF): per-lane address overrides -- lost writes, redirected
  writes, wired-AND multi-cell reads and the AF-A sense-latch -- mapped
  onto blend columns over the canonical single-port read path

A checked read XORs the packed word with the broadcast expectation; every
lane with a non-zero bit in any plane is a detection.  π-test recurrences
stay exact through per-lane accumulator columns, with GF(2^m) constant
multipliers lowered to per-plane shift/XOR plans (see
:meth:`~repro.memory.packed.PackedMemoryArray.apply_stream`), so this is
not an approximation: each lane computes bit-for-bit what its dedicated
scalar replay would.

Cost: ``O(classes * stream_length)`` column operations instead of
``O(|universe| * detection_prefix)`` scalar ones -- on single-cell
dominated universes an order of magnitude faster (see
``benchmarks/bench_campaign_engine.py``).  Every fault class the
built-in universes generate now vectorizes; only faults whose
:meth:`~repro.faults.base.Fault.vector_semantics` is ``None`` (custom
models), names an unregistered kind, or does not fit the stream's
geometry fall back per fault to
:func:`~repro.sim.campaign.run_campaign`, so
:func:`run_campaign_batched` accepts *any* universe and returns verdicts
identical to the scalar engines, in universe order.

Lane models build their masks as int columns at construction time
(the pass's lane count is the plane stride).  Masks that need the
memory's plane count are finished in ``install``, and every placement
of a row into planes goes through the memory's helper surface
(``spread`` / ``row_to_plane`` / ``shift_planes`` / ``blend_lanes`` /
...), so the plane-major layout stays behind
:class:`~repro.memory.packed.PackedMemoryArray`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.faults.base import Fault, VectorSemantics
from repro.memory.packed import LaneFaultModel, PackedMemoryArray
from repro.sim.campaign import (
    POOL_FAILURES,
    STEAL_BUDGET_S,
    CampaignResult,
    _check_chunk_size,
    _check_scheduler,
    _drain_flow,
    _monotonic_progress,
    _reference_pass,
    _run_task,
    _scalar_task,
    partition_universe,
    run_campaign,
)
from repro.sim.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.ir import OpStream
from repro.sim.pool import WorkerPool, shared_pool

__all__ = ["run_campaign_batched", "build_lane_model", "register_lane_model"]


class _StuckLanes(LaneFaultModel):
    """SA0/SA1 lanes: per-address force masks.

    The physical node is pinned, so the mask is applied to the initial
    state and to every committed write -- with one fault per lane and no
    other mutators in a stuck lane, the stored value is forced at every
    observable point, matching the scalar model's read/write/settle hooks.
    Word-oriented faults position their lane bit in the faulty bit's
    plane (``sem.bit * lanes + lane``); the mask algebra is unchanged.
    """

    def __init__(self, semantics: list[VectorSemantics]):
        stride = len(semantics)  # == the pass's lane count (plane stride)
        self._sa1: dict[int, int] = {}
        self._sa0: dict[int, int] = {}
        for lane, sem in enumerate(semantics):
            target = self._sa1 if sem.value else self._sa0
            bit = 1 << (sem.bit * stride + lane)
            target[sem.cell] = target.get(sem.cell, 0) | bit

    def install(self, memory: PackedMemoryArray) -> None:
        # Cells power up at 0; stuck-at-1 lanes are forced immediately.
        for addr, mask in self._sa1.items():
            memory.or_lanes(addr, mask)

    def transform_write(self, addr: int, old, new):
        mask = self._sa1.get(addr)
        if mask is not None:
            new = new | mask
        mask = self._sa0.get(addr)
        if mask is not None:
            new = new & ~mask
        return new


class _TransitionLanes(LaneFaultModel):
    """TF-up/TF-down lanes: the blocked transition keeps the old bit.

    The up and down masks address disjoint lanes (one fault per lane), so
    applying them in sequence never double-transforms a lane.
    """

    def __init__(self, semantics: list[VectorSemantics]):
        stride = len(semantics)
        self._up: dict[int, int] = {}
        self._down: dict[int, int] = {}
        for lane, sem in enumerate(semantics):
            target = self._up if sem.rising else self._down
            bit = 1 << (sem.bit * stride + lane)
            target[sem.cell] = target.get(sem.cell, 0) | bit

    def transform_write(self, addr: int, old, new):
        mask = self._up.get(addr)
        if mask is not None:
            new = new & ~(~old & new & mask)  # blocked rise: bit stays 0
        mask = self._down.get(addr)
        if mask is not None:
            new = new | (old & ~new & mask)  # blocked fall: bit stays 1
        return new


def _coupling_groups(pairs, stride):
    """Group ``(lane, coupling semantics)`` pairs by condition.

    Returns ``{aggressor_cell: [(victim, rising, force_to, mask, delta)]}``
    with ``mask`` an int lane mask positioned in the aggressor bit's
    plane and ``delta`` the aggressor->victim *plane* offset (zero for
    bit-oriented and same-bit word faults; also covers the intra-word
    case where aggressor and victim are bits of one cell).  One committed
    write then touches each distinct victim word once, with a mask
    covering every lane of that group that fired.
    """
    grouped: dict[tuple, int] = {}
    for lane, sem in pairs:
        key = (sem.cell, sem.bit, sem.victim_cell, sem.victim_bit,
               bool(sem.rising), sem.value)
        grouped[key] = grouped.get(key, 0) | (1 << lane)
    by_aggressor: dict[int, list] = {}
    for (aggr, a_bit, victim, v_bit, rising, force_to), mask in \
            grouped.items():
        by_aggressor.setdefault(aggr, []).append(
            (victim, rising, force_to, mask << (a_bit * stride),
             v_bit - a_bit)
        )
    return by_aggressor


def _fire_coupling_groups(memory, groups, rise, fall):
    """Corrupt the victims of every group lane whose aggressor fired."""
    for victim, rising, force_to, mask, delta in groups:
        fired = (rise if rising else fall) & mask
        if not fired:
            continue
        if delta:  # move from the aggressor plane to the victim plane
            fired = memory.shift_planes(fired, delta)
        if force_to is None:  # CFin: invert the victim bit
            memory.xor_lanes(victim, fired)
        elif force_to:  # CFid -> 1
            memory.or_lanes(victim, fired)
        else:  # CFid -> 0
            memory.andnot_lanes(victim, fired)


class _CouplingLanes(LaneFaultModel):
    """CFin/CFid lanes: aggressor transitions corrupt per-lane victims.

    Lanes are grouped by ``(aggressor bit, victim bit, edge, effect)``
    (see :func:`_coupling_groups`); the aggressor mask sits in the
    aggressor bit's plane and the fired lanes are repositioned into the
    victim bit's plane before the corruption lands.
    """

    def __init__(self, semantics: list[VectorSemantics]):
        self._by_aggressor = _coupling_groups(
            list(enumerate(semantics)), len(semantics))

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        groups = self._by_aggressor.get(addr)
        if groups is None:
            return
        # rise: lanes whose aggressor bit went 0 -> 1; fall: the dual.
        _fire_coupling_groups(memory, groups, ~old & committed,
                              old & ~committed)


class _LinkedLanes(LaneFaultModel):
    """Linked-fault lanes: coupling components fired in rank order.

    A linked fault is several coupling faults installed together; the
    scalar wrapper fires every component on each committed write with
    the *same* ``(old, committed)`` pair, mutating the victims
    sequentially.  Lane-parallel that becomes one
    :func:`_coupling_groups` table per component *rank*: rank 0 of every
    lane fires first (possibly flipping victims), then rank 1 reads the
    already-corrupted state -- exactly the scalar masking order that
    makes linked CFin pairs cancel.
    """

    def __init__(self, semantics: list[VectorSemantics]):
        stride = len(semantics)
        depth = max(len(sem.extra) for sem in semantics)
        self._steps = []
        for rank in range(depth):
            pairs = [(lane, sem.extra[rank])
                     for lane, sem in enumerate(semantics)
                     if len(sem.extra) > rank]
            self._steps.append(_coupling_groups(pairs, stride))

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        rise = fall = None
        for step in self._steps:
            groups = step.get(addr)
            if groups is None:
                continue
            if rise is None:  # shared edge masks, computed on first use
                rise = ~old & committed
                fall = old & ~committed
            _fire_coupling_groups(memory, groups, rise, fall)


class _StuckOpenLanes(LaneFaultModel):
    """SOF lanes: per-lane sense-latch bit, open cell cut off.

    The classical stuck-open model (see
    :class:`~repro.faults.stuck_open.StuckOpenFault`): writes never
    reach the open cell, and reading it returns whatever the sense
    amplifier latched on the *previous* read.  Lane-parallel, the latch
    is one bit per lane (``self._sense``): a read of any address
    refreshes the latch bit of every lane whose open cell is elsewhere,
    while lanes open *at* that address keep -- and observe -- their
    latched bit.
    """

    transforms_reads = True

    def __init__(self, semantics: list[VectorSemantics]):
        self._open: dict[int, int] = {}
        self._sense = 0  # per-lane latch; powers up at initial_sense
        for lane, sem in enumerate(semantics):
            self._open[sem.cell] = self._open.get(sem.cell, 0) | (1 << lane)
            if sem.value:
                self._sense |= 1 << lane

    def install(self, memory: PackedMemoryArray) -> None:
        # SOF is a whole-cell fault: the open mask cuts off *every* plane
        # of the lane's cell, so the single-plane lane masks built in
        # __init__ are spread across the memory's m planes here (the
        # first point the geometry is known).  The latch keeps its
        # compact power-up value: initial_sense is a 0/1 cell value,
        # i.e. bit 0 -- plane 0 -- of the word.
        self._open = {cell: memory.spread(mask)
                      for cell, mask in self._open.items()}

    def transform_read(self, addr: int, sensed, port: int = 0):
        # The latch lives in the fault's sense amplifier, which the
        # scalar model shares across ports -- the port is irrelevant.
        open_here = self._open.get(addr)
        if open_here is None:
            # Healthy read in every lane: all latches refresh.
            self._sense = sensed
            return sensed
        # Lanes open at this address observe (and keep) their latch;
        # every other lane senses the stored bit and refreshes.
        observed = (self._sense & open_here) | (sensed & ~open_here)
        self._sense = observed
        return observed

    def transform_write(self, addr: int, old, new):
        open_here = self._open.get(addr)
        if open_here is not None:
            new = (new & ~open_here) | (old & open_here)  # write lost
        return new


class _StateCouplingLanes(LaneFaultModel):
    """CFst lanes: while the aggressor bit holds a state, the victim bit
    is forced.

    The scalar model enforces its condition in ``settle`` (after every
    memory cycle) and in ``after_write`` (immediately, when the write
    touches the aggressor or victim cell).  Lane-parallel that becomes:
    the *first* ``settle`` of a pass enforces every group (the scalar
    engines' first post-cycle settle -- cells power up un-forced, so a
    read issued before any cycle completes still observes the raw
    state), and afterwards only a committed write can change a group's
    aggressor state or overwrite its victim, so ``after_write`` enforces
    exactly the groups touching the written cell.  Lanes are disjoint
    across groups (one fault per lane), so enforcement never cascades.
    """

    settles = True

    def __init__(self, semantics: list[VectorSemantics]):
        grouped: dict[tuple[int, int, int, int, bool, int], int] = {}
        for lane, sem in enumerate(semantics):
            key = (sem.cell, sem.bit, sem.victim_cell, sem.victim_bit,
                   bool(sem.rising), sem.value)
            grouped[key] = grouped.get(key, 0) | (1 << lane)
        #: (aggr_cell, aggr_bit, victim_cell, victim_bit, state,
        #:  force_to, lane_row) per distinct coupling condition.
        self._groups = [
            (a_cell, a_bit, v_cell, v_bit, state, force_to, mask)
            for (a_cell, a_bit, v_cell, v_bit, state, force_to), mask
            in grouped.items()
        ]
        self._by_cell: dict[int, list[tuple]] = {}
        for group in self._groups:
            self._by_cell.setdefault(group[0], []).append(group)
            if group[2] != group[0]:
                self._by_cell.setdefault(group[2], []).append(group)
        self._enforced = False

    def _enforce(self, memory: PackedMemoryArray, groups) -> None:
        for a_cell, a_bit, v_cell, v_bit, state, force_to, mask in groups:
            aggressor = memory.plane(a_cell, a_bit) & mask
            # Lanes (within this group) whose aggressor bit equals the
            # coupling state; aggressor is a subset of mask, so the
            # state-0 complement is just the XOR.
            held = aggressor if state else aggressor ^ mask
            if not held:
                continue
            column = memory.row_to_plane(held, v_bit)
            if force_to:
                memory.or_lanes(v_cell, column)
            else:
                memory.andnot_lanes(v_cell, column)

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        groups = self._by_cell.get(addr)
        if groups is not None:
            self._enforce(memory, groups)

    def settle(self, memory: PackedMemoryArray) -> None:
        if self._enforced:
            return
        self._enforced = True
        self._enforce(memory, self._groups)


class _NpsfLanes(LaneFaultModel):
    """NPSF lanes: while every neighbour holds its pattern value, the
    victim cell is forced.

    Pattern match is a whole-cell equality per neighbour
    (:meth:`~repro.memory.packed.PackedMemoryArray.match_lanes`), ANDed
    across the neighbourhood; matching lanes blend the forced value into
    their victim cell.  Enforcement timing follows the CFst argument: in
    an NPSF-only pass reads never mutate state and lanes are disjoint
    across groups (an enforcement writes only its own lanes' victim,
    which is never one of its neighbours), so the first ``settle``
    enforces every group once and afterwards only a committed write to a
    group's victim or neighbour can change its condition --
    ``after_write`` enforces exactly those groups.
    """

    settles = True

    def __init__(self, semantics: list[VectorSemantics]):
        grouped: dict[tuple, int] = {}
        for lane, sem in enumerate(semantics):
            key = (sem.cell, tuple(sem.extra), sem.value)
            grouped[key] = grouped.get(key, 0) | (1 << lane)
        self._groups = [
            (victim, neighbors, force_to, mask)
            for (victim, neighbors, force_to), mask in grouped.items()
        ]
        self._by_cell: dict[int, list[tuple]] = {}
        self._enforced = False

    def install(self, memory: PackedMemoryArray) -> None:
        self._groups = [
            (victim,
             tuple((cell, memory.broadcast(pattern))
                   for cell, pattern in neighbors),
             memory.broadcast(force_to), mask)
            for victim, neighbors, force_to, mask in self._groups
        ]
        self._by_cell = {}
        for group in self._groups:
            for cell in {group[0], *(cell for cell, _ in group[1])}:
                self._by_cell.setdefault(cell, []).append(group)

    def _enforce(self, memory: PackedMemoryArray, groups) -> None:
        for victim, neighbors, force_column, row in groups:
            held = row
            for cell, pattern_column in neighbors:
                held = held & memory.match_lanes(cell, pattern_column)
                if not held:
                    break
            else:
                memory.blend_lanes(victim, memory.spread(held),
                                   force_column)

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        groups = self._by_cell.get(addr)
        if groups is not None:
            self._enforce(memory, groups)

    def settle(self, memory: PackedMemoryArray) -> None:
        if self._enforced:
            return
        self._enforced = True
        self._enforce(memory, self._groups)


class _BridgeLanes(LaneFaultModel):
    """BF lanes: a shorted pair settles to its wired-AND/OR.

    Each lane's pair merges bit-wise and both cells take the merged
    value (in the lane's planes only, via a whole-cell blend).  The
    merged value is a fixed point of the short, so the CFst enforcement
    argument applies unchanged: one initial settle, then re-short after
    every committed write touching either end.
    """

    settles = True

    def __init__(self, semantics: list[VectorSemantics]):
        grouped: dict[tuple[int, int, int], int] = {}
        for lane, sem in enumerate(semantics):
            key = (sem.cell, sem.victim_cell, sem.value)
            grouped[key] = grouped.get(key, 0) | (1 << lane)
        self._groups = [
            (cell_a, cell_b, wired_or, mask)
            for (cell_a, cell_b, wired_or), mask in grouped.items()
        ]
        self._by_cell: dict[int, list[tuple]] = {}
        self._enforced = False

    def install(self, memory: PackedMemoryArray) -> None:
        self._groups = [
            (cell_a, cell_b, wired_or, memory.spread(mask))
            for cell_a, cell_b, wired_or, mask in self._groups
        ]
        self._by_cell = {}
        for group in self._groups:
            self._by_cell.setdefault(group[0], []).append(group)
            self._by_cell.setdefault(group[1], []).append(group)

    def _enforce(self, memory: PackedMemoryArray, groups) -> None:
        for cell_a, cell_b, wired_or, select in groups:
            value_a = memory.read_lanes(cell_a)
            value_b = memory.read_lanes(cell_b)
            merged = (value_a | value_b) if wired_or \
                else (value_a & value_b)
            memory.blend_lanes(cell_a, select, merged)
            memory.blend_lanes(cell_b, select, merged)

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        groups = self._by_cell.get(addr)
        if groups is not None:
            self._enforce(memory, groups)

    def settle(self, memory: PackedMemoryArray) -> None:
        if self._enforced:
            return
        self._enforced = True
        self._enforce(memory, self._groups)


class _RetentionLanes(LaneFaultModel):
    """DRF lanes: idle-aware decay driven by the executor's cycle clock.

    The scalar model (:class:`~repro.faults.retention.DataRetentionFault`)
    tracks the cell's last access time and applies the decay *lazily at
    the next read* (writing the decayed value back -- it is now the real
    content), while a write refreshes the timestamp without decaying.
    Every lane replays the identical access sequence, so the last-access
    time of a cell is a pure function of the stream -- one shared
    timestamp per cell serves all lanes, and only the (retention, decay
    value) grouping is per-lane.
    """

    transforms_reads = True
    timed = True

    def __init__(self, semantics: list[VectorSemantics]):
        grouped: dict[int, dict[tuple[int, int], int]] = {}
        for lane, sem in enumerate(semantics):
            per_cell = grouped.setdefault(sem.cell, {})
            key = (sem.extra[0], sem.value)
            per_cell[key] = per_cell.get(key, 0) | (1 << lane)
        self._groups: dict[int, object] = grouped
        self._last: dict[int, int] = {}
        self._now = 0
        self._memory: PackedMemoryArray | None = None

    def install(self, memory: PackedMemoryArray) -> None:
        self._memory = memory
        self._groups = {
            cell: [(retention, memory.broadcast(decay_to),
                    memory.spread(mask))
                   for (retention, decay_to), mask in per_cell.items()]
            for cell, per_cell in self._groups.items()
        }

    def clock(self, cycle: int) -> None:
        self._now = cycle

    def transform_read(self, addr: int, sensed, port: int = 0):
        # Decay is a property of the cell, not of the reading port.
        groups = self._groups.get(addr)
        if groups is None:
            return sensed
        last = self._last.get(addr)
        if last is not None:  # never-accessed cells do not decay
            memory = self._memory
            elapsed = self._now - last
            for retention, decay_column, select in groups:
                if elapsed > retention:
                    # The decayed value is now the real cell content.
                    memory.blend_lanes(addr, select, decay_column)
                    sensed = memory.read_lanes(addr)
        self._last[addr] = self._now
        return sensed

    def transform_write(self, addr: int, old, new):
        if addr in self._groups:
            self._last[addr] = self._now
        return new


class _DecoderLanes(LaneFaultModel):
    """AF lanes: per-lane address-mapping overrides.

    Reproduces the canonical single-port read path
    (:class:`~repro.memory.ram.SinglePortRAM`, wired-AND) column-parallel:

    * a write to an address whose lane mapping *excludes* the address
      keeps the old stored value there (lost / redirected write), and
      the intended value lands on every redirect target;
    * a read observes, per lane group, the wired-AND of the mapped
      cells; an empty mapping (AF-A) observes the reading *port's* lane
      sense latch -- which every non-empty read on that port refreshes,
      exactly like the scalar sense amplifiers (one per port; flat
      single-port streams only ever touch latch 0, and AF-A lanes
      observe their own latch, so the blanket refresh is a no-op for
      them, as in the scalar path);
    * a cycle group whose writes land on one physical cell in some
      lane's mapping marks that lane detected
      (:meth:`~repro.memory.packed.LaneFaultModel
      .group_write_conflicts`) -- the scalar executor raises
      ``PortConflictError`` there, which the campaign counts as a
      detection.
    """

    transforms_reads = True
    maps_addresses = True

    def __init__(self, semantics: list[VectorSemantics]):
        lost: dict[int, int] = {}
        redirects: dict[int, dict[int, int]] = {}
        read_groups: dict[int, dict[tuple[int, ...], int]] = {}
        for lane, sem in enumerate(semantics):
            bit = 1 << lane
            for addr, cells in sem.extra:
                if addr not in cells:
                    lost[addr] = lost.get(addr, 0) | bit
                for target in cells:
                    if target != addr:
                        targets = redirects.setdefault(addr, {})
                        targets[target] = targets.get(target, 0) | bit
                group = read_groups.setdefault(addr, {})
                group[cells] = group.get(cells, 0) | bit
        self._lost: dict[int, object] = lost
        self._redirects: dict[int, object] = redirects
        self._read_groups: dict[int, object] = read_groups
        #: per-lane address -> physical cells mapping, for the group
        #: write-conflict check (lane order matches the pass).
        self._overrides = [dict(sem.extra) for sem in semantics]
        self._conflict_cache: dict[tuple[int, ...], int] = {}
        #: per-port lane latches; missing ports power up at 0 like the
        #: RAM's sense amps.
        self._sense: dict[int, int] = {}
        self._pending = None  # intended value of the in-flight write
        self._memory: PackedMemoryArray | None = None

    def install(self, memory: PackedMemoryArray) -> None:
        self._memory = memory
        spread = memory.spread
        self._lost = {addr: spread(mask)
                      for addr, mask in self._lost.items()}
        self._redirects = {
            addr: [(target, spread(mask))
                   for target, mask in targets.items()]
            for addr, targets in self._redirects.items()
        }
        self._read_groups = {
            addr: [(cells, spread(mask))
                   for cells, mask in groups.items()]
            for addr, groups in self._read_groups.items()
        }

    def transform_write(self, addr: int, old, new):
        # The redirect targets need the *intended* value (per-lane for
        # "wa" records), not the post-substitution column: stash it for
        # after_write before the lost lanes keep their old content.
        self._pending = new
        lost = self._lost.get(addr)
        if lost is not None:
            new = (new & ~lost) | (old & lost)
        return new

    def after_write(self, addr: int, old, committed,
                    memory: PackedMemoryArray) -> None:
        targets = self._redirects.get(addr)
        if targets is not None:
            pending = self._pending
            for target, select in targets:
                memory.blend_lanes(target, select, pending)

    def transform_read(self, addr: int, sensed, port: int = 0):
        memory = self._memory
        groups = self._read_groups.get(addr)
        if groups is None:
            # Default mapping in every lane; the port's latches refresh.
            self._sense[port] = sensed
            return sensed
        observed = sensed
        for cells, select in groups:
            if not cells:
                # AF-A: the port's sense amp keeps its last value.
                part = self._sense.get(port, 0)
            else:
                part = memory.read_lanes(cells[0])
                for cell in cells[1:]:
                    part = part & memory.read_lanes(cell)
            observed = (observed & ~select) | (part & select)
        self._sense[port] = observed
        return observed

    def group_write_conflicts(self, addrs: tuple[int, ...]) -> int:
        # The stream repeats its write-address groups, so the per-lane
        # mapping walk (static per pass) is cached on the addr tuple.
        mask = self._conflict_cache.get(addrs)
        if mask is None:
            mask = 0
            for lane, overrides in enumerate(self._overrides):
                cells = [cell for addr in addrs
                         for cell in overrides.get(addr, (addr,))]
                if len(set(cells)) != len(cells):
                    mask |= 1 << lane
            self._conflict_cache[addrs] = mask
        return mask


_MODELS: dict[str, Callable[[list[VectorSemantics]], LaneFaultModel]] = {
    "stuck": _StuckLanes,
    "transition": _TransitionLanes,
    "coupling": _CouplingLanes,
    "stuck-open": _StuckOpenLanes,
    "state": _StateCouplingLanes,
    "npsf": _NpsfLanes,
    "bridge": _BridgeLanes,
    "retention": _RetentionLanes,
    "linked": _LinkedLanes,
    "decoder": _DecoderLanes,
}

#: Kinds whose lane models ship with the library.  Only these may run
#: as worker-side lane shards: a *runtime*-registered model exists in
#: this process but not necessarily in a pool worker (forked before the
#: registration) or a remote daemon, so those kinds always lane-resolve
#: in the parent.
_BUILTIN_KINDS = frozenset(_MODELS)

#: Minimum vectorizable fault count before the batched engine fans lane
#: passes out to workers.  Below it the passes finish faster in the
#: parent than the pool's dispatch round-trip; in particular small
#: fully-vectorizable campaigns never touch (or start) a pool.
LANE_SHARD_MIN_FAULTS = 4096

#: Floor for worker-side lane-chunk widths.  A lane pass costs one
#: stream replay regardless of width, so thin chunks multiply total
#: work; chunks only shrink below ``max_lanes`` to give each worker a
#: few per class.
LANE_SHARD_MIN_CHUNK = 256


def register_lane_model(
    kind: str,
    factory: Callable[[list[VectorSemantics]], LaneFaultModel],
) -> None:
    """Register a lane-model factory for a custom vector-semantics kind.

    ``factory(semantics)`` receives the descriptors of one class (one per
    lane, in lane order) and returns the
    :class:`~repro.memory.packed.LaneFaultModel` that applies them.  Once
    registered, :func:`run_campaign_batched` vectorizes faults whose
    :meth:`~repro.faults.base.Fault.vector_semantics` returns that kind;
    unregistered kinds take the scalar per-fault path.
    """
    if not kind:
        raise ValueError("kind must be a non-empty string")
    _MODELS[kind] = factory


def build_lane_model(kind: str,
                     semantics: list[VectorSemantics]) -> LaneFaultModel:
    """Lane-fault model for one vectorizable class.

    ``semantics[k]`` describes the fault lane *k* carries; ``kind`` is the
    shared :attr:`~repro.faults.base.VectorSemantics.kind` of the class
    (as produced by :func:`~repro.sim.campaign.partition_universe`).

    >>> from repro.faults import StuckAtFault
    >>> model = build_lane_model(
    ...     "stuck", [StuckAtFault(2, 1).vector_semantics()])
    >>> model.transform_write(2, 0, 0)   # lane 0 pinned to 1 at cell 2
    1
    """
    try:
        factory = _MODELS[kind]
    except KeyError:
        raise ValueError(
            f"no lane model for vector-semantics kind {kind!r} "
            f"(known: {sorted(_MODELS)})"
        ) from None
    return factory(semantics)


def run_campaign_batched(stream: OpStream, universe: Iterable[Fault],
                         ram_factory: Callable[[], object] | None = None,
                         workers: int = 0, chunk_size: int | None = None,
                         progress: Callable[[int, int], None] | None = None,
                         reference_check: bool = True,
                         max_lanes: int = 4096,
                         pool: WorkerPool | None = None,
                         scheduler: str = "stealing",
                         cost_model: CostModel | None = None
                         ) -> CampaignResult:
    """Replay one compiled stream against a universe, one pass per class.

    Same contract and verdicts as
    :func:`~repro.sim.campaign.run_campaign` -- outcomes in universe
    order, identical ``detected`` flags -- but vectorizable faults
    (stuck-at, transition, stuck-open, CFin/CFid/CFst, NPSF, bridging,
    retention, linked and decoder faults, on bit- and word-oriented
    geometries alike) are resolved lane-parallel on a
    :class:`~repro.memory.packed.PackedMemoryArray`, and only the
    remainder takes the scalar per-fault path.

    Parameters
    ----------
    stream:
        The compiled test.  The packed lane memory models the canonical
        front-ends -- ``SinglePortRAM(n, m)`` for flat streams and
        ``MultiPortRAM(n, m, ports)`` for cycle-grouped (multi-port)
        ones, whose groups execute as single lane-parallel memory
        cycles (reads sense pre-cycle columns, then writes commit;
        decoder port conflicts count as detections).  Word-oriented
        streams get ``m`` bit planes per lane.
    universe:
        Iterable of faults; outcome order preserved.
    ram_factory:
        A custom front-end (scramblers, exotic decoders) changes replay
        semantics the packed lane memory does not model, so a non-None
        factory delegates everything to :func:`run_campaign`.
    workers:
        ``N > 0`` (or an explicit ``pool``) runs pool work
        *concurrently* with the parent's lane passes: the scalar
        remainder -- and, for universes past ``LANE_SHARD_MIN_FAULTS``
        vectorizable faults, whole lane-pass chunks -- is queued first,
        the parent resolves its share of the classes while workers chew,
        then every verdict set merges by universe index.  Universes
        carrying a :class:`~repro.faults.universe.UniverseSpec` shard as
        ``(spec, index range)`` -- workers re-derive their faults
        locally -- and anything else ships explicit fault chunks.  Falls
        back to single-process execution when the platform cannot spawn
        workers.  Small fully-vectorizable universes never touch (or
        start) a pool at all.
    chunk_size:
        ``None`` (default) sizes scalar shards by the per-class
        :class:`~repro.sim.costs.CostModel`; a positive int forces the
        legacy fixed-size shards.
    progress:
        ``progress(done, total)`` with ``total`` the full universe size,
        fired after each lane chunk and each fallback chunk.
    reference_check:
        Validate the stream on a fault-free memory first (shared cache
        with the scalar engine).
    max_lanes:
        Lane-width cap per pass; a class with more faults is chunked.
    pool:
        Explicit pool for the shards -- a
        :class:`~repro.sim.pool.WorkerPool` or a
        :class:`~repro.sim.remote.RemotePool` of worker daemons;
        default is the process-wide shared pool for ``workers``.
    scheduler:
        ``"stealing"`` (default) lets workers return the remainder of
        an over-budget scalar shard to the shared queue; ``"static"``
        runs the planned shards as cut.  Verdicts are byte-identical
        either way.
    cost_model:
        Overrides the default :class:`~repro.sim.costs.CostModel` for
        scalar shard planning.

    ``CampaignResult.faults_batched`` reports how many faults the lane
    passes resolved; ``operations_replayed`` counts lane-pass records
    once per *pass* plus the scalar fallback's per-fault records (so it
    measures work done, not work avoided).

    >>> from repro.faults import single_cell_universe
    >>> from repro.march.library import MARCH_C_MINUS
    >>> from repro.sim.compilers import compile_march
    >>> stream = compile_march(MARCH_C_MINUS, 16)
    >>> result = run_campaign_batched(
    ...     stream, single_cell_universe(16, classes=("SAF", "TF")))
    >>> result.detection_ratio, result.faults_batched
    (1.0, 64)
    """
    if max_lanes < 1:
        raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
    if ram_factory is not None:
        # A custom front-end may remap addresses or ports in ways the
        # plane-packed lane memory does not model, so a non-None factory
        # delegates everything to the scalar engine (which still gets
        # compiled replay and process sharding), keeping the batched
        # entry point universally callable.
        return run_campaign(stream, universe, ram_factory=ram_factory,
                            workers=workers, chunk_size=chunk_size,
                            progress=progress,
                            reference_check=reference_check, pool=pool,
                            scheduler=scheduler, cost_model=cost_model)
    n = stream.n
    chunk_size = _check_chunk_size(chunk_size)
    _check_scheduler(scheduler)
    if reference_check:
        _reference_pass(stream, n, stream.m)
    # Clamped once here: a pool failure mid-drain re-runs the remainder
    # serially, and the hook must never see ``done`` go backwards.
    progress = _monotonic_progress(progress)
    faults = list(universe)
    total = len(faults)
    classes, fallback = partition_universe(faults, n, stream.m)
    # A custom fault may return a VectorSemantics kind nobody registered
    # a lane model for; honour the any-universe contract by routing it to
    # the scalar path instead of failing mid-campaign.
    unknown_kinds = [k for k in classes if k not in _MODELS]
    for kind in unknown_kinds:
        fallback.extend((index, fault)
                        for index, fault, _ in classes.pop(kind))
    fallback.sort(key=lambda pair: pair[0])
    result = CampaignResult(stream_name=stream.name, n=n, m=stream.m,
                            reference_operations=stream.reference_operations
                            or 0,
                            faults_batched=total - len(fallback))
    # Queue pool work *before* the parent's lane passes: workers chew on
    # scalar-fallback shards -- and, past LANE_SHARD_MIN_FAULTS, whole
    # lane-pass chunks -- while the parent resolves its share of the
    # vectorizable classes; the verdict sets are disjoint by
    # construction, so they merge by universe index afterwards.  A
    # runtime-registered lane kind may not exist in the workers, so spec
    # sharding (workers re-derive their faults locally) is only sound
    # when the partition used no such kind, and only built-in kinds ever
    # ship as lane shards; otherwise explicit faults travel.
    spec = getattr(universe, "spec", None) if not unknown_kinds else None
    use_pool = (workers > 0 or pool is not None) and total > 1
    effective = workers or (getattr(pool, "workers", 0) if pool is not None
                            else 0)
    shipped: dict[str, list] = {}
    local_classes = classes
    if use_pool and total - len(fallback) >= LANE_SHARD_MIN_FAULTS:
        shipped = {kind: members for kind, members in classes.items()
                   if kind in _BUILTIN_KINDS}
        local_classes = {kind: members for kind, members in classes.items()
                         if kind not in shipped}
    pending = None
    if use_pool and (fallback or shipped):
        pending = _start_shard_flow(stream, fallback, shipped, spec,
                                    effective, pool, chunk_size, scheduler,
                                    cost_model, max_lanes)
    if pending is None and shipped:
        # No pool after all: the parent runs every lane pass itself.
        local_classes, shipped = classes, {}
    verdicts: list[bool] = [False] * total
    done = 0

    def run_lane_pass(kind: str, members: list) -> None:
        nonlocal done
        for base in range(0, len(members), max_lanes):
            chunk = members[base:base + max_lanes]
            model = build_lane_model(kind, [sem for _, _, sem in chunk])
            packed = PackedMemoryArray(n, lanes=len(chunk), m=stream.m)
            model.install(packed)
            detected, executed = packed.apply_stream(
                stream.ops, tables=stream.tables, model=model
            )
            result.operations_replayed += executed
            for lane, (index, _fault, _sem) in enumerate(chunk):
                verdicts[index] = bool((detected >> lane) & 1)
            done += len(chunk)
            if progress is not None:
                progress(done, total)

    try:
        for kind in sorted(local_classes):
            run_lane_pass(kind, local_classes[kind])
    except BaseException:
        # A lane pass blew up (buggy custom lane model, Ctrl-C) with
        # shards already queued: kill them with the pool so they cannot
        # linger and tax the next campaign on a shared pool.
        if pending is not None:
            pending[0].mark_broken()
        raise

    flow_ops = 0

    def merge(tag, lo, hi, data) -> int:
        # Position-keyed, so completion/steal order cannot change the
        # result.  Ops accumulate separately and are committed only on a
        # successful drain -- a mid-drain pool failure re-runs the
        # remainder serially and must not double-count.
        nonlocal flow_ops
        if tag == "scalar":
            for (index, _fault), (det, executed) in zip(fallback[lo:hi],
                                                        data, strict=True):
                verdicts[index] = det
                flow_ops += executed
        else:  # "lane": one worker-side pass over class members [lo:hi)
            kind, detected, executed = data
            for lane, (index, _fault, _sem) in enumerate(
                    classes[kind][lo:hi]):
                verdicts[index] = bool((detected >> lane) & 1)
            flow_ops += executed
        return hi - lo

    finished = False
    if pending is not None:
        expected = len(fallback) + sum(len(m) for m in shipped.values())
        final = _drain_shard_flow(pending, merge, progress, done, total,
                                  expected)
        if final is not None:
            result.workers_used = effective
            result.operations_replayed += flow_ops
            done = final
            finished = True
    if not finished and (fallback or shipped):
        # Serial path, or process fan-out unavailable / broken mid-run:
        # re-run everything the pool owed (partial merges are simply
        # overwritten; the monotonic progress clamp hides the rewind).
        for kind in sorted(shipped):
            run_lane_pass(kind, shipped[kind])
        if fallback:
            batched_done = done

            def _remap(sub_done: int, _sub_total: int) -> None:
                progress(batched_done + sub_done, total)

            scalar = run_campaign(stream, [fault for _, fault in fallback],
                                  chunk_size=chunk_size,
                                  progress=_remap if progress is not None
                                  else None,
                                  reference_check=False)
            result.operations_replayed += scalar.operations_replayed
            for (index, _fault), (_f, detected) in zip(fallback,
                                                       scalar.outcomes,
                                                       strict=True):
                verdicts[index] = detected
    result.outcomes = [(fault, verdicts[index])
                       for index, fault in enumerate(faults)]
    return result


def _start_shard_flow(stream, fallback, shipped, spec, workers, pool,
                      chunk_size, scheduler, cost_model, max_lanes):
    """Broadcast the stream and queue scalar + lane shards on one flow.

    Scalar shards follow the cost-model plan (budgeted when stealing);
    lane chunks are cut so every worker gets a few per class without
    multiplying pass count (a pass costs one replay regardless of
    width).  Returns ``(pool, flow, outstanding)`` with tasks already
    flowing, or ``None`` when no pool is available (the caller then runs
    everything serially).
    """
    if pool is None:
        pool = shared_pool(workers)
    model = cost_model or DEFAULT_COST_MODEL
    budget = STEAL_BUDGET_S if scheduler == "stealing" else None
    n, m = stream.n, stream.m
    try:
        token = pool.broadcast_stream(stream)
        flow = pool.flow(_run_task)
    except POOL_FAILURES:
        pool.mark_broken()
        return None
    outstanding = 0
    scalar_faults = [fault for _, fault in fallback]
    for lo, hi in model.plan(scalar_faults,
                             workers=getattr(pool, "workers", workers),
                             chunk_size=chunk_size):
        flow.put(_scalar_task("fallback", token, spec, lo, hi, scalar_faults,
                              None, n, m, budget))
        outstanding += 1
    pool_workers = getattr(pool, "workers", workers) or workers or 1
    for kind in sorted(shipped):
        members = shipped[kind]
        width = min(max_lanes,
                    max(LANE_SHARD_MIN_CHUNK,
                        -(-len(members) // (pool_workers * 2))))
        for base in range(0, len(members), width):
            hi = min(base + width, len(members))
            if spec is not None:
                flow.put(("lane", token, spec, kind, base, hi, None,
                          n, m))
            else:
                chunk_faults = [fault for _i, fault, _s in members[base:hi]]
                flow.put(("lane-list", token, None, kind, base, hi,
                          chunk_faults, n, m))
            outstanding += 1
    return pool, flow, outstanding


def _drain_shard_flow(pending, merge, progress, done, total, expected):
    """Drain the campaign's flow; ``None`` if the pool broke mid-run."""
    pool, flow, outstanding = pending
    try:
        try:
            return _drain_flow(flow, outstanding, expected, progress, done,
                               total, merge)
        finally:
            flow.close()
    except POOL_FAILURES:
        pool.mark_broken()
        return None
