"""Plane-packed lane memory: one column per address, one lane per fault.

:class:`PackedMemoryArray` models ``lanes`` independent memory copies of
``n`` cells by ``m`` bits at once.  The column stored at ``addr`` is a
*plane-major* bit matrix of ``m * lanes`` bits: bit ``b * lanes + k``
holds bit *b* of the value cell ``addr`` has in the *k*-th memory copy.
A bit-oriented geometry (``m == 1``) degenerates to the classic
one-bit-per-lane mask layout.  Because every copy replays the *same*
compiled operation sequence (an :class:`~repro.sim.ir.OpStream`) and
differs only in which fault is injected, a whole fault class -- same
mask algebra, different fault site per lane -- executes in one pass over
the stream:

* a constant write broadcasts its m-bit value to all lanes (the
  :meth:`PackedMemoryArray.broadcast` column),
* a checked read XORs the column with the broadcast expectation; any
  lane with a non-zero bit in *any* plane is a *detection in that lane*,
* pi-test accumulator ops (``"ra"``/``"wa"``) keep one m-bit accumulator
  *column per accumulator id*, so data corrupted by a fault propagates
  through the pseudo-ring exactly as it would in that lane's dedicated
  replay.  GF(2^m) constant multiplication is linear over GF(2), so a
  precompiled lookup table lowers to a per-plane shift/XOR plan -- a
  handful of column operations per record, not per lane.

Columns are plain Python ints, one per address.  CPython's bignum
bitwise ops are word-packed C loops with near-zero dispatch cost, and
the executor's hot paths lean on the representation: a write rebinds
the address's int, and a zero read diff skips the detection fold.

Per-lane fault semantics plug in through :class:`LaneFaultModel`: the
executor calls ``transform_write`` / ``after_write`` / ``settle`` with
lane columns, and a model implements e.g. stuck-at-1 on bit *b* as
``new | sa1_mask[addr]`` with the mask positioned in plane *b* -- one
column OR applies the fault to hundreds of lanes at once.  Models keep
the plane-major layout behind the column/row helper surface
(:meth:`PackedMemoryArray.spread`,
:meth:`~PackedMemoryArray.shift_planes`,
:meth:`~PackedMemoryArray.row_to_plane`, the ``*_lanes`` mutators,
...) instead of touching the storage directly.  Models are built from
:meth:`repro.faults.base.Fault.vector_semantics` descriptors by
:mod:`repro.sim.batched`, which also owns universe partitioning and the
per-fault fallback.

Cycle-grouped (multi-port) streams execute natively: a ``"grp"`` marker
runs its k member records as *one memory cycle* -- every read senses the
pre-cycle columns, then the writes commit in member order -- with the
model's ``clock``/``settle`` hooks firing once per group and decoder
write-write conflicts folded into the detection mask through
:meth:`LaneFaultModel.group_write_conflicts`.  The only ``"grp"`` shapes
the executor still rejects are structurally invalid ones (a truncated
group, or a member kind outside ``w/r/s/ra/wa``); port-level validation
is :class:`~repro.sim.ir.OpStream`'s compile-time job.
"""

from __future__ import annotations

__all__ = ["PackedMemoryArray", "LaneFaultModel"]


class LaneFaultModel:
    """Per-lane fault semantics applied as column operations.

    The default implementation is a no-op (all lanes healthy).  Concrete
    models (:mod:`repro.sim.batched`) override the hooks they need; each
    hook receives and returns int lane columns (plane-major, see the
    module docstring -- for ``m == 1`` a column is simply a lane mask).
    """

    #: Set True by models that override :meth:`transform_read` (e.g. the
    #: stuck-open sense-latch model).  The executor checks the flag once
    #: per pass so the common read-transparent models pay nothing on the
    #: read hot path.
    transforms_reads = False

    #: Set True by models that override :meth:`settle` (e.g. the state
    #: coupling model).  Mirrors the scalar engine's settle fast path
    #: (:class:`repro.faults.injector.FaultInjector` only visits faults
    #: that override ``settle``): the executor checks the flag once per
    #: pass and most models pay nothing per record.
    settles = False

    #: Set True by models that need the stream's cycle clock (the
    #: retention model's decay timing).  The executor then calls
    #: :meth:`clock` once per record with the scalar engines' cycle
    #: counter semantics: the time *at which the record executes*
    #: (pre-increment), with reads and writes costing one cycle each,
    #: a whole cycle group costing one cycle, and ``"i"`` records
    #: adding their idle count.
    timed = False

    #: Set True by models that remap addresses to physical cells (the
    #: decoder model).  The executor then asks
    #: :meth:`group_write_conflicts` once per cycle group with the
    #: group's write addresses, so lanes whose mappings make two
    #: simultaneous writes land on one physical cell are detected --
    #: the lane-parallel analogue of the scalar executor's
    #: ``PortConflictError``-counts-as-detection contract.
    maps_addresses = False

    def install(self, memory: "PackedMemoryArray") -> None:
        """Force the initial state (e.g. stuck-at-1 lanes start at 1)
        and finish any mask that needs the memory's geometry.  Called
        once, before the first operation.  Default: nothing."""

    def clock(self, cycle: int) -> None:
        """Observe the stream clock before each record executes.  Only
        consulted when :attr:`timed` is True.  Default: nothing."""

    def transform_read(self, addr: int, sensed, port: int = 0):
        """Lane column actually *observed* when ``port`` reads ``addr``
        whose stored column is ``sensed`` (read-side state such as a
        sense latch lives in the model; per-port latches key on
        ``port``, which flat single-port streams always pass as 0).
        Only consulted when :attr:`transforms_reads` is True.
        Default: faithful."""
        return sensed

    def group_write_conflicts(self, addrs: tuple[int, ...]) -> int:
        """Int lane mask of the lanes where a cycle group writing
        ``addrs`` simultaneously drives one physical cell twice (through
        this model's per-lane address mapping).  Only consulted when
        :attr:`maps_addresses` is True.  Default: no lane conflicts."""
        return 0

    def transform_write(self, addr: int, old, new):
        """Lane column actually stored when writing ``new`` over ``old``
        at ``addr``.  Default: faithful."""
        return new

    def after_write(self, addr: int, old, committed,
                    memory: "PackedMemoryArray") -> None:
        """React to the committed write ``old -> committed`` at ``addr``
        (coupling models corrupt their victims here).  Default: nothing."""

    def settle(self, memory: "PackedMemoryArray") -> None:
        """Enforce steady-state conditions after each executed record --
        the lane-parallel analogue of :meth:`repro.faults.base.Fault
        .settle`, which the scalar engines run after every memory cycle
        (state coupling enforces its condition here).  A cycle group is
        one memory cycle: the hook fires once after the whole group's
        writes commit.  Only consulted when :attr:`settles` is True.
        Default: nothing."""


class PackedMemoryArray:
    """``n`` addresses x ``lanes`` independent ``m``-bit memory copies.

    Parameters
    ----------
    n:
        Number of addresses (cells) per memory copy.
    lanes:
        Number of parallel copies; each compiled-stream replay resolves
        one fault per lane.
    m:
        Bits per cell (1 = bit-oriented, the default).  Word-oriented
        copies store bit *b* of a cell in plane *b* of the column
        (bits ``[b * lanes, (b + 1) * lanes)``).

    Examples
    --------
    >>> packed = PackedMemoryArray(4, lanes=8)
    >>> packed.write_lanes(2, 0b1010_1010)
    >>> packed.lane_value(2, 1)
    1
    >>> packed.lane_value(2, 2)
    0
    >>> bin(packed.ones)
    '0b11111111'

    A word-oriented geometry packs one plane per bit:

    >>> wom = PackedMemoryArray(4, lanes=2, m=4)
    >>> wom.write_lanes(0, wom.broadcast(0b1010))
    >>> wom.lane_value(0, 0), wom.lane_value(0, 1)
    (10, 10)
    """

    __slots__ = ("_n", "_lanes", "_m", "_ones", "_full", "_replicate",
                 "words")

    def __init__(self, n: int, lanes: int, m: int = 1):
        if n < 1:
            raise ValueError(f"memory needs at least one cell, got n={n}")
        if lanes < 1:
            raise ValueError(f"need at least one lane, got {lanes}")
        if m < 1:
            raise ValueError(f"cells need at least one bit, got m={m}")
        self._n = n
        self._lanes = lanes
        self._m = m
        self._ones = (1 << lanes) - 1
        self._full = (1 << (m * lanes)) - 1
        #: plane-replication factor: lane rows (< 2**lanes) multiplied by
        #: it spread carry-free into every plane.
        self._replicate = sum(1 << (bit * lanes) for bit in range(m))
        self.words: list[int] = [0] * n

    # -- geometry --------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of addresses per memory copy."""
        return self._n

    @property
    def lanes(self) -> int:
        """Number of parallel memory copies."""
        return self._lanes

    @property
    def m(self) -> int:
        """Bits per cell (planes per column)."""
        return self._m

    @property
    def ones(self) -> int:
        """The all-lanes *plane* mask, ``(1 << lanes) - 1``."""
        return self._ones

    @property
    def full(self) -> int:
        """The all-planes all-lanes column mask, ``(1 << m*lanes) - 1``."""
        return self._full

    def __repr__(self) -> str:
        m = f", m={self._m}" if self._m != 1 else ""
        return f"PackedMemoryArray(n={self._n}, lanes={self._lanes}{m})"

    # -- column/row algebra (the lane-model helper surface) --------------------
    #
    # A *column* is one address's full plane-major bit matrix (``m *
    # lanes`` bits); a *row* is one plane's lane mask (``lanes`` bits).
    # Both are plain ints; lane models place bits only through these
    # helpers, so the plane-major layout stays in this class.

    def broadcast(self, value: int) -> int:
        """The column storing m-bit ``value`` in every lane.

        >>> PackedMemoryArray(2, lanes=4, m=2).broadcast(0b10)
        240
        """
        if not 0 <= value < (1 << self._m):
            raise ValueError(
                f"value {value!r} does not fit an m={self._m}-bit cell"
            )
        if self._m == 1:
            return self._ones if value else 0
        column = 0
        shift = 0
        lanes = self._lanes
        ones = self._ones
        while value:
            if value & 1:
                column |= ones << shift
            value >>= 1
            shift += lanes
        return column

    def lane_mask(self, column: int) -> int:
        """Collapse a column to a lane mask: lane *k* is set when any
        plane of lane *k* is set in ``column`` (the detection fold).

        >>> PackedMemoryArray(2, lanes=4, m=2).lane_mask(0b0001_1000)
        9
        """
        lanes = self._lanes
        mask = column & self._ones
        rest = column >> lanes
        while rest:
            mask |= rest & self._ones
            rest >>= lanes
        return mask

    def spread(self, row: int) -> int:
        """The column with ``row`` replicated into every plane (the mask
        that selects *whole cells* of the row's lanes)."""
        return row * self._replicate

    def row_to_plane(self, row: int, bit: int) -> int:
        """The column with ``row`` positioned in plane ``bit`` only."""
        return row << (bit * self._lanes)

    def shift_planes(self, column: int, delta: int) -> int:
        """``column`` moved ``delta`` planes up (negative: down); planes
        shifted out of range are dropped.  This is the aggressor-plane ->
        victim-plane repositioning coupling models use."""
        if delta == 0:
            return column
        shifted = column << (delta * self._lanes) if delta > 0 \
            else column >> (-delta * self._lanes)
        return shifted & self._full

    def plane(self, addr: int, bit: int) -> int:
        """Plane ``bit`` of the column at ``addr``, as a row."""
        return (self.words[addr] >> (bit * self._lanes)) & self._ones

    def match_lanes(self, addr: int, value_column: int) -> int:
        """Row of the lanes whose *whole m-bit cell* at ``addr`` equals
        the value ``value_column`` broadcasts."""
        return self._ones & ~self.lane_mask(self.words[addr] ^ value_column)

    # -- access ----------------------------------------------------------------

    def read_lanes(self, addr: int) -> int:
        """The lane column stored at ``addr``."""
        return self.words[addr]

    def write_lanes(self, addr: int, mask: int) -> None:
        """Replace the lane column stored at ``addr``."""
        self.words[addr] = mask & self._full

    def or_lanes(self, addr: int, column: int) -> None:
        """Set ``column``'s bits at ``addr``."""
        self.words[addr] |= column

    def andnot_lanes(self, addr: int, column: int) -> None:
        """Clear ``column``'s bits at ``addr``."""
        self.words[addr] &= ~column

    def xor_lanes(self, addr: int, column: int) -> None:
        """Toggle ``column``'s bits at ``addr``."""
        self.words[addr] ^= column

    def blend_lanes(self, addr: int, select: int, value_column: int) -> None:
        """Replace the ``select``-masked bits at ``addr`` with
        ``value_column``'s (the column analogue of a bit-select mux)."""
        self.words[addr] = (self.words[addr] & ~select) \
            | (value_column & select)

    def lane_value(self, addr: int, lane: int) -> int:
        """The m-bit value cell ``addr`` holds in copy ``lane``."""
        if not 0 <= lane < self._lanes:
            raise IndexError(f"lane {lane} out of range [0, {self._lanes})")
        column = self.words[addr] >> lane
        if self._m == 1:
            return column & 1
        value = 0
        for bit in range(self._m):
            value |= ((column >> (bit * self._lanes)) & 1) << bit
        return value

    def dump_lane(self, lane: int) -> list[int]:
        """Snapshot of one memory copy's cells (for debugging/tests)."""
        if not 0 <= lane < self._lanes:
            raise IndexError(f"lane {lane} out of range [0, {self._lanes})")
        return [self.lane_value(addr, lane) for addr in range(self._n)]

    # -- bulk replay -----------------------------------------------------------

    def apply_stream(self, ops, tables=(), model: LaneFaultModel | None = None,
                     detected: int = 0,
                     stop_when_all_detected: bool = True,
                     captured: list | None = None) -> tuple[int, int]:
        """Replay compiled op records against every lane simultaneously.

        Executes the :mod:`repro.sim` IR (records
        ``(kind, port, addr, value, expected, idle)``, see
        :mod:`repro.sim.ir`) lane-parallel.  Values and expectations
        broadcast to all lanes; ``model`` applies per-lane fault
        semantics.  A checked read that mismatches its expectation in
        lane *k* (in any bit plane) marks lane *k* detected; replay
        stops early once *every* lane is detected (the batched analogue
        of the scalar engine's first-mismatch abort -- later mismatches
        cannot change any verdict because detection is monotone).

        ``"ra"``/``"wa"`` accumulator ops keep one m-bit accumulator
        column *per accumulator id* (the record's sixth slot, exactly
        like the scalar executors' per-id dicts), so recurrence write
        data is recomputed from each lane's actual (possibly corrupted)
        reads -- the scalar replay semantics, lane-parallel.  GF(2^m)
        constant multipliers lower each ``OpStream.tables`` entry to a
        per-plane shift/XOR plan once per pass (multiplication by a
        constant is GF(2)-linear), so a multiply costs a handful of
        column ops per record.  ``"i"`` idles execute no operation but
        advance the model clock (retention decay) and fire the model's
        ``settle`` hook, mirroring the scalar engines.

        ``"grp"`` cycle groups execute as one memory cycle: all of the
        group's reads (``"r"``/``"s"``/``"ra"``) sense the *pre-cycle*
        columns, then the writes commit in member order, with the
        model's ``clock``/``settle`` hooks firing once per group and
        per-lane decoder write-write conflicts folded into the detection
        mask (:meth:`LaneFaultModel.group_write_conflicts`) -- exactly
        the scalar :meth:`repro.memory.multiport.MultiPortRAM
        .apply_stream` cycle semantics, lane-parallel.  Structural
        validation (member count vs ports, distinct ports, one write
        per address) is :class:`~repro.sim.ir.OpStream`'s compile-time
        job; the executor re-checks only truncated groups and member
        kinds outside ``w/r/s/ra/wa``.

        Parameters
        ----------
        ops:
            Sequence of op records (usually ``OpStream.ops``).
        tables:
            ``OpStream.tables`` constant-multiplier tables; for ``m == 1``
            (GF(2)) a table can only encode multiply-by-0 or -1.
        model:
            Per-lane fault semantics; None replays healthy lanes.
        detected:
            Initial detected-lane mask (continue a partial campaign).
        stop_when_all_detected:
            Disable to force a full replay even once every lane is
            detected (e.g. to inspect final per-lane memory state).
        captured:
            Optional list collecting the *observed lane column* of every
            ``"s"`` (signature) read as a plain int, in order -- the
            lane-parallel analogue of the scalar executors' per-value
            ``captured`` list (bit ``b * lanes + k`` is bit *b* of the
            value lane *k* observed).  Pass
            ``stop_when_all_detected=False`` when the capture list must
            cover the whole stream.

        Returns ``(detected, executed)``: the final detected-lane mask
        and the number of operation
        records executed, once per *pass*, not per lane.  Like the
        scalar executors, ``executed`` counts every read and write
        record -- ``"w"``/``"r"``/``"s"`` and the ``"ra"``/``"wa"``
        recurrence ops -- while ``"i"`` idles are free.

        >>> packed = PackedMemoryArray(2, lanes=3)
        >>> packed.apply_stream([("w", 0, 0, 1, None, 0),
        ...                      ("r", 0, 0, None, 1, 0)])
        (0, 2)
        """
        if model is None:
            model = _NO_FAULTS
        if self._m == 1:
            return self._apply_stream_bit(ops, tables, model, detected,
                                          stop_when_all_detected, captured)
        return self._apply_stream_word(ops, tables, model, detected,
                                       stop_when_all_detected, captured)

    def _apply_stream_bit(self, ops, tables, model, detected,
                          stop_when_all_detected, captured):
        """The bit-oriented (m == 1) executor: one bit per lane."""
        words = self.words
        ones = self._ones
        executed = 0
        accs: dict[int, int] = {}
        transform_write = model.transform_write
        after_write = model.after_write
        # Hoisted flags: read-transparent / settle-free models (the
        # common case) skip the hooks entirely, keeping the checked-read
        # fast path to one XOR per record.
        transform_read = model.transform_read if model.transforms_reads \
            else None
        settle = model.settle if model.settles else None
        clock = model.clock if model.timed else None
        conflicts = model.group_write_conflicts if model.maps_addresses \
            else None
        cycle = 0
        index = 0
        end = len(ops)
        while index < end:
            kind, _port, addr, value, expected, idle = ops[index]
            if kind not in ("w", "wa", "r", "s", "ra", "i", "grp"):
                raise ValueError(f"unknown op kind {kind!r}")
            if clock is not None:
                clock(cycle)
            if kind == "w" or kind == "wa":
                if kind == "w":
                    new = ones if value else 0
                else:
                    new = accs.get(idle, 0) ^ (ones if value else 0)
                    accs[idle] = 0
                old = words[addr]
                new = transform_write(addr, old, new)
                words[addr] = new
                after_write(addr, old, new, self)
                executed += 1
                cycle += 1
            elif kind == "r" or kind == "s":
                executed += 1
                cycle += 1
                observed = words[addr] if transform_read is None \
                    else transform_read(addr, words[addr], _port)
                if kind == "s" and captured is not None:
                    captured.append(observed)
                diff = observed ^ (ones if expected else 0)
                if diff:
                    detected |= diff
                    if detected == ones and stop_when_all_detected:
                        return detected, executed
            elif kind == "ra":
                executed += 1
                cycle += 1
                # Decode the stored-data inversion, then add the lane's
                # recurrence term into its accumulator bit.  In GF(2) the
                # only non-zero multiplier is 1, so the table either
                # passes the difference through or annihilates it.
                observed = words[addr] if transform_read is None \
                    else transform_read(addr, words[addr], _port)
                diff = observed ^ (ones if expected else 0)
                if diff and (value is None or tables[value][1]):
                    accs[idle] = accs.get(idle, 0) ^ diff
            elif kind == "i":
                cycle += idle
            elif kind == "grp":
                count = value
                stop = index + 1 + count
                if stop > end:
                    raise ValueError(
                        f"op {index}: group announces {count} members "
                        f"but the stream slice ends at {end}"
                    )
                if count == 1:
                    # One op in one cycle: the flat handling above is
                    # equivalent and cheaper.
                    index += 1
                    continue
                # Phase A: resolve the stored values ("wa" consumes its
                # accumulator as of the cycle start) and collect the
                # pending writes in member order.
                pending = None
                for member in range(index + 1, stop):
                    rec = ops[member]
                    rkind = rec[0]
                    if rkind in ("r", "s", "ra"):
                        continue
                    if rkind not in ("w", "wa"):
                        raise ValueError(
                            f"cycle {cycle}: {rkind!r} records cannot "
                            "appear inside a cycle group"
                        )
                    if rkind == "w":
                        stored = ones if rec[3] else 0
                    else:
                        acc_id = rec[5]
                        stored = accs.get(acc_id, 0) ^ (ones if rec[3]
                                                        else 0)
                        accs[acc_id] = 0
                    if pending is None:
                        pending = []
                    pending.append((rec[2], stored))
                # Decoder write-write conflicts detect the lane -- the
                # scalar executor raises PortConflictError, which the
                # campaign counts as a detection.
                if pending is not None and conflicts is not None:
                    detected |= conflicts(
                        tuple(waddr for waddr, _ in pending)) & ones
                # Phase B: every read senses the pre-cycle columns.
                for member in range(index + 1, stop):
                    rec = ops[member]
                    rkind = rec[0]
                    if rkind == "w" or rkind == "wa":
                        continue
                    raddr = rec[2]
                    observed = words[raddr] if transform_read is None \
                        else transform_read(raddr, words[raddr], rec[1])
                    diff = observed ^ (ones if rec[4] else 0)
                    if rkind == "ra":
                        if diff and (rec[3] is None or tables[rec[3]][1]):
                            accs[rec[5]] = accs.get(rec[5], 0) ^ diff
                        continue
                    if rkind == "s" and captured is not None:
                        captured.append(observed)
                    if diff:
                        detected |= diff
                # Phase C: commit the writes in member order.  The cycle
                # is atomic, so the all-detected early abort waits until
                # after the commits (matching the scalar executor, whose
                # aborting cycle still completes).
                if pending is not None:
                    for waddr, stored in pending:
                        old = words[waddr]
                        stored = transform_write(waddr, old, stored)
                        words[waddr] = stored
                        after_write(waddr, old, stored, self)
                executed += count
                cycle += 1
                if settle is not None:
                    settle(self)
                if detected == ones and stop_when_all_detected:
                    return detected, executed
                index = stop
                continue
            if settle is not None:
                settle(self)
            index += 1
        return detected, executed

    def _apply_stream_word(self, ops, tables, model, detected,
                           stop_when_all_detected, captured):
        """The word-oriented (m > 1) executor: m planes per lane.

        Same record semantics as the bit executor with three geometry
        generalisations: write values and read expectations broadcast
        through a per-value column cache, a checked-read mismatch folds
        its column onto the lane mask (any plane differing detects the
        lane), and ``"ra"`` multipliers run their lowered per-plane
        shift/XOR plan (see :meth:`_lower_table`).
        """
        words = self.words
        lanes = self._lanes
        ones = self._ones
        executed = 0
        accs: dict[int, int] = {}
        columns: dict[int, int] = {}  # m-bit value -> broadcast column
        plans: dict[int, list] = {}  # table index -> shift/XOR plan
        broadcast = self.broadcast
        lane_mask = self.lane_mask
        transform_write = model.transform_write
        after_write = model.after_write
        transform_read = model.transform_read if model.transforms_reads \
            else None
        settle = model.settle if model.settles else None
        clock = model.clock if model.timed else None
        conflicts = model.group_write_conflicts if model.maps_addresses \
            else None
        cycle = 0
        index = 0
        end = len(ops)
        while index < end:
            kind, _port, addr, value, expected, idle = ops[index]
            if kind not in ("w", "wa", "r", "s", "ra", "i", "grp"):
                raise ValueError(f"unknown op kind {kind!r}")
            if clock is not None:
                clock(cycle)
            if kind == "w" or kind == "wa":
                new = columns.get(value)
                if new is None:
                    new = columns[value] = broadcast(value)
                if kind == "wa":
                    new ^= accs.get(idle, 0)
                    accs[idle] = 0
                old = words[addr]
                new = transform_write(addr, old, new)
                words[addr] = new
                after_write(addr, old, new, self)
                executed += 1
                cycle += 1
            elif kind == "r" or kind == "s":
                executed += 1
                cycle += 1
                observed = words[addr] if transform_read is None \
                    else transform_read(addr, words[addr], _port)
                if kind == "s" and captured is not None:
                    captured.append(observed)
                expect = columns.get(expected)
                if expect is None:
                    expect = columns[expected] = broadcast(expected)
                diff = observed ^ expect
                if diff:
                    detected |= lane_mask(diff)
                    if detected == ones and stop_when_all_detected:
                        return detected, executed
            elif kind == "ra":
                executed += 1
                cycle += 1
                observed = words[addr] if transform_read is None \
                    else transform_read(addr, words[addr], _port)
                expect = columns.get(expected)
                if expect is None:
                    expect = columns[expected] = broadcast(expected)
                diff = observed ^ expect
                if diff:
                    if value is None:  # multiplier 1: add the raw diff
                        accs[idle] = accs.get(idle, 0) ^ diff
                    else:
                        plan = plans.get(value)
                        if plan is None:
                            plan = plans[value] = \
                                self._lower_table(tables[value])
                        acc = accs.get(idle, 0)
                        for src_shift, dst_shifts in plan:
                            plane = (diff >> src_shift) & ones
                            if plane:
                                for dst_shift in dst_shifts:
                                    acc ^= plane << dst_shift
                        accs[idle] = acc
            elif kind == "i":
                cycle += idle
            elif kind == "grp":
                count = value
                stop = index + 1 + count
                if stop > end:
                    raise ValueError(
                        f"op {index}: group announces {count} members "
                        f"but the stream slice ends at {end}"
                    )
                if count == 1:
                    index += 1
                    continue
                # Phase A: resolve stored values, collect pending writes.
                pending = None
                for member in range(index + 1, stop):
                    rec = ops[member]
                    rkind = rec[0]
                    if rkind in ("r", "s", "ra"):
                        continue
                    if rkind not in ("w", "wa"):
                        raise ValueError(
                            f"cycle {cycle}: {rkind!r} records cannot "
                            "appear inside a cycle group"
                        )
                    stored = columns.get(rec[3])
                    if stored is None:
                        stored = columns[rec[3]] = broadcast(rec[3])
                    if rkind == "wa":
                        acc_id = rec[5]
                        stored ^= accs.get(acc_id, 0)
                        accs[acc_id] = 0
                    if pending is None:
                        pending = []
                    pending.append((rec[2], stored))
                if pending is not None and conflicts is not None:
                    detected |= conflicts(
                        tuple(waddr for waddr, _ in pending)) & ones
                # Phase B: reads sense the pre-cycle columns.
                for member in range(index + 1, stop):
                    rec = ops[member]
                    rkind = rec[0]
                    if rkind == "w" or rkind == "wa":
                        continue
                    raddr = rec[2]
                    observed = words[raddr] if transform_read is None \
                        else transform_read(raddr, words[raddr], rec[1])
                    expect = columns.get(rec[4])
                    if expect is None:
                        expect = columns[rec[4]] = broadcast(rec[4])
                    diff = observed ^ expect
                    if rkind == "ra":
                        if diff:
                            if rec[3] is None:
                                accs[rec[5]] = accs.get(rec[5], 0) ^ diff
                            else:
                                plan = plans.get(rec[3])
                                if plan is None:
                                    plan = plans[rec[3]] = \
                                        self._lower_table(tables[rec[3]])
                                acc = accs.get(rec[5], 0)
                                for src_shift, dst_shifts in plan:
                                    plane = (diff >> src_shift) & ones
                                    if plane:
                                        for dst_shift in dst_shifts:
                                            acc ^= plane << dst_shift
                                accs[rec[5]] = acc
                        continue
                    if rkind == "s" and captured is not None:
                        captured.append(observed)
                    if diff:
                        detected |= lane_mask(diff)
                # Phase C: commit in member order; the cycle is atomic,
                # so the all-detected abort waits for the commits.
                if pending is not None:
                    for waddr, stored in pending:
                        old = words[waddr]
                        stored = transform_write(waddr, old, stored)
                        words[waddr] = stored
                        after_write(waddr, old, stored, self)
                executed += count
                cycle += 1
                if settle is not None:
                    settle(self)
                if detected == ones and stop_when_all_detected:
                    return detected, executed
                index = stop
                continue
            if settle is not None:
                settle(self)
            index += 1
        return detected, executed

    def _lower_table(self, table) -> list[tuple[int, list[int]]]:
        """Per-plane shift/XOR plan of one constant-multiplier table.

        GF(2^m) multiplication by a constant is linear over GF(2), so
        ``table[x]`` is the XOR over the set bits *i* of ``x`` of the
        basis images ``table[1 << i]``.  The plan lists, for every input
        plane *i* that contributes at all, the output-plane shifts its
        lanes XOR into -- applying a multiplier to a whole column is
        then at most m x m big-int ops, independent of the lane count.
        """
        lanes = self._lanes
        plan: list[tuple[int, list[int]]] = []
        for src in range(self._m):
            column = table[1 << src]
            dst_shifts = [dst * lanes for dst in range(self._m)
                          if (column >> dst) & 1]
            if dst_shifts:
                plan.append((src * lanes, dst_shifts))
        return plan


_NO_FAULTS = LaneFaultModel()
