"""Discrete-event media controller: queues, priority scheduling, pre-write
reads, rewrite merging, write draining, and bank timing.

A host write is one command, serviced twice: first its pre-write read, which
returns the old line contents for counting flips and prepares the write, then
the write itself. Scheduling is priority-classed FCFS: Rewrite > HostRead >
PreWriteRead > (HostWrite | Writeback), with one exception: once a write
queue fills, its prepared writes drain ahead of pre-write reads until
occupancy falls to the low watermark. The run is fully deterministic for a
given (config, trace, seed).

A bank keeps its queued commands per kind, so a decision looks only at queue
heads: FIFOs of rewrites and of host reads, and seq-ordered heaps of prepared
host writes and writebacks and of unprepared host writes whose pre-write read
may run. A per-line index maps each line to its queued writes in seq order;
`read_q` and `write_q` count. The engine owns them: `_enqueue` files a
command by kind and line, and `_service` pops it from the head of its queue
in one branch per phase (a host read; a pre-write read, which prepares its
write; a write). A pre-write read must observe every older write to its line,
so it may run once its write is the line's oldest queued write: at enqueue,
or when the write ahead of it leaves. A rewrite is full, programming every
cell, and any other write differential, until a fresh rewrite merges into it
as its line's oldest queued write. A record's address is decoded ahead of
its admission, in a window of at most `DECODE_WINDOW` records that starts
at the first record submitted outside the last window; retries reuse it, and
a run keeps one window at a time. A window ends before the first address
outside the module, so that record's first submit decodes it alone, and
`TraceAbort` names it.

The strategy is one `Mitigation` per bank (see `baselines`), built from the
`MITIGATIONS` table. The engine calls only its hooks, and each write hook
returns one `Outcome`, the tables' part: the engine owns the queues and the
media, skips the queue and the media for an absorbed write, merges the
outcome's rewrites, queues its writeback, writes every other serviced write
to the media and occupies the bank for both latencies. Rewrites and
writebacks skip the tables; VnC's hook writes and verifies by itself.

`Engine.run` makes one pass over the banks per event. At time `now` it admits
the records due, until one is refused, and then one pass services each idle
bank with queued commands and takes the wake time: the earliest of the next
record's time, `due` (infinite after the last record), and the `busy_until`
of every bank that still has queued commands, a bank that just issued
counting with its new one. The loop then jumps to the wake time, unless the
pass issued and a refused record is due: that record is retried at once, and
only if it is admitted does another pass run at `now`. No pass is skipped
that could issue, because of three invariants:

- I1. Every service occupies its bank for at least 1 ns, so a bank that
  issued at `now` is busy at `now` (`_service` checks a host write's
  latency and `_maintain` a rewrite's or a writeback's; a read takes
  `read_ns`, which the config requires to be positive).
- I2. A service enqueues only into the bank it services: rewrites go to
  neighbour rows, in the same rank and bank, and writebacks come from that
  bank's own tables. A service never gives another bank work (`_take`
  checks every outcome before it serves or queues any of it).
- I3. A refused `submit` has no side effect, so the pass's wake time still
  holds after it.

On a paced trace most records find the controller idle, and `submit`
serves them without the loop. A fourth invariant makes that exact:

- I4. While no bank holds a queued command (`_admitted == _serviced`),
  `submit` hands over work in this order: a host read, or a host write's
  pre-write read and write, and then the rewrites, in order, and the
  writeback that the write's hook returns; an `admit_write` hook that
  absorbs its write hands over its rewrites and writeback alone. Queued,
  each piece would be picked when its bank is next idle, at `start =
  max(now, busy_until)`, a host write's write as its pre-write read ends.
  Until the next record is due, those picks see only this work: the other
  banks hold nothing, and nothing else is admitted. So while the next record
  is due strictly after a pick's last phase starts, `submit` makes that
  pick at once, at `start`, with the hook, media calls, counts and I1 check
  of `_service`, and the drain state that `next_command` would set from the
  number of queued writes alone; `busy_until` ends where that service
  would leave it. The first pick that the next record's admission would
  precede is not made: its work and all that follows it are queued, at the
  time they were handed over, and the loop picks them as it would have.
  I1-I3 hold for every pick made at once.

  A host read is served at admission: it gets no `Command`, is filed
  nowhere and takes no pick. `submit` counts it admitted and serviced, sets
  the drain state as its pick would (no write is queued, and 0 is at most
  the low watermark, so the pick would end a drain) and runs its one phase,
  `_read`, which the queue path's service of a host read runs too.

  A host write is filed by kind, where `next_command` looks, picked once
  and serviced by `_service`, both phases in one call: its hook takes the
  `Command`. Its two picks would see the same number of queued writes, one,
  so one pick sets the drain state as two would. It is not filed by line:
  no other write to its line is queued, and none merges into it before its
  write, since its hook runs only after it has left.

  Rewrites and a writeback go to `_take`, the one handler of a hook's
  outcome, queued or not. It serves each item it can at once, with the
  drain state set from the items not yet served, as each pick would count
  them, and queues the rest. A hook's rewrites name distinct lines (the
  neighbours of one line), so none would have merged into another, and no
  other write is queued to merge into. Served at once or queued, a rewrite
  or a writeback makes its one media write in `_maintain`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from random import Random

from .baselines import Mitigation, Outcome, SiwcCache, vnc_wrap_write
from .core import (ConsistencyError, LineAddress, RangeError, SimConfig,
                   _new_tuple, decompose_address, decompose_addresses)
from .imdb import Imdb
from .media import CellArray
from .metrics import RunStats, energy_total
from .traces import TraceRecord


# Records whose addresses `submit` decodes in one call: a window bounds the
# memory that decoding ahead takes, whatever the trace's length.
DECODE_WINDOW = 1024

_byte_addr = itemgetter(2)  # of a TraceRecord

# The command kinds, compared by identity.
HOST_READ = "host-read"
HOST_WRITE = "host-write"
REWRITE = "rewrite"
WRITEBACK = "writeback"


@dataclass(eq=False, slots=True)
class Command:
    # The engine builds commands positionally, in this field order: with
    # keywords a command costs about twice as much to build.
    kind: str
    addr: LineAddress
    data: int | None = None
    full: bool = False
    prepared: bool = False
    old_data: int | None = None
    enqueue_time: int = 0
    seq: int = 0


class _Bank:
    """One bank's queued commands, indexed per kind and per line, its timing
    and its mitigation. A record: `Engine._enqueue` is the only code that
    adds to its containers and `Engine._service` the only code that takes
    from them."""

    __slots__ = ("read_q", "write_q", "rewrites", "host_reads", "ready_pres",
                 "ready_writes", "lines", "busy_until", "draining",
                 "mitigation")

    def __init__(self, mitigation: Mitigation):
        self.mitigation = mitigation
        self.read_q: dict[Command, None] = {}   # host reads, unprepared writes
        self.write_q: dict[Command, None] = {}  # every queued write
        self.rewrites: deque[Command] = deque()
        self.host_reads: deque[Command] = deque()
        self.ready_pres: list[tuple[int, Command]] = []    # heap by seq
        self.ready_writes: list[tuple[int, Command]] = []  # heap by seq
        self.lines: dict[LineAddress, list[Command]] = {}  # queued writes
        self.busy_until = 0
        self.draining = False


class Vnc(Mitigation):
    """Verify-and-correct: every host write runs through `vnc_wrap_write`,
    which writes the line itself, so the hook absorbs it."""

    def write(self, media: CellArray, cmd: Command, rng: Random) -> Outcome:
        out, _ = vnc_wrap_write(media, cmd.addr, cmd.data, self.cfg)
        return _new_tuple(Outcome, (True, None, (), out.latency_ns))


MITIGATIONS: dict[str, type[Mitigation]] = {
    "none": Mitigation,
    "vnc": Vnc,
    "siwc": SiwcCache,
    "imdb": Imdb,
}


class TraceAbort(RuntimeError):
    """A trace record could not be applied (bad address); names the record."""

    def __init__(self, record_no: int, message: str):
        super().__init__(record_no, message)  # picklable: `sweep --jobs`
        self.record_no = record_no

    def __str__(self) -> str:
        return f"record {self.record_no}: {self.args[1]}"


class Engine:
    def __init__(self, cfg: SimConfig, trace: list[TraceRecord]):
        self.cfg = cfg
        self.trace = trace
        self.media = CellArray(cfg)
        self.rng = Random(cfg.seed)
        self.stats = RunStats()
        g = self._geometry = cfg.geometry
        self._banks_per_rank = g.banks_per_rank
        self._read_ns = cfg.read_ns
        self._depth = cfg.queue_depth
        self._low_watermark = cfg.drain_watermark
        strategy = MITIGATIONS[cfg.strategy]
        self.banks = [_Bank(strategy(cfg, self.stats))
                      for _ in range(g.num_banks)]
        self._seq = 0
        self._admitted = 0
        self._serviced = 0
        # (address, bank) of records _first, _first + 1, ..., up to _end;
        # empty until the first submit, so that building an engine decodes
        # nothing
        self._window: list[tuple[LineAddress, _Bank]] = []
        self._first = self._end = 0

    # -- helpers -------------------------------------------------------------

    def _bank(self, addr: LineAddress) -> _Bank:
        """The bank of `addr`, in the flat numbering across ranks."""
        return self.banks[addr[0] * self._banks_per_rank + addr[1]]

    # -- admission -----------------------------------------------------------

    def submit(self, record: TraceRecord, record_no: int, now: int) -> bool:
        """Admit one trace record. Returns False on backpressure; the retry
        of the same record reuses its decoded address. Work handed to an
        idle controller is serviced before this returns when the loop would
        service it before the next record is due (I4); a host read then
        never enters a queue."""
        # one unpack: reading a NamedTuple's fields by name is slower
        _, op, byte_addr, data = record
        if not self._first <= record_no < self._end:
            self._decode(byte_addr, record_no)
        addr, bank = self._window[record_no - self._first]
        depth = self._depth

        if op == "R":
            # Backpressure is checked first so a retried record never
            # re-runs strategy side effects.
            if len(bank.read_q) >= depth:
                return False
            self.stats.host_reads += 1
            if bank.mitigation.process_read(addr) is not None:
                return True
            kind = HOST_READ
        else:
            if len(bank.write_q) >= depth or len(bank.read_q) >= depth:
                return False
            self.stats.host_writes += 1
            absorbed, writeback, rewrites, _ = bank.mitigation.admit_write(
                addr, data, self.rng)
            if writeback is not None or rewrites:
                idle = absorbed and self._admitted == self._serviced  # I4
                self._take(bank, addr, writeback, rewrites, now,
                           self._next_due(record_no) if idle else None)
            if absorbed:
                return True
            kind = HOST_WRITE
        if self._admitted == self._serviced:  # I4: each pick at `start`
            start = bank.busy_until if bank.busy_until > now else now
            due = self._next_due(record_no)
            if due > (start if kind is HOST_READ else start + self._read_ns):
                if kind is HOST_READ:  # served at admission, unfiled
                    self._admitted += 1
                    self._serviced += 1
                    # as a pick would: no write is queued
                    bank.draining = False
                    self._read(bank, addr, start)
                    return True
                cmd = self._enqueue(bank, kind, addr, data, now, True)
                if self.next_command(bank, start) is not cmd:
                    raise _not_at_head(cmd)
                self._service(bank, cmd, start, due)
                return True
        self._enqueue(bank, kind, addr, data, now)
        return True

    def _decode(self, byte_addr: int, record_no: int) -> None:
        """Decode the window of records from `record_no`, whose address is
        `byte_addr`, on through the trace: at most `DECODE_WINDOW` records,
        ending before the first address outside the module. Raises
        TraceAbort if `byte_addr` is outside it."""
        byte_addrs = [byte_addr]
        byte_addrs += map(_byte_addr,
                          self.trace[record_no + 1:record_no + DECODE_WINDOW])
        addrs, flat_banks = decompose_addresses(byte_addrs, self._geometry)
        if not addrs:
            try:  # the message, from the one decoder that gives one
                decompose_address(byte_addr, self._geometry)
            except RangeError as exc:
                raise TraceAbort(record_no, str(exc)) from exc
        banks = map(self.banks.__getitem__, flat_banks)
        self._window = list(zip(addrs, banks))
        self._first = record_no
        self._end = record_no + len(addrs)

    def _next_due(self, record_no: int) -> float:
        """The next record's time; infinite after the last record."""
        try:
            return self.trace[record_no + 1][0]
        except IndexError:
            return float("inf")

    def _enqueue(self, bank: _Bank, kind: str, addr: LineAddress,
                 data: int | None, now: int, at_once: bool = False) -> Command:
        """The one way into a bank queue: number a new command, file it by
        kind and line, and count the services it owes. A rewrite is full and
        any other write differential. A host write is queued unprepared and
        serviced twice, first for its pre-write read. A host write to be
        serviced `at_once` (I4) is filed only by kind, where it is picked."""
        self._seq = seq = self._seq + 1
        cmd = Command(kind, addr, data, kind is REWRITE,
                      kind is not HOST_WRITE, None, now, seq)
        self._admitted += 1
        if kind is HOST_READ:
            bank.read_q[cmd] = None
            bank.host_reads.append(cmd)
            return cmd
        bank.write_q[cmd] = None
        if kind is HOST_WRITE:
            self._admitted += 1  # the pre-write read
            bank.read_q[cmd] = None
            if at_once:  # the bank holds no other command: a heap of one
                bank.ready_pres.append((seq, cmd))
                return cmd
        line = bank.lines.setdefault(addr, [])
        line.append(cmd)
        if kind is REWRITE:
            bank.rewrites.append(cmd)
        elif kind is WRITEBACK:
            heappush(bank.ready_writes, (seq, cmd))
        elif line[0] is cmd:
            # A pre-write read must observe every older write to its line,
            # or the write would count flips against stale contents.
            heappush(bank.ready_pres, (seq, cmd))
        return cmd

    def _take(self, bank: _Bank, addr: LineAddress, writeback: tuple | None,
              rewrites: list | tuple, now: int, due: float | None) -> None:
        """The one handler of what a write hook's `Outcome` returned at `now`
        for the host write to `addr`: its rewrites, in order, and then its
        writeback, all in `bank`, the bank of `addr` (I2). An item is served
        at once (I4) while the next record, due at `due`, is due after the
        item's pick would start, at `max(now, busy_until)`, with the drain
        state that pick would set from the items not yet served. From the
        first item that cannot start in time, or with `due` None, each
        rewrite is merged and the writeback queued at `now`, past
        backpressure. This maintenance traffic skips the counting tables, so
        it never triggers more of itself. Most outcomes return neither, and
        the callers then skip the call."""
        items = [(target, None) for target in rewrites]  # None: intended data
        if writeback is not None:
            items.append(writeback)
        for target, data in items:  # `Engine.run` relies on I2
            if target[0] != addr[0] or target[1] != addr[1]:
                raise ConsistencyError(
                    f"a write to rank {addr[0]} bank {addr[1]} returned a "
                    f"{REWRITE if data is None else WRITEBACK} to rank "
                    f"{target[0]} bank {target[1]}")
        left = len(items)  # what the next pick would find queued
        for target, data in items:
            if due is not None:
                start = bank.busy_until if bank.busy_until > now else now
                if due > start:
                    if left >= self._depth:
                        bank.draining = True
                    if bank.draining and left <= self._low_watermark:
                        bank.draining = False
                    left -= 1
                    self._admitted += 1
                    self._serviced += 1
                    self._maintain(bank, target, data, data is None, start)
                    continue
                due = None  # this item and every one after it are queued
            if data is None:
                self.merge_rewrite(target, now)
            else:
                self._enqueue(bank, WRITEBACK, target, data, now)
        if writeback is not None:
            self.stats.writebacks += 1

    # -- rewrite merging -------------------------------------------------------

    def merge_rewrite(self, addr: LineAddress, now: int) -> bool:
        """Coalesce a freshly generated rewrite with the oldest queued write
        to the same line; otherwise enqueue it (data comes from the intended
        shadow at service time)."""
        bank = self._bank(addr)
        line = bank.lines.get(addr)
        if line:
            line[0].full = True  # latest data retained
            self.stats.merges += 1
            return True
        self._enqueue(bank, REWRITE, addr, None, now)
        return False

    # -- scheduling ------------------------------------------------------------

    def next_command(self, bank: _Bank, now: int) -> Command | None:
        writes = len(bank.write_q)
        if writes >= self._depth:
            bank.draining = True
        if bank.draining and writes <= self._low_watermark:
            bank.draining = False

        if bank.rewrites:
            return bank.rewrites[0]
        if bank.host_reads:
            return bank.host_reads[0]
        if bank.ready_writes and (bank.draining or not bank.ready_pres):
            return bank.ready_writes[0][1]
        if bank.ready_pres:
            return bank.ready_pres[0][1]
        return None

    # -- service ---------------------------------------------------------------

    def _read(self, bank: _Bank, addr: LineAddress, now: int) -> None:
        """A host read's one phase, queued or served at admission (I4): read
        the line, count it exposed if it differs from its intended data, and
        occupy the bank for `read_ns`."""
        media = self.media
        if media.read_line(addr) != media.intended_line(addr):
            self.stats.wde_exposed += 1
        bank.busy_until = now + self._read_ns  # > now (I1)

    def _service(self, bank: _Bank, cmd: Command, now: int,
                 due: float | None = None) -> None:
        """Take `cmd` from the head of its queue and run its next phase: a
        host read; a pre-write read, which prepares its write; a host write;
        or a rewrite's or writeback's media write, by `_maintain`. The bank
        is busy from `now` for the phase's latency: each read returns as it
        sets `read_ns`, and a write checks its own (I1). What a host write's
        hook returns, if anything, goes to `_take` once the write has left.
        A host write serviced at once (I4), with the next record `due`, was
        never filed by line: its write follows in the same call, as its
        pre-write read ends, and `_take` gets `due` too."""
        self._serviced += 1
        kind, media = cmd.kind, self.media
        if kind is HOST_READ:
            if bank.host_reads.popleft() is not cmd:
                raise _not_at_head(cmd)
            del bank.read_q[cmd]
            self._read(bank, cmd.addr, now)
            return
        if cmd.prepared:
            if (bank.rewrites.popleft() if kind is REWRITE
                    else heappop(bank.ready_writes)[1]) is not cmd:
                raise _not_at_head(cmd)
            del bank.write_q[cmd]
            # Leaving as its line's oldest write releases the pre-write read
            # of the next one. Done before the hook, so that no rewrite it
            # returns merges into this write.
            line = bank.lines[cmd.addr]
            oldest = line[0] is cmd
            line.remove(cmd)
            if not line:
                del bank.lines[cmd.addr]
            elif oldest and not line[0].prepared:
                heappush(bank.ready_pres, (line[0].seq, line[0]))
            if kind is not HOST_WRITE:  # a rewrite or a writeback
                self._maintain(bank, cmd.addr, cmd.data, cmd.full, now)
                return
        else:
            if heappop(bank.ready_pres)[1] is not cmd:
                raise _not_at_head(cmd)
            del bank.read_q[cmd]
            cmd.prepared = True
            self.stats.pre_write_reads += 1
            cmd.old_data = media.read_line(cmd.addr)
            if due is None:
                heappush(bank.ready_writes, (cmd.seq, cmd))
                bank.busy_until = now + self._read_ns  # > now (I1)
                return
            del bank.write_q[cmd]
            self._serviced += 1  # the write, as the read ends
            now += self._read_ns
        # The host write's one media write, unless its hook absorbed it.
        absorbed, writeback, rewrites, latency = (
            bank.mitigation.write(media, cmd, self.rng))
        if not absorbed:
            latency += media.apply_write(cmd.addr, cmd.data,
                                         cmd.full).latency_ns
        if latency < 1:  # `run` relies on a serviced bank being busy
            raise ConsistencyError(
                f"{kind} seq {cmd.seq} occupies its bank for "
                f"{latency} ns")
        bank.busy_until = now + latency
        if writeback is not None or rewrites:
            self._take(bank, cmd.addr, writeback, rewrites, now, due)

    def _maintain(self, bank: _Bank, addr: LineAddress, data: int | None,
                  full: bool, now: int) -> None:
        """The one media write of a rewrite or a writeback, queued or served
        at once (I4), from `now`. A rewrite (`data` None, always `full`)
        first fetches the line's intended contents, for `read_ns`; a
        writeback writes its data, `full` only if a rewrite merged into it.
        The bank is busy for the whole latency, which must be at least 1 ns
        (I1)."""
        media = self.media
        if data is None:
            latency = self._read_ns + media.apply_write(
                addr, media.intended_line(addr), full).latency_ns
        else:
            latency = media.apply_write(addr, data, full).latency_ns
        if latency < 1:  # `run` relies on a serviced bank being busy
            raise ConsistencyError(
                f"{REWRITE if data is None else WRITEBACK} to {addr} "
                f"occupies its bank for {latency} ns")
        bank.busy_until = now + latency

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunStats:
        records = self.trace
        n = len(records)
        banks = self.banks
        submit, next_command, service = (self.submit, self.next_command,
                                         self._service)
        never = float("inf")  # no record left, or no wake time
        i = now = 0
        due = records[0].time if n else never  # the time of records[i]
        while True:
            while due <= now:
                if not submit(records[i], i, now):
                    break
                i += 1
                due = records[i].time if i < n else never
            # One pass: service every idle bank, and find the wake time, the
            # next record's or the earliest busy bank's with queued commands.
            issued = False
            wake = due if due > now else never
            for bank in banks:
                if not (bank.read_q or bank.write_q):
                    continue
                if bank.busy_until <= now:
                    cmd = next_command(bank, now)
                    if cmd is None:
                        continue  # unserviceable: the stall check below
                    service(bank, cmd, now)
                    issued = True
                    if not (bank.read_q or bank.write_q):
                        continue
                if bank.busy_until < wake:
                    wake = bank.busy_until
            if issued and due <= now:
                # The pass may have freed the queue a record waits on. Only
                # an admission can give an idle bank work at `now`.
                if submit(records[i], i, now):
                    i += 1
                    due = records[i].time if i < n else never
                    continue
            if wake is never:
                break
            now = wake

        if i < n or any(b.read_q or b.write_q for b in banks):
            raise ConsistencyError("engine stalled with unserviceable commands")

        return self._finalize()

    def _finalize(self) -> RunStats:
        if self._admitted != self._serviced:
            raise ConsistencyError(f"admitted {self._admitted} commands but "
                                   f"serviced {self._serviced}")
        for i, bank in enumerate(self.banks):
            if bank.lines:
                raise ConsistencyError(
                    f"bank {i} still indexes queued writes to "
                    f"{len(bank.lines)} lines")
            bank.mitigation.check()
        stats, media = self.stats, self.media
        # The media counted every operation, pre-write reads among its reads.
        stats.media_reads = media.reads - stats.pre_write_reads
        stats.media_writes = media.writes
        stats.set_pulses = media.set_pulses
        stats.reset_pulses = media.reset_pulses
        stats.wde_raw = media.flips
        # a bank is serviced only once idle, so its `busy_until` only grows
        stats.completion_time_ns = max(b.busy_until for b in self.banks)
        stats.wde_exposed += len(self.media.scrub_divergence())
        stats.energy = energy_total(stats, self.cfg.energy)
        return stats

    # exposed for queue-conservation checks
    @property
    def conservation(self) -> tuple[int, int, int]:
        return (self._admitted, self._serviced, self.stats.merges)


def _not_at_head(cmd: Command) -> ConsistencyError:
    return ConsistencyError(
        f"{cmd.kind} seq {cmd.seq} is not at the head of its queue")


def run_to_completion(cfg: SimConfig, trace: list[TraceRecord]) -> RunStats:
    """Run a trace to completion; deterministic for (config, trace, seed)."""
    return Engine(cfg, trace).run()
