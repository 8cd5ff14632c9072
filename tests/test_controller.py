from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scheduler_ref
from disturbsim.baselines import Mitigation, Outcome
from disturbsim.config import parse_config_text
from disturbsim.controller import (DECODE_WINDOW, HOST_READ, HOST_WRITE,
                                   MITIGATIONS, REWRITE, WRITEBACK, Command,
                                   Engine, TraceAbort, run_to_completion)
from disturbsim.core import (LINE_MASK, STRATEGIES, ConsistencyError,
                             Geometry, LineAddress, compose_address,
                             decompose_address)
from disturbsim.media import CellArray
from disturbsim.traces import TraceRecord, gen_hammer, gen_synthetic
from helpers import (TINY, Recorder, addr_bytes, bench_workloads, make_cfg,
                     stale_lines)
from loop_ref import TwoPassEngine

ONES = LINE_MASK
ZEROS = 0


def empty_engine(**kw) -> Engine:
    return Engine(make_cfg(**kw), [])


def add(eng, kind, row, prepared=False):
    """Queue a command for `row` in bank 0 through the engine's own
    `_enqueue`, and return it. A host write is queued unprepared; with
    `prepared` its pre-write read is serviced at once, which needs it to be
    the oldest unprepared write."""
    bank = eng.banks[0]
    data = ZEROS if kind in scheduler_ref.WRITE_KINDS else None
    eng._enqueue(bank, kind, LineAddress(0, 0, row, 0), data, 0)
    queued = (bank.host_reads[-1] if kind is HOST_READ
              else next(reversed(bank.write_q)))
    if prepared and not queued.prepared:
        eng._service(bank, queued, 0)
    return queued


# -- scheduling unit tests ---------------------------------------------------


def test_priority_rewrite_first():
    eng = empty_engine()
    add(eng, HOST_READ, 1)
    add(eng, HOST_WRITE, 2, prepared=True)
    add(eng, REWRITE, 3)
    assert eng.next_command(eng.banks[0], 0).kind is REWRITE


def test_priority_host_read_over_pre_write_read():
    eng = empty_engine()
    # the unprepared write stands for its pending pre-write read
    add(eng, HOST_WRITE, 2)
    add(eng, HOST_READ, 1)
    assert eng.next_command(eng.banks[0], 0).kind is HOST_READ


def test_priority_pre_write_read_over_writes():
    eng = empty_engine()
    add(eng, HOST_WRITE, 3, prepared=True)
    write = add(eng, HOST_WRITE, 2)
    picked = eng.next_command(eng.banks[0], 0)
    assert picked is write and not picked.prepared  # its pre-write read


def test_drain_mode_puts_writes_ahead_of_pre_reads():
    eng = empty_engine(queue_depth=4, drain_low_watermark=2)
    bank = eng.banks[0]
    writes = [add(eng, HOST_WRITE, r, prepared=True) for r in range(4)]
    # five writes, above queue_depth: drain kicks in
    pwr_target = add(eng, HOST_WRITE, 5)
    picked = eng.next_command(bank, 0)
    assert picked in writes and picked.prepared
    # draining persists until the queue reaches the low watermark
    eng._service(bank, picked, 0)
    assert len(bank.write_q) == 4
    picked = eng.next_command(bank, 0)
    assert picked in writes and picked.prepared
    eng._service(bank, picked, 0)
    eng._service(bank, eng.next_command(bank, 0), 0)
    assert len(bank.write_q) == 2
    picked = eng.next_command(bank, 0)
    assert picked is pwr_target and not picked.prepared  # its pre-write read


def test_pre_write_read_waits_for_older_same_line_write():
    eng = empty_engine()
    bank = eng.banks[0]
    older = add(eng, HOST_WRITE, 2, prepared=True)
    younger = add(eng, HOST_WRITE, 2)
    # serving the pre-read now would capture stale contents
    assert eng.next_command(bank, 0) is older
    eng._service(bank, older, 0)
    picked = eng.next_command(bank, 0)
    assert picked is younger and not picked.prepared  # its pre-write read


def test_unprepared_writes_never_selected():
    """An unprepared write is picked only for its pre-write read, and as a
    write only once that read has prepared it."""
    eng = empty_engine()
    bank = eng.banks[0]
    write = add(eng, HOST_WRITE, 2)
    assert eng.next_command(bank, 0) is write
    eng._service(bank, write, 0)  # the pre-write read: prepares, stays queued
    assert write.prepared and not bank.read_q
    assert list(bank.write_q) == [write]
    assert eng.next_command(bank, 0) is write
    eng._service(bank, write, 0)
    assert eng.next_command(bank, 0) is None


# the ids keep the case names these tests had when the kinds were an Enum
@pytest.mark.parametrize("kind,prepared", [
    pytest.param(HOST_READ, True,  # a host read
                 id="CommandKind.HOST_READ-True"),
    pytest.param(HOST_WRITE, False,  # a pre-write read
                 id="CommandKind.HOST_WRITE-False"),
    pytest.param(HOST_WRITE, True,  # a host write's write
                 id="CommandKind.HOST_WRITE-True"),
    pytest.param(WRITEBACK, True, id="CommandKind.WRITEBACK-True"),
    pytest.param(REWRITE, True, id="CommandKind.REWRITE-True"),
])
def test_service_takes_only_the_head_of_its_queue(kind, prepared):
    """Each phase of `_service` pops the head of its queue and raises if
    the serviced command is not that head."""
    eng = empty_engine()
    add(eng, kind, 1, prepared)
    second = add(eng, kind, 2, prepared)
    assert second.prepared is prepared
    with pytest.raises(ConsistencyError,
                       match=f"{kind} seq {second.seq} is not at the "
                             f"head of its queue"):
        eng._service(eng.banks[0], second, 0)


# -- merging -----------------------------------------------------------------


def test_merge_rewrite_upgrades_queued_write():
    eng = empty_engine()
    bank = eng.banks[0]
    queued = add(eng, HOST_WRITE, 2)
    assert eng.merge_rewrite(LineAddress(0, 0, 2, 0), 0)
    assert queued.full
    assert eng.stats.merges == 1
    assert len(bank.write_q) == 1  # nothing new enqueued


def test_merge_rewrite_enqueues_when_no_match():
    eng = empty_engine()
    bank = eng.banks[0]
    assert not eng.merge_rewrite(LineAddress(0, 0, 2, 0), 0)
    assert len(bank.write_q) == 1
    (rw,) = bank.write_q
    assert rw.kind is REWRITE and rw.prepared


def test_duplicate_rewrites_coalesce():
    eng = empty_engine()
    target = LineAddress(0, 0, 2, 0)
    eng.merge_rewrite(target, 0)
    assert eng.merge_rewrite(target, 0)
    assert len(eng.banks[0].write_q) == 1


# -- the indexed bank against the linear-scan reference ----------------------

BANK_OPS = st.lists(st.tuples(
    st.sampled_from(["read", "write", "writeback", "rewrite", "pick", "pick"]),
    st.integers(0, 3)), max_size=80)


@settings(max_examples=300, deadline=None)
@given(depth=st.integers(2, 6), ops=BANK_OPS)
# the second write's pre-write read is released when the first write leaves
@example(depth=4, ops=[("write", 1), ("write", 1)] + [("pick", 0)] * 4)
def test_indexed_bank_matches_reference_scheduler(depth, ops):
    """Random enqueue/pick/service/merge sequences, with commands queued by
    `Engine._enqueue` and picks serviced by `Engine._service` as the engine
    does (seq grows with enqueue order, a host write enqueued unprepared),
    pick and merge exactly as the linear scans do."""
    low = depth // 2
    eng = empty_engine(queue_depth=depth, drain_low_watermark=low)
    bank = eng.banks[0]
    ref = scheduler_ref.RefBank()

    def add(kind, addr, data=None):
        eng._enqueue(bank, kind, addr, data, 0)
        ref.enqueue(bank.host_reads[-1] if kind is HOST_READ
                    else next(reversed(bank.write_q)))

    for op, row in ops:
        addr = LineAddress(0, 0, row, 0)
        if op == "read":
            add(HOST_READ, addr)
        elif op == "write":
            add(HOST_WRITE, addr, ZEROS)
        elif op == "writeback":
            add(WRITEBACK, addr, ZEROS)
        elif op == "rewrite":
            target = scheduler_ref.merge_target(ref, addr)
            modes = {c: c.full for c in ref.write_q}
            merged = eng.merge_rewrite(addr, 0)
            assert merged == (target is not None)
            upgraded = [c for c in ref.write_q if c.full is not modes[c]]
            if merged and target.kind in scheduler_ref.WRITE_KINDS:
                assert all(c is target for c in upgraded)
                assert target.full
            else:
                assert upgraded == []
            if not merged:
                ref.enqueue(next(reversed(bank.write_q)))
        else:
            picked = eng.next_command(bank, 0)
            assert picked is scheduler_ref.next_command(ref, depth, low)
            assert bank.draining == ref.draining
            if picked is not None:
                ref.remove(picked)
                eng._service(bank, picked, 0)
        assert list(bank.read_q) == ref.read_q
        assert list(bank.write_q) == ref.write_q
        lines = {}
        for c in ref.write_q:
            lines.setdefault(c.addr, []).append(c)
        assert bank.lines == lines


# -- end-to-end runs ----------------------------------------------------------


def hammer_cfg(**kw):
    kw.setdefault("disturb_limit", 8)
    kw.setdefault("threshold", 3)
    return make_cfg(**kw)


def test_unmitigated_hammer_flips_both_neighbors():
    trace = gen_hammer(addr_bytes(2), rounds=4 * 8)
    stats = run_to_completion(hammer_cfg(strategy="none"), trace)
    assert stats.wde_raw == 2 * 512
    assert stats.media_writes == 64
    assert stats.wde_exposed == 2  # two divergent lines found by the scrub
    assert stats.host_writes == 64
    assert stats.pre_write_reads == 64


def test_imdb_hammer_prevents_all_flips():
    trace = gen_hammer(addr_bytes(2), rounds=4 * 8)
    stats = run_to_completion(hammer_cfg(strategy="imdb"), trace)
    assert stats.wde_raw == 0
    assert stats.wde_exposed == 0
    assert stats.rewrites == 2
    assert stats.bb_hits > 0
    assert stats.media_writes < 10  # nearly everything absorbed


def test_vnc_hammer_exposes_nothing():
    trace = gen_hammer(addr_bytes(2), rounds=4 * 8)
    stats = run_to_completion(hammer_cfg(strategy="vnc"), trace)
    assert stats.wde_raw > 0  # flips happen and are then corrected
    assert stats.wde_exposed == 0
    assert stats.media_reads >= 4 * 64


def test_read_exposes_divergence():
    trace = gen_hammer(addr_bytes(2), rounds=8)
    last = trace[-1].time
    trace = trace + [TraceRecord(last + 10_000, "R", addr_bytes(1))]
    stats = run_to_completion(hammer_cfg(strategy="none"), trace)
    assert stats.wde_raw == 2 * 512
    # one divergent host read, plus two divergent lines at the scrub
    assert stats.wde_exposed == 3


def test_imdb_read_served_from_barrier_buffer():
    trace = gen_hammer(addr_bytes(2), rounds=4 * 8)
    last = trace[-1].time
    trace = trace + [TraceRecord(last + 10_000, "R", addr_bytes(2))]
    stats = run_to_completion(hammer_cfg(strategy="imdb"), trace)
    base = run_to_completion(hammer_cfg(strategy="imdb"), trace[:-1])
    assert stats.host_reads == 1
    assert stats.media_reads == base.media_reads  # buffer served the read


@pytest.mark.parametrize("strategy", ["imdb", "siwc"])
def test_all_zeros_line_in_a_table_serves_reads(strategy):
    """The int 0 is the all-zeros line, not a miss: a barrier-buffer or
    write-cache entry holding it serves the host read."""
    eng = empty_engine(strategy=strategy, siwc_q_insert=Fraction(1))
    table = eng.banks[0].mitigation
    a = LineAddress(0, 0, 3, 0)
    if strategy == "imdb":
        table.install(0, a, [0] * 8)
        assert table.promote_and_demote(table.mt[0], ZEROS) is None
        assert table.lookup(a) is table.bb[0]
    else:
        assert table.process_write(a, ZEROS, Random(0)).absorbed
    assert eng.submit(TraceRecord(0, "R", addr_bytes(3)), 0, 0)
    assert not eng.banks[0].read_q  # served, never queued
    stats = eng.run()
    assert (stats.host_reads, stats.media_reads) == (1, 0)
    assert stats.bb_hits == (1 if strategy == "imdb" else 0)


def test_backpressure_preserves_counts():
    writes = [TraceRecord(0, "W", addr_bytes(r % 8), ONES) for r in range(12)]
    cfg = make_cfg(strategy="siwc", queue_depth=1, siwc_entries=2)
    stats = run_to_completion(cfg, writes)
    assert stats.host_writes == 12


def test_mitigations_list_the_accepted_strategies():
    """The config accepts exactly the names that `MITIGATIONS` builds, and
    `compare` runs them in this order."""
    assert tuple(MITIGATIONS) == STRATEGIES


def test_trace_abort_names_record():
    trace = [TraceRecord(0, "W", 0, ONES),
             TraceRecord(10, "W", TINY.capacity_bytes + 64, ONES)]
    with pytest.raises(TraceAbort) as exc:
        run_to_completion(make_cfg(), trace)
    assert exc.value.record_no == 1


def test_trace_abort_behind_backpressure_names_record():
    # One-deep queues: the writes ahead of the bad record are retried while
    # the bank drains, so it is decoded only after several refused submits.
    trace = ([TraceRecord(0, "W", addr_bytes(r), ONES) for r in range(4)]
             + [TraceRecord(0, "W", TINY.capacity_bytes + 64, ONES)])
    eng = Engine(make_cfg(queue_depth=1), trace)
    attempts = []
    submit = eng.submit

    def counted(record, record_no, now):
        attempts.append(record_no)
        return submit(record, record_no, now)

    eng.submit = counted
    with pytest.raises(TraceAbort) as exc:
        eng.run()
    assert exc.value.record_no == 4
    assert attempts.count(1) > 1  # backpressured before the bad record
    assert attempts[-1] == 4


def test_trace_abort_past_a_decode_window_names_record():
    """The first window of decoded addresses ends at a record that one-deep
    queues refuse, and the next record's address is outside the module.
    Every record of the window is submitted, in order, and reaches the
    media at the line `decompose_address` gives it; the bad record aborts
    at its first submit."""
    n = DECODE_WINDOW
    trace = ([TraceRecord(0, "W", addr_bytes(r % 8), ONES) for r in range(n)]
             + [TraceRecord(0, "W", TINY.capacity_bytes + 64, ONES)])
    eng = Engine(make_cfg(queue_depth=1), trace)
    attempts, reads = [], []
    submit, read_line = eng.submit, eng.media.read_line

    def counted(record, record_no, now):
        attempts.append(record_no)
        return submit(record, record_no, now)

    def logged_read(addr):  # each host write's pre-write read, in order
        reads.append(addr)
        return read_line(addr)

    eng.submit, eng.media.read_line = counted, logged_read
    with pytest.raises(TraceAbort) as exc:
        eng.run()
    assert exc.value.record_no == n
    assert list(dict.fromkeys(attempts)) == list(range(n + 1))
    assert attempts.count(n - 1) > 1  # refused at the window's end
    assert attempts.count(n) == 1
    assert len(reads) >= n - 1
    assert reads == [decompose_address(r.byte_addr, TINY)
                     for r in trace[:len(reads)]]


def test_finalize_checks_conservation():
    trace = gen_hammer(addr_bytes(2), rounds=16)  # leaves row 7 alone
    eng = Engine(make_cfg(strategy="imdb"), trace)
    eng._admitted += 1  # an admission that no service matches
    with pytest.raises(ConsistencyError, match="admitted"):
        eng.run()

    eng = Engine(make_cfg(strategy="imdb"), trace)
    stale = Command(HOST_WRITE, LineAddress(0, 0, 7, 0))
    eng.banks[0].lines[stale.addr] = [stale]  # a write the queues never held
    with pytest.raises(ConsistencyError, match="indexes queued writes"):
        eng.run()


@pytest.mark.parametrize("strategy", ["none", "vnc", "siwc", "imdb"])
def test_runs_are_deterministic(strategy):
    trace = gen_synthetic("hotspot", 300, Random(5), TINY)
    cfg = make_cfg(strategy=strategy, seed=42)
    a = run_to_completion(cfg, trace)
    b = run_to_completion(cfg, trace)
    assert a.as_row() == b.as_row()


@pytest.mark.parametrize("strategy", ["none", "vnc", "siwc", "imdb"])
def test_queue_conservation(strategy):
    trace = gen_synthetic("uniform", 300, Random(3), TINY)
    eng = Engine(make_cfg(strategy=strategy, seed=1), trace)
    eng.run()
    admitted, serviced, merges = eng.conservation
    assert admitted == serviced


def test_completion_time_monotone_with_load():
    short = gen_synthetic("uniform", 50, Random(0), TINY)
    long = gen_synthetic("uniform", 400, Random(0), TINY)
    cfg = make_cfg(strategy="none")
    assert (run_to_completion(cfg, long).completion_time_ns
            > run_to_completion(cfg, short).completion_time_ns)


def test_siwc_writebacks_reach_media():
    rng = Random(2)
    writes = [TraceRecord(t * 10, "W", addr_bytes(rng.randrange(8)), ONES)
              for t in range(60)]
    cfg = make_cfg(strategy="siwc", siwc_entries=2)
    stats = run_to_completion(cfg, writes)
    assert stats.writebacks > 0
    assert stats.media_writes > 0


@pytest.mark.parametrize("seed,siwc_stale,written",
                         [(1, 2, 1_357), (7, 1, 1_411)])
def test_lost_writes_on_hotspot_backlog(seed, siwc_stale, written):
    """ROADMAP item 11 (no lost writes), pinned until its fix: a written
    line is stale when the data it holds after the run differs from the
    trace's last write to it. Under backlog `siwc` loses writes, and every
    other strategy loses none. When item 11 is mended, `siwc`'s count here
    becomes 0."""
    workload = bench_workloads()["hotspot-backlog"]
    cfg = parse_config_text(workload.config.format(seed=seed))
    trace = workload.make_trace(Random(seed), cfg.geometry)
    for strategy in STRATEGIES:
        eng = Engine(replace(cfg, strategy=strategy), trace)
        eng.run()
        stale, lines = stale_lines(eng)
        assert lines == written
        assert len(stale) == (siwc_stale if strategy == "siwc" else 0)


def test_imdb_loses_a_write_its_barrier_entry_absorbs_at_admission():
    """ROADMAP item 11, pinned until step 2 mends it: four writes to one
    line, all due at 0. The fourth is absorbed at admission into the
    line's barrier entry while the third is still queued, and the third's
    later service stores its older data over it, so `imdb` leaves the line
    stale. The other strategies lose nothing. When step 2 is done, `imdb`
    leaves no stale line here either."""
    g = Geometry(ranks=1, banks_per_rank=1, rows_per_bank=8, cols_per_row=2)
    addr = LineAddress(0, 0, 1, 1)
    trace = [TraceRecord(0, "W", compose_address(addr, g), data)
             for data in (ONES, ZEROS, ZEROS, ONES)]
    cfg = make_cfg(geometry=g, queue_depth=2, n_b=2, hit_cycles=0, seed=0)
    for strategy in STRATEGIES:
        eng = Engine(replace(cfg, strategy=strategy), trace)
        eng.run()
        assert stale_lines(eng) == (
            ([addr] if strategy == "imdb" else []), 1)


# -- the main loop -------------------------------------------------------------

TWO_BANKS = Geometry(ranks=1, banks_per_rank=2, rows_per_bank=8,
                     cols_per_row=1)
TWO_RANKS = Geometry(ranks=2, banks_per_rank=1, rows_per_bank=8,
                     cols_per_row=1)


class ZeroLatency(Mitigation):
    """Breaks I1: a serviced host write is absorbed in 0 ns and leaves its
    bank idle. (A passed write would take the media's latency.)"""

    def write(self, media, cmd, rng):
        return Outcome(True, None, (), 0)


class OtherBank(Mitigation):
    """Breaks I2: a serviced host write in bank 0 of rank 0 returns its
    `what`, a rewrite or a writeback, for the same row of bank 1, or of
    rank 1 with `where = "rank"`."""

    what = "rewrite"
    where = "bank"

    def write(self, media, cmd, rng):
        target = cmd.addr._replace(**{self.where: 1})
        if self.what == "rewrite":
            return Outcome(False, None, (target,), 0)
        return Outcome(False, (target, ONES), (), 0)


class OtherBankAtAdmission(Mitigation):
    """Breaks I2 at admission: a host write to bank 0 is absorbed, and its
    writeback is for the same row of bank 1."""

    def admit_write(self, addr, data, rng):
        return Outcome(True, (addr._replace(bank=1), data), (), 0)


class TablesOnly(Mitigation):
    """A write hook that reports only its tables' part, `absorbed` and
    3 ns of occupancy, and leaves the media to the engine."""

    absorbed = False

    def write(self, media, cmd, rng):
        return Outcome(self.absorbed, None, (), 3)


class QueuedEngine(Engine):
    """The engine with the idle path (I4) turned off: the next record is
    always already due, so `submit` queues every command for `run`'s
    passes."""

    def _next_due(self, record_no):
        return float("-inf")


def bank0_write_engine(mitigation, g=TWO_BANKS, engine_cls=Engine) -> Engine:
    """A 2-bank engine with `mitigation` on bank 0 and one write to it."""
    trace = [TraceRecord(0, "W", addr_bytes(2, g=g), ONES)]
    eng = engine_cls(make_cfg(geometry=g), trace)
    eng.banks[0].mitigation = mitigation(eng.cfg, eng.stats)
    return eng


@pytest.mark.parametrize("absorbed", [False, True])
def test_engine_writes_a_host_write_unless_its_hook_absorbs_it(absorbed):
    """The engine, not the hook, makes a host write's one media write, and
    only for a write the hook did not absorb; the bank is busy for the
    hook's latency, plus the media's when the engine writes."""
    eng = bank0_write_engine(TablesOnly)
    eng.banks[0].mitigation.absorbed = absorbed
    addr = LineAddress(0, 0, 2, 0)
    media_ns = CellArray(eng.cfg).apply_write(addr, ONES).latency_ns
    eng.run()
    assert eng.media.writes == (0 if absorbed else 1)
    assert eng.media.intended_line(addr) == (ZEROS if absorbed else ONES)
    # the pre-write read, then the write: the hook's 3 ns and the media's
    assert eng.banks[0].busy_until == (
        eng.cfg.read_ns + 3 + (0 if absorbed else media_ns))


def test_service_without_bank_occupancy_raises():
    eng = bank0_write_engine(ZeroLatency)
    with pytest.raises(ConsistencyError,
                       match="host-write seq 1 occupies its bank for 0 ns"):
        eng.run()


class WritebackToRow3(Mitigation):
    """A serviced host write returns a writeback of ONES to row 3 of its
    own bank."""

    def write(self, media, cmd, rng):
        return Outcome(False, (cmd.addr._replace(row=3), ONES), (), 0)


@pytest.mark.parametrize("engine_cls", [Engine, QueuedEngine],
                         ids=lambda cls: cls.__name__)
def test_maintenance_without_bank_occupancy_raises(engine_cls):
    """I1 holds for maintenance, served at once (I4) or queued, with one
    message: a writeback whose media write took 0 ns would leave the bank
    idle."""
    eng = bank0_write_engine(WritebackToRow3, engine_cls=engine_cls)
    apply_write = eng.media.apply_write

    def instant_on_row_3(addr, data, full=False):
        out = apply_write(addr, data, full)
        return replace(out, latency_ns=0) if addr.row == 3 else out

    eng.media.apply_write = instant_on_row_3
    with pytest.raises(ConsistencyError,
                       match=r"writeback to LineAddress\(rank=0, bank=0, "
                             r"row=3, col=0\) occupies its bank for 0 ns"):
        eng.run()


class WritebackThenRewrite(Mitigation):
    """The first serviced host write returns a writeback of ONES to row 3
    of its bank, and the second one a rewrite of row 3."""

    writes = 0

    def write(self, media, cmd, rng):
        self.writes += 1
        row_3 = cmd.addr._replace(row=3)
        if self.writes == 1:
            return Outcome(False, (row_3, ONES), (), 0)
        return Outcome(False, None, (row_3,), 0)


def test_rewrite_merged_into_a_queued_writeback_is_written_full(monkeypatch):
    """Both writes are due at 0 ns, so neither is served at once: the
    first one's writeback is still queued when the second one's rewrite
    of its line merges into it, and the writeback then programs every
    cell."""
    monkeypatch.setitem(MITIGATIONS, "none", WritebackThenRewrite)
    trace = [TraceRecord(0, "W", addr_bytes(row), ONES) for row in (1, 2)]
    run = Recorder(Engine, make_cfg(queue_depth=4), trace)
    assert run.engine.stats.merges == 1
    row_3 = LineAddress(0, 0, 3, 0)
    assert [args for name, args in run.media
            if name == "apply_write" and args[0] == row_3] == [
        (row_3, ONES, True)]


@pytest.mark.parametrize("what", ["rewrite", "writeback"])
def test_service_enqueueing_into_another_bank_raises(what):
    eng = bank0_write_engine(OtherBank)
    eng.banks[0].mitigation.what = what
    with pytest.raises(ConsistencyError,
                       match=f"rank 0 bank 0 returned a {what} to rank 0 "
                             f"bank 1"):
        eng.run()


def test_service_enqueueing_into_another_rank_raises():
    """The I2 guard compares ranks too: bank 0 of rank 1 is another bank."""
    eng = bank0_write_engine(OtherBank, TWO_RANKS)
    eng.banks[0].mitigation.what = "writeback"
    eng.banks[0].mitigation.where = "rank"
    with pytest.raises(ConsistencyError,
                       match="rank 0 bank 0 returned a writeback to rank 1 "
                             "bank 0"):
        eng.run()


def test_admission_writeback_into_another_bank_raises():
    """`submit` holds a writeback to the bank of the written line too."""
    eng = bank0_write_engine(OtherBankAtAdmission)
    with pytest.raises(ConsistencyError,
                       match="rank 0 bank 0 returned a writeback to rank 0 "
                             "bank 1"):
        eng.run()


def test_unserviceable_command_stalls_the_engine():
    # one-deep queues: the second read waits behind the first, which
    # `next_command` never picks
    trace = [TraceRecord(0, "R", addr_bytes(1)),
             TraceRecord(0, "R", addr_bytes(2))]
    eng = Engine(make_cfg(queue_depth=1), trace)
    eng.next_command = lambda bank, now: None
    with pytest.raises(ConsistencyError,
                       match="engine stalled with unserviceable commands"):
        eng.run()


# -- the engine against its references ----------------------------------------


def paced_records(max_gap, max_size):
    return st.lists(st.tuples(
        st.integers(0, max_gap),  # gap to the previous record, ns
        st.booleans(),            # a write?
        st.tuples(st.integers(0, 1), st.integers(0, 1),   # rank, bank,
                  st.integers(0, 7), st.integers(0, 1)),  # row, col
        # the data: a half-ones line, and ONES // 3, alternating bits
        st.sampled_from([ZEROS, ONES, ONES >> 256, ONES // 3])),
        max_size=max_size)


def run_inputs(ranks, banks, depth, low, strategy, hit_cycles, seed, fill,
               records):
    """The config and trace of one example of the property below."""
    g = Geometry(ranks=ranks, banks_per_rank=banks, rows_per_bank=8,
                 cols_per_row=2)
    cfg = make_cfg(geometry=g, strategy=strategy, queue_depth=depth,
                   drain_low_watermark=low, hit_cycles=hit_cycles,
                   siwc_entries=4, seed=seed, initial_fill=fill)
    trace, now = [], 0
    for gap, write, (rank, bank, row, col), data in records:
        now += gap
        addr = compose_address(
            LineAddress(rank % ranks, bank % banks, row, col), g)
        trace.append(TraceRecord(now, "W", addr, data) if write
                     else TraceRecord(now, "R", addr))
    return cfg, trace


def case(records, **kw):
    """A named example: one bank, one queue slot, `none`, table hits of 0
    cycles, seed 0 and the zeros fill, unless `kw` says otherwise."""
    return {**dict(ranks=1, banks=1, depth=1, low=None, strategy="none",
                   hit_cycles=0, seed=0, fill="zeros"), **kw,
            "records": records}


def row_write(gap, row, data, bank=0):
    return (gap, True, (0, bank, row, 0), data)


def row_read(gap, row):
    return (gap, False, (0, 0, row, 0), ZEROS)


# Each example's name says what it reaches; `test_examples_reach_what_they_
# name` checks that they still do, and both properties below run them all.
# A host command's services take 100-350 ns, so after a 2,000 ns gap a
# record usually finds the controller idle.
EXAMPLES = {
    # Records all due at 0: each record is refused, then admitted by the
    # retry that follows a service, and the writes stay queued after their
    # pre-write reads.
    "refused-then-retried": case([row_read(0, 0)] * 4
                                 + [row_write(0, 0, ZEROS)] * 2),
    # Nothing is due, and the first pass ends the run.
    "empty-trace": case([]),
    # The last record is refused, and then admitted by the retry that
    # follows the service of the read ahead of it.
    "last-record-retried": case([row_read(0, 0)] * 2),
    # The read is due exactly as the write's write would start (`read_ns` is
    # 100): it must be admitted first, and be picked ahead of that write.
    "read-due-as-the-write-starts": case(
        [row_write(0, 2, ONES), row_read(100, 3)], depth=2),
    # Alternating data on one row: its counters reach the threshold, and the
    # hook of a write serviced at once returns rewrites, which are served at
    # once too (I4).
    "idle-write-returns-rewrites": case(
        [row_write(2_000, 2, (ONES, ZEROS)[i % 2]) for i in range(8)],
        depth=2, strategy="imdb", hit_cycles=2),
    # The second write's hook returns the rewrites of rows 1 and 3 at 4,100
    # ns. Row 1's runs from 4,103 to 4,303 ns, and two writes are due at
    # 4,200, before row 3's can start: `_take` queues it, and its pick
    # finds three queued writes, enough to set the drain state. The drain
    # then puts the first write's write ahead of the second one's pre-write
    # read.
    "rewrite-falls-back-between-two": case(
        [row_write(2_000, 2, ONES), row_write(2_000, 2, ZEROS),
         row_write(200, 6, ONES), row_write(0, 0, ONES)],
        depth=3, low=0, strategy="imdb", hit_cycles=2),
    # A four-entry cache on eight rows: an admitted write that evicts an
    # entry returns its writeback, which an idle controller serves at once
    # (I4).
    "siwc-admission-writeback": case(
        [row_write(2_000, r % 8, ONES >> r) for r in range(24)],
        depth=2, strategy="siwc", seed=1),
    # The last write evicts at 30,150 ns, while the write before it keeps
    # the bank busy until 30,200: its writeback starts then, not at once.
    "siwc-writeback-waits-for-the-bank": case(
        [row_write(2_000, r % 8, ONES >> r) for r in range(15)]
        + [row_write(150, 7, ONES >> 15)],
        depth=2, strategy="siwc", seed=1),
    # The same, and a read due at 30,160 ns, before the writeback could
    # start: `_take` queues the writeback, and the read is picked first.
    "siwc-writeback-falls-back": case(
        [row_write(2_000, r % 8, ONES >> r) for r in range(15)]
        + [row_write(150, 7, ONES >> 15), row_read(10, 0)],
        depth=2, strategy="siwc", seed=1),
    # Hammered neighbours diverge, and VnC's hook corrects them itself.
    "vnc": case([row_write(2_000, 2, (ONES, ZEROS)[i % 2])
                 for i in range(20)], depth=2, strategy="vnc"),
    # VnC reads the neighbours of a write to the last row: only the row
    # above it lies in the bank.
    "vnc-last-row": case([row_write(0, 7, ONES)], strategy="vnc"),
    "last-record": case([row_write(0, 2, ONES)]),
    # The write keeps the bank busy until 250 ns, and nothing is queued when
    # the next host command arrives at 200: each example's second record is
    # served at once, at 250, when its bank is next free.
    "idle-read-waits-for-its-bank": case(
        [row_write(0, 2, ONES), row_read(200, 4)]),
    "idle-write-waits-for-its-bank": case(
        [row_write(0, 2, ONES), row_write(200, 4, ONES)]),
    # The same write, and a read due at 350 ns, as that write's write would
    # start: the write is queued, and the read is picked ahead of its write.
    "idle-write-falls-back-to-the-queue": case(
        [row_write(0, 2, ONES), row_write(200, 4, ONES), row_read(150, 6)]),
    # Three writes fill the queue and set the drain state, which a low
    # watermark of 0 keeps once the bank empties. The idle write's pick
    # keeps it only if it counts that write; then two writes arrive
    # together, and the state decides whether the first one's write runs
    # before the second one's pre-write read.
    "drain-state-outlives-the-queue": case(
        [row_write(0, 0, ONES), row_write(0, 2, ONES), row_write(0, 4, ONES),
         row_write(2_000, 6, ONES), row_write(2_000, 1, ONES),
         row_write(0, 3, ONES)], depth=3, low=0),
    # The same drain state, then a read that finds the controller idle: it
    # is served at admission, without a pick, and must end the drain as its
    # pick would. The two writes that follow together then run each
    # pre-write read before the first one's write.
    "idle-read-ends-the-drain": case(
        [row_write(0, 0, ONES), row_write(0, 2, ONES), row_write(0, 4, ONES),
         row_read(2_000, 6), row_write(2_000, 1, ONES),
         row_write(0, 3, ONES)], depth=3, low=0),
    # Served at once, maintenance sets the drain state as its picks would:
    # row 3's trigger returns two rewrites and a writeback, so the first
    # pick would find three queued writes, which sets the state at depth 3,
    # and a low watermark of 0 keeps it once the bank empties. The last two
    # writes arrive together, and the state decides whether the first one's
    # write runs before the second one's pre-write read.
    "idle-maintenance-sets-the-drain": case(
        [row_write(2_000, row, (ONES, ZEROS)[i % 2])
         for row in (2, 5, 3) for i in range(8)]
        + [row_write(2_000, 6, ONES), row_write(0, 0, ONES)],
        depth=3, low=0, strategy="imdb", hit_cycles=2),
    # Bank 0 still holds a queued write when a record for idle bank 1
    # arrives: the controller is not idle, so that record is queued too.
    "other-bank-busy": case(
        [row_write(0, 2, ONES), row_write(0, 3, ONES),
         row_write(10, 2, ONES, bank=1), row_read(2_000, 5)],
        banks=2, depth=4),
}


def engine_property(test):
    """Runs `test` on each named example, then on drawn inputs."""
    for kw in EXAMPLES.values():
        test = example(**kw)(test)
    return settings(deadline=None)(given(
        ranks=st.integers(1, 2), banks=st.integers(1, 2),
        depth=st.integers(1, 4), low=st.sampled_from([None, 0]),
        strategy=st.sampled_from(STRATEGIES),
        hit_cycles=st.sampled_from([0, 2]), seed=st.integers(0, 3),
        fill=st.sampled_from(["zeros", "ones"]),
        # Gaps of up to 300 ns against 100-350 ns services: records share
        # times and back up, so retries, rescans and waits on busy banks all
        # occur. After gaps of up to 2,000 ns most records find the
        # controller idle.
        records=paced_records(300, 60) | paced_records(2_000, 40))(test))


def check_media(run):
    """Every address that `run` gave the media lies in the geometry,
    edge-row neighbours and VnC's reads among them, as the media trusts it.
    Without tables (`none`, `vnc`) no written line is left stale: each holds
    the trace's last write to it. The stale check reads the media through
    the recorder, so it comes after every comparison of `run.media`."""
    cfg = run.engine.cfg
    for _, args in run.media:
        for arg in args:
            if isinstance(arg, LineAddress):
                arg.check(cfg.geometry)
    if cfg.strategy in ("none", "vnc"):
        assert stale_lines(run.engine)[0] == []


@engine_property
def test_one_pass_loop_matches_two_pass_reference(**inputs):
    """`loop_ref.TwoPassEngine`, the main loop that the one-pass loop
    replaced, makes the same `submit` and `next_command` calls at the same
    times, the same services and the same media calls, and ends the run in
    the same state: the same report, random state and conservation
    counts."""
    cfg, trace = run_inputs(**inputs)
    run = Recorder(Engine, cfg, trace)
    loop = Recorder(TwoPassEngine, cfg, trace)
    assert (run.result, run.calls, run.media, run.services) == (
        loop.result, loop.calls, loop.media, loop.services)
    check_media(run)


@engine_property
def test_idle_path_matches_the_queue_path(**inputs):
    """A command serviced at once because it found the controller idle (I4)
    ends the run as the queue path (`QueuedEngine`) would: the same report,
    random state and conservation counts, and the same media calls in the
    same order with the same arguments."""
    cfg, trace = run_inputs(**inputs)
    run = Recorder(Engine, cfg, trace)
    queued = Recorder(QueuedEngine, cfg, trace)
    assert (run.result, run.media) == (queued.result, queued.media)
    check_media(run)


def test_examples_reach_what_they_name():
    runs = {name: Recorder(Engine, *run_inputs(**kw))
            for name, kw in EXAMPLES.items()}

    def refusals(name):
        run = runs[name]
        submits = sum(call == "submit" for call, _ in run.calls)
        return submits - len(run.engine.trace)

    assert refusals("refused-then-retried") >= 5  # each but the first
    assert runs["empty-trace"].calls == []
    assert refusals("last-record-retried") == 1

    run = runs["read-due-as-the-write-starts"]
    trace = run.engine.trace
    assert trace[1].time == trace[0].time + run.engine.cfg.read_ns
    assert run.at_once == 0  # the read is admitted while the write is queued

    # maintenance, all served at once (I4): `_take` queues none of it
    for name in ("idle-write-returns-rewrites", "siwc-admission-writeback",
                 "siwc-writeback-waits-for-the-bank",
                 "idle-maintenance-sets-the-drain"):
        run = runs[name]
        stats = run.engine.stats
        assert stats.rewrites + stats.writebacks > 0, name
        assert all(service[0] == "service" for service in run.services)

    # the two writes, row 1's rewrite, and then `_take` queues row 3's
    assert runs["rewrite-falls-back-between-two"].services[:4] == [
        ("service", True), ("service", True), ("service", True),
        ("take", True, False, True)]

    # the writeback is the last service, and the bank was busy when the
    # last record arrived
    run = runs["siwc-writeback-waits-for-the-bank"]
    trace = run.engine.trace
    before = Recorder(Engine, run.engine.cfg, trace[:-1])
    assert before.engine.stats.completion_time_ns > trace[-1].time
    assert run.services[-1] == ("service", True)

    run = runs["siwc-writeback-falls-back"]
    assert ("take", None, True, False) in run.services

    run = runs["vnc"]
    assert run.at_once == len(run.engine.trace)
    stats = run.engine.stats
    assert stats.media_writes > stats.host_writes  # corrections

    run = runs["vnc-last-row"]
    rows = {args[0].row for call, args in run.media if call == "read_line"}
    assert rows == {6, 7}  # the written row, and its one neighbour

    run = runs["last-record"]
    assert len(run.engine.trace) == 1 and run.at_once == 1

    # the first write keeps the bank busy past the second record's arrival
    for name in ("idle-read-waits-for-its-bank",
                 "idle-write-waits-for-its-bank",
                 "idle-write-falls-back-to-the-queue"):
        run = runs[name]
        first = Recorder(Engine, run.engine.cfg, run.engine.trace[:1])
        assert first.engine.banks[0].busy_until == 250, name
        assert run.engine.trace[1].time == 200, name
    # both served at once by the `submit` at 200: the read without a pick,
    # the write with one, at 250
    run = runs["idle-read-waits-for-its-bank"]
    assert run.at_once == 2 and run.calls[2:] == [("submit", 200)]
    run = runs["idle-write-waits-for-its-bank"]
    assert run.at_once == 2
    assert run.calls[2:] == [("submit", 200), ("next_command", 250)]
    run = runs["idle-write-falls-back-to-the-queue"]
    assert run.engine.trace[2].time == 250 + run.engine.cfg.read_ns
    assert run.at_once == 1  # the first write
    assert run.services[:2] == [("service", True), ("service", False)]

    # the write at 2,000 ns
    assert runs["drain-state-outlives-the-queue"].at_once == 1
    assert runs["other-bank-busy"].at_once == 1  # only the last record

    run = runs["idle-read-ends-the-drain"]
    assert run.at_once == 1  # the read at 2,000 ns, which takes no pick
    assert ("next_command", 2_000) not in run.calls
