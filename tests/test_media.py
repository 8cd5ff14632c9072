from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from disturbsim.config import parse_config_text
from disturbsim.core import LINE_MASK, LineAddress
from disturbsim.media import CellArray
from helpers import TINY, bench_workloads, make_cfg, random_line
from oracle import NaiveLedger

A = LineAddress(0, 0, 3, 0)
UP = LineAddress(0, 0, 2, 0)
DOWN = LineAddress(0, 0, 4, 0)


def ledger_counts(ledger, addr):
    """The ledger's pulse counts of a line as the media keeps them: on
    cells storing 0 only, 0 on cells storing 1."""
    return [0 if bit else pulses
            for bit, pulses in zip(ledger.value[addr], ledger.pulses[addr])]


def test_differential_write_pulses():
    media = CellArray(make_cfg(initial_fill="ones"))
    out = media.apply_write(A, 0)
    assert (out.reset_pulses, out.set_pulses) == (512, 0)
    out = media.apply_write(A, 0)
    assert (out.reset_pulses, out.set_pulses) == (0, 0)  # nothing differs


def test_full_write_pulses_regardless_of_contents():
    media = CellArray(make_cfg(initial_fill="zeros"))
    out = media.apply_write(A, 0xff, full=True)
    assert out.reset_pulses == 512 - 8
    assert out.set_pulses == 8


def test_apply_write_rejects_out_of_range_line():
    media = CellArray(make_cfg())
    for bad in (-1, 1 << 512):
        with pytest.raises(ValueError, match="512-bit"):
            media.apply_write(A, bad, full=True)
    assert media.read_line(A) == 0  # nothing was written


def test_set_pulses_do_not_disturb():
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=2))
    for _ in range(5):
        media.apply_write(A, LINE_MASK, full=True)
    assert not any(media.accum_of(UP))


def test_flip_at_limit_then_accumulation_resets():
    cfg = make_cfg(initial_fill="zeros", disturb_limit=3)
    media = CellArray(cfg)
    events = []
    for i in range(3):
        media.apply_write(A, LINE_MASK)
        out = media.apply_write(A, 0)
        events.extend(out.wde_events)
        if i < 2:
            assert not out.wde_events
    # every idle zero cell on both neighbors flips exactly once
    assert len(events) == 2 * 512
    assert {nb for nb, _ in events} == {UP, DOWN}
    assert not any(media.accum_of(UP))
    # flipped cells now store 1 and never flip again
    assert media.read_line(UP) == (1 << 512) - 1


def test_programming_a_cell_clears_its_accumulation():
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=4))
    media.apply_write(A, LINE_MASK)
    media.apply_write(A, 0)
    assert media.accum_of(UP)[0] == 1
    # a full rewrite of the neighbor restores it and clears the ledger
    media.apply_write(UP, 0, full=True)
    assert media.accum_of(UP)[0] == 0


def test_edge_row_has_one_neighbor():
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=1))
    top = LineAddress(0, 0, 0, 0)
    out = media.apply_write(top, 0, full=True)
    assert {nb for nb, _ in out.wde_events} == {LineAddress(0, 0, 1, 0)}
    assert len(out.wde_events) == 512


def test_occupied_cells_do_not_flip():
    media = CellArray(make_cfg(initial_fill="ones", disturb_limit=1))
    out = media.apply_write(A, 0)
    assert out.wde_events == []  # neighbors store 1


def test_intended_shadow_and_scrub():
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=1))
    media.apply_write(A, LINE_MASK)
    media.apply_write(A, 0)
    div = media.scrub_divergence()
    assert [addr for addr, _ in div] == [UP, DOWN]
    assert all(bits == 512 for _, bits in div)
    assert media.intended_line(UP) == 0
    assert media.read_line(UP) == (1 << 512) - 1


def test_write_latency_classes():
    cfg = make_cfg(initial_fill="zeros", set_ns=150, reset_ns=100)
    media = CellArray(cfg)
    assert media.apply_write(A, LINE_MASK).latency_ns == 150
    assert media.apply_write(A, 0).latency_ns == 100
    # a no-op differential write still occupies a RESET-class slot
    assert media.apply_write(A, 0).latency_ns == 100


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.booleans())
def test_media_matches_naive_ledger(seed, fill_ones):
    """Random write workouts against the per-cell oracle."""
    rng = Random(seed)
    fill = "ones" if fill_ones else "zeros"
    # limits whose counts carry across 1 to 5 bit-planes
    limit = rng.choice([1, 2, 3, 4, 5, 7, 8, 16])
    cfg = make_cfg(initial_fill=fill, disturb_limit=limit,
                   threshold=0 if limit < 3 else 1)
    media = CellArray(cfg)
    ledger = NaiveLedger(TINY, limit, 1 if fill_ones else 0)
    events = []
    for _ in range(40):
        addr = LineAddress(0, 0, rng.randrange(8), 0)
        data = random_line(rng)
        full = rng.random() < 0.3
        out = media.apply_write(addr, data, full)
        ledger.write(addr, data, full=full)
        events.extend(out.wde_events)
    assert sorted(events) == sorted(ledger.wde_events)
    for row in range(8):
        addr = LineAddress(0, 0, row, 0)
        got = media.read_line(addr)
        want = sum(ledger._bit(addr, k) << k for k in range(512))
        assert got == want
    for addr in ledger.pulses:
        assert media.accum_of(addr) == ledger_counts(ledger, addr)


def test_victim_cache_matches_naive_ledger():
    """Under the `zeros` fill every neighbour is materialized at a line's
    first pulsing write, so the line keeps its victims from then on: row 0
    and the last row keep one victim, row 1, made as row 0's victim, later
    pulses rows 0 and 2 itself, and row 4 keeps rows 3 and 5 after its one
    pulsing write. Flips and pulse counts follow the per-cell oracle
    throughout, and every kept victim lies in the geometry."""
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=3,
                               threshold=1))
    ledger = NaiveLedger(TINY, 3, 0)
    top, row1, row4, last = (LineAddress(0, 0, r, 0) for r in (0, 1, 4, 7))
    rng = Random(11)
    writes = [(addr, (LINE_MASK, random_line(rng), 0))
              for addr in [top, last] * 3 + [row1, top, last] * 4]
    writes.append((row4, (LINE_MASK, 0)))  # one pulsing write
    events = []
    for addr, datas in writes:
        for data in datas:
            events.extend(media.apply_write(addr, data).wde_events)
            ledger.write(addr, data)
    assert events and sorted(events) == sorted(ledger.wde_events)
    assert {nb for nb, _ in events} == {LineAddress(0, 0, r, 0)
                                        for r in (1, 2, 6)}
    for addr in ledger.pulses:
        assert media.accum_of(addr) == ledger_counts(ledger, addr)
    lines = media._lines
    assert lines[top].victims == [lines[row1]]
    assert lines[last].victims == [lines[LineAddress(0, 0, 6, 0)]]
    assert lines[row1].victims == [lines[top], lines[LineAddress(0, 0, 2, 0)]]
    assert lines[row4].victims == [lines[LineAddress(0, 0, 3, 0)],
                                   lines[LineAddress(0, 0, 5, 0)]]
    assert all(line.addr == addr for addr, line in lines.items())
    for line in lines.values():
        for victim in line.victims or ():
            victim.addr.check(TINY)


def test_late_written_neighbor_is_pulsed():
    """Under the `ones` fill a never-written neighbour takes no pulse and is
    not materialized, so a line keeps no victim list and looks its
    neighbours up on every pulsing write: UP, written with zeros after A
    pulsed twice, flips when A pulses L more times."""
    limit = 3
    media = CellArray(make_cfg(initial_fill="ones", disturb_limit=limit,
                               threshold=1))
    ledger = NaiveLedger(TINY, limit, 1)
    rng = Random(5)
    events = []

    def write(addr, data):
        events.extend(media.apply_write(addr, data).wde_events)
        ledger.write(addr, data)

    write(DOWN, random_line(rng))
    for _ in range(2):  # A pulses twice while UP is unwritten
        write(A, LINE_MASK)
        write(A, 0)
    assert UP not in media._lines
    write(UP, 0)
    for _ in range(limit):
        write(A, LINE_MASK)
        write(A, 0)
    assert sorted(events) == sorted(ledger.wde_events)
    assert sorted(k for nb, k in events if nb == UP) == list(range(512))
    for addr in (A, UP, DOWN):
        assert media.read_line(addr) == sum(
            ledger._bit(addr, k) << k for k in range(512))
        assert media.accum_of(addr) == ledger_counts(ledger, addr)
    lines = media._lines
    assert set(lines) == {A, UP, DOWN}
    assert lines[A].victims is None  # under `ones`: looked up each write


def test_benchmark_covers_both_fills():
    """The benchmark times both victim paths: never-written neighbours are
    skipped under the `ones` fill and materialized under `zeros`."""
    fills = {name: parse_config_text(w.config.format(seed=1)).initial_fill
             for name, w in bench_workloads().items()}
    assert fills == {"hotspot-backlog": "ones", "uniform-paced": "ones",
                     "slowflip-paced": "zeros"}


def test_threshold_must_leave_rewrite_headroom():
    with pytest.raises(ValueError):
        make_cfg(disturb_limit=1, threshold=1)
    make_cfg(disturb_limit=1, threshold=0)  # valid: triggers on any flip
