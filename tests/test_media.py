from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from disturbsim.core import LINE_MASK, Geometry, LineAddress, RangeError
from disturbsim.media import CellArray, WriteMode
from helpers import TINY, make_cfg, random_line
from oracle import NaiveLedger

A = LineAddress(0, 0, 3, 0)
UP = LineAddress(0, 0, 2, 0)
DOWN = LineAddress(0, 0, 4, 0)


def test_differential_write_pulses():
    media = CellArray(make_cfg(initial_fill="ones"))
    out = media.apply_write(A, 0, WriteMode.DIFFERENTIAL)
    assert (out.reset_pulses, out.set_pulses) == (512, 0)
    out = media.apply_write(A, 0, WriteMode.DIFFERENTIAL)
    assert (out.reset_pulses, out.set_pulses) == (0, 0)  # nothing differs


def test_full_write_pulses_regardless_of_contents():
    media = CellArray(make_cfg(initial_fill="zeros"))
    out = media.apply_write(A, 0xff, WriteMode.FULL)
    assert out.reset_pulses == 512 - 8
    assert out.set_pulses == 8


def test_apply_write_rejects_out_of_range_line():
    media = CellArray(make_cfg())
    for bad in (-1, 1 << 512):
        with pytest.raises(ValueError, match="512-bit"):
            media.apply_write(A, bad, WriteMode.FULL)
    assert media.read_line(A) == 0  # nothing was written


GRID = Geometry(ranks=2, banks_per_rank=2, rows_per_bank=4, cols_per_row=2)
# each field one past either end of GRID, the others in range
OUT_OF_RANGE = [LineAddress(-1, 0, 1, 0), LineAddress(2, 1, 1, 1),
                LineAddress(0, -1, 2, 0), LineAddress(1, 2, 2, 1),
                LineAddress(0, 1, -1, 0), LineAddress(1, 0, 4, 1),
                LineAddress(1, 1, 3, -1), LineAddress(0, 0, 0, 2)]


def assert_rejected(media, bad):
    for _ in range(2):  # a rejected call materializes nothing
        with pytest.raises(RangeError):
            media.read_line(bad)
        with pytest.raises(RangeError):
            media.intended_line(bad)
        with pytest.raises(RangeError):
            media.apply_write(bad, 0, WriteMode.FULL)
        with pytest.raises(RangeError):
            media.apply_write(bad, LINE_MASK, WriteMode.DIFFERENTIAL)


@pytest.mark.parametrize("bad", OUT_OF_RANGE)
def test_out_of_range_address_raises_on_every_call(bad):
    """The media checks an address when a call first touches its line, so
    an out-of-range address raises on a fresh array and after every in-range
    line, its in-range neighbors among them, has been written and read."""
    media = CellArray(make_cfg(geometry=GRID))
    assert_rejected(media, bad)
    for rank in range(GRID.ranks):
        for bank in range(GRID.banks_per_rank):
            for row in range(GRID.rows_per_bank):
                for col in range(GRID.cols_per_row):
                    line = LineAddress(rank, bank, row, col)
                    media.apply_write(line, 0, WriteMode.FULL)
                    media.read_line(line)
                    media.intended_line(line)
    assert_rejected(media, bad)
    assert media.scrub_divergence() == []


def test_set_pulses_do_not_disturb():
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=2))
    for _ in range(5):
        media.apply_write(A, LINE_MASK, WriteMode.FULL)
    assert not any(media.accum_of(UP))


def test_flip_at_limit_then_accumulation_resets():
    cfg = make_cfg(initial_fill="zeros", disturb_limit=3)
    media = CellArray(cfg)
    events = []
    for i in range(3):
        media.apply_write(A, LINE_MASK, WriteMode.DIFFERENTIAL)
        out = media.apply_write(A, 0, WriteMode.DIFFERENTIAL)
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
    media.apply_write(A, LINE_MASK, WriteMode.DIFFERENTIAL)
    media.apply_write(A, 0, WriteMode.DIFFERENTIAL)
    assert media.accum_of(UP)[0] == 1
    # a full rewrite of the neighbor restores it and clears the ledger
    media.apply_write(UP, 0, WriteMode.FULL)
    assert media.accum_of(UP)[0] == 0


def test_edge_row_has_one_neighbor():
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=1))
    top = LineAddress(0, 0, 0, 0)
    out = media.apply_write(top, 0, WriteMode.FULL)
    assert {nb for nb, _ in out.wde_events} == {LineAddress(0, 0, 1, 0)}
    assert len(out.wde_events) == 512


def test_occupied_cells_do_not_flip():
    media = CellArray(make_cfg(initial_fill="ones", disturb_limit=1))
    out = media.apply_write(A, 0, WriteMode.DIFFERENTIAL)
    assert out.wde_events == []  # neighbors store 1


def test_intended_shadow_and_scrub():
    media = CellArray(make_cfg(initial_fill="zeros", disturb_limit=1))
    media.apply_write(A, LINE_MASK, WriteMode.DIFFERENTIAL)
    media.apply_write(A, 0, WriteMode.DIFFERENTIAL)
    div = media.scrub_divergence()
    assert [addr for addr, _ in div] == [UP, DOWN]
    assert all(bits == 512 for _, bits in div)
    assert media.intended_line(UP) == 0
    assert media.read_line(UP) == (1 << 512) - 1


def test_write_latency_classes():
    cfg = make_cfg(initial_fill="zeros", set_ns=150, reset_ns=100)
    media = CellArray(cfg)
    assert media.apply_write(A, LINE_MASK,
                             WriteMode.DIFFERENTIAL).latency_ns == 150
    assert media.apply_write(A, 0,
                             WriteMode.DIFFERENTIAL).latency_ns == 100
    # a no-op differential write still occupies a RESET-class slot
    assert media.apply_write(A, 0,
                             WriteMode.DIFFERENTIAL).latency_ns == 100


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
        mode = WriteMode.FULL if full else WriteMode.DIFFERENTIAL
        out = media.apply_write(addr, data, mode)
        ledger.write(addr, data, full=full)
        events.extend(out.wde_events)
    assert sorted(events) == sorted(ledger.wde_events)
    for row in range(8):
        addr = LineAddress(0, 0, row, 0)
        got = media.read_line(addr)
        want = sum(ledger._bit(addr, k) << k for k in range(512))
        assert got == want
    for addr, pulses in ledger.pulses.items():
        assert media.accum_of(addr) == pulses


def test_victim_cache_matches_naive_ledger():
    """A line keeps its victims from its second pulsing write on: row 0
    and the last row keep one victim, row 1, made as row 0's victim, later
    pulses rows 0 and 2 itself, and row 4, pulsing once, keeps none. Flips
    and pulse counts follow the per-cell oracle throughout, and the kept
    victims leave out-of-range addresses rejected."""
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
            events.extend(media.apply_write(addr, data,
                                            WriteMode.DIFFERENTIAL).wde_events)
            ledger.write(addr, data)
    assert events and sorted(events) == sorted(ledger.wde_events)
    assert {nb for nb, _ in events} == {LineAddress(0, 0, r, 0)
                                        for r in (1, 2, 6)}
    for addr, pulses in ledger.pulses.items():
        assert media.accum_of(addr) == pulses
    lines = media._lines
    assert lines[top].victims == [lines[row1]]
    assert lines[last].victims == [lines[LineAddress(0, 0, 6, 0)]]
    assert lines[row1].victims == [lines[top], lines[LineAddress(0, 0, 2, 0)]]
    assert lines[row4].victims is False
    assert all(line.addr == addr for addr, line in lines.items())
    for bad in (LineAddress(0, 0, -1, 0), LineAddress(0, 0, 8, 0)):
        assert_rejected(media, bad)


def test_threshold_must_leave_rewrite_headroom():
    with pytest.raises(ValueError):
        make_cfg(disturb_limit=1, threshold=1)
    make_cfg(disturb_limit=1, threshold=0)  # valid: triggers on any flip
