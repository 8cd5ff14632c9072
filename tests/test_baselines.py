from fractions import Fraction
from itertools import cycle
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disturbsim.baselines import SiwcCache, vnc_wrap_write
from disturbsim.core import LINE_MASK, ConsistencyError, LineAddress
from disturbsim.media import CellArray
from disturbsim.metrics import RunStats
from helpers import TINY, line_of, make_cfg

ONES = LINE_MASK
ZEROS = 0
A = LineAddress(0, 0, 3, 0)


def hammer(media, target, rounds):
    for _ in range(rounds):
        media.apply_write(target, ONES)
        media.apply_write(target, ZEROS)


def test_vnc_detects_and_corrects_disturbance():
    cfg = make_cfg(strategy="vnc", initial_fill="zeros", disturb_limit=3,
                   threshold=1)
    media = CellArray(cfg)
    hammer(media, A, 2)  # neighbors at 2 of 3 pulses
    media.apply_write(A, ONES)
    out, strat = vnc_wrap_write(media, A, ZEROS, cfg)
    # the write itself pushes neighbors over the limit; VnC repairs them
    assert len(out.wde_events) == 2 * 512
    assert media.scrub_divergence() == []
    corrected = set(strat.extra_writes)
    assert corrected == {LineAddress(0, 0, 2, 0), LineAddress(0, 0, 4, 0)}


def test_vnc_reads_neighbors_before_and_after():
    cfg = make_cfg(strategy="vnc", initial_fill="ones")
    media = CellArray(cfg)
    out, strat = vnc_wrap_write(media, A, ZEROS, cfg)
    # two pre-reads plus two verification reads, no divergence to fix
    assert len(strat.extra_reads) == 4
    assert strat.extra_writes == []
    assert out.latency_ns == 4 * cfg.read_ns + cfg.reset_ns


def test_vnc_cascading_corrections_converge():
    cfg = make_cfg(strategy="vnc", initial_fill="zeros", disturb_limit=3,
                   threshold=1)
    media = CellArray(cfg)
    b = LineAddress(0, 0, 6, 0)
    hammer(media, A, 2)
    hammer(media, b, 2)  # rows 5 and 7 now sit at 2 of 3 pulses
    media.apply_write(A, ONES)
    flips = media.flips
    out, strat = vnc_wrap_write(media, A, ZEROS, cfg)
    # correcting row 4 pulses row 5 over the limit; VnC chases that too
    corrected = set(strat.extra_writes)
    assert LineAddress(0, 0, 5, 0) in corrected
    assert media.flips - flips == 3 * 512
    assert media.scrub_divergence() == []


@settings(max_examples=100, deadline=None)
@given(limit=st.integers(3, 8),
       writes=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2 ** 64 - 1)),
                       min_size=1, max_size=30))
def test_vnc_corrections_stay_within_bound(limit, writes):
    """Random writes to TINY never need more than L * R / (L - 2)
    corrections in one call, and leave no divergence behind."""
    cfg = make_cfg(strategy="vnc", disturb_limit=limit)
    media = CellArray(cfg)
    bound = limit * TINY.rows_per_bank // (limit - 2)
    for row, word in writes:
        _, strat = vnc_wrap_write(media, LineAddress(0, 0, row, 0),
                                  line_of((word,) * 8), cfg)
        assert len(strat.extra_writes) <= bound
        assert media.scrub_divergence() == []


class NeverSettles(CellArray):
    """Media whose lines all read back as ones, whatever was written."""

    def read_line(self, addr):
        return ONES


def test_vnc_raises_past_the_correction_bound():
    cfg = make_cfg(strategy="vnc", disturb_limit=3, threshold=1)
    with pytest.raises(ConsistencyError, match="made 25 .* bound of 24"):
        vnc_wrap_write(NeverSettles(cfg), A, ZEROS, cfg)
    # below L = 3 no bound exists, so the call is refused outright
    cfg = make_cfg(strategy="none", disturb_limit=2, threshold=0)
    with pytest.raises(ConsistencyError,
                       match="needs disturb_limit >= 3, not 2"):
        vnc_wrap_write(CellArray(cfg), A, ZEROS, cfg)


def test_siwc_hit_absorbs():
    cfg = make_cfg(siwc_entries=4, siwc_q_insert=Fraction(1))
    cache = SiwcCache(cfg, RunStats())
    rng = Random(0)
    assert cache.process_write(A, ONES, rng).absorbed
    out = cache.process_write(A, ZEROS, rng)
    assert out.absorbed and out.writeback is None
    assert cache.process_read(A) == ZEROS
    assert len(cache.lines) == 1


def test_siwc_insert_coin():
    cfg = make_cfg(siwc_entries=4, siwc_q_insert=Fraction(0))
    cache = SiwcCache(cfg, RunStats())
    out = cache.process_write(A, ONES, Random(0))
    assert not out.absorbed
    assert len(cache.lines) == 0


def test_siwc_eviction_writes_back():
    cfg = make_cfg(siwc_entries=2, siwc_q_insert=Fraction(1),
                   siwc_q_evict=Fraction(1))
    cache = SiwcCache(cfg, RunStats())
    rng = Random(0)
    lines = [LineAddress(0, 0, r, 0) for r in range(3)]
    for a in lines:
        out = cache.process_write(a, ONES, rng)
        assert out.absorbed
    assert out.writeback is not None
    wb_addr, wb_data = out.writeback
    assert wb_addr in lines[:2] and wb_data == ONES
    assert cache.stats.evictions == 1
    assert len(cache.lines) == 2


def test_siwc_eviction_coin_can_refuse():
    cfg = make_cfg(siwc_entries=1, siwc_q_insert=Fraction(1),
                   siwc_q_evict=Fraction(0))
    cache = SiwcCache(cfg, RunStats())
    rng = Random(0)
    assert cache.process_write(A, ONES, rng).absorbed
    out = cache.process_write(LineAddress(0, 0, 5, 0), ZEROS, rng)
    assert not out.absorbed and out.writeback is None


SIWC_PROBS = st.one_of(
    st.fractions(0, 1, max_denominator=12),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(2 ** 60 - 1, 2 ** 60)]))


@settings(max_examples=200, deadline=None)
@given(q_insert=SIWC_PROBS, q_evict=SIWC_PROBS, entries=st.integers(1, 4),
       full=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_siwc_write_draws_as_with_fraction_coins(q_insert, q_evict, entries,
                                                 full, seed):
    """One miss tosses the insert coin, and on a full cache the evict coin
    and the victim draw, as `random() < q` and `randrange` did: the same
    decisions, and the same generator state afterwards."""
    cfg = make_cfg(siwc_entries=entries, siwc_q_insert=q_insert,
                   siwc_q_evict=q_evict)
    cache = SiwcCache(cfg, RunStats())
    if full:
        assume(q_insert > 0)
        filler, rows = Random(seed + 1), cycle(range(6))
        while len(cache.lines) < entries:
            cache.process_write(LineAddress(0, 0, next(rows), 0), ONES, filler)
    held = list(cache.lines)
    expected = Random(seed)
    absorbed = expected.random() < q_insert
    victim = None
    if absorbed and full:
        absorbed = expected.random() < q_evict
        victim = expected.randrange(entries) if absorbed else None
    rng = Random(seed)
    out = cache.process_write(LineAddress(0, 0, 7, 0), ZEROS, rng)
    assert rng.getstate() == expected.getstate()
    assert out.absorbed == absorbed
    assert out.writeback == (None if victim is None else (held[victim], ONES))


@settings(max_examples=100, deadline=None)
@given(entries=st.integers(0, 3), seed=st.integers(0, 99),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 7)), max_size=40))
def test_siwc_check_holds_after_every_operation(entries, seed, ops):
    cfg = make_cfg(siwc_entries=entries)
    cache = SiwcCache(cfg, RunStats())
    rng = Random(seed)
    for is_write, row in ops:
        if is_write:
            cache.process_write(LineAddress(0, 0, row, 0), ONES, rng)
        else:
            cache.process_read(LineAddress(0, 0, row, 0))
        cache.check()


def full_cache():
    """A three-entry cache holding rows 0, 1 and 2, and a passing check."""
    cfg = make_cfg(siwc_entries=3, siwc_q_insert=Fraction(1))
    cache = SiwcCache(cfg, RunStats())
    rng = Random(0)
    for row in range(3):
        cache.process_write(LineAddress(0, 0, row, 0), ONES, rng)
    cache.check()
    return cache


def test_siwc_check_detects_a_line_in_two_slots():
    cache = full_cache()
    cache.lines[2] = cache.lines[0]
    del cache.data[LineAddress(0, 0, 2, 0)]
    with pytest.raises(ConsistencyError, match="two slots"):
        cache.check()


def test_siwc_check_detects_data_of_a_line_no_slot_holds():
    cache = full_cache()
    cache.data[LineAddress(0, 0, 5, 0)] = ZEROS
    with pytest.raises(ConsistencyError, match="disagrees"):
        cache.check()


def test_siwc_check_detects_more_lines_than_entries():
    cache = full_cache()
    extra = LineAddress(0, 0, 5, 0)
    cache.lines.append(extra)
    cache.data[extra] = ZEROS
    with pytest.raises(ConsistencyError, match="cache of 3 entries"):
        cache.check()
