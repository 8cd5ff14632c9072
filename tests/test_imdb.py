from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disturbsim.core import (LINE_MASK, ConsistencyError, LineAddress,
                             count_zeros)
from disturbsim.imdb import (BB_ENTRY_BITS, CNTR_MAX, MT_ENTRY_BITS, ZFC_MAX,
                             Imdb, apple_latency_cycles, sram_capacity)
from disturbsim.metrics import RunStats
from apple_ref import select_victim_apple as reference_apple
from apple_ref import select_victim_exact
from helpers import line_of, make_cfg, random_line

ONES = LINE_MASK
ZEROS = 0


def addr(row, col=0):
    return LineAddress(0, 0, row, col)


def make_imdb(**kw) -> Imdb:
    return Imdb(make_cfg(**kw), RunStats())


def flips16():
    """A line whose word 1 has 16 zeros; writing it over all-ones flips 16."""
    word1 = (1 << 64) - 1
    for b in range(16):
        word1 &= ~(1 << b)
    return line_of(((1 << 64) - 1, word1) + ((1 << 64) - 1,) * 6)


def test_prior_knowledge_counts_zeros_unsaturated():
    assert count_zeros(ONES) == [0] * 8
    assert count_zeros(ZEROS) == [64] * 8  # 64 < 511, no saturation here
    d = line_of((0b1010,) + ((1 << 64) - 1,) * 7)
    assert count_zeros(d)[0] == 62
    assert all(z <= ZFC_MAX for z in count_zeros(ZEROS))


def test_entry_bit_widths():
    assert MT_ENTRY_BITS == 108
    assert BB_ENTRY_BITS == 553


def test_sram_capacity_reference_point():
    cap = sram_capacity(256, 8, 4)
    assert cap["main_table_bits_per_bank"] == 256 * 108
    assert cap["barrier_buffer_bits_per_bank"] == 8 * 553
    assert cap["total_bits"] == 4 * (256 * 108 + 8 * 553)


def test_apple_latency_is_comparator_tree_depth():
    assert apple_latency_cycles(1) == 0
    assert apple_latency_cycles(2) == 1
    assert apple_latency_cycles(8) == 3
    assert apple_latency_cycles(256) == 8


def test_miss_inserts_with_prior_knowledge():
    t = make_imdb(n_mt=4, n_groups=4)
    t.process_write(addr(1), ONES, flips16(), Random(0))
    assert t.stats.insertions == 1
    assert t.lookup(addr(1)) is t.mt[0]
    assert t.mt[0].zfc == count_zeros(flips16())
    assert t.mt[0].max_zfc_idx == 1


def test_miss_without_prior_knowledge_starts_cold():
    t = make_imdb(n_mt=4, n_groups=4, prior_knowledge=False)
    t.process_write(addr(1), ONES, flips16(), Random(0))
    assert t.mt[0].zfc == [0] * 8


def test_miss_bypass_probability():
    t = make_imdb(n_mt=4, n_groups=4, insert_prob=Fraction(0))
    t.process_write(addr(1), ONES, ZEROS, Random(0))
    assert t.stats.bypasses == 1
    assert t.lookup(addr(1)) is None


def test_mt_hit_accumulates_and_triggers():
    t = make_imdb(n_mt=4, n_groups=4, threshold=20, disturb_limit=64, n_b=1)
    rng = Random(0)
    t.process_write(addr(3), ONES, ONES, rng)  # insert, prior = 0
    out = t.process_write(addr(3), ONES, flips16(), rng)
    assert t.stats.mt_hits == 1
    assert not out.rewrites  # 16 < 20
    assert t.mt[0].zfc[1] == 16
    out = t.process_write(addr(3), ONES, flips16(), rng)
    assert out.rewrites == [addr(2), addr(4)]
    assert out.absorbed  # promoted into the barrier buffer
    assert t.lookup(addr(3)) is t.bb[0]
    assert t.bb[0].data == flips16()


def test_trigger_requires_fresh_flips():
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=8, n_b=0)
    rng = Random(0)
    t.process_write(addr(3), ONES, ZEROS, rng)  # insert, prior 64 >= threshold
    out = t.process_write(addr(3), ZEROS, ZEROS, rng)  # no flips
    assert t.stats.mt_hits == 1 and not out.rewrites
    out = t.process_write(addr(3), ONES, ZEROS, rng)
    assert out.rewrites


def test_bufferless_variant_restarts_counters():
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=8, n_b=0)
    rng = Random(0)
    t.process_write(addr(3), ONES, flips16(), rng)
    out = t.process_write(addr(3), ONES, flips16(), rng)
    assert out.rewrites and not out.absorbed
    assert t.lookup(addr(3)) is t.mt[0]  # entry stays in the table
    assert t.mt[0].zfc == count_zeros(flips16())
    assert t.mt[0].rewrite_cntr == 1


def test_bb_hit_absorbs_and_updates_data():
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=8, n_b=1)
    rng = Random(0)
    t.process_write(addr(3), ONES, flips16(), rng)
    t.process_write(addr(3), ONES, flips16(), rng)  # trigger + promote
    out = t.process_write(addr(3), flips16(), ONES, rng)
    assert t.stats.bb_hits == 1 and out.absorbed
    assert t.bb[0].data == ONES
    assert t.bb[0].freq_cntr == 1


def test_absorbed_write_occupies_the_bank_at_least_1ns():
    """With zero-cycle tables, a table access takes no bank time, but a
    write the tables absorb, at promotion or on a barrier hit, takes 1 ns."""
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=8, n_b=1,
                  hit_cycles=0)
    rng = Random(0)
    assert t.process_write(addr(3), ONES, flips16(), rng).latency_ns == 0
    promoted = t.process_write(addr(3), ONES, flips16(), rng)
    assert promoted.absorbed and promoted.latency_ns == 1
    hit = t.process_write(addr(3), flips16(), ONES, rng)
    assert hit.absorbed and hit.latency_ns == 1


def test_try_absorb_and_read_path():
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=8, n_b=1)
    rng = Random(0)
    assert not t.try_absorb(addr(3), ONES)
    t.process_write(addr(3), ONES, flips16(), rng)
    t.process_write(addr(3), ONES, flips16(), rng)
    assert t.process_read(addr(3)) == flips16()
    assert t.try_absorb(addr(3), ONES)
    assert t.process_read(addr(3)) == ONES
    assert t.process_read(addr(5)) is None  # main table serves no reads


def test_full_bb_demotes_lfu_with_prior():
    t = make_imdb(n_mt=8, n_groups=8, threshold=3, disturb_limit=8, n_b=1)
    rng = Random(0)
    t.process_write(addr(3), ONES, flips16(), rng)
    t.process_write(addr(3), ONES, flips16(), rng)  # addr 3 now in bb
    t.process_write(addr(3), flips16(), ZEROS, rng)  # bump its frequency
    t.process_write(addr(5), ONES, flips16(), rng)
    out = t.process_write(addr(5), ONES, flips16(), rng)  # must demote addr 3
    assert out.writeback == (addr(3), ZEROS)
    assert t.lookup(addr(5)) is t.bb[0]
    where = t.lookup(addr(3))
    assert where in t.mt
    assert where.zfc == count_zeros(ZEROS)


def test_victim_key_ordering_exact():
    t = make_imdb(n_mt=4, n_groups=4)
    for i, (zfc, rw) in enumerate([(5, 0), (2, 1), (2, 0), (9, 0)]):
        t.install(i, addr(i), [zfc] + [0] * 7, rw)
    # min zfc wins; rewrite count breaks ties; slot index breaks the rest
    assert select_victim_exact(t) == 2
    t.mt[2].rewrite_cntr = 1
    assert select_victim_exact(t) == 1
    t.mt[1].zfc[0] = 5
    t.mt[2].zfc[0] = 5
    assert select_victim_exact(t) == 0


def test_select_victim_requires_full_table():
    t = make_imdb(n_mt=4, n_groups=4)
    with pytest.raises(ConsistencyError, match="slot 0 is free"):
        select_victim_exact(t)
    with pytest.raises(ConsistencyError, match="slot 0 is free"):
        t.select_victim_apple(Random(0))


def test_apple_full_sampling_equals_exact():
    rng = Random(7)
    t = make_imdb(n_mt=8, n_groups=8)
    for i in range(8):
        t.install(i, addr(i), [rng.randrange(4)] + [0] * 7, rng.randrange(2))
    assert t.select_victim_apple(Random(0)) == select_victim_exact(t)


def test_apple_single_group_is_one_random_sample():
    t = make_imdb(n_mt=8, n_groups=1)
    for i in range(8):
        t.install(i, addr(i), [i] + [0] * 7)
    rng = Random(3)
    expect = Random(3).randrange(8)
    assert t.select_victim_apple(rng) == expect


def test_eviction_replaces_lowest_counter_entry():
    t = make_imdb(n_mt=2, n_groups=2, threshold=3, disturb_limit=8, n_b=0)
    rng = Random(0)
    t.process_write(addr(1), ONES, ZEROS, rng)     # prior 64 per word
    t.process_write(addr(3), ONES, flips16(), rng)  # prior max 16
    t.process_write(addr(5), ONES, ONES, rng)
    assert t.stats.insertions == 3
    assert t.lookup(addr(3)) is None  # the weaker entry was evicted
    assert t.lookup(addr(1)) is not None
    assert t.stats.evictions == 1


def test_lru_variant_evicts_stalest():
    t = make_imdb(n_mt=2, n_groups=2, threshold=3, disturb_limit=8, n_b=0,
                  mt_policy="lru")
    rng = Random(0)
    t.process_write(addr(1), ONES, ZEROS, rng)
    t.process_write(addr(3), ONES, ONES, rng)
    t.process_write(addr(1), ZEROS, ZEROS, rng)  # touch addr 1
    t.process_write(addr(5), ONES, ONES, rng)
    assert t.lookup(addr(3)) is None  # stalest despite higher counters
    assert t.lookup(addr(1)) is not None


def test_write_requires_old_data():
    t = make_imdb()
    with pytest.raises(ConsistencyError,
                       match="without prepared old data"):
        t.process_write(addr(1), None, ONES, Random(0))


def test_duplicate_entries_rejected():
    t = make_imdb(n_mt=4, n_groups=4, n_b=1)
    t.install(0, addr(9), [0] * 8)
    with pytest.raises(ConsistencyError):
        t.install(1, addr(9), [0] * 8)
    # across tables: an address in the barrier buffer
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=8, n_b=1)
    rng = Random(0)
    t.process_write(addr(3), ONES, flips16(), rng)
    t.process_write(addr(3), ONES, flips16(), rng)  # promoted into bb
    assert t.lookup(addr(3)) is t.bb[0]
    with pytest.raises(ConsistencyError):
        t.install(1, addr(3), [0] * 8)
    t.check()


def test_check_detects_index_drift():
    t = make_imdb(n_mt=4, n_groups=4)
    t.install(2, addr(5), [0] * 8)
    t.check()
    t.mt[2].addr = addr(6)  # entry changed behind the index's back
    with pytest.raises(ConsistencyError, match="index disagrees"):
        t.check()
    t = make_imdb(n_mt=4, n_groups=4)
    t.install(2, addr(5), [0] * 8)
    t.mt[2].addr = None  # slot freed without returning it to the heap
    del t._where[addr(5)]
    with pytest.raises(ConsistencyError, match="free-slot heap"):
        t.check()
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=8, n_b=1)
    rng = Random(0)
    t.process_write(addr(3), ONES, flips16(), rng)
    t.process_write(addr(3), ONES, flips16(), rng)  # promoted into bb
    t.check()
    del t._where[addr(3)]  # barrier entry missing from the index
    with pytest.raises(ConsistencyError, match="index disagrees"):
        t.check()


def test_check_detects_counters_wider_than_their_fields():
    """AppLE packs an entry's counters into one int key, so `check` fails an
    entry whose counters could not be held in the table's fields."""
    t = make_imdb(n_mt=4, n_groups=4)
    t.install(1, addr(5), [ZFC_MAX] * 8, CNTR_MAX)
    t.check()
    t.install(2, addr(6), [0, ZFC_MAX + 1] + [0] * 6)
    with pytest.raises(ConsistencyError):
        t.check()
    t = make_imdb(n_mt=4, n_groups=4)
    t.install(2, addr(6), [0] * 8, CNTR_MAX + 1)
    with pytest.raises(ConsistencyError):
        t.check()


def test_check_detects_a_stale_apple_key():
    """AppLE reads each slot's cached key, so `check` fails a key that
    disagrees with its entry, whichever side changed."""
    t = make_imdb(n_mt=4, n_groups=4)
    t.install(1, addr(5), [3] + [0] * 7, 2)
    t.check()
    t._keys[1] += 1
    with pytest.raises(ConsistencyError, match="slot 1 has AppLE key"):
        t.check()
    t._keys[1] -= 1
    t.mt[1].rewrite_cntr = 3  # counter moved behind the key's back
    with pytest.raises(ConsistencyError, match="slot 1 has AppLE key"):
        t.check()


TABLE_OPS = st.lists(st.tuples(
    st.sampled_from(["write", "absorb", "read"]), st.integers(0, 7),
    st.integers(0, 2 ** 64 - 1)), max_size=60)


@settings(max_examples=150, deadline=None)
@given(n_mt=st.sampled_from([2, 4]), n_b=st.integers(0, 2),
       policy=st.sampled_from(["flip", "lru"]), seed=st.integers(0, 99),
       ops=TABLE_OPS)
def test_check_holds_after_every_operation(n_mt, n_b, policy, seed, ops):
    """Random writes, admission absorbs and reads over eight lines keep the
    index and the free slots equal to a full scan of the tables."""
    t = make_imdb(n_mt=n_mt, n_groups=2, n_b=n_b, threshold=3,
                  disturb_limit=8, mt_policy=policy)
    rng = Random(seed)
    old = {}
    for op, row, word in ops:
        data = line_of((word,) * 8)
        if op == "write":
            t.process_write(addr(row), old.get(row, ZEROS), data, rng)
            old[row] = data
        elif op == "absorb":
            t.try_absorb(addr(row), data)
        else:
            t.process_read(addr(row))
        t.check()


WORDS = st.one_of(st.sampled_from([0, (1 << 64) - 1]),
                  st.integers(0, (1 << 64) - 1))


@settings(max_examples=100, deadline=None)
@given(n_b=st.sampled_from([0, 1, 2]), prior=st.booleans(),
       p=st.sampled_from([Fraction(1, 2), Fraction(7, 8)]),
       seed=st.integers(0, 2 ** 32),
       ops=st.lists(st.tuples(st.integers(0, 7),
                              st.lists(WORDS, min_size=8, max_size=8)),
                    max_size=60))
def test_apple_keys_follow_every_write(n_b, prior, p, seed, ops):
    """Writes drive the cached AppLE keys through insertions, counted hits,
    triggers, the bufferless reset and demotions. After each one `check`
    holds, and on a full table the victim draw equals the reference's, with
    the generator left in the same state."""
    t = make_imdb(n_mt=4, n_groups=2, n_b=n_b, threshold=15,
                  disturb_limit=32, prior_knowledge=prior, insert_prob=p)
    rng = Random(seed)
    old = {}
    for row, words in ops:
        data = line_of(words)
        t.process_write(addr(row), old.get(row, ZEROS), data, rng)
        old[row] = data
        t.check()
        if not t._free_mt:
            ours, theirs = Random(), Random()
            ours.setstate(rng.getstate())
            theirs.setstate(rng.getstate())
            assert t.select_victim_apple(ours) == reference_apple(t, theirs)
            assert ours.getstate() == theirs.getstate()


def test_counters_saturate():
    t = make_imdb(n_mt=4, n_groups=4, threshold=3, disturb_limit=2000, n_b=0)
    rng = Random(0)
    t.process_write(addr(3), ONES, ONES, rng)
    for _ in range(40):
        t.process_write(addr(3), ONES, ZEROS, rng)
        t.process_write(addr(3), ZEROS, ONES, rng)
    assert max(t.mt[0].zfc) <= ZFC_MAX
    assert t.mt[0].rewrite_cntr <= 255


# (n_mt, n_groups): one group, one-slot groups, power-of-two and other sizes
GROUPINGS = st.sampled_from([(1, 1), (4, 4), (4, 1), (6, 2), (6, 3), (8, 2),
                             (8, 8), (12, 4), (10, 2), (7, 1)])


@st.composite
def full_tables(draw):
    """A full main table; small counter ranges make equal keys common."""
    n_mt, n_groups = draw(GROUPINGS)
    t = make_imdb(n_mt=n_mt, n_groups=n_groups)
    top = draw(st.sampled_from([1, 3, ZFC_MAX]))
    for slot in range(n_mt):
        zfc = draw(st.lists(st.integers(0, top), min_size=8, max_size=8))
        t.install(slot, addr(slot), zfc,
                  draw(st.integers(0, min(top, CNTR_MAX))))
    return t


@settings(max_examples=200, deadline=None)
@given(t=full_tables(), seed=st.integers(0, 2 ** 32), rounds=st.integers(1, 4))
def test_apple_matches_reference(t, seed, rounds):
    """The hoisted AppLE loop picks the slot the randrange-and-tuple
    version picks, and leaves the generator in the same state."""
    ours, theirs = Random(seed), Random(seed)
    for _ in range(rounds):
        assert t.select_victim_apple(ours) == reference_apple(t, theirs)
        assert ours.getstate() == theirs.getstate()


def test_apple_needs_a_main_table():
    with pytest.raises(ConsistencyError, match="the main table has no slots"):
        make_imdb(n_mt=0, n_b=1).select_victim_apple(Random(0))


INSERT_PROBS = st.one_of(
    st.fractions(0, 1),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3),
                     Fraction(2 ** 60 - 1, 2 ** 60)]))


@settings(max_examples=200, deadline=None)
@given(p=INSERT_PROBS, full=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_miss_draws_as_with_a_fraction_coin(p, full, seed):
    """One miss tosses the insertion coin as `random() < insert_prob` did
    (no toss at p >= 1), then draws AppLE's samples on a full table: the
    same decision and the same generator state afterwards."""
    t = make_imdb(n_mt=6, n_groups=2, insert_prob=p)
    for slot in range(6 if full else 3):
        t.install(slot, addr(slot), [slot % 4] * 8)
    expected = Random(seed)
    inserted = p >= 1 or expected.random() < p
    victim = None
    if inserted:
        victim = reference_apple(t, expected) if full else 3
    rng = Random(seed)
    t.process_write(addr(7), ONES, ZEROS, rng)
    assert rng.getstate() == expected.getstate()
    assert (t.stats.insertions, t.stats.bypasses) == (inserted, not inserted)
    assert t.lookup(addr(7)) is (None if victim is None else t.mt[victim])
