"""In-module disturbance barrier: main table, barrier buffer, replacement
policy with prior knowledge, sampled victim selection, and rewrite
generation.

One instance serves one bank. The main table counts per-word 1-to-0 flips of
managed addresses and fires a pair of full rewrites on the adjacent wordlines
when the maximal sub-counter reaches the threshold; the barrier buffer holds
the data of addresses that keep triggering rewrites and absorbs their writes
entirely. Table events are counted in the run's statistics as they happen.

AppLE compares main-table entries by one int key, (maximal sub-counter,
rewrite counter) packed as `max(zfc) << _KEY_SHIFT | rewrite_cntr`, and
each entry stores its own. `install` and `_mt_hit` set it whenever they
change the counters of an entry that stays in its slot; a freed slot keeps
a stale key, and AppLE draws only on a full table. `check` compares every
occupied entry's key with its counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from random import Random

from .baselines import ABSORBED, PASSED, Mitigation, Outcome
from .core import (ConsistencyError, LineAddress, SimConfig, _new_tuple,
                   coin_threshold, count_one_to_zero, count_zeros)
from .media import CellArray

# Prior knowledge seeds the sub-counters with `count_zeros`, which needs no
# saturation: a 64-bit word has at most 64 zero bits.
ZFC_MAX = 511       # 9-bit saturating sub-counters
CNTR_MAX = 255      # 8-bit rewrite / frequency counters

# the 25-bit tag is the line's row and column within the bank
MT_ENTRY_BITS = 25 + 8 + 72 + 3    # tag + rewrite_cntr + 8x9b zfc + max idx
BB_ENTRY_BITS = 512 + 25 + 8 + 8   # data + tag + rewrite_cntr + freq_cntr


# Entries compare by identity (eq=False): the index maps each line to the
# one entry that holds it.
@dataclass(slots=True, eq=False)
class MainTableEntry:
    slot: int
    addr: LineAddress | None = None  # None: the slot is free
    zfc: list = field(default_factory=lambda: [0] * 8)
    rewrite_cntr: int = 0
    key: int = 0  # AppLE's sort key: `_apple_key` of the counters
    last_use: int = 0  # recency stamp, only consulted by the LRU variant


@dataclass(slots=True, eq=False)
class BarrierEntry:
    addr: LineAddress
    data: int
    rewrite_cntr: int = 0
    freq_cntr: int = 0


# AppLE compares (maximal sub-counter, rewrite counter) as one int
_KEY_SHIFT = CNTR_MAX.bit_length()
_NO_KEY = (ZFC_MAX + 1) << _KEY_SHIFT  # above every entry's key


def _apple_key(e: MainTableEntry) -> int:
    return max(e.zfc) << _KEY_SHIFT | e.rewrite_cntr


def _cold_zfc(data: int) -> list:  # the seed without prior knowledge
    return [0] * 8


def sram_capacity(n_mt: int, n_b: int, banks: int) -> dict:
    """Exact SRAM bit budget of the two tables."""
    mt_bits = n_mt * MT_ENTRY_BITS
    bb_bits = n_b * BB_ENTRY_BITS
    per_bank = mt_bits + bb_bits
    return {
        "main_table_bits_per_bank": mt_bits,
        "barrier_buffer_bits_per_bank": bb_bits,
        "bits_per_bank": per_bank,
        "total_bits": per_bank * banks,
    }


def apple_latency_cycles(n_groups: int) -> int:
    """Depth of the dual-input comparator tree over the sampled entries."""
    return math.ceil(math.log2(n_groups)) if n_groups > 1 else 0


class Imdb(Mitigation):
    def __init__(self, cfg: SimConfig, stats):
        super().__init__(cfg, stats)
        self.mt = [MainTableEntry(i) for i in range(cfg.n_mt)]
        self.bb: list[BarrierEntry] = []  # fills up to n_b and never empties
        # line -> the main-table or barrier entry that holds it
        self._where: dict[LineAddress, MainTableEntry | BarrierEntry] = {}
        self._free_mt = list(range(cfg.n_mt))  # heap of free main-table slots
        self._clock = 0  # monotone access stamp for the LRU variant
        # Every fresh entry (an insertion, the bufferless reset, a demotion)
        # starts its sub-counters from `_seed` of the data it holds.
        self._seed = count_zeros if cfg.prior_knowledge else _cold_zfc
        self._select_victim = (self.select_victim_lru if cfg.mt_policy == "lru"
                               else self.select_victim_apple)
        p = Fraction(cfg.insert_prob)
        self._always_insert = p.numerator >= p.denominator  # no coin at p >= 1
        self._insert_below = coin_threshold(p)
        # AppLE samples one slot in each group of consecutive slots
        size = cfg.n_mt // cfg.n_groups
        self._group_size = size
        self._group_bits = size.bit_length()
        self._group_bases = range(0, cfg.n_mt, size or 1)  # none if n_mt = 0
        # the outcomes that carry nothing but the table occupancy: a table
        # access, an absorbed write (at least 1 ns, so that its service
        # occupies the bank), and an insertion that evicts
        self._hit_ns = cfg.cycles_to_ns(cfg.hit_cycles)
        self._hit = Outcome(False, None, (), self._hit_ns)
        self._absorbed = Outcome(True, None, (), max(self._hit_ns, 1))
        self._evict = Outcome(False, None, (), cfg.cycles_to_ns(
            cfg.hit_cycles + apple_latency_cycles(cfg.n_groups)))

    @classmethod
    def design(cls, cfg: SimConfig) -> dict:
        # a main table with no slot samples no group
        area = sram_capacity(cfg.n_mt, cfg.n_b, 1)["bits_per_bank"]
        return {"n_mt": cfg.n_mt, "n_b": cfg.n_b,
                "n_groups": cfg.n_groups if cfg.n_mt else 0,
                "area_bits": area}

    # -- lookup ------------------------------------------------------------

    def lookup(self, addr: LineAddress) -> MainTableEntry | BarrierEntry | None:
        """The entry that holds `addr`, or None. A line is held by at most
        one entry of the two tables; `_claim` enforces that."""
        return self._where.get(addr)

    # -- the index -----------------------------------------------------------

    def _claim(self, addr: LineAddress,
               entry: MainTableEntry | BarrierEntry) -> None:
        """Index `entry` as the holder of `addr`, unless another entry
        already holds it."""
        held = self._where.setdefault(addr, entry)
        if held is not entry:
            raise ConsistencyError(f"line {addr} is already held by a "
                                   f"{type(held).__name__}")

    def install(self, slot: int, addr: LineAddress, zfc: list,
                rewrite_cntr: int = 0) -> None:
        """Put an entry into main-table slot `slot`, an occupied one or the
        lowest free one. The one path that fills the main table."""
        e = self.mt[slot]
        self._claim(addr, e)
        if e.addr is None:
            lowest = heappop(self._free_mt)
            if lowest != slot:
                raise ConsistencyError(
                    f"slot {slot} is free, but slot {lowest} is the lowest")
        elif e.addr != addr:
            del self._where[e.addr]
        e.addr = addr
        e.zfc = zfc
        e.rewrite_cntr = rewrite_cntr
        e.last_use = self._clock
        e.key = _apple_key(e)

    def _require_full(self) -> None:
        if not self.mt:
            raise ConsistencyError("the main table has no slots")
        if self._free_mt:
            raise ConsistencyError(
                f"slot {self._free_mt[0]} is free; use it instead of evicting")

    def check(self) -> None:
        """Compare the index and the free slots with a full scan of both
        tables; raise ConsistencyError on any difference."""
        seen: dict[LineAddress, MainTableEntry | BarrierEntry] = {}
        for e in self.mt + self.bb:
            if e.addr is not None and seen.setdefault(e.addr, e) is not e:
                raise ConsistencyError(f"line {e.addr} is held by two entries")
        if seen != self._where:  # entries compare by identity
            raise ConsistencyError("table index disagrees with the entries")
        free = [e.slot for e in self.mt if e.addr is None]
        if sorted(self._free_mt) != free:
            raise ConsistencyError(f"free-slot heap {sorted(self._free_mt)} "
                                   f"!= free main-table slots {free}")
        if len(self.bb) > self.cfg.n_b:
            raise ConsistencyError(f"{len(self.bb)} barrier entries in a "
                                   f"buffer of {self.cfg.n_b}")
        for e in self.mt:  # AppLE's int keys rely on these
            if e.addr is None:
                continue
            if max(e.zfc) > ZFC_MAX or e.rewrite_cntr > CNTR_MAX:
                raise ConsistencyError(f"main-table slot {e.slot} holds a counter "
                                       f"wider than its field")
            if e.key != _apple_key(e):
                raise ConsistencyError(
                    f"main-table slot {e.slot} has AppLE key {e.key:#x}, "
                    f"its counters {_apple_key(e):#x}")

    # -- victim selection --------------------------------------------------

    def select_victim_apple(self, rng: Random) -> int:
        """Sample one slot per group, with one uniform draw each, and return
        the sample with the least (maximal sub-counter, rewrite counter,
        slot). Groups come in slot order, so keeping the first of equal int
        keys breaks ties by slot."""
        self._require_full()
        mt, getrandbits = self.mt, rng.getrandbits
        size, bits = self._group_size, self._group_bits
        best_key = _NO_KEY
        for base in self._group_bases:
            # `core.draw_below` inlined: the same getrandbits calls
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            key = mt[base + r].key
            if key < best_key:
                best_key, best = key, base + r
        return best

    def select_victim_lru(self, rng: Random) -> int:  # draws nothing
        self._require_full()
        return min(range(len(self.mt)),
                   key=lambda i: (self.mt[i].last_use, i))

    # -- the mitigation hooks ------------------------------------------------

    def admit_write(self, addr: LineAddress, data: int,
                    rng: Random) -> Outcome:
        return ABSORBED if self.try_absorb(addr, data) else PASSED

    def write(self, media: CellArray, cmd, rng: Random) -> Outcome:
        return self.process_write(cmd.addr, cmd.old_data, cmd.data, rng)

    # -- write / read paths --------------------------------------------------

    def _bb_hit(self, e: BarrierEntry) -> BarrierEntry:
        e.freq_cntr = min(e.freq_cntr + 1, CNTR_MAX)
        self.stats.bb_hits += 1
        self.stats.bb_accesses += 1
        return e

    def process_write(self, addr: LineAddress, old_data: int | None,
                      new_data: int, rng: Random) -> Outcome:
        """The tables' part of a host write; `latency_ns` is the table
        occupancy, at least 1 ns for an absorbed write."""
        if old_data is None:
            raise ConsistencyError(
                "write reached the tables without prepared old data")
        self.stats.sram_searches += 1
        self.stats.sram_accesses += 1
        hit = self.lookup(addr)
        self._clock += 1
        if hit is None:
            return self._miss(addr, new_data, rng)
        if hit.__class__ is BarrierEntry:
            self._bb_hit(hit).data = new_data
            return self._absorbed
        return self._mt_hit(hit, old_data, new_data)

    def _mt_hit(self, e: MainTableEntry, old_data: int,
                new_data: int) -> Outcome:
        self.stats.mt_hits += 1
        e.last_use = self._clock
        # The trigger requires fresh flips: a rewrite that changes nothing must
        # not re-fire an entry whose counters sit at or above the threshold.
        # Without flips no counter moves either.
        if old_data & ~new_data == 0:
            return self._hit
        zfc = e.zfc
        for i, f in enumerate(count_one_to_zero(old_data, new_data)):
            if f:  # only the words with flips
                zfc[i] = min(zfc[i] + f, ZFC_MAX)
        if max(zfc) < self.cfg.threshold:
            e.key = _apple_key(e)
            return self._hit
        e.rewrite_cntr = min(e.rewrite_cntr + 1, CNTR_MAX)
        rewrites = e.addr.neighbor_rows(self.geometry)
        self.stats.rewrites += len(rewrites)
        if self.cfg.n_b > 0:
            writeback = self.promote_and_demote(e, new_data)
            return _new_tuple(Outcome, (True, writeback, rewrites,
                                        self._absorbed.latency_ns))
        # Bufferless variant: the entry stays; its counters restart from `_seed`.
        e.zfc = self._seed(new_data)
        e.key = _apple_key(e)
        return _new_tuple(Outcome, (False, None, rewrites, self._hit_ns))

    def _miss(self, addr: LineAddress, new_data: int,
              rng: Random) -> Outcome:
        if not self.mt or not (self._always_insert
                               or rng.random() < self._insert_below):
            self.stats.bypasses += 1
            return self._hit
        self.stats.insertions += 1
        if self._free_mt:
            slot, out = self._free_mt[0], self._hit
        else:
            slot, out = self._select_victim(rng), self._evict
            self.stats.evictions += 1
        self.install(slot, addr, self._seed(new_data))
        return out

    def try_absorb(self, addr: LineAddress, data: int) -> bool:
        """Admission-time check: a write whose address sits in the barrier
        buffer is consumed there and never reaches the queues."""
        self.stats.sram_searches += 1
        if not self.cfg.n_b:
            return False
        hit = self.lookup(addr)
        if hit.__class__ is BarrierEntry:
            self._bb_hit(hit).data = data
            return True
        return False

    def process_read(self, addr: LineAddress) -> int | None:
        """Reads are served by the barrier buffer when possible; the main
        table stores no data and is untouched by reads."""
        self.stats.sram_searches += 1
        hit = self.lookup(addr)
        if hit.__class__ is BarrierEntry:
            return self._bb_hit(hit).data
        return None

    # -- promotion ---------------------------------------------------------

    def promote_and_demote(self, src: MainTableEntry,
                           write_data: int) -> tuple | None:
        """Move a rewrite-triggering main-table entry up into the barrier
        buffer, carrying the write data. A full buffer demotes its LFU entry
        back into the vacated slot and returns that entry's line and data
        for writeback."""
        entry = BarrierEntry(src.addr, write_data, src.rewrite_cntr)
        writeback = None
        if len(self.bb) < self.cfg.n_b:
            del self._where[src.addr]
            src.addr = None
            heappush(self._free_mt, src.slot)
            self.bb.append(entry)
        else:
            # min keeps the first of equal counts: the lowest slot wins ties
            bb = self.bb
            lfu = min(range(len(bb)), key=lambda i: bb[i].freq_cntr)
            victim = self.bb[lfu]
            writeback = (victim.addr, victim.data)
            self.stats.evictions += 1
            del self._where[victim.addr]
            self.install(src.slot, victim.addr, self._seed(victim.data),
                         victim.rewrite_cntr)
            self.bb[lfu] = entry
        self._claim(entry.addr, entry)
        return writeback
