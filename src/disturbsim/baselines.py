"""The per-bank mitigation interface, and the baseline strategies.

`Mitigation` holds the hooks the controller calls, and is itself the `none`
strategy. A strategy subclasses it, overrides the hooks it needs (and
`design`, if the config sizes its tables) and counts its own table events
in the run's `RunStats`; the media counts the reads and writes that reach
it. Every hook or table method that reports on a host write returns one
`Outcome`, and a broken hook precondition raises `ConsistencyError`.

Verify-and-correct (VnC) reads the two neighbor lines before and after
every write and issues full corrective rewrites where the physical contents
diverge from the intended data. The SIWC-style strategy keeps a small fully
associative write cache with coin-toss insertion and eviction; its exact
probabilities are configurable because the source study does not publish
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, NamedTuple

from .core import (ConsistencyError, LineAddress, SimConfig, _new_tuple,
                   coin_threshold, draw_below)
from .media import CellArray, WriteOutcome

if TYPE_CHECKING:
    from .metrics import RunStats

SIWC_ENTRY_BITS = 512 + 25  # data + row-and-column tag


class Outcome(NamedTuple):
    """What a strategy did with one host write. The hot paths build it with
    `core._new_tuple`, every field in this order."""

    absorbed: bool  # the strategy took the write: not queued, not written
    writeback: tuple | None  # (LineAddress, line) to queue for the media
    rewrites: list | tuple  # distinct targets of Full-mode rewrites
    latency_ns: int  # bank occupancy


PASSED = Outcome(False, None, (), 0)
ABSORBED = Outcome(True, None, (), 0)


class Mitigation:
    """One bank's mitigation strategy: plain media writes, as `none` does,
    with no table, so its `design` reads no swept size."""

    def __init__(self, cfg: SimConfig, stats: RunStats):
        self.cfg = cfg
        self.geometry = cfg.geometry
        self.stats = stats

    @classmethod
    def design(cls, cfg: SimConfig) -> dict:
        """The one statement of the swept sizes the strategy reads at `cfg`
        (`n_mt`, `n_b`, `n_groups`, 0 when unread) and `area_bits`, the SRAM
        bits of one bank's tables. `sweep` simulates each design once."""
        return {"n_mt": 0, "n_b": 0, "n_groups": 0, "area_bits": 0}

    def process_read(self, addr: LineAddress) -> int | None:
        """An admitted host read: the line if the strategy serves it, else
        None and the read is queued for the media."""
        return None

    def admit_write(self, addr: LineAddress, data: int,
                    rng: Random) -> Outcome:
        """An admitted host write. An absorbed write is never queued; the
        controller merges or queues each rewrite and queues the writeback,
        as for `write`."""
        return PASSED

    def write(self, media: CellArray, cmd, rng: Random) -> Outcome:
        """Service a prepared host write: the tables' part, with their
        occupancy. The controller merges or queues each rewrite, queues the
        writeback and writes the line to the media unless it is absorbed;
        an absorbed write's own latency must be at least 1 ns."""
        return PASSED

    def check(self) -> None:
        """Raise ConsistencyError if the strategy's own state is corrupt."""


@dataclass
class StrategyOutcome:
    extra_reads: list   # LineAddress: every line read, pre-reads first
    extra_writes: list  # LineAddress: every corrected line


def vnc_wrap_write(media: CellArray, addr: LineAddress, data: int,
                   cfg: SimConfig) -> tuple[WriteOutcome, StrategyOutcome]:
    """Apply a write under verify-and-correct.

    Neighbors are read before the write and again after it; any checked line
    whose physical state diverges from intended data is corrected with a full
    rewrite. Corrections can disturb their own neighbors, so those are pushed
    onto the worklist until no divergence remains. The returned outcome is
    the host write's own, except that its `latency_ns` is the occupancy of
    the whole verify-and-correct sequence.
    """
    # Termination. After its first correction in this call, a line Y holds
    # its intended data and every cell's pulse count is 0 (a full write
    # programs every cell). It diverges again only once one cell takes
    # L = disturb_limit new pulses, and each comes from a correction of
    # Y - 1 or Y + 1, so with c(Y) corrections of Y in the call,
    # L * (c(Y) - 1) <= c(Y - 1) + c(Y + 1). Summed over the R rows of the
    # column, L * (C - R) <= 2 * C for the call's C corrections, that is
    # C <= L * R / (L - 2) when L >= 3. Below 3 this gives no bound, and
    # L = 1 never ends: each correction re-flips the line it came from.
    limit = cfg.disturb_limit
    if limit < 3:
        raise ConsistencyError(f"verify-and-correct needs disturb_limit "
                               f">= 3, not {limit}")
    max_corrections = limit * cfg.geometry.rows_per_bank // (limit - 2)

    pre = addr.neighbor_rows(cfg.geometry)
    for nb in pre:
        media.read_line(nb)

    write_out = media.apply_write(addr, data)
    total_ns = write_out.latency_ns

    checked = list(pre)  # the worklist: it grows while it is walked
    corrected = []
    for nb in checked:
        physical = media.read_line(nb)
        intended = media.intended_line(nb)
        if physical != intended:
            total_ns += media.apply_write(nb, intended, True).latency_ns
            corrected.append(nb)
            if len(corrected) > max_corrections:
                raise ConsistencyError(
                    f"VnC made {len(corrected)} corrections for one "
                    f"write, above the bound of {max_corrections}")
            # A corrective full write aggresses its own neighbors; verify them too.
            checked.extend(nb.neighbor_rows(cfg.geometry))
    # Each verification read occupies the bank for a standard read slot.
    write_out.latency_ns = total_ns + (len(pre) + len(checked)) * cfg.read_ns
    return write_out, StrategyOutcome(pre + checked, corrected)


class SiwcCache(Mitigation):
    """Per-bank coin-toss write cache: `lines` holds the cached line of
    each filled slot, and `data` maps each cached line to its contents.
    Slots fill in order and never empty."""

    def __init__(self, cfg: SimConfig, stats: RunStats):
        super().__init__(cfg, stats)
        self.lines: list[LineAddress] = []
        self.data: dict[LineAddress, int] = {}
        self._capacity = self.entry_count(cfg)
        self._insert_below = coin_threshold(cfg.siwc_q_insert)
        self._evict_below = coin_threshold(cfg.siwc_q_evict)
        self._victim_bits = self._capacity.bit_length()

    @staticmethod
    def entry_count(cfg: SimConfig) -> int:
        """`siwc.entries`, by default n_mt + n_b (entry parity with IMDB)."""
        return (cfg.n_mt + cfg.n_b if cfg.siwc_entries is None
                else cfg.siwc_entries)

    @classmethod
    def design(cls, cfg: SimConfig) -> dict:
        # By default n_mt and n_b size the cache only through their sum, its
        # entry count, reported as n_mt; no group is sampled
        entries = cls.entry_count(cfg)
        return {"n_mt": entries if cfg.siwc_entries is None else 0, "n_b": 0,
                "n_groups": 0, "area_bits": entries * SIWC_ENTRY_BITS}

    def check(self) -> None:
        """Compare the slots with the data; raise ConsistencyError on any
        difference."""
        if len(self.lines) > self._capacity:
            raise ConsistencyError(f"{len(self.lines)} lines in a cache of "
                                   f"{self._capacity} entries")
        if len(set(self.lines)) != len(self.lines):
            raise ConsistencyError(f"a line is held in two slots: {self.lines}")
        if self.data.keys() != set(self.lines):
            raise ConsistencyError("cache data disagrees with the slots")

    def admit_write(self, addr: LineAddress, data: int,
                    rng: Random) -> Outcome:
        return self.process_write(addr, data, rng)

    def process_write(self, addr: LineAddress, data: int,
                      rng: Random) -> Outcome:
        """A miss tosses the insert coin; on a full cache it then tosses the
        evict coin and draws the victim slot. No coin is skipped at
        probability 0 or 1."""
        cached = self.data
        if addr in cached:
            cached[addr] = data
            return ABSORBED
        if not self._capacity or not rng.random() < self._insert_below:
            return PASSED
        lines = self.lines
        if len(lines) < self._capacity:
            lines.append(addr)
            cached[addr] = data
            return ABSORBED
        if not rng.random() < self._evict_below:
            return PASSED
        slot = draw_below(rng.getrandbits, self._capacity, self._victim_bits)
        victim = lines[slot]
        lines[slot] = addr
        writeback = (victim, cached.pop(victim))
        cached[addr] = data
        self.stats.evictions += 1
        return _new_tuple(Outcome, (True, writeback, (), 0))

    def process_read(self, addr: LineAddress) -> int | None:
        return self.data.get(addr)
