"""Alternative mitigation strategies behind a uniform adapter.

`none` performs raw media writes. Verify-and-correct (VnC) reads the two
neighbor lines before and after every write and issues full corrective
rewrites where the physical contents diverge from the intended data. The
SIWC-style strategy keeps a small fully associative write cache with
coin-toss insertion and eviction; its exact probabilities are configurable
because the source study does not publish them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .core import ConsistencyError, DataLine, LineAddress, SimConfig
from .media import CellArray, WriteMode, WriteOutcome


@dataclass
class StrategyOutcome:
    extra_reads: list = field(default_factory=list)      # LineAddress
    extra_writes: list = field(default_factory=list)     # (addr, DataLine, WriteMode)
    absorbed: bool = False
    writeback: tuple | None = None                       # (LineAddress, DataLine)


def vnc_wrap_write(media: CellArray, addr: LineAddress, data: DataLine,
                   cfg: SimConfig) -> tuple[WriteOutcome, StrategyOutcome]:
    """Apply a write under verify-and-correct.

    Neighbors are read before the write and again after it; any checked line
    whose physical state diverges from intended data is corrected with a full
    rewrite. Corrections can disturb their own neighbors, so those are pushed
    onto the worklist until no divergence remains.
    """
    out = StrategyOutcome()
    pre = addr.neighbor_rows(cfg.geometry)
    for nb in pre:
        media.read_line(nb)
        out.extra_reads.append(nb)

    write_out = media.apply_write(addr, data, WriteMode.DIFFERENTIAL)
    total_ns = write_out.latency_ns

    pending = list(pre)
    seen_rounds = 0
    while pending:
        nb = pending.pop(0)
        physical = media.read_line(nb)
        out.extra_reads.append(nb)
        intended = media.intended_line(nb)
        if physical.to_int() != intended.to_int():
            corr = media.apply_write(nb, intended, WriteMode.FULL)
            out.extra_writes.append((nb, intended, WriteMode.FULL))
            write_out.wde_events.extend(corr.wde_events)
            write_out.reset_pulses += corr.reset_pulses
            write_out.set_pulses += corr.set_pulses
            total_ns += corr.latency_ns
            # A corrective full write aggresses its own neighbors; verify them too.
            pending.extend(nb.neighbor_rows(cfg.geometry))
        seen_rounds += 1
        if seen_rounds > 10_000_000:
            raise RuntimeError("VnC correction did not converge")
    # Each verification read occupies the bank for a standard read slot.
    write_out.latency_ns = total_ns + len(out.extra_reads) * cfg.read_ns
    return write_out, out


@dataclass
class WriteCacheEntry:
    valid: bool = False
    row_col: int = 0
    data: DataLine | None = None


class SiwcCache:
    """Per-bank coin-toss write cache."""

    def __init__(self, cfg: SimConfig, rank: int, bank: int):
        self.cfg = cfg
        self.geometry = cfg.geometry
        self.rank = rank
        self.bank = bank
        self.entries = [WriteCacheEntry() for _ in range(cfg.siwc_entry_count)]
        self._slot: dict[int, int] = {}  # row_col -> slot of every valid entry
        self._used = 0  # slots fill in order and never empty

    def _pack(self, addr: LineAddress) -> int:
        return addr.row_col(self.geometry)

    def _unpack(self, row_col: int) -> LineAddress:
        cols = self.geometry.cols_per_row
        return LineAddress(self.rank, self.bank, row_col // cols, row_col % cols)

    def _find(self, addr: LineAddress) -> int | None:
        return self._slot.get(addr.row_col(self.geometry))

    def _install(self, slot: int, addr: LineAddress, data: DataLine) -> None:
        """Put an entry into `slot`, replacing any entry there. The one path
        that fills the cache."""
        rc = self._pack(addr)
        held = self._slot.setdefault(rc, slot)
        if held != slot:
            raise ConsistencyError(f"address {rc} is valid in slot {held}; "
                                   f"cannot also install it in slot {slot}")
        e = self.entries[slot]
        if e.valid and e.row_col != rc:
            del self._slot[e.row_col]
        e.valid = True
        e.row_col = rc
        e.data = data

    def check(self) -> None:
        """Compare the index and the fill counter with a full scan of the
        entries; raise ConsistencyError on any difference."""
        valid = [e.valid for e in self.entries]
        if valid != [i < self._used for i in range(len(self.entries))]:
            raise ConsistencyError(f"slots {valid} do not fill in order "
                                   f"up to {self._used}")
        seen: dict[int, int] = {}
        for slot, e in enumerate(self.entries[:self._used]):
            if seen.setdefault(e.row_col, slot) != slot:
                raise ConsistencyError(f"address {e.row_col} valid in slots "
                                       f"{seen[e.row_col]} and {slot}")
        if seen != self._slot:
            raise ConsistencyError("cache index disagrees with the entries")

    def process_write(self, addr: LineAddress, data: DataLine,
                      rng: Random) -> StrategyOutcome:
        out = StrategyOutcome()
        slot = self._find(addr)
        if slot is not None:
            self.entries[slot].data = data
            out.absorbed = True
            return out
        if not self.entries:
            return out
        if not rng.random() < self.cfg.siwc_q_insert:
            return out
        if self._used < len(self.entries):
            free = self._used
            self._used += 1
        else:
            if not rng.random() < self.cfg.siwc_q_evict:
                return out
            free = rng.randrange(len(self.entries))
            victim = self.entries[free]
            out.writeback = (self._unpack(victim.row_col), victim.data)
        self._install(free, addr, data)
        out.absorbed = True
        return out

    def process_read(self, addr: LineAddress) -> DataLine | None:
        slot = self._find(addr)
        return self.entries[slot].data if slot is not None else None

    def occupancy(self) -> int:
        return self._used


def siwc_entry_count(n_mt: int, n_b: int, parity: str = "entry") -> int:
    """Size parity definitions for comparisons: "entry" matches the number of
    managed addresses, "size" matches the SRAM bit budget."""
    from .imdb import BB_ENTRY_BITS, MT_ENTRY_BITS
    if parity == "entry":
        return n_mt + n_b
    if parity == "size":
        return (n_mt * MT_ENTRY_BITS + n_b * BB_ENTRY_BITS) // BB_ENTRY_BITS
    raise ValueError(f"unknown parity {parity!r}")
