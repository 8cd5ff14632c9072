"""Ground-truth physical model of the cell array.

Bit value 0 is the RESET/amorphous/high-resistance state; bit value 1 is
SET/crystalline. A RESET pulse on a cell heats the same-column cells on the
two adjacent wordlines; an idle cell storing 0 that accumulates
`disturb_limit` pulses flips to 1 (a write-disturbance event). SET pulses
carry roughly half the heat and are modeled as non-aggressing. Programming a
cell resets its own accumulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core import (LINE_BITS, LINE_MASK, DataLine, LineAddress, RangeError,
                   SimConfig)


class WriteMode(enum.Enum):
    DIFFERENTIAL = "differential"  # programs only differing bits
    FULL = "full"                  # programs all 512 bits


@dataclass
class WriteOutcome:
    reset_pulses: int = 0
    set_pulses: int = 0
    wde_events: list = field(default_factory=list)  # (LineAddress, bit index)
    latency_ns: int = 0


def _bit_positions(mask: int) -> np.ndarray:
    """Indices of set bits in a 512-bit mask, ascending."""
    raw = np.frombuffer(mask.to_bytes(LINE_BITS // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    return np.nonzero(bits)[0]


class CellArray:
    """Per-run physical bit state plus per-cell disturbance accumulation.

    Lines are materialized lazily with the configured initial-fill pattern;
    an intended-data shadow records what each line should hold so that
    exposure of disturbance errors is measurable.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.geometry = cfg.geometry
        self.limit = cfg.disturb_limit
        self._fill = cfg.fill_line.to_int()
        self._phys: dict[LineAddress, int] = {}
        self._intended: dict[LineAddress, int] = {}
        self._accum: dict[LineAddress, np.ndarray] = {}

    def _materialize(self, addr: LineAddress) -> None:
        if addr not in self._phys:
            self._phys[addr] = self._fill
            self._intended[addr] = self._fill
            self._accum[addr] = np.zeros(LINE_BITS, dtype=np.int64)

    def read_line(self, addr: LineAddress) -> DataLine:
        addr.check(self.geometry)
        self._materialize(addr)
        return DataLine.from_int(self._phys[addr])

    def intended_line(self, addr: LineAddress) -> DataLine:
        addr.check(self.geometry)
        self._materialize(addr)
        return DataLine.from_int(self._intended[addr])

    def apply_write(self, addr: LineAddress, data: DataLine,
                    mode: WriteMode) -> WriteOutcome:
        addr.check(self.geometry)
        self._materialize(addr)
        old = self._phys[addr]
        new = data.to_int()
        out = WriteOutcome()

        if mode is WriteMode.DIFFERENTIAL:
            programmed = old ^ new
            reset_mask = old & ~new & LINE_MASK  # written to 0
            set_mask = ~old & new & LINE_MASK    # written to 1
        else:
            programmed = LINE_MASK
            reset_mask = ~new & LINE_MASK
            set_mask = new

        out.reset_pulses = reset_mask.bit_count()
        out.set_pulses = set_mask.bit_count()

        self._phys[addr] = new
        self._intended[addr] = new
        if programmed:
            self._accum[addr][_bit_positions(programmed)] = 0

        if reset_mask:
            pulses = _bit_positions(reset_mask)
            for nb in addr.neighbor_rows(self.geometry):
                self._materialize(nb)
                acc = self._accum[nb]
                acc[pulses] += 1
                np.minimum(acc, self.limit, out=acc)  # counters saturate at L
                # Only just-pulsed cells can newly reach the limit.
                hits = pulses[acc[pulses] >= self.limit]
                if hits.size:
                    phys = self._phys[nb]
                    raw = np.frombuffer(phys.to_bytes(LINE_BITS // 8, "little"),
                                        dtype=np.uint8)
                    bits = np.unpackbits(raw, bitorder="little")
                    flips = hits[bits[hits] == 0]  # occupied cells never flip
                    if flips.size:
                        bits[flips] = 1
                        acc[flips] = 0
                        self._phys[nb] = int.from_bytes(
                            np.packbits(bits, bitorder="little").tobytes(),
                            "little")
                        out.wde_events.extend((nb, int(k)) for k in flips)

        out.latency_ns = write_latency(out, self.cfg)
        return out

    def scrub_divergence(self) -> list[tuple[LineAddress, int]]:
        """Lines whose physical contents diverge from intended data."""
        intended = self._intended
        return sorted((addr, diff.bit_count())
                      for addr, phys in self._phys.items()
                      if (diff := phys ^ intended[addr]))

    def accum_of(self, addr: LineAddress) -> np.ndarray:
        self._materialize(addr)
        return self._accum[addr]


def write_latency(outcome: WriteOutcome, cfg: SimConfig) -> int:
    """Bank occupancy of one write slot. SET pulses dominate when present;
    a no-flip differential write still costs one RESET-class slot."""
    if outcome.set_pulses > 0:
        return cfg.set_ns
    return cfg.reset_ns
