"""Ground-truth physical model of the cell array.

Bit value 0 is the RESET/amorphous/high-resistance state; bit value 1 is
SET/crystalline. A RESET pulse on a cell heats the same-column cells on the
two adjacent wordlines; an idle cell storing 0 that accumulates
`disturb_limit` pulses flips to 1 (a write-disturbance event). SET pulses
carry roughly half the heat and are modeled as non-aggressing. Programming a
cell resets its own accumulation.

A line is one 512-bit int; bit k is cell k. Each line's pulse counts are
bit-sliced (Biham, "A fast new DES implementation in software", FSE 1997):
`L.bit_length()` bit-planes, each a 512-bit int, where bit k of plane j is
bit j of cell k's count, for L = `disturb_limit`. One bitwise operation on
the planes thus acts on all 512 cells at once:

- a RESET pulse is a ripple-carry add of the pulse mask into the planes,
  skipping cells whose count is already L (counts saturate at L);
- since no count exceeds L, a count equals L exactly when its cell is set
  in every plane where L has a 1 bit, so the hit test is an AND of those
  planes;
- programming or flipping a cell clears its bit in every plane.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .core import LINE_BITS, LINE_MASK, LineAddress, SimConfig


class WriteMode(enum.Enum):
    DIFFERENTIAL = "differential"  # programs only differing bits
    FULL = "full"                  # programs all 512 bits


# The members as module constants for the hot paths: on Python 3.11 reading
# `WriteMode.FULL` goes through EnumType and costs about 120-160 ns, against
# 10-25 ns for a module constant.
DIFFERENTIAL = WriteMode.DIFFERENTIAL
FULL = WriteMode.FULL


@dataclass(slots=True)
class WriteOutcome:
    reset_pulses: int = 0
    set_pulses: int = 0
    wde_events: list = field(default_factory=list)  # (LineAddress, bit index)
    latency_ns: int = 0


def _set_bits(mask: int) -> list[int]:
    """Indices of set bits in a 512-bit mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Line:
    """One materialized line: its address, its cells, its intended data,
    the bit-planes of its cells' pulse counts, lowest plane first, and its
    victims: None until the line first sends RESET pulses, False after
    that write, and from its second such write on the list of the lines of
    its in-range neighbour rows."""

    __slots__ = ("addr", "phys", "intended", "planes", "victims")

    def __init__(self, addr: LineAddress, fill: int, planes: int):
        self.addr = addr
        self.phys = fill
        self.intended = fill
        self.planes = [0] * planes
        self.victims = None


class CellArray:
    """Per-run physical bit state plus per-cell disturbance accumulation.

    Lines are materialized lazily with the configured initial-fill pattern,
    when first written or disturbed; a line never materialized holds the
    fill pattern and no pulses. An intended-data shadow records what each
    line should hold so that exposure of disturbance errors is measurable.

    An address is validated against the geometry when a call first touches
    its line: a line is materialized only after its address passed the
    check, so a call that finds the line materialized skips it, and an
    out-of-range address raises RangeError on every call.

    The array counts the media operations it performs: `reads`, `writes`,
    their `set_pulses` and `reset_pulses`, and the `flips` they caused.

    A line that sends RESET pulses again and again keeps its victims:
    `apply_write` looks the neighbours up (materializing them) on the
    line's first two pulsing writes, keeps the list of their lines at the
    second, and reads it on every later write. Lines are never removed or
    replaced, so the kept lines stay the array's own. Where most lines are
    written once (the benchmark's `uniform-paced`), keeping the list from
    the first write on made whole runs about 3 % slower: each kept list
    outlives its write and adds to the garbage collector's work. The list
    holds the lines alone, not (address, line) pairs, which cost more
    there: a victim knows its own address.
    """

    def __init__(self, cfg: SimConfig):
        self.geometry = cfg.geometry
        self.limit = cfg.disturb_limit
        self.set_ns = cfg.set_ns
        self.reset_ns = cfg.reset_ns
        self._fill = cfg.fill_line
        self._planes = self.limit.bit_length()
        # the planes where L has a 1 bit: their AND marks the counts at L
        self._limit_planes = [j for j in range(self._planes)
                              if self.limit >> j & 1]
        self._lines: dict[LineAddress, _Line] = {}
        self.reads = self.writes = self.flips = 0
        self.set_pulses = self.reset_pulses = 0

    def read_line(self, addr: LineAddress) -> int:
        self.reads += 1
        line = self._lines.get(addr)
        if line is None:
            addr.check(self.geometry)
            return self._fill
        return line.phys

    def intended_line(self, addr: LineAddress) -> int:
        line = self._lines.get(addr)
        if line is None:
            addr.check(self.geometry)
            return self._fill
        return line.intended

    def apply_write(self, addr: LineAddress, data: int,
                    mode: WriteMode) -> WriteOutcome:
        lines = self._lines
        line = lines.get(addr)
        if line is None:
            addr.check(self.geometry)
        if not 0 <= data <= LINE_MASK:
            raise ValueError(f"line data {data:#x} is not a 512-bit value")
        if line is None:
            line = lines[addr] = _Line(addr, self._fill, self._planes)
        old = line.phys

        if mode is DIFFERENTIAL:
            programmed = old ^ data
            reset_mask = old & ~data  # written to 0
            set_mask = ~old & data    # written to 1
        else:
            programmed = LINE_MASK
            reset_mask = ~data & LINE_MASK
            set_mask = data

        reset_pulses = reset_mask.bit_count()
        set_pulses = set_mask.bit_count()
        self.writes += 1
        self.reset_pulses += reset_pulses
        self.set_pulses += set_pulses
        # Bank occupancy of one write slot. SET pulses dominate when present;
        # a no-flip differential write still costs one RESET-class slot.
        out = WriteOutcome(reset_pulses, set_pulses, [],
                           self.set_ns if set_mask else self.reset_ns)

        line.phys = line.intended = data
        if programmed:
            _clear(line.planes, programmed)

        if reset_mask:
            limit_planes = self._limit_planes
            victims = line.victims
            if victims.__class__ is not list:
                found = []
                for nb in addr.neighbor_rows(self.geometry):
                    victim = lines.get(nb)
                    if victim is None:  # in range: a neighbor of a valid line
                        victim = lines[nb] = _Line(nb, self._fill, self._planes)
                    found.append(victim)
                line.victims = found if victims is False else False
                victims = found
            for victim in victims:
                planes = victim.planes
                at_limit = LINE_MASK
                for j in limit_planes:
                    at_limit &= planes[j]
                carry = reset_mask & ~at_limit  # counts saturate at L
                for j, plane in enumerate(planes):
                    if not carry:
                        break
                    planes[j] = plane ^ carry
                    carry &= plane
                # Only just-pulsed cells can newly reach the limit.
                hits = reset_mask
                for j in limit_planes:
                    hits &= planes[j]
                flips = hits & ~victim.phys  # occupied cells never flip
                if flips:
                    victim.phys |= flips
                    _clear(planes, flips)
                    self.flips += flips.bit_count()
                    nb = victim.addr
                    out.wde_events.extend((nb, k) for k in _set_bits(flips))
        return out

    def scrub_divergence(self) -> list[tuple[LineAddress, int]]:
        """Lines whose physical contents diverge from intended data."""
        return sorted((addr, diff.bit_count())
                      for addr, line in self._lines.items()
                      if (diff := line.phys ^ line.intended))

    def accum_of(self, addr: LineAddress) -> list[int]:
        """Per-cell pulse counts of a line, cell 0 first."""
        line = self._lines.get(addr)
        planes = [] if line is None else line.planes
        return [sum((plane >> k & 1) << j for j, plane in enumerate(planes))
                for k in range(LINE_BITS)]


def _clear(planes: list[int], cells: int) -> None:
    """Zero the pulse counts of `cells`."""
    keep = ~cells
    for j, plane in enumerate(planes):
        if plane:
            planes[j] = plane & keep

