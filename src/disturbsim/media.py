"""Ground-truth physical model of the cell array.

Bit value 0 is the RESET/amorphous/high-resistance state; bit value 1 is
SET/crystalline. A RESET pulse on a cell heats the same-column cells on the
two adjacent wordlines; an idle cell storing 0 that accumulates
`disturb_limit` pulses flips to 1 (a write-disturbance event). SET pulses
carry roughly half the heat and are modeled as non-aggressing. Programming a
cell resets its own accumulation. A write programs only the cells whose bit
changes, or, if it is full, every cell.

Pulse counts are kept only for cells storing 0; a cell storing 1 counts
nothing. This is exact: a cell storing 1 gets back to 0 only by being
programmed, which clears its count, so the flip test never reads the count
a cell took while it stored 1.

A line is one 512-bit int; bit k is cell k. Each line's pulse counts are
bit-sliced (Biham, "A fast new DES implementation in software", FSE 1997):
`L.bit_length()` bit-planes, each a 512-bit int, where bit k of plane j is
bit j of cell k's count, for L = `disturb_limit`. A line gets its planes at
its first pulse; until then it has none, and every count is 0. One bitwise
operation on the planes thus acts on all 512 cells at once:

- a RESET pulse is a ripple-carry add of the pulse mask into the planes:
  the pulsed cells whose same-column cell in the victim stores 0;
- a count that reaches L flips its cell, which clears the count, so no
  count passes L, and a count equals L exactly when its cell is set in
  every plane where L has a 1 bit: the flip set is the AND of those planes;
- programming or flipping a cell clears its bit in every plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import LINE_BITS, LINE_MASK, LineAddress, SimConfig


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
    the bit-planes of the pulse counts of its cells storing 0, lowest plane
    first, and its victims: None, or, under the `zeros` fill, the list of
    the lines of all its in-range neighbour rows, kept from its first
    pulsing write. `planes` is empty, every count 0, until the line takes
    its first pulse; most lines never do."""

    __slots__ = ("addr", "phys", "intended", "planes", "victims")

    def __init__(self, addr: LineAddress, fill: int):
        self.addr = addr
        self.phys = fill
        self.intended = fill
        self.planes = ()
        self.victims = None


class CellArray:
    """Per-run physical bit state plus per-cell disturbance accumulation.

    Lines are materialized lazily with the configured initial-fill pattern,
    when first written or when a RESET pulse reaches one of their cells
    storing 0; a line never materialized holds the fill pattern and no
    pulses. Pulse counts are kept only for cells storing 0, so a cell
    storing 1 counts 0 (see the module docstring for why that is exact).
    Under the `ones` fill a never-written line stores no 0 and takes no
    count, so only the lines that are written are materialized. An
    intended-data shadow records what each line should hold so that
    exposure of disturbance errors is measurable.

    Every address given to the array lies in the geometry, as the engine's
    decoder, `decompose_addresses`, and `neighbor_rows` make it; the array
    trusts it and does not test it again.

    The array counts the media operations it performs: `reads`, `writes`,
    their `set_pulses` and `reset_pulses`, and the `flips` they caused.

    A line keeps its victims only under the `zeros` fill: its first pulsing
    write materializes every in-range neighbour, and later writes reuse the
    list of their lines. Lines are never removed or replaced, so the kept
    lines stay the array's own. Under `ones` a neighbour can be materialized
    after the line's first pulsing write, so every pulsing write looks its
    neighbours up.
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
        # under the `ones` fill a never-written neighbour takes no pulse
        self._lazy_victims = self._fill == LINE_MASK
        self._lines: dict[LineAddress, _Line] = {}
        self.reads = self.writes = self.flips = 0
        self.set_pulses = self.reset_pulses = 0

    def read_line(self, addr: LineAddress) -> int:
        """The cells of the line at `addr`, which lies in the geometry."""
        self.reads += 1
        line = self._lines.get(addr)
        return self._fill if line is None else line.phys

    def intended_line(self, addr: LineAddress) -> int:
        line = self._lines.get(addr)
        return self._fill if line is None else line.intended

    def apply_write(self, addr: LineAddress, data: int,
                    full: bool = False) -> WriteOutcome:
        """Write `data` to the line at `addr`, which lies in the geometry.
        A `full` write programs every cell, which is what a differential
        write does to a line holding the complement of `data`."""
        if not 0 <= data <= LINE_MASK:
            raise ValueError(f"line data {data:#x} is not a 512-bit value")
        lines = self._lines
        line = lines.get(addr)
        if line is None:
            line = lines[addr] = _Line(addr, self._fill)
        # Every operand of the masks is non-negative: CPython complements a
        # negative 512-bit int before a bitwise operation, so `a & ~b` costs
        # about three times `a & b`.
        old = data ^ LINE_MASK if full else line.phys
        programmed = old ^ data
        reset_mask = programmed & old   # written to 0
        set_mask = programmed & data    # written to 1

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
        if programmed and line.planes:
            _clear(line.planes, programmed)

        if reset_mask:
            limit_planes = self._limit_planes
            victims = line.victims
            if victims is None:
                victims = []
                for nb in addr.neighbor_rows(self.geometry):
                    victim = lines.get(nb)
                    if victim is None:  # in range: a neighbor of a valid line
                        if self._lazy_victims:  # stores no 0 to count on
                            continue
                        victim = lines[nb] = _Line(nb, self._fill)
                    victims.append(victim)
                if not self._lazy_victims:  # every neighbour materialized
                    line.victims = victims
            for victim in victims:
                # counted on 0 cells only: reset_mask & ~victim.phys
                pulse = reset_mask & (victim.phys ^ LINE_MASK)
                if not pulse:
                    continue
                planes = victim.planes
                if not planes:  # its first pulse
                    planes = victim.planes = [0] * self._planes
                carry = pulse
                for j, plane in enumerate(planes):
                    if not carry:
                        break
                    planes[j] = plane ^ carry
                    carry &= plane
                # a count at L is a flip, and only pulsed counts can reach L
                flips = pulse
                for j in limit_planes:
                    flips &= planes[j]
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
        """Per-cell pulse counts of a line, cell 0 first; 0 for every cell
        storing 1, which keeps no count."""
        line = self._lines.get(addr)
        planes = [] if line is None else line.planes
        return [sum((plane >> k & 1) << j for j, plane in enumerate(planes))
                for k in range(LINE_BITS)]


def _clear(planes: list[int], cells: int) -> None:
    """Zero the pulse counts of `cells`."""
    keep = cells ^ LINE_MASK  # ~cells, non-negative: planes are lines
    for j, plane in enumerate(planes):
        if plane:
            planes[j] = plane & keep

