"""Shared domain types, address arithmetic, and bit-counting kernels.

A line's contents are one 512-bit int everywhere: bit k is cell k, and word
i covers bits [64*i, 64*i + 63]. The int 0 is the all-zeros line, so code
tests a line for absence with `is None`, never for truth.

Address layout (fixed): byte-in-line in the low 6 bits, then column, then
bank, then rank, then row in the highest position. Keeping the row on top
means a repeatedly hammered row stays inside one bank, which matches the
per-bank mitigation tables. Counts are not required to be powers of two;
decomposition is mixed-radix.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

WORD_BITS = 64
WORDS_PER_LINE = 8
LINE_BITS = WORD_BITS * WORDS_PER_LINE  # 512
LINE_BYTES = LINE_BITS // 8  # 64

LINE_MASK = (1 << LINE_BITS) - 1


class RangeError(ValueError):
    """An address component falls outside the configured geometry."""


class ConsistencyError(RuntimeError):
    """An internal invariant of a table or queue, or a precondition of a
    mitigation hook, was violated."""


@dataclass(frozen=True)
class Geometry:
    """Physical organization of the module. Defaults decode an 8GB module."""

    ranks: int = 2
    banks_per_rank: int = 2
    rows_per_bank: int = 2 ** 19
    cols_per_row: int = 64  # each column is one 64B line

    def __post_init__(self):
        for name in ("ranks", "banks_per_rank", "rows_per_bank", "cols_per_row"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rows_per_bank < 2:
            raise ValueError("rows_per_bank must be >= 2 (adjacency must exist)")

    @property
    def num_banks(self) -> int:
        return self.ranks * self.banks_per_rank

    @property
    def lines_per_bank(self) -> int:
        return self.rows_per_bank * self.cols_per_row

    @property
    def total_lines(self) -> int:
        return self.num_banks * self.lines_per_bank

    @cached_property
    def capacity_bytes(self) -> int:
        # cached in the instance dict: the decoders read it per address run
        return self.total_lines * LINE_BYTES


class LineAddress(NamedTuple):
    """One 64-byte line. A named tuple, so hashing, equality and ordering
    (rank, bank, row, col) run in C."""

    rank: int
    bank: int
    row: int
    col: int

    def check(self, g: Geometry) -> "LineAddress":
        if not 0 <= self.rank < g.ranks:
            raise RangeError(f"rank {self.rank} out of range [0, {g.ranks})")
        if not 0 <= self.bank < g.banks_per_rank:
            raise RangeError(f"bank {self.bank} out of range [0, {g.banks_per_rank})")
        if not 0 <= self.row < g.rows_per_bank:
            raise RangeError(f"row {self.row} out of range [0, {g.rows_per_bank})")
        if not 0 <= self.col < g.cols_per_row:
            raise RangeError(f"col {self.col} out of range [0, {g.cols_per_row})")
        return self

    def neighbor_rows(self, g: Geometry) -> list["LineAddress"]:
        """Same-column lines on the adjacent wordlines, edge rows skipped."""
        rank, bank, row, col = self
        out = []
        if row > 0:
            out.append(_new_tuple(LineAddress, (rank, bank, row - 1, col)))
        if row < g.rows_per_bank - 1:
            out.append(_new_tuple(LineAddress, (rank, bank, row + 1, col)))
        return out


# Builds a NamedTuple (a LineAddress, a TraceRecord in the trace parser, or
# a mitigation's Outcome) from a tuple of its fields without the
# constructor's argument handling: on Python 3.11, `LineAddress(...)` costs
# about 350-540 ns and `tuple.__new__(LineAddress, (...))` about 180-220 ns.
# Only for the hot paths, which pass every field, checked, in field order.
_new_tuple = tuple.__new__


_unpack_words = struct.Struct(f"<{WORDS_PER_LINE}Q").unpack


def _words(line: int) -> tuple[int, ...]:
    """The eight 64-bit words of a line, word 0 first. One unpack of its
    little-endian bytes costs about half of eight shift-and-mask steps on
    the 512-bit int on Python 3.11; `to_bytes` rejects a value that is not
    a line."""
    return _unpack_words(line.to_bytes(LINE_BYTES, "little"))


def count_one_to_zero(old: int, new: int) -> list[int]:
    """Per-word count of bits flipping from 1 to 0 between two lines."""
    # `old & ~new`, without the negative operand that CPython would
    # complement first: about 34 ns against 103 ns on 512-bit ints
    return [w.bit_count() for w in _words(old & (old ^ new))]


def count_zeros(line: int) -> list[int]:
    """Per-word count of zero bits of a line."""
    return [WORD_BITS - w.bit_count() for w in _words(line)]


# CPython's `Random.random()` returns k / 2**53 for an integer k in [0, 2**53).
_RANDOM_SCALE = 1 << 53


def coin_threshold(p) -> float:
    """The float t for which `rng.random() < t` decides exactly as
    `rng.random() < p` does, for a probability p (int, float or Fraction)
    in [0, 1]. With p = n/d, k / 2**53 < n/d holds exactly when
    k < ceil(n * 2**53 / d), and both sides divided by 2**53 are exact
    binary64 values, so comparing with t builds no Fraction per toss."""
    p = Fraction(p)
    return -(-p.numerator * _RANDOM_SCALE // p.denominator) / _RANDOM_SCALE


def draw_below(getrandbits, n: int, bits: int) -> int:
    """`Random.randrange(n)` for n >= 1, given that Random's `getrandbits`
    and `bits = n.bit_length()`: the same rejection loop as
    `Random._randbelow_with_getrandbits`, so the same value and the same
    draws, without randrange's argument checks."""
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def decompose_address(byte_addr: int, g: Geometry) -> LineAddress:
    """Map a module byte address onto (rank, bank, row, col): an address
    in the geometry, or RangeError for a byte address outside the module.
    `decompose_addresses` decodes a trace's addresses a run at a time and
    checks them as this does; for the first one outside the module, this
    call gives the message. The media trusts what either returns."""
    if byte_addr < 0:
        raise RangeError(f"byte_addr {byte_addr} is negative")
    if byte_addr >= g.capacity_bytes:
        raise RangeError(
            f"byte_addr {byte_addr:#x} exceeds module capacity {g.capacity_bytes:#x}")
    line = byte_addr // LINE_BYTES
    col = line % g.cols_per_row
    line //= g.cols_per_row
    bank = line % g.banks_per_rank
    line //= g.banks_per_rank
    rank = line % g.ranks
    row = line // g.ranks
    return _new_tuple(LineAddress, (rank, bank, row, col))


def decompose_addresses(byte_addrs: list[int], g: Geometry
                        ) -> tuple[list[LineAddress], list[int]]:
    """`decompose_address` over a run of byte addresses: the line of each,
    and its flat bank number, `rank * banks_per_rank + bank`, for the
    addresses before the first one outside the module, where the run stops.
    One comprehension decodes the run: a call per address costs more than
    its arithmetic."""
    cap = g.capacity_bytes
    if byte_addrs and not (min(byte_addrs) >= 0 and max(byte_addrs) < cap):
        byte_addrs = byte_addrs[:next(
            i for i, a in enumerate(byte_addrs) if not 0 <= a < cap)]
    cols, banks, num_banks = g.cols_per_row, g.banks_per_rank, g.num_banks
    # The same mixed radix, split after the column: with q the line number
    # over `cols`, q % num_banks is the flat bank, rank * banks + bank, and
    # q // num_banks is the row.
    fields = [((flat := (q := (line := a // LINE_BYTES) // cols) % num_banks)
               // banks, flat % banks, q // num_banks, line % cols)
              for a in byte_addrs]
    return (list(map(_new_tuple, repeat(LineAddress), fields)),
            [rank * banks + bank for rank, bank, _, _ in fields])


def compose_address(addr: LineAddress, g: Geometry) -> int:
    """Inverse of decompose_address for line-aligned addresses."""
    addr.check(g)
    line = ((addr.row * g.ranks + addr.rank) * g.banks_per_rank
            + addr.bank) * g.cols_per_row + addr.col
    return line * LINE_BYTES


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energy inputs. These are configuration placeholders, not
    derived values; reports flag them as source=config."""

    pcm_read_pj: float = 0.0
    pcm_set_pj_per_bit: float = 0.0
    pcm_reset_pj_per_bit: float = 0.0
    sram_search_pj: float = 0.0
    sram_access_pj: float = 0.0
    bb_access_pj: float = 0.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0")


STRATEGIES = ("none", "vnc", "siwc", "imdb")
FILL_PATTERNS = ("ones", "zeros")
MT_POLICIES = ("flip", "lru")


@dataclass(frozen=True)
class SimConfig:
    geometry: Geometry = field(default_factory=Geometry)
    read_ns: int = 100
    set_ns: int = 150
    reset_ns: int = 100
    disturb_limit: int = 1024  # RESET pulses an idle neighbor cell tolerates
    threshold: int = 511
    insert_prob: Fraction = Fraction(1, 128)
    n_mt: int = 256
    n_b: int = 8
    n_groups: int = 8
    queue_depth: int = 64
    drain_low_watermark: int | None = None  # defaults to queue_depth // 2
    controller_clock_hz: int = 800_000_000
    energy: EnergyParams = field(default_factory=EnergyParams)
    seed: int = 0
    strategy: str = "none"
    initial_fill: str = "ones"
    prior_knowledge: bool = True
    mt_policy: str = "flip"  # "lru" is an evaluation-only variant
    siwc_entries: int | None = None  # defaults to n_mt + n_b (entry parity)
    siwc_q_insert: Fraction = Fraction(1, 2)
    siwc_q_evict: Fraction = Fraction(1, 2)
    hit_cycles: int = 2

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.initial_fill not in FILL_PATTERNS:
            raise ValueError(f"unknown initial_fill {self.initial_fill!r}")
        if self.mt_policy not in MT_POLICIES:
            raise ValueError(f"unknown mt_policy {self.mt_policy!r}")
        if self.disturb_limit < 1:
            raise ValueError("disturb_limit must be >= 1")
        if self.strategy == "vnc" and self.disturb_limit < 3:
            raise ValueError("strategy vnc needs disturb_limit >= 3: below it "
                             "verify-and-correct may never converge")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if not 2 * self.threshold < self.disturb_limit:
            raise ValueError("need 2*threshold < disturb_limit "
                             "(rewrite must fire before two aggressors reach the limit)")
        for name in ("n_mt", "n_b", "hit_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.siwc_entries is not None and self.siwc_entries < 0:
            raise ValueError("siwc entries must be >= 0")
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.n_mt > 0 and self.n_mt % self.n_groups != 0:
            raise ValueError("n_groups must divide n_mt")
        if not 0 <= self.insert_prob <= 1:
            raise ValueError("insert_prob must be in [0, 1]")
        if not (0 <= self.siwc_q_insert <= 1 and 0 <= self.siwc_q_evict <= 1):
            raise ValueError("siwc coin probabilities must be in [0, 1]")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if not 0 <= self.drain_watermark < self.queue_depth:
            # below 0 the drain state, once set, would never clear
            raise ValueError("drain_low_watermark must be in [0, queue_depth)")
        for name in ("read_ns", "set_ns", "reset_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.controller_clock_hz <= 0:
            raise ValueError("controller_clock_hz must be positive")

    @property
    def drain_watermark(self) -> int:
        if self.drain_low_watermark is None:
            return self.queue_depth // 2
        return self.drain_low_watermark

    @property
    def fill_line(self) -> int:
        return LINE_MASK if self.initial_fill == "ones" else 0

    def cycles_to_ns(self, cycles: int) -> int:
        # Round up: a partially used controller cycle still occupies the table.
        return -(-cycles * 1_000_000_000 // self.controller_clock_hz)
