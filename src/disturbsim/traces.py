"""Trace file format, parser, and synthetic workload generators.

One record per line: `<time_ns> <R|W> 0x<addr_hex> [0x<128 hex chars>]`.
Times are non-decreasing, `#` starts a comment, write records carry a full
512-bit payload. A `.gz` suffix is handled transparently by the file
helpers. The text format is chosen over binary for diff-ability.

`parse_trace` reads a well-formed, comment-free record with one regex
match (`_RECORD`), then checks that the op agrees with whether data is
present and that the time does not decrease. Any other line (a comment, a
blank line, a malformed field, a decreasing time) goes to the field-by-field
checks in `_parse_line`, which skip it or raise the error, so every
`TraceParseError` about a record and its position come from those checks;
an unreadable `.gz` file raises one at the line where its data ended.
Files are decoded as UTF-8 with `surrogateescape`, so a byte that is not
UTF-8 never stops the decoder mid-file: it reaches `_parse_line` as a lone
surrogate, which is no digit, op or hex character, and fails there with its
line and column (in a comment it is skipped with the comment).
"""

from __future__ import annotations

import gzip
import io
import re
import sys
import zlib
from random import Random
from typing import NamedTuple

from .core import (LINE_BITS, LINE_BYTES, LINE_MASK, WORD_BITS, Geometry,
                   LineAddress, _new_tuple, compose_address)

_HEX_CHARS = LINE_BITS // 4  # 128

# Explicit ASCII digits: `int()` would also take signs, underscores and
# non-ASCII digits.
_DECIMAL = re.compile(r"[0-9]+")
_HEX = re.compile(r"(?:0[xX])?([0-9a-fA-F]+)")
_FIELD = re.compile(r"\S+")  # whitespace as `str.split` splits on it
# A whole record in the form `TraceRecord.format` writes, with any spaces
# or tabs between the fields and any whitespace after the last one.
_RECORD = re.compile(
    r"[ \t]*([0-9]+)"                                       # time
    r"[ \t]+([RW])"                                         # op
    r"[ \t]+(?:0[xX])?([0-9a-fA-F]+)"                       # address
    rf"(?:[ \t]+(?:0[xX])?([0-9a-fA-F]{{{_HEX_CHARS}}}))?"  # data
    r"\s*")


class TraceParseError(ValueError):
    def __init__(self, line_no: int, column: int, message: str):
        super().__init__(line_no, column, message)  # picklable: `sweep --jobs`
        self.line_no = line_no
        self.column = column

    def __str__(self) -> str:
        return f"line {self.line_no}, column {self.column}: {self.args[2]}"


class TraceRecord(NamedTuple):
    time: int  # ns
    op: str    # "R" | "W"
    byte_addr: int
    data: int | None = None  # the 512-bit line, present iff op == "W"

    def format(self) -> str:
        if self.op == "W":
            return f"{self.time} W {self.byte_addr:#x} 0x{self.data:0{_HEX_CHARS}x}"
        return f"{self.time} R {self.byte_addr:#x}"


def _parse_line(raw: str, line_no: int, last_time: int) -> TraceRecord | None:
    """Check one line field by field: its record, None for a blank or
    comment-only line, or a TraceParseError at the first bad field."""
    fields = list(_FIELD.finditer(raw.split("#", 1)[0]))
    if not fields:
        return None
    parts = [f[0] for f in fields]

    def err(index, message):
        raise TraceParseError(line_no, fields[index].start() + 1, message)

    if len(parts) < 3:
        err(0, "expected `<time> <R|W> <addr> [<data>]`")
    if not _DECIMAL.fullmatch(parts[0]):
        err(0, f"malformed time {parts[0]!r}")
    try:
        t = int(parts[0])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        err(0, f"time has {len(parts[0])} digits, more than the "
               f"{sys.get_int_max_str_digits()} that int() converts")
    if t < last_time:
        err(0, f"decreasing time {t} after {last_time}")
    op = parts[1]
    if op not in ("R", "W"):
        err(1, f"unknown op {op!r}")
    digits = _HEX.fullmatch(parts[2])
    if not digits:
        err(2, f"malformed hex address {parts[2]!r}")
    addr = int(digits[1], 16)
    data = None
    if op == "W":
        if len(parts) < 4:
            err(2, "missing write data")
        digits = _HEX.fullmatch(parts[3])
        if not digits:
            err(3, f"malformed hex data {parts[3]!r}")
        if len(digits[1]) != _HEX_CHARS:
            err(3, f"write data must be {_HEX_CHARS} hex chars, "
                   f"got {len(digits[1])}")
        data = int(digits[1], 16)
        if len(parts) > 4:
            err(4, "trailing fields after write data")
    elif len(parts) > 3:
        err(3, "trailing fields after read record")
    return TraceRecord(t, op, addr, data)


def parse_trace(source) -> list[TraceRecord]:
    """Strictly parse a trace from a text stream or an iterable of lines."""
    records = []
    append = records.append
    match = _RECORD.fullmatch
    last_time = 0
    line_no = 0
    try:
        for line_no, raw in enumerate(source, start=1):
            m = match(raw)
            if m is not None:
                time, op, addr, data = m.groups()
                try:
                    t = int(time)
                except ValueError:  # too many digits: _parse_line says where
                    t = -1
                # a write carries data and a read does not
                if t >= last_time and (data is None) is (op == "R"):
                    last_time = t
                    append(_new_tuple(TraceRecord, (
                        t, op, int(addr, 16),
                        None if data is None else int(data, 16))))
                    continue
            record = _parse_line(raw, line_no, last_time)
            if record is not None:
                last_time = record.time
                append(record)
    except (EOFError, zlib.error) as exc:  # a truncated or corrupt .gz
        raise TraceParseError(line_no + 1, 1,
                              f"unreadable compressed data: {exc}") from exc
    return records


def emit_trace(records) -> str:
    return "".join(r.format() + "\n" for r in records)


def _open_text(path: str, mode: str):
    if mode == "r":  # bad bytes fail in _parse_line, with a position
        if str(path).endswith(".gz"):
            return gzip.open(path, "rt", encoding="utf-8",
                             errors="surrogateescape")
        return open(path, encoding="utf-8", errors="surrogateescape")
    if not str(path).endswith(".gz"):
        return open(path, mode)
    # mtime=0 keeps the clock out of the header: the same records give the
    # same bytes
    return io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0))


def write_trace_file(records, path: str) -> None:
    with _open_text(path, "w") as fh:
        fh.write(emit_trace(records))


def read_trace_file(path: str) -> list[TraceRecord]:
    with _open_text(path, "r") as fh:
        return parse_trace(fh)


# -- generators ----------------------------------------------------------


def _check_nonnegative(**values: int) -> None:
    # A negative gap would write decreasing times, which no parser accepts,
    # and a negative count an empty trace.
    for name, v in values.items():
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")


def gen_hammer(target: int, rounds: int, gap_ns: int = 10) -> list[TraceRecord]:
    """Alternate full-ones / full-zeros writes to one line. Every all-zeros
    write delivers one RESET pulse per bit to the adjacent wordlines."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    _check_nonnegative(target=target, gap_ns=gap_ns)
    records = []
    t = 0
    for _ in range(rounds):
        records.append(TraceRecord(t, "W", target, LINE_MASK))
        t += gap_ns
        records.append(TraceRecord(t, "W", target, 0))
        t += gap_ns
    return records


def _noise_line(rng: Random, zero_bits: int = 2) -> int:
    line = LINE_MASK
    for b in rng.sample(range(LINE_BITS), zero_bits):
        line &= ~(1 << b)
    return line


def gen_slow_flip(victims: int, interleave: int, rounds: int, rng: Random,
                  g: Geometry = Geometry(), gap_ns: int = 10,
                  subset_bits: int = 16) -> list[TraceRecord]:
    """Slow-and-gradual aggressor pattern with table-pressure noise.

    Aggressors sit on odd rows of column 0 (their even-row neighbors stay
    idle). Each aggressor owns two disjoint bit subsets of word 1 and
    alternates which one is zeroed, so every write flips `subset_bits` ones
    to zeros: counting entries accumulate steadily, and each idle neighbor
    cell under a subset collects one pulse every two rounds. Because the
    zeroed cells are reprogrammed every round, the aggressor lines never sit
    idle at zero. Entries inserted with prior knowledge start `subset_bits`
    ahead of the noise writes; without it they start level with the noise
    and are churned out before triggering.

    Noise writes pressure the same bank's table from the upper half of the
    columns, far from the victim strip, and each noise line always carries
    the same fixed mostly-ones payload: repeat writes program nothing, so
    the noise contributes table traffic but no disturbance of its own.

    Run with `rows_per_bank == 2*victims + 1` the victim strip reaches the
    top of the bank and even the outermost rewrite has no idle row beyond
    it to disturb.
    """
    _check_nonnegative(victims=victims, interleave=interleave, rounds=rounds,
                       gap_ns=gap_ns)
    if rounds == 0 or victims == 0:
        return []
    if 2 * victims + 1 > g.rows_per_bank:
        raise ValueError("geometry too small for the requested victim count")
    if g.cols_per_row < 2:
        raise ValueError("need at least two columns (noise lives in the upper half)")
    if not 1 <= 2 * subset_bits <= WORD_BITS:
        raise ValueError("need 1 <= 2*subset_bits <= 64")
    aggressors = []
    for v in range(victims):
        addr = compose_address(LineAddress(0, 0, 2 * v + 1, 0), g)
        picks = rng.sample(range(WORD_BITS), 2 * subset_bits)
        variants = []
        for subset in (picks[:subset_bits], picks[subset_bits:]):
            line = LINE_MASK
            for b in subset:
                line &= ~(1 << (WORD_BITS + b))  # a bit of word 1
            variants.append(line)
        aggressors.append((addr, variants[0], variants[1]))

    noise_cols = range(g.cols_per_row // 2, g.cols_per_row)
    noise_payload = {}
    records = []
    t = 0
    for r in range(rounds):
        for addr, flipped, restored in aggressors:
            data = flipped if r % 2 == 0 else restored
            records.append(TraceRecord(t, "W", addr, data))
            t += gap_ns
            for _ in range(interleave):
                row = rng.randrange(g.rows_per_bank)
                col = rng.choice(noise_cols)
                naddr = compose_address(LineAddress(0, 0, row, col), g)
                if naddr not in noise_payload:
                    noise_payload[naddr] = _noise_line(rng)
                records.append(TraceRecord(t, "W", naddr, noise_payload[naddr]))
                t += gap_ns
    return records


def gen_synthetic(kind: str, n: int, rng: Random,
                  g: Geometry = Geometry(), gap_ns: int = 10,
                  write_fraction: float = 0.7) -> list[TraceRecord]:
    """Synthetic access-shape workloads: iid uniform, 90/10 hotspot, or a
    persistent-structure proxy mixing fresh sequential allocations with hot
    header updates."""
    _check_nonnegative(n=n, gap_ns=gap_ns)
    records = []
    t = 0

    def random_line() -> int:
        return rng.randrange(g.total_lines) * LINE_BYTES

    def random_data() -> int:
        return rng.getrandbits(LINE_BITS)

    if kind in ("uniform", "hotspot"):
        hot = []  # 90 % of hotspot accesses go to a fixed set of lines
        if kind == "hotspot":
            hot_count = min(max(1, g.total_lines // 10), 4096)
            hot = [random_line() for _ in range(hot_count)]
        for _ in range(n):
            if hot and rng.random() < 0.9:
                addr = rng.choice(hot)
            else:
                addr = random_line()
            if rng.random() < write_fraction:
                records.append(TraceRecord(t, "W", addr, random_data()))
            else:
                records.append(TraceRecord(t, "R", addr))
            t += gap_ns
    elif kind == "pmix-proxy":
        next_fresh = 0
        headers = [random_line() for _ in range(8)]
        header_state = {h: random_data() for h in headers}
        for _ in range(n):
            roll = rng.random()
            if roll < 0.4:
                # node allocation: sequential fresh lines
                addr = (next_fresh % g.total_lines) * LINE_BYTES
                next_fresh += 1
                records.append(TraceRecord(t, "W", addr, random_data()))
            elif roll < 0.8:
                # hot header update with small bit churn
                h = rng.choice(headers)
                for _ in range(4):
                    header_state[h] ^= 1 << rng.randrange(LINE_BITS)
                records.append(TraceRecord(t, "W", h, header_state[h]))
            else:
                records.append(TraceRecord(t, "R", rng.choice(headers)))
            t += gap_ns
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    return records
