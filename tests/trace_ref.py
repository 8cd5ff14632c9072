"""Reference trace parser for `traces.parse_trace`.

This is the parser as first written: every line is split on `#`, stripped,
split into fields, and each field is checked on its own. `parse_trace` must
return the same records, or raise `TraceParseError` with the same line,
column and message. One difference is intended: a time with more digits
than `int()` converts raises `ValueError` here, with no position, and
`TraceParseError` at the time field there.
"""

import re

from disturbsim.traces import TraceParseError, TraceRecord

HEX_CHARS = 128
DECIMAL = re.compile(r"[0-9]+")
HEX = re.compile(r"(?:0[xX])?([0-9a-fA-F]+)")


def field_column(line: str, index: int) -> int:
    """1-based column where whitespace-separated field `index` starts."""
    fields_seen = -1
    in_field = False
    for col, ch in enumerate(line):
        if ch.isspace():
            in_field = False
        elif not in_field:
            in_field = True
            fields_seen += 1
            if fields_seen == index:
                return col + 1
    return len(line) + 1


def parse_trace(source) -> list[TraceRecord]:
    records = []
    last_time = None
    for line_no, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()

        def err(index, message):
            raise TraceParseError(line_no, field_column(raw, index), message)

        if len(parts) < 3:
            err(0, "expected `<time> <R|W> <addr> [<data>]`")
        if not DECIMAL.fullmatch(parts[0]):
            err(0, f"malformed time {parts[0]!r}")
        t = int(parts[0])
        if last_time is not None and t < last_time:
            err(0, f"decreasing time {t} after {last_time}")
        op = parts[1]
        if op not in ("R", "W"):
            err(1, f"unknown op {op!r}")
        digits = HEX.fullmatch(parts[2])
        if not digits:
            err(2, f"malformed hex address {parts[2]!r}")
        addr = int(digits[1], 16)
        data = None
        if op == "W":
            if len(parts) < 4:
                err(2, "missing write data")
            digits = HEX.fullmatch(parts[3])
            if not digits:
                err(3, f"malformed hex data {parts[3]!r}")
            if len(digits[1]) != HEX_CHARS:
                err(3, f"write data must be {HEX_CHARS} hex chars, "
                       f"got {len(digits[1])}")
            data = int(digits[1], 16)
            if len(parts) > 4:
                err(4, "trailing fields after write data")
        elif len(parts) > 3:
            err(3, "trailing fields after read record")
        last_time = t
        records.append(TraceRecord(t, op, addr, data))
    return records
