import gzip
import io
import pickle
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import trace_ref
from disturbsim.core import LINE_BYTES, LINE_MASK, Geometry, decompose_address
from disturbsim.traces import (TraceParseError, TraceRecord, emit_trace,
                               gen_hammer, gen_slow_flip, gen_synthetic,
                               parse_trace, read_trace_file, write_trace_file)
from helpers import TINY, words_of

GOLDEN = Path(__file__).parent / "golden"

D = LINE_MASK


def parse_text(text):
    return parse_trace(io.StringIO(text))


def test_parse_basic_records():
    recs = parse_text("0 R 0x40\n10 W 0x80 0x" + "f" * 128 + "\n")
    assert recs[0] == TraceRecord(0, "R", 0x40)
    assert recs[1].op == "W" and recs[1].data == D


def test_parse_skips_comments_and_blanks():
    recs = parse_text("# header\n\n5 R 0x0  # trailing comment\n")
    assert len(recs) == 1 and recs[0].time == 5


def test_roundtrip_through_text():
    recs = [TraceRecord(0, "W", 0, D), TraceRecord(3, "R", 64)]
    assert parse_text(emit_trace(recs)) == recs


@given(st.integers(min_value=0, max_value=(1 << 512) - 1))
def test_line_roundtrip_through_text(line):
    """Every 512-bit line, 0 included, is written as 128 hex digits and
    parses back to itself."""
    text = emit_trace([TraceRecord(0, "W", 0, line)])
    assert len(text.split()[3]) == 2 + 128
    assert parse_text(text) == [TraceRecord(0, "W", 0, line)]


def test_roundtrip_through_gzip(tmp_path):
    recs = [TraceRecord(0, "W", 0, D), TraceRecord(3, "R", 64)]
    path = str(tmp_path / "t.trace.gz")
    write_trace_file(recs, path)
    assert read_trace_file(path) == recs


def test_gzip_output_is_reproducible(tmp_path, monkeypatch):
    """The gzip header carries no write time: the same records written at
    two times give the same bytes."""
    recs = gen_hammer(0x80, 4)
    path = tmp_path / "t.trace.gz"
    written = []
    for now in (1_000_000_000.0, 1_000_000_001.0):
        monkeypatch.setattr(time, "time", lambda: now)
        write_trace_file(recs, str(path))
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert read_trace_file(str(path)) == recs


@pytest.mark.parametrize("text,line_no,column", [
    ("x R 0x0 y\n", 1, 1),            # malformed time
    ("0 X 0x0 0x0\n", 1, 3),          # unknown op
    ("0 R zz\n", 1, 5),               # malformed address (also too few fields)
    ("0 R 0x0\n5 R 0x0\n1 R 0x0\n", 3, 1),  # decreasing time
    ("0 W 0x0\n", 1, 5),              # missing data
    ("0 W 0x0 0xff\n", 1, 9),         # short data
    ("0 R 0x0 extra\n", 1, 9),        # trailing field
    ("0 W 0x0 0x" + "f" * 128 + " junk\n", 1, 140),
    # each field takes ASCII digits only, not all that int() accepts
    ("1_0 R 0x0\n", 1, 1),              # time
    ("+5 R 0x0\n", 1, 1),               # time
    ("0 R +0x40\n", 1, 5),              # address
    ("0 R 0x4_0\n", 1, 5),              # address
    ("0 W 0x0 " + "f_" * 63 + "ff\n", 1, 9),  # 128 chars, 65 digits
    ("0 W 0x0 0x" + "\u0663" * 128 + "\n", 1, 9),  # Arabic-Indic digits
])
def test_parse_errors_carry_position(text, line_no, column):
    with pytest.raises(TraceParseError) as exc:
        parse_text(text)
    assert (exc.value.line_no, exc.value.column) == (line_no, column)


# the third line starts with two bytes that are not UTF-8
NON_UTF8 = b"0 R 0x0\n10 R 0x40\n\xff\xfe junk\n"


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_non_utf8_byte_fails_at_its_line(tmp_path, suffix):
    path = tmp_path / f"bin.trace{suffix}"
    path.write_bytes(gzip.compress(NON_UTF8, mtime=0) if suffix else NON_UTF8)
    with pytest.raises(TraceParseError) as info:
        read_trace_file(str(path))
    assert str(info.value).startswith("line 3, column 1: expected")


def test_non_utf8_byte_in_a_comment_is_skipped(tmp_path):
    path = tmp_path / "c.trace"
    path.write_bytes(b"0 R 0x0 # caf\xe9\n10 R 0x40\n")
    assert read_trace_file(str(path)) == [TraceRecord(0, "R", 0),
                                          TraceRecord(10, "R", 0x40)]


def test_gen_hammer_shape():
    recs = gen_hammer(0x40, rounds=3, gap_ns=7)
    assert len(recs) == 6
    assert all(r.op == "W" and r.byte_addr == 0x40 for r in recs)
    assert [r.data for r in recs[:2]] == [(1 << 512) - 1, 0]
    assert [r.time for r in recs] == [0, 7, 14, 21, 28, 35]
    assert parse_text(emit_trace(recs)) == recs


def test_gen_slow_flip_structure():
    g = Geometry(ranks=1, banks_per_rank=1, rows_per_bank=9, cols_per_row=4)
    recs = gen_slow_flip(4, 2, 6, Random(0), g)
    assert len(recs) == 6 * 4 * 3
    times = [r.time for r in recs]
    assert times == sorted(times)
    agg_rows = set()
    noise_payloads = {}
    for r in recs:
        assert r.op == "W"
        addr = decompose_address(r.byte_addr, g)
        if addr.col == 0:
            agg_rows.add(addr.row)
            # aggressors always hold exactly 16 zeros, all in word 1
            zeros = [64 - w.bit_count() for w in words_of(r.data)]
            assert zeros[1] == 16 and sum(zeros) == 16
        else:
            assert addr.col >= 2  # noise stays in the upper column half
            assert 512 - r.data.bit_count() == 2
            # repeat writes to a noise line carry identical data
            assert noise_payloads.setdefault(r.byte_addr, r.data) == r.data
    assert agg_rows == {1, 3, 5, 7}  # odd rows only; neighbors stay idle
    assert parse_text(emit_trace(recs)) == recs


def test_gen_slow_flip_alternates_subsets():
    g = Geometry(ranks=1, banks_per_rank=1, rows_per_bank=9, cols_per_row=2)
    recs = gen_slow_flip(1, 0, 4, Random(1), g)
    a, b = recs[0].data, recs[1].data
    assert a != b
    assert recs[2].data == a and recs[3].data == b
    # the two zeroed subsets are disjoint: together 32 zeros in word 1
    assert 64 - (words_of(a)[1] & words_of(b)[1]).bit_count() == 32


def test_gen_slow_flip_geometry_guard():
    with pytest.raises(ValueError):
        gen_slow_flip(10, 1, 2, Random(0), TINY)


@pytest.mark.parametrize("kind", ["uniform", "hotspot", "pmix-proxy"])
def test_gen_synthetic_is_well_formed(kind):
    recs = gen_synthetic(kind, 200, Random(0), TINY)
    assert len(recs) == 200
    for r in recs:
        decompose_address(r.byte_addr, TINY)  # in range
        assert r.byte_addr % LINE_BYTES == 0
        assert (r.data is not None) == (r.op == "W")
    assert parse_text(emit_trace(recs)) == recs


def test_gen_synthetic_unknown_kind():
    with pytest.raises(ValueError):
        gen_synthetic("zipf", 10, Random(0), TINY)


@pytest.mark.parametrize("name", ["compare", "coins", "ranks"])
def test_golden_traces_reemit_byte_for_byte(name):
    path = GOLDEN / f"{name}.trace"
    assert emit_trace(read_trace_file(str(path))) == path.read_text()


def test_record_pickles_is_immutable_and_formats():
    write = TraceRecord(7, "W", 0x80, (1 << 511) | 5)
    read = TraceRecord(9, "R", 0x40)
    for rec in (write, read):
        # sweep --jobs pickles records into its worker processes
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec and type(copy) is TraceRecord
        with pytest.raises(AttributeError):
            rec.time = 0
    assert read.data is None
    assert read.format() == "9 R 0x40"
    assert write.format() == "7 W 0x80 0x8" + "0" * 126 + "5"
    # the one-match path builds the same type as the constructor
    assert all(type(r) is TraceRecord for r in parse_text(
        emit_trace([write, read])))


TOO_LONG = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("line,column", [
    (f"{TOO_LONG} R 0x0\n", 1),             # a well-formed record
    (f"  {TOO_LONG} R 0x0  # note\n", 3),   # a line with a comment
])
def test_overlong_time_carries_position(line, column):
    with pytest.raises(TraceParseError, match="5000 digits") as exc:
        parse_text("0 R 0x0\n" + line)
    assert (exc.value.line_no, exc.value.column) == (2, column)


# -- equivalence with the reference parser -------------------------------

SEPARATORS = st.sampled_from([" ", " ", " ", "\t", "  ", " \t", "\x0b",
                              "\x1c", "\u3000"])
LEADING = st.sampled_from(["", "", "", " ", "\t", "\u3000"])
TRAILING = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\u3000",
                            " # note", "#note"])
ENDINGS = st.sampled_from(["\n", "\n", "\r\n"])
# How one record may be broken; "" leaves it well-formed.
FAULTS = st.sampled_from([""] * 12 + [
    "decreasing", "signed", "underscore", "arabic", "too-long",
    "leading-zeros", "bad-op", "signed-addr", "bad-addr", "bare-prefix",
    "short-data", "long-data", "read-data", "write-no-data", "trailing"])


@st.composite
def hex_field(draw, value, width=None):
    digits = f"{value:0{width}x}" if width else f"{value:x}"
    if draw(st.booleans()):
        digits = digits.upper()
    return draw(st.sampled_from(["0x", "0X", ""])) + digits


@st.composite
def record_line(draw, time):
    """One record line, well-formed unless a fault is drawn, and its time."""
    fault = draw(FAULTS)
    op = draw(st.sampled_from("RW"))
    if fault == "decreasing" and time > 0:
        time -= draw(st.integers(1, time))
    time_field = str(time)
    if fault == "signed":
        time_field = draw(st.sampled_from("+-")) + time_field
    elif fault == "underscore":
        time_field = time_field[:1] + "_" + time_field[1:]
    elif fault == "arabic":
        time_field += "\u0663"
    elif fault == "too-long":
        time_field = TOO_LONG
    elif fault == "leading-zeros":
        time_field = "00" + time_field
    if fault == "bad-op":
        op = draw(st.sampled_from(["r", "w", "X", "RW"]))
    addr = draw(hex_field(draw(st.integers(0, 1 << 40))))
    if fault == "signed-addr":
        addr = "+" + addr
    elif fault == "bad-addr":
        addr = draw(st.sampled_from(["zz", "0x4_0", "0xg"]))
    elif fault == "bare-prefix":
        addr = draw(st.sampled_from(["0x", "0X"]))
    fields = [time_field, op, addr]
    with_data = (op == "W") != (fault in ("read-data", "write-no-data"))
    if with_data:
        width = {"short-data": 127, "long-data": 129}.get(fault, 128)
        value = draw(st.integers(0, (1 << 4 * width) - 1))
        fields.append(draw(hex_field(value, width)))
    if fault == "trailing":
        fields.append(draw(st.sampled_from(["junk", "0", "\u0663"])))
    line = draw(LEADING) + fields[0]
    for field in fields[1:]:
        line += draw(SEPARATORS) + field
    return line + draw(TRAILING), time


@st.composite
def trace_text(draw):
    lines = []
    time = 0
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record"] * 4 + ["comment", "blank"]))
        if kind == "comment":
            line = draw(LEADING) + "# " + draw(st.text(max_size=8))
            line = line.replace("\n", "").replace("\r", "")
        elif kind == "blank":
            line = draw(LEADING) + draw(TRAILING)
        else:
            time += draw(st.integers(0, 1000))
            line, time = draw(record_line(time))
        lines.append(line + draw(ENDINGS))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")  # no newline at the end
    return "".join(lines)


@settings(max_examples=500, deadline=None)
@given(trace_text())
@example("0 R 0x0 extra")  # a trailing field with no newline after it
@example("0 W 0x0 0x" + "f" * 128 + "\t0")
@example("0\x1cR\x0b0x40\u3000\r\n5 W 0X80 " + "A" * 128)
def test_parse_matches_reference(text):
    """The one-match parser returns the reference's records, or raises its
    error at the same line and column with the same message. An over-long
    time, which the reference reports without a position, is reported at
    the time field of the line the reference stopped at."""
    seen = []

    def lines():
        for line in io.StringIO(text):
            seen.append(line)
            yield line

    try:
        expected = trace_ref.parse_trace(lines())
    except TraceParseError as ref:
        with pytest.raises(TraceParseError) as exc:
            parse_text(text)
        assert ((exc.value.line_no, exc.value.column, str(exc.value))
                == (ref.line_no, ref.column, str(ref)))
    except ValueError:  # the reference's int() refused an over-long time
        with pytest.raises(TraceParseError, match="5000 digits") as exc:
            parse_text(text)
        line = seen[-1]
        assert exc.value.line_no == len(seen)
        assert exc.value.column == len(line) - len(line.lstrip()) + 1
    else:
        got = parse_text(text)
        assert got == expected
        assert all(type(r) is TraceRecord for r in got)
