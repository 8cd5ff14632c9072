"""Shared builders for the test suite."""

import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from disturbsim.baselines import SiwcCache
from disturbsim.core import Geometry, SimConfig, decompose_address
from disturbsim.imdb import BarrierEntry, Imdb

TINY = Geometry(ranks=1, banks_per_rank=1, rows_per_bank=8, cols_per_row=1)


def make_cfg(**kw) -> SimConfig:
    kw.setdefault("geometry", TINY)
    kw.setdefault("disturb_limit", 8)
    kw.setdefault("threshold", min(3, (kw["disturb_limit"] - 1) // 2))
    kw.setdefault("insert_prob", Fraction(1))
    kw.setdefault("n_mt", 8)
    kw.setdefault("n_b", 2)
    kw.setdefault("n_groups", 8)
    kw.setdefault("initial_fill", "zeros")
    return SimConfig(**kw)


def line_of(words) -> int:
    """The line holding eight 64-bit `words`, word 0 in bits 0-63."""
    if len(words) != 8 or not all(0 <= w < 1 << 64 for w in words):
        raise ValueError(f"not eight 64-bit words: {words!r}")
    return sum(w << (64 * i) for i, w in enumerate(words))


def words_of(line: int) -> list[int]:
    """The eight 64-bit words of a line, word 0 first."""
    return [line >> (64 * i) & (1 << 64) - 1 for i in range(8)]


def random_line(rng: Random) -> int:
    return rng.getrandbits(512)


def addr_bytes(row: int, col: int = 0, g: Geometry = TINY) -> int:
    from disturbsim.core import LineAddress, compose_address
    return compose_address(LineAddress(0, 0, row, col), g)


def stale_lines(eng) -> tuple[list, int]:
    """The lines that `eng`'s trace wrote and whose held data, after the
    run, differs from the trace's last write to them, and the number of
    lines written. A line's held data is its SIWC cache entry or IMDB
    barrier entry if one holds it, and otherwise the media's intended data.
    """
    last = {}
    for record in eng.trace:
        if record.op == "W":
            last[decompose_address(record.byte_addr, eng.cfg.geometry)] = (
                record.data)
    stale = []
    for addr, data in last.items():
        tables = eng._bank(addr).mitigation
        entry = tables.lookup(addr) if isinstance(tables, Imdb) else None
        if isinstance(tables, SiwcCache) and addr in tables.data:
            held = tables.data[addr]
        elif isinstance(entry, BarrierEntry):
            held = entry.data
        else:
            held = eng.media.intended_line(addr)
        if held != data:
            stale.append(addr)
    return sorted(stale), len(last)


def bench_workloads() -> dict:
    """`perfbench/workloads.py`'s `WORKLOADS`: the benchmark's inputs."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(bench)
    return WORKLOADS
