"""Shared builders for the test suite."""

import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from disturbsim.baselines import SiwcCache
from disturbsim.core import Geometry, SimConfig, decompose_address
from disturbsim.imdb import BarrierEntry, Imdb
from disturbsim.metrics import emit_report

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


class Recorder:
    """Runs one engine over a trace and records, in call order, the calls
    that cross its seams. It is the only code in the suite that restates
    the engine's private signatures.

    - `calls`: each `submit` and `next_command` as (name, now);
    - `media`: each call into the media as (name, args);
    - `services`: each `_service` as ("service", at_once), each host read
      served at admission, a `_read` made outside any `_service`, as
      ("service", True), each rewrite or writeback that
      `_serve_maintenance` serves at once as ("service", True), and each
      `_take` as ("take", at_once, writeback?, rewrites?), where `at_once`
      is that of the service whose hook returned the outcome, None at
      admission.

    `result` is the JSON report, the final random state and the
    conservation counts."""

    def __init__(self, engine_cls, cfg, trace):
        self.engine = eng = engine_cls(cfg, trace)
        self.calls, self.media, self.services = [], [], []
        submit, next_command = eng.submit, eng.next_command
        service, take, read = eng._service, eng._take, eng._read
        maintain = eng._serve_maintenance
        serving = [None]

        def logged_submit(record, record_no, now):
            self.calls.append(("submit", now))
            return submit(record, record_no, now)

        def logged_next_command(bank, now):
            self.calls.append(("next_command", now))
            return next_command(bank, now)

        def logged_service(bank, cmd, now, due=None):
            at_once = due is not None
            self.services.append(("service", at_once))
            serving.append(at_once)
            service(bank, cmd, now, due)
            serving.pop()

        def logged_maintenance(bank, addr, writeback, rewrites, now, due):
            # each item served counts one service; they precede any `_take`
            # of the items left
            mark, serviced = len(self.services), eng._serviced
            maintain(bank, addr, writeback, rewrites, now, due)
            self.services[mark:mark] = (
                [("service", True)] * (eng._serviced - serviced))

        def logged_read(bank, addr, now):
            if len(serving) == 1:  # not within a `_service`: at admission
                self.services.append(("service", True))
            read(bank, addr, now)

        def logged_take(addr, writeback, rewrites, now):
            self.services.append(("take", serving[-1], writeback is not None,
                                  bool(rewrites)))
            take(addr, writeback, rewrites, now)

        def logged_media(name, method):
            def logged(*args):
                self.media.append((name, args))
                return method(*args)
            return logged

        eng.submit, eng.next_command = logged_submit, logged_next_command
        eng._service, eng._take = logged_service, logged_take
        eng._read, eng._serve_maintenance = logged_read, logged_maintenance
        for name in dir(eng.media):
            method = getattr(eng.media, name)
            if not name.startswith("_") and callable(method):
                setattr(eng.media, name, logged_media(name, method))
        report = emit_report(eng.run(), "json")
        self.result = (report, eng.rng.getstate(), eng.conservation)

    @property
    def at_once(self) -> int:
        """The number of services made at once (I4 in `controller`)."""
        return self.services.count(("service", True))


def bench_workloads() -> dict:
    """`perfbench/workloads.py`'s `WORKLOADS`: the benchmark's inputs."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(bench)
    return WORKLOADS
