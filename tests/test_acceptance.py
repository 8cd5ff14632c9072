"""Acceptance criteria A1..A9.

Each test prints a single `A<n>: PASS` or `A<n>: FAIL` line (bypassing
pytest's capture) so a run can be audited at a glance.
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from random import Random

from disturbsim.cli import dispatch
from disturbsim.controller import (HOST_READ, HOST_WRITE, REWRITE, WRITEBACK,
                                   Engine, run_to_completion)
from disturbsim.core import (Geometry, LineAddress, SimConfig, compose_address,
                             decompose_address)
from disturbsim.imdb import Imdb, sram_capacity
from disturbsim.metrics import RunStats
from disturbsim.traces import TraceRecord, gen_hammer, gen_slow_flip, gen_synthetic
from apple_ref import select_victim_exact
from helpers import TINY, make_cfg
from oracle import replay_trace_wde


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL", file=sys.__stdout__)
        raise
    print(f"{name}: PASS", file=sys.__stdout__)


def row_addr(row, g):
    return compose_address(LineAddress(0, 0, row, 0), g)


# -- A1: ground-truth physics -------------------------------------------------


def test_a1_engine_matches_pulse_ledger_oracle():
    start = time.monotonic()
    with criterion("A1"):
        for limit in (2, 4, 8):
            for seed in range(20):
                trace = gen_synthetic("uniform", 500, Random(seed), TINY)
                cfg = make_cfg(strategy="none", disturb_limit=limit,
                               threshold=0, n_b=0)
                stats = run_to_completion(cfg, trace)
                expect = replay_trace_wde(trace, TINY, limit, "zeros")
                assert stats.wde_raw == expect, (limit, seed)
        assert time.monotonic() - start < 10.0


def test_ones_fill_runs_match_pulse_ledger_oracle():
    """A1's check under the default `ones` fill, on uniform and hotspot
    traces: a never-written line stores no 0 and takes no pulse, so the
    media materializes exactly the lines the trace writes."""
    flips = 0
    for kind in ("uniform", "hotspot"):
        for limit in (2, 4, 8):
            for seed in range(5):
                trace = gen_synthetic(kind, 500, Random(seed), TINY)
                cfg = make_cfg(strategy="none", disturb_limit=limit,
                               threshold=0, n_b=0, initial_fill="ones")
                engine = Engine(cfg, trace)
                stats = engine.run()
                expect = replay_trace_wde(trace, TINY, limit, "ones")
                assert stats.wde_raw == expect, (kind, limit, seed)
                flips += expect
                written = {decompose_address(rec.byte_addr, TINY)
                           for rec in trace if rec.op == "W"}
                assert set(engine.media._lines) == written, (kind, seed)
    assert flips > 0  # the written zeros do flip


# -- A2: zero-WDE guarantee ----------------------------------------------------


def test_a2_hammer_zero_wde_guarantee():
    with criterion("A2"):
        limit = 64
        trace = gen_hammer(row_addr(2, TINY), rounds=4 * limit)
        base = make_cfg(disturb_limit=limit, threshold=31, n_mt=16, n_b=2,
                        n_groups=16, insert_prob=Fraction(1))
        none_stats = run_to_completion(replace(base, strategy="none"), trace)
        imdb_stats = run_to_completion(replace(base, strategy="imdb"), trace)
        # unmitigated: every idle zero cell on both neighbor rows flips once
        expect = replay_trace_wde(trace, TINY, limit, "zeros")
        assert none_stats.wde_raw == expect == 2 * 512
        assert imdb_stats.wde_raw == 0
        assert imdb_stats.rewrites == 2


# -- A3: replacement policy ordering -------------------------------------------

# The victim strip (8 aggressors on odd rows) reaches the top row, so no
# idle row sits beyond the outermost rewrite target; noise lives in the
# upper column half.
A3_GEO = Geometry(ranks=1, banks_per_rank=1, rows_per_bank=17, cols_per_row=4)


# Trigger cadence: entries insert at prior 4 and gain 4 per hit, so the
# threshold of 9 fires on the second consecutive resident hit. Random-victim
# and LRU replacement rarely keep an entry that long; exact and sampled
# selection always do (noise entries hold strictly lower counters).
def a3_cfg(**kw):
    kw.setdefault("geometry", A3_GEO)
    kw.setdefault("strategy", "imdb")
    kw.setdefault("disturb_limit", 20)
    kw.setdefault("threshold", 9)
    kw.setdefault("insert_prob", Fraction(1))
    kw.setdefault("n_mt", 16)
    kw.setdefault("n_b", 0)
    kw.setdefault("n_groups", 16)
    kw.setdefault("initial_fill", "zeros")
    return SimConfig(**kw)


def a3_trace(seed):
    return gen_slow_flip(8, 6, 56, Random(seed), A3_GEO, subset_bits=4)


def a3_total(policy, n_groups=16):
    total = 0
    for seed in range(5):
        cfg = a3_cfg(mt_policy=policy, n_groups=n_groups, seed=seed)
        total += run_to_completion(cfg, a3_trace(seed)).wde_raw
    return total


def test_a3_flip_policy_beats_lru():
    start = time.monotonic()
    with criterion("A3"):
        flip = a3_total("flip")
        lru = a3_total("lru")
        assert flip < lru, (flip, lru)
        assert time.monotonic() - start < 60.0


# -- A4: prior knowledge ---------------------------------------------------------


def test_a4_prior_knowledge_halves_wde():
    with criterion("A4"):
        g = Geometry(ranks=1, banks_per_rank=1, rows_per_bank=561,
                     cols_per_row=4)
        trace = gen_slow_flip(280, 2, 20, Random(11), g)
        results = {}
        for prior in (True, False):
            cfg = SimConfig(geometry=g, strategy="imdb", disturb_limit=8,
                            threshold=3, insert_prob=Fraction(1), n_mt=256,
                            n_b=0, n_groups=16, initial_fill="zeros",
                            prior_knowledge=prior, seed=11)
            results[prior] = run_to_completion(cfg, trace).wde_raw
        assert results[True] <= 0.5 * results[False], results


# -- A5: AppLE degeneracy and sampling trend --------------------------------------


LINES = [LineAddress(0, 0, row, 0) for row in range(256)]


def fill_table(imdb, values):
    for i, (zfc, rw) in enumerate(values):
        imdb.install(i, LINES[i], [zfc] + [0] * 7, rw)


def test_a5_apple():
    with criterion("A5"):
        # (a) full sampling is exactly the global policy: exhaustive over
        # 8-entry tables with binary counter states...
        t8 = Imdb(make_cfg(n_mt=8, n_groups=8, n_b=0), RunStats())
        for code in range(4 ** 8):
            values = []
            for i in range(8):
                bits = (code >> (2 * i)) & 3
                values.append((bits & 1, bits >> 1))
            fill_table(t8, values)
            assert t8.select_victim_apple(Random(code)) == select_victim_exact(t8)
        # ...and over 10^4 randomized 256-entry tables
        t256 = Imdb(make_cfg(n_mt=256, n_groups=256, n_b=0), RunStats())
        rng = Random(99)
        for trial in range(10_000):
            fill_table(t256, zip(rng.choices(range(512), k=256),
                                 rng.choices(range(256), k=256)))
            assert (t256.select_victim_apple(Random(trial))
                    == select_victim_exact(t256)), trial
        # (b) one group (pure random victim) loses protection relative to
        # sampled selection on the slow-flip workload
        assert a3_total("flip", n_groups=1) > a3_total("flip", n_groups=8)


# -- A6/A7: strategy ordering on a composite workload ------------------------------


def composite_trace(seed):
    """Hammer phase on an otherwise idle column-1 row, then slow-flip phase.
    Column 1 is outside both the victim strip (column 0) and the noise
    columns (upper half), so the hammer victims stay idle zeros."""
    hammer = gen_hammer(compose_address(LineAddress(0, 0, 8, 1), A3_GEO),
                        rounds=80)
    flips = gen_slow_flip(8, 6, 112, Random(seed), A3_GEO, subset_bits=4)
    offset = hammer[-1].time + 10
    shifted = [TraceRecord(r.time + offset, r.op, r.byte_addr, r.data)
               for r in flips]
    return hammer + shifted


def a6_cfg(strategy, seed):
    return SimConfig(geometry=A3_GEO, strategy=strategy, disturb_limit=20,
                     threshold=9, insert_prob=Fraction(1), n_mt=16, n_b=8,
                     n_groups=16, initial_fill="zeros", seed=seed,
                     siwc_entries=24)  # entry parity with n_mt + n_b


def a6_totals():
    totals = {}
    for strategy in ("none", "siwc", "imdb", "vnc"):
        stats = [run_to_completion(a6_cfg(strategy, seed),
                                   composite_trace(seed))
                 for seed in range(5)]
        totals[strategy] = stats
    return totals


def test_a6_a7_method_ordering_and_vnc():
    with criterion("A6"):
        runs = a6_totals()
        wde = {s: sum(r.wde_raw for r in rs) for s, rs in runs.items()}
        assert wde["imdb"] < wde["siwc"] < wde["none"], wde
    with criterion("A7"):
        reads_none = sum(r.media_reads for r in runs["none"])
        reads_vnc = sum(r.media_reads for r in runs["vnc"])
        interior = 0
        for seed in range(5):
            for rec in composite_trace(seed):
                if rec.op == "W":
                    row = decompose_address(rec.byte_addr, A3_GEO).row
                    if 0 < row < A3_GEO.rows_per_bank - 1:
                        interior += 1
        assert all(r.wde_exposed == 0 for r in runs["vnc"])
        assert reads_vnc >= reads_none + 4 * interior
        time_vnc = sum(r.completion_time_ns for r in runs["vnc"])
        time_imdb = sum(r.completion_time_ns for r in runs["imdb"])
        assert time_vnc > time_imdb


# -- A8: capacity arithmetic --------------------------------------------------------


def test_a8_sram_capacity():
    with criterion("A8"):
        cap = sram_capacity(256, 8, 4)
        assert cap["main_table_bits_per_bank"] == 27648
        assert cap["barrier_buffer_bits_per_bank"] == 4424
        assert cap["total_bits"] == 128288
        # 16036 bytes: the 16KB figure, allowing for decimal rounding
        assert abs(cap["total_bits"] / 8 - 16_000) / 16_000 < 0.01


# -- A9: determinism and scheduling priority ------------------------------------------


def random_bank_state(cfg, rng):
    """A fresh engine whose bank 0 holds a random queue state, built by the
    engine's own `_enqueue`, `next_command` and `_service`: writes,
    writebacks and rewrites, after each of which the next command may be
    serviced (a pre-write read prepares its write), then host reads.
    Returns (engine, bank)."""
    eng = Engine(cfg, [])
    bank = eng.banks[0]
    for _ in range(rng.randrange(6)):
        kind = rng.choice([HOST_WRITE, WRITEBACK, REWRITE])
        eng._enqueue(bank, kind, LineAddress(0, 0, rng.randrange(8), 0), 0, 0)
        if rng.random() < 0.5:
            eng._service(bank, eng.next_command(bank, 0), 0)
    for _ in range(rng.randrange(3)):
        eng._enqueue(bank, HOST_READ, LineAddress(0, 0, rng.randrange(8), 0),
                     None, 0)
    bank.draining = rng.random() < 0.5
    return eng, bank


def test_a9_determinism_and_priority(tmp_path):
    with criterion("A9"):
        cfg = tmp_path / "a9.cfg"
        cfg.write_text("[geometry]\nranks = 1\nbanks_per_rank = 1\n"
                       "rows_per_bank = 8\ncols_per_row = 1\n"
                       "[media]\ndisturb_limit = 8\ninitial_fill = zeros\n"
                       "[imdb]\nthreshold = 3\ninsert_prob = 1/2\n"
                       "n_mt = 8\nn_b = 2\nn_groups = 4\n"
                       "[run]\nstrategy = imdb\nseed = 3\n")
        trace = tmp_path / "a9.trace"
        assert dispatch(["gen", "--kind", "hotspot", "--config", str(cfg),
                         "-n", "400", "--seed", "2", "-o", str(trace)]) == 0
        outs = []
        for i in range(3):
            out = tmp_path / f"a9-{i}.json"
            assert dispatch(["run", "--config", str(cfg), "--trace",
                             str(trace), "--format", "json",
                             "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

        bank_cfg = make_cfg(queue_depth=4, drain_low_watermark=1)
        rng = Random(0)
        for _ in range(10_000):
            eng, bank = random_bank_state(bank_cfg, rng)
            picked = eng.next_command(bank, 0)
            has_rewrite = any(c.kind is REWRITE for c in bank.write_q)
            if picked is not None:
                if not picked.prepared:
                    # an unprepared pick is its write's pre-write read,
                    # which runs only once no older write to the line waits
                    assert picked.kind is HOST_WRITE
                    assert bank.lines[picked.addr][0] is picked
                if has_rewrite:
                    # rewrites outrank everything, pre-write reads included
                    assert picked.kind is REWRITE
