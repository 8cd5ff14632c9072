"""The end-to-end run: inputs, the correctness gate, and the timed loop.

The timed loop runs in a fresh worker process. Its first, untimed round sets
up and simulates each strategy once; the worker's peak RSS is read right
after it. The same round warms the interpreter up and gives the reports
that every later repetition must match.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from disturbsim.config import load_config
from disturbsim.controller import Engine, run_to_completion
from disturbsim.metrics import emit_report
from disturbsim.traces import read_trace_file

from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STRATEGIES = ("none", "vnc", "siwc", "imdb")
SETUPS_PER_ROUND = 2   # set-ups timed before each round; setup_s is their median
MIN_ROUNDS = 3         # timed rounds of all four strategies, at least
REFERENCE_LOOPS = 150_000
REFERENCE_S = 0.025    # nominal seconds of one reference slice
REFERENCE_SHARE = 0.1  # reference slices per simulation, in host time


def rotated(round_no):
    k = round_no % len(STRATEGIES)
    return STRATEGIES[k:] + STRATEGIES[:k]


def timed_rounds(seconds, minimum):
    """Round numbers: at least `minimum`, then only rounds that, at the
    mean pace so far, end within `seconds`."""
    start = perf_counter()
    n = 0
    while n < minimum or (perf_counter() - start) * (n + 1) / n <= seconds:
        yield n
        n += 1


def reference_slice() -> float:
    """Host seconds of a fixed pure-Python loop. Timed beside every
    simulation, it measures how fast the shared host runs at the moment."""
    t0 = perf_counter()
    d = {}
    for i in range(REFERENCE_LOOPS):  # a dict of 997 ints: stays in cache
        k = i % 997
        d[k] = d.get(k, 0) + i
    return perf_counter() - t0


def set_up(config_path, trace_path):
    """Host seconds of one set-up (load_config, read_trace_file and an
    Engine per strategy) and of its read_trace_file alone."""
    gc.collect()
    t0 = perf_counter()
    cfg = load_config(config_path)
    t1 = perf_counter()
    trace = read_trace_file(trace_path)
    t2 = perf_counter()
    for s in STRATEGIES:
        Engine(dataclasses.replace(cfg, strategy=s), trace)
    return perf_counter() - t0, t2 - t1


def simulate(cfg, trace):
    """One timed simulation: its stats and report, and the host seconds of
    run_to_completion and of emit_report."""
    gc.collect()
    t0 = perf_counter()
    stats = run_to_completion(cfg, trace)
    t1 = perf_counter()
    report = emit_report(stats, "json")
    return stats, report, t1 - t0, perf_counter() - t1


def worker(config_path, trace_path, seconds):
    """The timed process. Prints one JSON object."""
    cfg = load_config(config_path)
    trace = read_trace_file(trace_path)
    cfgs = {s: dataclasses.replace(cfg, strategy=s) for s in STRATEGIES}
    gate = {}
    for s in STRATEGIES:
        engine = Engine(cfgs[s], trace)
        gate[s] = {"report": emit_report(engine.run(), "json"),
                   "conservation": engine.conservation}
        del engine
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    samples = {s: [] for s in STRATEGIES}
    mismatched = {s: 0 for s in STRATEGIES}
    raised = {s: 0 for s in STRATEGIES}
    setups, slices = [], []
    for rounds in timed_rounds(seconds, MIN_ROUNDS):
        # set-ups are spread over the run, like the simulations
        setups.extend(set_up(config_path, trace_path)[0]
                      for _ in range(SETUPS_PER_ROUND))
        for s in rotated(rounds):
            t0 = perf_counter()
            try:
                _, report, run_s, emit_s = simulate(cfgs[s], trace)
            except Exception:
                traceback.print_exc()
                raised[s] += 1
                report = None
            # Time reference slices for a fixed share of each simulation's
            # host time, so that they sample the run's fast and slow spells
            # in the same proportion as the simulations do.
            budget = REFERENCE_SHARE * (perf_counter() - t0)
            while budget > 0:
                slices.append(reference_slice())
                budget -= slices[-1]
            if report is None:
                continue
            mismatched[s] += report != gate[s]["report"]
            samples[s].append(run_s + emit_s)
    print(json.dumps({"peak_rss_mb": peak_rss_mb, "gate": gate,
                      "samples": samples, "mismatched": mismatched,
                      "raised": raised, "setups": setups, "slices": slices,
                      "rounds": rounds + 1}))


def _tail_note(rates):
    """Sample count, and the slow-side percentile that has at least ten
    samples beyond it when there are enough samples for one."""
    n = len(rates)
    if n < 20:
        return f"median of {n} samples; too few for a tail percentile"
    pct = 100 * (1 - 10 / n)
    return f"median of {n} samples; p{pct:.0f} slowest {sorted(rates)[10]:.1f}"


class Bench:
    """One run's inputs, its correctness gate and its failure counts."""

    def __init__(self, workload: str, seed: int, seconds: float, oracle):
        self.workload = workload
        self.seconds = seconds
        self.workdir = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.config_path, self.trace_path = write_inputs(
            WORKLOADS[workload], seed, self.workdir)
        cfg = load_config(self.config_path)
        self.trace = read_trace_file(self.trace_path)
        self.cfgs = {s: dataclasses.replace(cfg, strategy=s) for s in STRATEGIES}
        self.oracle_wde = oracle.replay_trace_wde(
            self.trace, cfg.geometry, cfg.disturb_limit, cfg.initial_fill)
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (strategy, message)
        self.reports = {}   # strategy -> JSON report of its first run
        self.rows = {}      # strategy -> report row (RunStats.as_row())

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def record(self, strategy, problems, runs=1):
        """Count `runs` attempted simulations, all failed if there are
        problems."""
        self.attempted += runs
        self.problems.extend((strategy, p) for p in problems)
        self.failed += runs if problems else 0

    def check(self, strategy, row, conservation, report, runs=1):
        """The correctness gate for `runs` simulations that all produced
        `report`; `row` is their statistics as in the report."""
        problems = []
        if strategy == "none" and row["wde_raw"] != self.oracle_wde:
            problems.append(f"wde_raw {row['wde_raw']} != pulse-ledger oracle "
                            f"{self.oracle_wde}")
        if strategy == "vnc" and row["wde_exposed"] != 0:
            problems.append(f"wde_exposed {row['wde_exposed']} != 0")
        if conservation is not None:
            admitted, serviced, _merges = conservation
            # a merged rewrite is never admitted, so it needs no service
            if admitted != serviced:
                problems.append(f"admitted {admitted} != serviced {serviced}")
        host = row["host_reads"] + row["host_writes"]
        if host != len(self.trace):
            problems.append(f"host_reads + host_writes = {host} != "
                            f"{len(self.trace)} records")
        if report != self.reports.setdefault(strategy, report):
            problems.append("report differs from an earlier repetition")
        self.rows.setdefault(strategy, row)
        self.record(strategy, problems, runs)

    def simulate(self, strategy):
        """simulate() with a raise counted as a failed simulation."""
        try:
            return simulate(self.cfgs[strategy], self.trace)
        except Exception:
            traceback.print_exc()
            self.record(strategy, ["simulation raised"])
            return None

    def run_worker(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--worker", self.config_path,
             self.trace_path, str(self.seconds)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])

    def print_checks(self):
        for s in STRATEGIES:
            if s in self.rows:
                row = self.rows[s]
                digest = hashlib.sha256(self.reports[s].encode()).hexdigest()
                print(f"report {s}: sha256 {digest[:16]} "
                      f"wde_raw={row['wde_raw']} "
                      f"wde_exposed={row['wde_exposed']} "
                      f"completion_time_ns={row['completion_time_ns']}")
        for s, message in self.problems:
            print(f"CHECK FAILED {self.workload} {s}: {message}", file=sys.stderr)


def measure(bench: Bench) -> dict:
    """End-to-end metrics; tracing off."""
    try:
        out = bench.run_worker()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        for s in STRATEGIES:
            bench.record(s, [f"timed worker failed: {exc}"])
        return {}
    for s, gate in out["gate"].items():
        report = gate["report"]
        # the timed repetitions that matched this report share its checks
        matched = len(out["samples"][s]) - out["mismatched"][s]
        bench.check(s, json.loads(report)["rows"][0], gate["conservation"],
                    report, runs=1 + matched)
        if out["mismatched"][s]:
            bench.record(s, ["timed repetitions differ from the first report"],
                         runs=out["mismatched"][s])
        if out["raised"][s]:
            bench.record(s, ["timed simulations raised"], runs=out["raised"][s])

    # Host time is scaled to the nominal reference speed. `slow` > 1 when the
    # host ran slower than nominal during the run. The mean, not the median:
    # the host switches between fast and slow spells within a second, and
    # the simulations average over both.
    slow = statistics.fmean(out["slices"]) / REFERENCE_S
    n = len(bench.trace)
    metrics = {}
    lines = [f"workload {bench.workload}: {n} records, {out['rounds']} rounds "
             f"of {len(STRATEGIES)} strategies in the timed loop",
             f"host speed: reference slice {slow * REFERENCE_S:.4f} s (mean of "
             f"{len(out['slices'])}), nominal {REFERENCE_S} s"]

    def put(name, value, unit, raw, note):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name} = {value:.4f} {unit} (unscaled {raw:.4f}; {note})")

    ops = secs = 0.0
    for s in STRATEGIES:
        times = out["samples"][s]
        rates = [n / t for t in times]
        rate = statistics.median(rates) if rates else 0.0
        put(f"records_per_s.{s}", rate * slow, "records/s", rate,
            _tail_note(rates))
        if times:
            row = bench.rows[s]
            ops += row["media_reads"] + row["pre_write_reads"] + row["media_writes"]
            secs += statistics.median(times)
    media_ops = ops / secs if secs else 0.0
    put("media_ops_per_s", media_ops * slow, "ops/s", media_ops,
        "media reads + pre-write reads + media writes of the four "
        "strategies / their median seconds")
    setup_s = statistics.median(out["setups"])
    put("setup_s", setup_s / slow, "s", setup_s,
        f"median of {len(out['setups'])} set-ups")
    metrics["peak_rss_mb"] = {"value": out["peak_rss_mb"], "unit": "MB"}
    lines.append(f"peak_rss_mb = {out['peak_rss_mb']:.1f} MB (the timed "
                 "process, after its untimed first round)")
    lines.append(f"failed_frac = {bench.failed / bench.attempted:.4f} ratio "
                 f"({bench.failed} of {bench.attempted} simulations)")
    print("\n".join(lines))
    bench.print_checks()
    return metrics
