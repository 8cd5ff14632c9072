"""Traced run: spans around the calls into each layer, and the counts taken
at those calls.

The wrappers are installed only while one traced simulation runs and are
removed afterwards. Functions that `disturbsim.controller` imports by name
(`decompose_address`, `vnc_wrap_write`) are patched in that module, where
they are called; methods are patched on their class. Spans are kept in
memory as flat arrays and turned into self times when the simulation ends.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from disturbsim import controller
from disturbsim.baselines import SiwcCache
from disturbsim.controller import Engine
from disturbsim.imdb import Imdb
from disturbsim.media import CellArray

from bench import (SETUPS_PER_ROUND, STRATEGIES, rotated, set_up,
                   timed_rounds)

# (span name, owner, attribute); the layer is the name's first component.
SPANS = [
    ("controller.run", Engine, "run"),
    ("controller.submit", Engine, "submit"),
    ("controller.next_command", Engine, "next_command"),
    ("controller.merge_rewrite", Engine, "merge_rewrite"),
    ("core.decompose_address", controller, "decompose_address"),
    ("imdb.process_write", Imdb, "process_write"),
    ("imdb.try_absorb", Imdb, "try_absorb"),
    ("imdb.process_read", Imdb, "process_read"),
    ("imdb.lookup", Imdb, "lookup"),
    ("imdb.select_victim_apple", Imdb, "select_victim_apple"),
    ("imdb.promote_and_demote", Imdb, "promote_and_demote"),
    ("baselines.vnc_wrap_write", controller, "vnc_wrap_write"),
    ("baselines.siwc.process_write", SiwcCache, "process_write"),
    ("baselines.siwc.process_read", SiwcCache, "process_read"),
    ("media.apply_write", CellArray, "apply_write"),
    ("media.read_line", CellArray, "read_line"),
    ("media.intended_line", CellArray, "intended_line"),
    ("media.scrub_divergence", CellArray, "scrub_divergence"),
]


class Trace:
    """Spans and boundary counts of one traced simulation."""

    def __init__(self):
        self.span = array("i")    # index into SPANS
        self.parent = array("i")  # index of the calling span, or -1
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.engine = None
        self.retries = 0
        self.queue_depth_max = 0
        self.waits = array("q")   # simulated ns, enqueue to pick
        self.flips = 0
        self.lines = set()
        self.vnc_extra_reads = 0
        self.siwc_absorbed = 0

    # -- counts taken where the work happens ----------------------------------

    def _run(self, args, result):
        self.engine = args[0]

    def _submit(self, args, accepted):
        if not accepted:
            self.retries += 1

    def _next_command(self, args, cmd):
        bank, now = args[1], args[2]
        depth = len(bank.read_q) + len(bank.write_q)
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth
        if cmd is not None:
            self.waits.append(now - cmd.enqueue_time)

    def _apply_write(self, args, out):
        media, addr = args[0], args[1]
        self.lines.add(addr)
        self.flips += len(out.wde_events)
        if out.reset_pulses:  # RESET pulses reach, and create, the neighbors
            self.lines.update(addr.neighbor_rows(media.geometry))

    def _read(self, args, result):
        self.lines.add(args[1])

    def _vnc_wrap_write(self, args, result):
        self.vnc_extra_reads += len(result[1].extra_reads)

    def _siwc_write(self, args, out):
        self.siwc_absorbed += out.absorbed

    def _observers(self):
        return {
            "controller.run": self._run,
            "controller.submit": self._submit,
            "controller.next_command": self._next_command,
            "media.apply_write": self._apply_write,
            "media.read_line": self._read,
            "media.intended_line": self._read,
            "baselines.vnc_wrap_write": self._vnc_wrap_write,
            "baselines.siwc.process_write": self._siwc_write,
        }

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span_id, fn, observe):
        span, parent, start, end = self.span, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span)
            span.append(span_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every span's wrapper in; restore the originals on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in SPANS]
        observers = self._observers()
        try:
            for span_id, (name, owner, attr) in enumerate(SPANS):
                setattr(owner, attr, self._wrap(span_id, getattr(owner, attr),
                                                observers.get(name)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """{span name: (calls, self seconds)}. Self time is a span's duration
        minus the durations of the spans it called directly."""
        ids = np.frombuffer(self.span, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        called = parents >= 0
        self_s = dur - np.bincount(parents[called], weights=dur[called],
                                   minlength=len(dur))
        calls = np.bincount(ids, minlength=len(SPANS))
        total = np.bincount(ids, weights=self_s, minlength=len(SPANS))
        return {name: (int(calls[i]), float(total[i]))
                for i, (name, _, _) in enumerate(SPANS)}

    def counts(self) -> dict:
        """Boundary counts; all deterministic for a given workload and seed."""
        waits = np.frombuffer(self.waits, dtype=np.int64)
        p50, p99 = np.percentile(waits, [50, 99], method="inverted_cdf")
        return {
            "retries": self.retries,
            "queue_depth_max": self.queue_depth_max,
            "wait_p50": int(p50),
            "wait_p99": int(p99),
            "flips": self.flips,
            "lines": len(self.lines),
            "vnc_extra_reads": self.vnc_extra_reads,
            "siwc_absorbed": self.siwc_absorbed,
            "conservation": self.engine.conservation,
        }


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _layer_metrics(s, spans, counts, row, emit_s, overhead):
    """Per-layer metrics of strategy `s`. Names take the `.<s>` suffix when
    the layer runs under every strategy."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(name):
        return spans[name][0]

    def self_s(prefix):
        return sum(t for name, (_, t) in spans.items()
                   if name.startswith(prefix))

    sfx = f".{s}"
    put("controller.self_s" + sfx, self_s("controller."), "s")
    put("controller.submit.calls" + sfx, calls("controller.submit"), "count")
    put("controller.submit.retry_ratio" + sfx,
        _ratio(counts["retries"], calls("controller.submit")), "ratio")
    put("controller.submit.self_s" + sfx, self_s("controller.submit"), "s")
    put("controller.next_command.calls" + sfx,
        calls("controller.next_command"), "count")
    put("controller.next_command.self_s" + sfx,
        self_s("controller.next_command"), "s")
    put("core.decompose_address.calls" + sfx,
        calls("core.decompose_address"), "count")
    put("controller.queue_depth.max" + sfx, counts["queue_depth_max"],
        "commands")
    put("controller.wait_ns.p50" + sfx, counts["wait_p50"], "sim_ns")
    put("controller.wait_ns.p99" + sfx, counts["wait_p99"], "sim_ns")
    for fn in ("apply_write", "read_line", "intended_line"):
        put(f"media.{fn}.calls" + sfx, calls(f"media.{fn}"), "count")
    put("media.apply_write.self_s" + sfx, self_s("media.apply_write"), "s")
    put("media.read_line.self_s" + sfx, self_s("media.read_line"), "s")
    if s in ("vnc", "imdb"):  # the only strategies that call it on every workload
        put("media.intended_line.self_s" + sfx, self_s("media.intended_line"), "s")
    put("media.self_s" + sfx, self_s("media."), "s")
    put("media.flips" + sfx, counts["flips"], "count")
    put("media.lines" + sfx, counts["lines"], "count")
    put("metrics.emit_report.self_s" + sfx, emit_s, "s")
    for name in ("wde_raw", "wde_exposed"):
        put(f"sim.{name}" + sfx, row[name], "count")
    put("sim.completion_time_ns" + sfx, row["completion_time_ns"], "sim_ns")
    put("trace.overhead" + sfx, overhead, "ratio")

    if s == "imdb":
        put("controller.merge_rewrite.calls.imdb",
            calls("controller.merge_rewrite"), "count")
        for fn in ("process_write", "try_absorb", "process_read", "lookup",
                   "select_victim_apple", "promote_and_demote"):
            put(f"imdb.{fn}.calls", calls(f"imdb.{fn}"), "count")
        # process_read and select_victim_apple have no calls on some
        # workloads, so their time is reported inside imdb.self_s only
        for fn in ("process_write", "try_absorb", "lookup"):
            put(f"imdb.{fn}.self_s", self_s(f"imdb.{fn}"), "s")
        put("imdb.self_s", self_s("imdb."), "s")
        put("imdb.hit_ratio",
            _ratio(row["mt_hits"] + row["bb_hits"], row["sram_searches"]), "ratio")
        put("imdb.merge_ratio", _ratio(row["merges"], row["rewrites"]), "ratio")
    elif s == "vnc":
        put("baselines.vnc_wrap_write.calls",
            calls("baselines.vnc_wrap_write"), "count")
        put("baselines.vnc_wrap_write.self_s",
            self_s("baselines.vnc_wrap_write"), "s")
        put("baselines.vnc.reads_per_write",
            _ratio(counts["vnc_extra_reads"], calls("baselines.vnc_wrap_write")),
            "ratio")
    elif s == "siwc":
        for fn in ("process_write", "process_read"):
            put(f"baselines.siwc.{fn}.calls", calls(f"baselines.siwc.{fn}"),
                "count")
        # process_read has no calls on the write-only workload
        put("baselines.siwc.process_write.self_s",
            self_s("baselines.siwc.process_write"), "s")
        put("baselines.siwc.self_s", self_s("baselines.siwc."), "s")
        put("baselines.siwc.absorb_ratio",
            _ratio(counts["siwc_absorbed"], calls("baselines.siwc.process_write")),
            "ratio")
    return out


def _intent_problems(workload, metrics, queue_depth):
    """Checks that the workload still stresses what it was chosen for."""
    def value(name):
        return metrics[name]["value"]

    problems = []
    for s in STRATEGIES:
        retry = value(f"controller.submit.retry_ratio.{s}")
        if workload == "hotspot-backlog":
            if retry <= 0.5:
                problems.append(f"{s}: retry_ratio {retry:.3f} <= 0.5")
            depth = value(f"controller.queue_depth.max.{s}")
            if depth < 2 * queue_depth:
                problems.append(f"{s}: queue depth {depth} below the limit "
                                f"of {queue_depth} reads + {queue_depth} writes")
        elif retry != 0:
            problems.append(f"{s}: {retry:.3f} of submits were retried")
    if workload == "slowflip-paced" and value("media.flips.none") == 0:
        problems.append("none: no cell flipped")
    if workload == "uniform-paced":
        for s in STRATEGIES:
            if value(f"media.lines.{s}") < 25_000:
                problems.append(f"{s}: only {value(f'media.lines.{s}')} lines")
    return problems


def measure_layers(bench) -> dict:
    """Per-layer metrics: rounds of one untraced and one traced simulation
    per strategy, within the run's seconds."""
    for s in STRATEGIES:  # warm-up
        bench.simulate(s)
    reads = []

    untraced = {s: [] for s in STRATEGIES}
    traced = {s: [] for s in STRATEGIES}
    summaries = {s: [] for s in STRATEGIES}
    emit = {s: [] for s in STRATEGIES}
    counts = {}
    for rounds in timed_rounds(bench.seconds, 1):
        reads.extend(set_up(bench.config_path, bench.trace_path)[1]
                     for _ in range(SETUPS_PER_ROUND))
        for s in rotated(rounds):
            done = bench.simulate(s)
            if done is not None:
                stats, report, run_s, emit_s = done
                bench.check(s, stats.as_row(), None, report)
                untraced[s].append(run_s + emit_s)
            trace = Trace()
            with trace.installed():
                done = bench.simulate(s)
            if done is None:
                continue
            stats, report, run_s, emit_s = done
            seen = trace.counts()
            bench.check(s, stats.as_row(), seen["conservation"], report)
            if counts.setdefault(s, seen) != seen:
                bench.record(s, ["traced counts differ between repetitions"])
            summaries[s].append(trace.summary())
            traced[s].append(run_s + emit_s)
            emit[s].append(emit_s)
            del trace

    metrics = {}
    for s in STRATEGIES:
        if not summaries[s] or not untraced[s]:
            continue
        spans = {name: (summaries[s][0][name][0],
                        statistics.median(x[name][1] for x in summaries[s]))
                 for name in summaries[s][0]}
        overhead = 1 - statistics.median(untraced[s]) / statistics.median(traced[s])
        metrics.update(_layer_metrics(s, spans, counts[s], bench.rows[s],
                                      statistics.median(emit[s]), overhead))
    metrics["traces.read_trace_file.s"] = {"value": statistics.median(reads),
                                           "unit": "s"}

    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    if all(summaries.values()) and all(untraced.values()):
        for p in _intent_problems(bench.workload, metrics,
                                  bench.cfgs["none"].queue_depth):
            bench.problems.append(("intent", p))
    bench.print_checks()
    return metrics
