"""The benchmark's tracer (`perfbench/layers.py`) patches package names by
their attribute and reads the results they return. A rename, or a change of
a result's shape, must fail here rather than only under
`perfbench/run.py --trace 1`.
"""

import dataclasses
import sys
from pathlib import Path
from random import Random

import pytest

from disturbsim.config import load_config, parse_config_text
from disturbsim.controller import Engine
from disturbsim.core import STRATEGIES
from disturbsim.metrics import emit_report
from disturbsim.traces import read_trace_file
from helpers import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import layers
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return layers


def test_every_span_is_defined_on_its_owner(layers):
    """`Trace.installed` saves each original from its owner's own dict."""
    for name, owner, attr in layers.SPANS:
        assert attr in owner.__dict__, name


# `Trace.counts()` on the compare golden: the per-layer view of the bank
# queues (retried submits, deepest read + write queue, enqueue-to-pick waits),
# the media (flips, lines touched), the strategies (VnC's verification reads,
# SIWC's absorbed writes) and the conservation triple (admitted, serviced,
# merges).
COMPARE_COUNTS = {
    "none": dict(retries=628, queue_depth_max=8, wait_p50=900, wait_p99=1300,
                 flips=1084, lines=32, vnc_extra_reads=0, siwc_absorbed=0,
                 conservation=(361, 361, 0)),
    "vnc": dict(retries=643, queue_depth_max=8, wait_p50=2100, wait_p99=2900,
                flips=11, lines=51, vnc_extra_reads=558, siwc_absorbed=0,
                conservation=(361, 361, 0)),
    "siwc": dict(retries=99, queue_depth_max=8, wait_p50=950, wait_p99=1200,
                 flips=0, lines=24, vnc_extra_reads=0, siwc_absorbed=136,
                 conservation=(64, 64, 0)),
    "imdb": dict(retries=793, queue_depth_max=9, wait_p50=403, wait_p99=2109,
                 flips=4366, lines=39, vnc_extra_reads=0, siwc_absorbed=0,
                 conservation=(434, 434, 1)),
}

# The call count of every span with calls on the compare golden: a refactor
# that moves work between layers keeps each patched name's calls. The engine
# decodes a window of addresses at a time, with `decompose_addresses`, and
# calls `decompose_address` only for an address outside the module, so on
# these inputs the span `core.decompose_address` has no calls.
_COMMON_CALLS = {"controller.run": 1, "media.scrub_divergence": 1}
COMPARE_CALLS = {
    "none": {**_COMMON_CALLS, "controller.submit": 828,
             "controller.next_command": 361, "media.apply_write": 161,
             "media.read_line": 200, "media.intended_line": 39},
    "vnc": {**_COMMON_CALLS, "controller.submit": 843,
            "controller.next_command": 361, "baselines.vnc_wrap_write": 161,
            "media.apply_write": 170, "media.read_line": 758,
            "media.intended_line": 327},
    "siwc": {**_COMMON_CALLS, "controller.submit": 299,
             "controller.next_command": 64,
             "baselines.siwc.process_write": 161,
             "baselines.siwc.process_read": 39, "media.apply_write": 27,
             "media.read_line": 37, "media.intended_line": 12},
    "imdb": {**_COMMON_CALLS, "controller.submit": 993,
             "controller.next_command": 434, "controller.merge_rewrite": 102,
             "imdb.process_write": 120, "imdb.try_absorb": 161,
             "imdb.process_read": 39, "imdb.lookup": 320,
             "imdb.select_victim_apple": 6, "imdb.promote_and_demote": 63,
             "media.apply_write": 196, "media.read_line": 152,
             "media.intended_line": 133},
}


# The same for imdb on the coins golden: n_b = 0, so triggers take the
# bufferless reset, and insert_prob = 1/3 tosses a coin on every miss.
COINS_IMDB_COUNTS = dict(retries=1051, queue_depth_max=9, wait_p50=901,
                         wait_p99=1912, flips=47, lines=64, vnc_extra_reads=0,
                         siwc_absorbed=0, conservation=(573, 573, 4))
COINS_IMDB_CALLS = {
    "controller.run": 1, "controller.submit": 1351,
    "controller.next_command": 573, "controller.merge_rewrite": 67,
    "imdb.process_write": 210, "imdb.try_absorb": 210,
    "imdb.process_read": 90, "imdb.lookup": 300,
    "imdb.select_victim_apple": 39, "media.apply_write": 273,
    "media.read_line": 300, "media.intended_line": 153,
    "media.scrub_divergence": 1}


def traced_run(layers, golden, strategy):
    """The tracer after a traced run of a golden input, whose report must
    equal the untraced run's."""
    cfg = dataclasses.replace(load_config(str(GOLDEN / f"{golden}.cfg")),
                              strategy=strategy)
    trace = read_trace_file(str(GOLDEN / f"{golden}.trace"))
    untraced = emit_report(Engine(cfg, trace).run(), "json")

    tracer = layers.Trace()
    with tracer.installed():
        traced = emit_report(Engine(cfg, trace).run(), "json")
    assert traced == untraced
    # every patch was undone
    for _, owner, attr in layers.SPANS:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")
    # the tracer's own summaries read what the hooks returned
    assert tracer.summary()["controller.submit"][0] >= len(trace)
    assert tracer.counts()["conservation"] == tracer.engine.conservation
    return tracer


def calls_of(tracer):
    return {name: calls for name, (calls, _) in tracer.summary().items()
            if calls}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_run_reports_as_untraced(layers, strategy):
    tracer = traced_run(layers, "compare", strategy)
    spans = tracer.summary()
    counts = tracer.counts()
    assert counts == COMPARE_COUNTS[strategy]
    assert calls_of(tracer) == COMPARE_CALLS[strategy]
    if strategy == "imdb":
        assert spans["imdb.lookup"][0] > 0
    if strategy == "siwc":
        assert 0 < counts["siwc_absorbed"] <= spans[
            "baselines.siwc.process_write"][0]


def test_traced_bufferless_imdb(layers):
    tracer = traced_run(layers, "coins", "imdb")
    assert tracer.engine.cfg.n_b == 0
    assert tracer.counts() == COINS_IMDB_COUNTS
    assert calls_of(tracer) == COINS_IMDB_CALLS


# `none` on the paced golden: records 1,000 ns apart, so every one finds the
# controller idle and is serviced at once (I4 in `controller`). Each of the
# 197 host writes is picked once; the 103 host reads are served at admission
# and never picked. So every enqueue-to-pick wait is 0: on the queue path, a
# host write's second pick, for its write, would wait `read_ns`.
PACED_NONE_COUNTS = dict(retries=0, queue_depth_max=2, wait_p50=0,
                         wait_p99=0, flips=1342, lines=36, vnc_extra_reads=0,
                         siwc_absorbed=0, conservation=(497, 497, 0))
PACED_NONE_CALLS = {**_COMMON_CALLS, "controller.submit": 300,
                    "controller.next_command": 197,
                    "media.apply_write": 197, "media.read_line": 300,
                    "media.intended_line": 103}


def test_traced_idle_path_picks_each_command_once(layers):
    """Of the commands serviced at once, every host write is picked once,
    and a host read, served at admission without a `Command`, is picked
    never. The tracer sees a wait and a queue depth for each write."""
    tracer = traced_run(layers, "paced", "none")
    stats = tracer.engine.stats
    # `none` absorbs nothing, and every record here is serviced at once
    assert calls_of(tracer)["controller.next_command"] == stats.host_writes
    assert tracer.counts() == PACED_NONE_COUNTS
    assert calls_of(tracer) == PACED_NONE_CALLS


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("workload", sorted(bench_workloads()))
def test_traced_benchmark_workload_makes_a_pick(layers, workload, strategy):
    """`Trace.counts()` takes percentiles of the picks' waits and raises
    IndexError on a run that makes no pick, as a run served wholly at
    admission would. So `perfbench/run.py --trace 1` needs a pick on every
    workload, under every strategy: checked here on the first 1,000
    records of each, at seed 1."""
    w = bench_workloads()[workload]
    cfg = dataclasses.replace(parse_config_text(w.config.format(seed=1)),
                              strategy=strategy)
    trace = w.make_trace(Random(1), cfg.geometry)[:1_000]
    tracer = layers.Trace()
    with tracer.installed():
        Engine(cfg, trace).run()
    assert tracer.summary()["controller.next_command"][0] > 0
    assert tracer.counts()["conservation"] == tracer.engine.conservation
