"""The benchmark's tracer (`perfbench/layers.py`) patches package names by
their attribute and reads the results they return. A rename, or a change of
a result's shape, must fail here rather than only under
`perfbench/run.py --trace 1`.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from disturbsim.config import load_config
from disturbsim.controller import Engine
from disturbsim.core import STRATEGIES
from disturbsim.metrics import emit_report
from disturbsim.traces import read_trace_file

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
# queues (retried submits, deepest read + write queue, enqueue-to-pick waits)
# and the conservation triple (admitted, serviced, merges).
COMPARE_COUNTS = {
    "none": dict(retries=628, queue_depth_max=8, wait_p50=900, wait_p99=1300,
                 conservation=(361, 361, 0)),
    "vnc": dict(retries=643, queue_depth_max=8, wait_p50=2100, wait_p99=2900,
                conservation=(361, 361, 0)),
    "siwc": dict(retries=99, queue_depth_max=8, wait_p50=950, wait_p99=1200,
                 conservation=(64, 64, 0)),
    "imdb": dict(retries=793, queue_depth_max=9, wait_p50=403, wait_p99=2109,
                 conservation=(434, 434, 1)),
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_run_reports_as_untraced(layers, strategy):
    cfg = dataclasses.replace(load_config(str(GOLDEN / "compare.cfg")),
                              strategy=strategy)
    trace = read_trace_file(str(GOLDEN / "compare.trace"))
    untraced = emit_report(Engine(cfg, trace).run(), "json")

    tracer = layers.Trace()
    with tracer.installed():
        traced = emit_report(Engine(cfg, trace).run(), "json")
    assert traced == untraced

    # the tracer's own summaries read what the hooks returned
    spans = tracer.summary()
    counts = tracer.counts()
    assert spans["controller.submit"][0] >= len(trace)
    assert counts["conservation"] == tracer.engine.conservation
    pinned = COMPARE_COUNTS[strategy]
    assert {k: counts[k] for k in pinned} == pinned
    if strategy == "imdb":
        assert spans["imdb.lookup"][0] > 0
    if strategy == "siwc":
        assert 0 < counts["siwc_absorbed"] <= spans[
            "baselines.siwc.process_write"][0]
    # every patch was undone
    for _, owner, attr in layers.SPANS:
        assert not hasattr(owner.__dict__[attr], "__wrapped__")
