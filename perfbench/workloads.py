"""The benchmark's three workloads.

Each workload is a config file text and a trace generator from the package
itself. Both depend only on the seed, so the same seed gives the same
inputs. Why each workload exists is recorded in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

from disturbsim.config import parse_config_text
from disturbsim.traces import gen_slow_flip, gen_synthetic, write_trace_file

@dataclass(frozen=True)
class Workload:
    config: str  # config file text; `{seed}` is filled in per run
    make_trace: Callable  # (rng, geometry) -> list[TraceRecord]


def _hotspot(rng, g):
    # 10k records, half the ROADMAP's hotspot trace: the backlog is the
    # same, and a round of the four strategies is short enough to give each
    # one five or more timed samples in a run.
    return gen_synthetic("hotspot", 10_000, rng, g, gap_ns=10,
                         write_fraction=0.7)


def _uniform(rng, g):
    # 20k records over 1M lines touch about 31.5k distinct lines.
    return gen_synthetic("uniform", 20_000, rng, g, gap_ns=250,
                         write_fraction=0.3)


def _slow_flip(rng, g):
    # 280 victims fill a 561-row bank exactly (rows == 2*victims + 1).
    return gen_slow_flip(280, 2, 20, rng, g, gap_ns=1000)


WORKLOADS = {
    # Records arrive every 10 ns against 100-250 ns bank service times, so
    # every bank queue sits at its limit and most submits are retries.
    "hotspot-backlog": Workload("""\
[geometry]
ranks = 1
banks_per_rank = 4
rows_per_bank = 256
cols_per_row = 8

[media]
disturb_limit = 64

[imdb]
threshold = 31
insert_prob = 1
n_mt = 64
n_b = 4
n_groups = 8

[run]
seed = {seed}
""", _hotspot),
    # Paced, read-heavy and spread over 1M lines: queues stay short, media
    # line creation and full-table scans dominate. Default physics.
    "uniform-paced": Workload("""\
[geometry]
ranks = 1
banks_per_rank = 4
rows_per_bank = 4096
cols_per_row = 64

[run]
seed = {seed}
""", _uniform),
    # A4's slow-and-gradual aggressors with real disturbance, paced so that
    # queues stay short: the imdb tables and the media write path work.
    "slowflip-paced": Workload("""\
[geometry]
ranks = 1
banks_per_rank = 1
rows_per_bank = 561
cols_per_row = 4

[media]
disturb_limit = 8
initial_fill = zeros

[imdb]
threshold = 3
insert_prob = 1
n_mt = 256
n_b = 0
n_groups = 16

[run]
seed = {seed}
""", _slow_flip),
}


def write_inputs(workload: Workload, seed: int, workdir) -> tuple[str, str]:
    """Write the workload's config and trace files; return their paths."""
    text = workload.config.format(seed=seed)
    geometry = parse_config_text(text).geometry
    config_path = str(workdir / "workload.cfg")
    trace_path = str(workdir / "workload.trace")
    with open(config_path, "w") as fh:
        fh.write(text)
    write_trace_file(workload.make_trace(Random(seed), geometry), trace_path)
    return config_path, trace_path
