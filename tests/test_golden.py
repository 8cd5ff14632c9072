"""Byte-identity of committed `compare` reports.

`golden/compare.json` is the `compare --format json` report of
`golden/compare.cfg` on `golden/compare.trace`, a 200-record hotspot trace
over two banks. `golden/coins.json` is the report of `golden/coins.cfg` on
`golden/coins.trace` (`gen --kind uniform --config golden/coins.cfg
--seed 2 -n 300 --gap-ns 10`): coins of 1/3 and 2/3, no barrier buffer,
and AppLE groups of three slots. `golden/ranks.json` is the report of
`golden/ranks.cfg` on `golden/ranks.trace` (`gen --kind hotspot --config
golden/ranks.cfg --seed 1 -n 300 --gap-ns 10`): two ranks of two banks,
so every writeback must return to its own rank. `golden/paced.json` is
the report of `golden/paced.cfg` (the compare config) on
`golden/paced.trace` (`gen --kind hotspot --config golden/paced.cfg --seed 2
-n 300 --gap-ns 1000`): records 1,000 ns apart, so most of them find the
controller idle and are serviced at once (I4 in `controller`). Refactors of
the controller or of a strategy must reproduce all four byte for byte; a
change that alters results on purpose regenerates them and says why.

The benchmark's three workloads (`perfbench/workloads.py`) are pinned too,
at seeds 1, 7 and 11 and benchmark scale, by one SHA-256 per strategy and
seed in `BENCH_DIGESTS`; a change that alters them on purpose updates the
table and says why.
"""

import dataclasses
import fractions
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from disturbsim.cli import dispatch
from disturbsim.config import load_config, parse_config_text
from disturbsim.controller import MITIGATIONS, Engine, run_to_completion
from disturbsim.core import STRATEGIES, decompose_address
from disturbsim.media import CellArray
from disturbsim.metrics import emit_report
from disturbsim.traces import read_trace_file
from helpers import Recorder, bench_workloads

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def compare_report(tmp_path, name: str) -> bytes:
    """`compare --format json` of golden/<name>.cfg on golden/<name>.trace;
    asserts it equals golden/<name>.json and returns that."""
    report = tmp_path / f"{name}.json"
    assert dispatch(["compare", "--config", str(GOLDEN / f"{name}.cfg"),
                     "--trace", str(GOLDEN / f"{name}.trace"),
                     "--format", "json", "-o", str(report)]) == 0
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert report.read_bytes() == expected
    return expected


def test_compare_report_matches_golden(tmp_path):
    expected = compare_report(tmp_path, "compare")

    # the fixture reaches every hook of every strategy
    rows = {r["strategy"]: r for r in json.loads(expected)["rows"]}
    assert set(rows) == set(MITIGATIONS) == set(STRATEGIES)
    imdb, siwc, vnc = rows["imdb"], rows["siwc"], rows["vnc"]
    assert imdb["merges"] > 0
    assert imdb["writebacks"] > 0 and siwc["writebacks"] > 0
    assert imdb["bb_hits"] > 0
    assert imdb["evictions"] > 0 and siwc["evictions"] > 0
    assert imdb["bypasses"] > 0 and imdb["insertions"] > 0
    assert imdb["media_reads"] < imdb["host_reads"]  # reads served by the buffer
    assert siwc["media_writes"] < siwc["host_writes"]  # writes absorbed
    # every host write reaches the media under VnC; the rest are corrections
    assert vnc["media_writes"] > vnc["host_writes"]
    assert vnc["wde_exposed"] == 0


def test_non_dyadic_coins_report_matches_golden(tmp_path):
    """Pins the coin thresholds of 1/3 and 2/3 and the rejection sampling
    of AppLE's three-slot groups and of SIWC's six-entry victim draw."""
    rows = {r["strategy"]: r
            for r in json.loads(compare_report(tmp_path, "coins"))["rows"]}
    imdb, siwc = rows["imdb"], rows["siwc"]
    assert imdb["evictions"] > 0  # AppLE ran
    assert imdb["bypasses"] > 0 and imdb["insertions"] > 0  # the coin fell both ways
    assert siwc["evictions"] > 0  # both SIWC coins and the victim draw ran


def test_two_rank_report_matches_golden(tmp_path):
    """Pins writebacks on a geometry with two ranks: an evicted entry must
    go back to the rank and bank it came from."""
    rows = {r["strategy"]: r
            for r in json.loads(compare_report(tmp_path, "ranks"))["rows"]}
    imdb, siwc = rows["imdb"], rows["siwc"]
    assert siwc["evictions"] > 0 and siwc["writebacks"] > 0
    assert imdb["evictions"] > 0 and imdb["writebacks"] > 0
    assert imdb["bb_hits"] > 0

    g = load_config(str(GOLDEN / "ranks.cfg")).geometry
    assert (g.ranks, g.banks_per_rank) == (2, 2)
    banks = {decompose_address(r.byte_addr, g)[:2]
             for r in read_trace_file(str(GOLDEN / "ranks.trace"))}
    assert banks == {(r, b) for r in range(2) for b in range(2)}  # all four


# The services that each strategy makes at once on the paced golden (I4 in
# `controller`): one per record for `none` and `vnc`; the other tables
# absorb writes, and every rewrite and writeback of `siwc` and `imdb` is
# served at once. Three of VnC's records arrive while its corrections keep
# their bank busy; the controller is idle, so each is served at once, when
# its bank is next free.
PACED_AT_ONCE = {"none": 300, "vnc": 300, "siwc": 78, "imdb": 491}


def test_paced_report_matches_golden(tmp_path):
    """Pins the idle path, alongside VnC's corrections, SIWC's writebacks
    and IMDB's rewrites."""
    rows = {r["strategy"]: r
            for r in json.loads(compare_report(tmp_path, "paced"))["rows"]}
    assert rows["vnc"]["media_writes"] > rows["vnc"]["host_writes"]
    assert rows["siwc"]["writebacks"] > 0
    assert rows["imdb"]["rewrites"] > 0 and rows["imdb"]["writebacks"] > 0

    base = load_config(str(GOLDEN / "paced.cfg"))
    trace = read_trace_file(str(GOLDEN / "paced.trace"))
    for strategy, expected in PACED_AT_ONCE.items():
        cfg = dataclasses.replace(base, strategy=strategy)
        assert Recorder(Engine, cfg, trace).at_once == expected, strategy


# The SHA-256 of `repr((report, rng.getstate(), conservation))` for each
# strategy on each benchmark workload at seeds 1, 7 and 11: the JSON report,
# the final random state and `Engine.conservation`.
BENCH_SEEDS = (1, 7, 11)
BENCH_DIGESTS = {
    ("hotspot-backlog", 1, "none"):
        "07fe4cf3accc6cfb7e953ff024978f350e66a949ccba870dd20e716466dab6bf",
    ("hotspot-backlog", 1, "vnc"):
        "c183d030c2b34dae32fab328aa90e89a149085b5923263f2324707597592ce16",
    ("hotspot-backlog", 1, "siwc"):
        "fcf85c6d02ee37138c7e8566fdf63057f023100975c956cfbfd6470700a329e5",
    ("hotspot-backlog", 1, "imdb"):
        "7cb98fee6e809148aa918b3997a632556ee197c9583fbb4a78461455ad711e82",
    ("hotspot-backlog", 7, "none"):
        "483274f0b1b537c652ed450d3d0daa2e3e9b85781483bf44a1fc32114dddc327",
    ("hotspot-backlog", 7, "vnc"):
        "e7d560dccf48fdceac0b78bf41c848830058f9d455c0b7487f09b27c61f026ce",
    ("hotspot-backlog", 7, "siwc"):
        "8822b2e009c30db08ba609d1bb96fb0e38e2fee78951d927d5c60af2a7c0df6a",
    ("hotspot-backlog", 7, "imdb"):
        "51e3f520bf75abfd875b0e6f26fe486d94ba8c2fd2a58c787f67d740ffc284ff",
    ("hotspot-backlog", 11, "none"):
        "84ac09e2ea7fd6363ddd561efcb4ee009003ae077364266fe67e8c083e381449",
    ("hotspot-backlog", 11, "vnc"):
        "93580c2fc2401a62ca785614748bcb2edc38a5b44519395c03b421ff5b7ac78d",
    ("hotspot-backlog", 11, "siwc"):
        "af7d163682505a35769639b61083424a52bd06d3c1fbe1d3580a3497f111bf02",
    ("hotspot-backlog", 11, "imdb"):
        "9269e6a86226fc4fe11a9ddf9de2ce118fc99f9f4c53c91fe3b89b48870cdf4d",
    ("slowflip-paced", 1, "none"):
        "0c9b01d0e732ad37d0d2979dc0409945caff678580dea7d81fbd34cc8d54571f",
    ("slowflip-paced", 1, "vnc"):
        "ac82a8a7e47ae35bf00cfab4cc88e8e213802e83f6162952ddf772ebd4801ae6",
    ("slowflip-paced", 1, "siwc"):
        "660d84752d86359d86e12379a3eb4c0cb527c4622af358ada4482f4f91f8b37d",
    ("slowflip-paced", 1, "imdb"):
        "bb8726ef4a53b6499c42ca25a795cb39c9bf6acda0e882202401841c204f6c16",
    ("slowflip-paced", 7, "none"):
        "57049d78eba3ce436412da7cf96df1b7f57b2479e31b1bb262faf5e621f88710",
    ("slowflip-paced", 7, "vnc"):
        "b5e8063de3161f4e1787cb6459b93decfb9ba9581f72d1ec27b5a3931e18f96b",
    ("slowflip-paced", 7, "siwc"):
        "cb8c8e6a576654fae0e107f8112631ff848fd665612d2d9c45797ba0f5ae45eb",
    ("slowflip-paced", 7, "imdb"):
        "cb4332bc9d2834633144966e0c6d285261a93bb274a5c11df5c96b41831bd5b5",
    ("slowflip-paced", 11, "none"):
        "78330050b38c731cf0d8e0faea91299d2f7800b26bb08ae1db9bf4cb7994d2f3",
    ("slowflip-paced", 11, "vnc"):
        "508499c85cfd7ceb164e91e7fdf66d6fd1207fa3f5383ecd45d1805491c791fe",
    ("slowflip-paced", 11, "siwc"):
        "cff7c35da2ac9029522b1bba6aee7b4028f46d948e3f0dd0827e757c90cfd3da",
    ("slowflip-paced", 11, "imdb"):
        "7c2c111152abe2db8029c94d09e581616e1a120b5ddac4211b943e010d02a96c",
    ("uniform-paced", 1, "none"):
        "d5837a4d65610a85af6f9d595f5f48a0108d403066d5a9a95017f7242abbfd6a",
    ("uniform-paced", 1, "vnc"):
        "c8f1569e87d521a071a11ec5b58c48b1d09a99043e31d0394f58b385d776396b",
    ("uniform-paced", 1, "siwc"):
        "1dce4013fb8d340a479a57ceacee30bb29b30053061761749d658d94bf480e8f",
    ("uniform-paced", 1, "imdb"):
        "fd366946d2575df1e3ef32cc7ed98aa9e2925488ccbeab661268f3734eb8cf1e",
    ("uniform-paced", 7, "none"):
        "e3c1c08c959b0f3b9c7784309000dcbfb2dc917f8ee378902fe2f73beea544bb",
    ("uniform-paced", 7, "vnc"):
        "6a9a8a47417998275c01fb2b122dc826dd3aa0ede8aea21e81903063ea51e1a1",
    ("uniform-paced", 7, "siwc"):
        "560b4b1b095e3da195701e28e48c00f597e3a41f5a7724b8435a933bdf01b4ac",
    ("uniform-paced", 7, "imdb"):
        "90560eca3c76b733b6d14a533edd185b68d1cc6bd5f3273a8b066e3f7929906a",
    ("uniform-paced", 11, "none"):
        "6446ec296d44dab2a5f707a9411116aecefc7b35042a219d96aec3372bdb81a1",
    ("uniform-paced", 11, "vnc"):
        "a06679ec6484b17a19fbb6f5ca3e977fa49b8b3cb439477b55977a9f60bcc744",
    ("uniform-paced", 11, "siwc"):
        "33503588f62bbb44459419728159a86878bb8fe113ab1758574d048f4184f1b8",
    ("uniform-paced", 11, "imdb"):
        "053130e856e67fc777ed8ac13bbf294b0c94ac33a3c072a1b013fb578dc28c6e",
}


@pytest.mark.parametrize("workload", sorted(bench_workloads()))
def test_benchmark_runs_match_their_digests(workload):
    w = bench_workloads()[workload]
    digests = {}
    for seed in BENCH_SEEDS:
        cfg = parse_config_text(w.config.format(seed=seed))
        trace = w.make_trace(random.Random(seed), cfg.geometry)
        for strategy in STRATEGIES:
            eng = Engine(dataclasses.replace(cfg, strategy=strategy), trace)
            report = emit_report(eng.run(), "json")
            state = (report, eng.rng.getstate(), eng.conservation)
            digests[workload, seed, strategy] = hashlib.sha256(
                repr(state).encode()).hexdigest()
    assert digests == {key: digest for key, digest in BENCH_DIGESTS.items()
                       if key[0] == workload}


@pytest.mark.parametrize("name", ["compare", "coins", "ranks", "paced"])
@pytest.mark.parametrize("strategy", ["siwc", "imdb"])
def test_no_fraction_or_randrange_per_event(monkeypatch, strategy, name):
    """No per-event path compares a Fraction or calls `randrange`: the
    coins compare floats and the victim draws use `getrandbits`."""
    cfg = dataclasses.replace(load_config(str(GOLDEN / f"{name}.cfg")),
                              strategy=strategy)
    trace = read_trace_file(str(GOLDEN / f"{name}.trace"))

    def forbidden(*args, **kwargs):
        raise AssertionError("called during a run")

    monkeypatch.setattr(fractions.Fraction, "_richcmp", forbidden)
    monkeypatch.setattr(random.Random, "randrange", forbidden)
    stats = run_to_completion(cfg, trace)
    monkeypatch.undo()
    assert stats.evictions > 0


@pytest.mark.parametrize("name", ["compare", "coins", "ranks", "paced"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_media_operation_is_counted_once(monkeypatch, strategy, name):
    """The report's media counts are the sums over the media calls
    themselves, wrapped on the class as the benchmark's tracer wraps them:
    no operation is counted twice or missed, whoever called it."""
    cfg = dataclasses.replace(load_config(str(GOLDEN / f"{name}.cfg")),
                              strategy=strategy)
    trace = read_trace_file(str(GOLDEN / f"{name}.trace"))
    seen = dict(reads=0, writes=0, set_pulses=0, reset_pulses=0, flips=0)
    apply_write, read_line = CellArray.apply_write, CellArray.read_line

    def counted_write(self, addr, data, full=False):
        out = apply_write(self, addr, data, full)
        seen["writes"] += 1
        seen["set_pulses"] += out.set_pulses
        seen["reset_pulses"] += out.reset_pulses
        seen["flips"] += len(out.wde_events)
        return out

    def counted_read(self, addr):
        seen["reads"] += 1
        return read_line(self, addr)

    monkeypatch.setattr(CellArray, "apply_write", counted_write)
    monkeypatch.setattr(CellArray, "read_line", counted_read)
    stats = run_to_completion(cfg, trace)
    monkeypatch.undo()
    assert seen["writes"] > 0
    assert dict(reads=stats.media_reads + stats.pre_write_reads,
                writes=stats.media_writes, set_pulses=stats.set_pulses,
                reset_pulses=stats.reset_pulses, flips=stats.wde_raw) == seen


def test_compare_needs_no_numpy(tmp_path):
    """The package has no runtime dependency: with numpy unimportable, the
    CLI still reproduces the golden report byte for byte."""
    report = tmp_path / "compare.json"
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # any import of numpy now fails\n"
            "from disturbsim.cli import main\n"
            "main()\n")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, "compare",
         "--config", str(GOLDEN / "compare.cfg"),
         "--trace", str(GOLDEN / "compare.trace"),
         "--format", "json", "-o", str(report)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert report.read_bytes() == (GOLDEN / "compare.json").read_bytes()
