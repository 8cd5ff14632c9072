import gzip
import json
import os
import pickle
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from disturbsim.cli import dispatch
from disturbsim.controller import Engine, TraceAbort
from disturbsim.core import LINE_MASK
from disturbsim.media import CellArray
from disturbsim.traces import TraceParseError

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CFG = """
[geometry]
ranks = 1
banks_per_rank = 1
rows_per_bank = 64
cols_per_row = 2

[media]
disturb_limit = 8
initial_fill = zeros

[imdb]
threshold = 3
insert_prob = 1
n_mt = 16
n_b = 2
n_groups = 4

[run]
strategy = none
seed = 1
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(CFG)
    return str(path)


@pytest.fixture
def trace_path(tmp_path, cfg_path):
    path = str(tmp_path / "h.trace")
    rc = dispatch(["gen", "--kind", "hammer", "--config", cfg_path,
                   "--target", "0x80", "--rounds", "32", "-o", path])
    assert rc == 0
    return path


def run_rows(args):
    import io
    import sys
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        rc = dispatch(args)
    finally:
        sys.stdout = old
    assert rc == 0
    return json.loads(out.getvalue())["rows"]


def test_gen_then_run(cfg_path, trace_path, tmp_path):
    report = str(tmp_path / "r.json")
    rc = dispatch(["run", "--config", cfg_path, "--trace", trace_path,
                   "--format", "json", "-o", report])
    assert rc == 0
    rows = json.loads(Path(report).read_text())["rows"]
    assert rows[0]["strategy"] == "none"
    assert rows[0]["wde_raw"] == 1024


def test_run_is_byte_identical(cfg_path, trace_path, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert dispatch(["run", "--config", cfg_path, "--trace", trace_path,
                         "-o", out]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("strategy", ["none", "vnc", "siwc", "imdb"])
def test_run_is_compare_of_one_strategy(tmp_path, strategy, fmt):
    """`run` gives the bytes `compare --strategies <s>` gives."""
    common = ["--config", str(GOLDEN / "ranks.cfg"),
              "--trace", str(GOLDEN / "ranks.trace"), "--format", fmt]
    run, compare = tmp_path / "run", tmp_path / "compare"
    assert dispatch(["run", *common, "--set", f"run.strategy={strategy}",
                     "-o", str(run)]) == 0
    assert dispatch(["compare", *common, "--strategies", strategy,
                     "-o", str(compare)]) == 0
    assert run.read_bytes() == compare.read_bytes()


def test_set_overrides(cfg_path, trace_path):
    rows = run_rows(["run", "--config", cfg_path, "--trace", trace_path,
                     "--set", "run.strategy=imdb", "--format", "json"])
    assert rows[0]["strategy"] == "imdb"
    assert rows[0]["wde_raw"] == 0


def test_env_seed_override(cfg_path, trace_path, monkeypatch):
    monkeypatch.setenv("DISTURBSIM_SEED", "77")
    rows = run_rows(["run", "--config", cfg_path, "--trace", trace_path,
                     "--format", "json"])
    assert rows[0]["seed"] == 77


def test_env_seed_parses_like_config_seed(cfg_path, trace_path, monkeypatch,
                                          capsys):
    monkeypatch.setenv("DISTURBSIM_SEED", "0x10")
    rows = run_rows(["run", "--config", cfg_path, "--trace", trace_path,
                     "--set", "run.seed=5", "--format", "json"])
    assert rows[0]["seed"] == 16
    monkeypatch.setenv("DISTURBSIM_SEED", "abc")
    rc = dispatch(["run", "--config", cfg_path, "--trace", trace_path])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:")


def test_compare_covers_strategies(cfg_path, trace_path):
    rows = run_rows(["compare", "--config", cfg_path, "--trace", trace_path,
                     "--format", "json"])
    assert [r["strategy"] for r in rows] == ["none", "vnc", "siwc", "imdb"]
    wde = {r["strategy"]: r["wde_raw"] for r in rows}
    assert wde["none"] == 1024 and wde["imdb"] == 0


def test_sweep_produces_tradeoff_rows(cfg_path, trace_path):
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--param", "n_b=0,2", "--format", "json"])
    assert {r["strategy"] for r in rows} == {"none", "imdb"}
    imdb_rows = [r for r in rows if r["strategy"] == "imdb"]
    assert {r["n_b"] for r in imdb_rows} == {0, 2}
    assert all("speedup" in r and "area_bits" in r for r in rows)


def test_sweep_parallel_matches_serial(cfg_path, trace_path):
    """The process pool keeps the deduplicated runs in their serial order."""
    args = ["sweep", "--config", cfg_path, "--trace", trace_path,
            "--strategies", "none,vnc,siwc,imdb", "--param", "n_groups=1,4",
            "--param", "n_b=0,2", "--format", "json"]
    assert run_rows(args) == run_rows(args + ["--jobs", "2"])


class RecordingPool:
    """Stands in for `ProcessPoolExecutor`: records its worker count and
    runs the jobs in this process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, workers", [("2", [2]), ("3", [3]),
                                           ("64", [3]), ("1", [])])
def test_sweep_starts_no_more_workers_than_runs(cfg_path, trace_path,
                                                monkeypatch, jobs, workers):
    """Three runs (none and imdb at n_groups 1 and 4) start at most three
    workers whatever `--jobs` asks for, and one job runs in process."""
    monkeypatch.setattr("disturbsim.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "workers", [])
    args = ["sweep", "--config", cfg_path, "--trace", trace_path,
            "--param", "n_groups=1,4", "--format", "json"]
    assert run_rows(args + ["--jobs", jobs]) == run_rows(args)
    assert RecordingPool.workers == workers


@pytest.mark.parametrize("jobs", ["0", "-1", "-8"])
def test_sweep_jobs_below_one_is_usage_error(cfg_path, trace_path,
                                             monkeypatch, capsys, jobs):
    monkeypatch.setattr("disturbsim.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "workers", [])
    rc = dispatch(["sweep", "--config", cfg_path, "--trace", trace_path,
                   "--jobs", jobs])
    assert rc == 1
    assert capsys.readouterr().err == f"E:1:--jobs {jobs} must be at least 1\n"
    assert RecordingPool.workers == []


def test_sweep_runs_tableless_strategies_once(cfg_path, trace_path):
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--strategies", "none,vnc,siwc,imdb",
                     "--param", "n_b=0,2", "--format", "json"])
    assert [r["strategy"] for r in rows] == ["none", "vnc", "siwc", "siwc",
                                             "imdb", "imdb"]
    for r in rows[:2]:  # no tables: no SRAM
        assert (r["n_mt"], r["n_b"], r["area_bits"]) == (0, 0, 0)
    assert [r["area_bits"] for r in rows[4:]] == [16 * 108, 16 * 108 + 2 * 553]


def test_sweep_flags_no_bound_on_tableless_strategies(cfg_path, trace_path):
    """With n_groups past the Ng bound only `imdb` is flagged: `none` and
    `vnc` have no tables, so they report n_groups = 0, as n_mt and n_b."""
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--strategies", "none,vnc,imdb",
                     "--set", "imdb.n_mt=64", "--set", "imdb.n_groups=64",
                     "--format", "json"])
    assert [(r["strategy"], r["n_mt"], r["n_b"], r["n_groups"], r["flags"])
            for r in rows] == [("none", 0, 0, 0, ""), ("vnc", 0, 0, 0, ""),
                               ("imdb", 64, 2, 64, "exceeds Ng<=32")]


def test_sweep_sizes_siwc_area_from_its_cache(cfg_path, trace_path):
    """SIWC rows count full-line cache entries (512 data + 25 tag bits),
    an explicit siwc.entries included, not IMDB's table widths."""
    args = ["sweep", "--config", cfg_path, "--trace", trace_path,
            "--strategies", "none,siwc", "--param", "n_b=0,2",
            "--format", "json"]
    rows = run_rows(args)
    assert [r["area_bits"] for r in rows[1:]] == [16 * 537, 18 * 537]
    rows = run_rows(args + ["--set", "siwc.entries=5"])
    assert [(r["strategy"], r["n_mt"], r["n_b"], r["n_groups"],
             r["area_bits"]) for r in rows[1:]] == [("siwc", 0, 0, 0, 5 * 537)]


def test_sweep_runs_siwc_once_across_n_groups(cfg_path, trace_path):
    """SIWC samples no groups: an n_groups axis gives one `siwc` row, with
    n_groups = 0 and no bound flag. Its n_mt is its entry count, 64 + 2."""
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--strategies", "none,siwc,imdb",
                     "--set", "imdb.n_mt=64", "--param", "n_groups=4,64",
                     "--format", "json"])
    assert [(r["strategy"], r["n_mt"], r["n_b"], r["n_groups"], r["flags"])
            for r in rows] == [("none", 0, 0, 0, ""), ("siwc", 66, 0, 0, ""),
                               ("imdb", 64, 2, 4, ""),
                               ("imdb", 64, 2, 64, "exceeds Ng<=32")]


def test_sweep_runs_imdb_without_main_table_once(cfg_path, trace_path):
    """With n_mt = 0 IMDB samples no groups: an n_groups axis gives one
    `imdb` row, with n_groups = 0 and no bound flag."""
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--set", "imdb.n_mt=0", "--param", "n_groups=1,4,64",
                     "--format", "json"])
    assert [(r["strategy"], r["n_mt"], r["n_b"], r["n_groups"], r["flags"])
            for r in rows] == [("none", 0, 0, 0, ""), ("imdb", 0, 2, 0, "")]


def test_sweep_runs_siwc_once_per_entry_count(cfg_path, trace_path):
    """Under entry parity SIWC reads n_mt and n_b only through their sum:
    (16, 2) and (18, 0) are one 18-entry cache, run once."""
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--strategies", "none,siwc", "--set", "imdb.n_groups=2",
                     "--param", "n_mt=16,18", "--param", "n_b=0,2",
                     "--format", "json"])
    assert [(r["strategy"], r["n_mt"], r["n_b"], r["area_bits"])
            for r in rows] == [("none", 0, 0, 0)] + [
                ("siwc", n, 0, n * 537) for n in (16, 18, 20)]


def test_sweep_runs_a_repeated_value_once(cfg_path, trace_path):
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--param", "n_b=2,2", "--format", "json"])
    assert [(r["strategy"], r["n_b"]) for r in rows] == [("none", 0),
                                                         ("imdb", 2)]


def test_sweep_runs_each_distinct_design_once(cfg_path, trace_path,
                                              monkeypatch):
    """Of the 2 x 2 x 2 grid, `none` and `vnc` read no size, `siwc` reads
    the sum of n_mt and n_b (16, 18, 32 and 34 entries, reported as n_mt),
    and `imdb` reads all three: 1 + 1 + 4 + 8 runs."""
    monkeypatch.setattr("disturbsim.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "workers", [])
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--strategies", "none,vnc,siwc,imdb",
                     "--param", "n_mt=16,32", "--param", "n_b=0,2",
                     "--param", "n_groups=4,8", "--format", "json",
                     "--jobs", "64"])
    assert RecordingPool.workers == [14]
    designs = [(r["strategy"], r["n_mt"], r["n_b"], r["n_groups"])
               for r in rows]
    assert designs == (
        [("none", 0, 0, 0), ("vnc", 0, 0, 0)]
        + [("siwc", m + b, 0, 0) for m in (16, 32) for b in (0, 2)]
        + [("imdb", m, b, g) for m in (16, 32) for b in (0, 2)
           for g in (4, 8)])
    area = {r["strategy"]: r["area_bits"] for r in rows
            if (r["n_mt"], r["n_b"]) in ((32, 2), (34, 0))}
    assert area == {"siwc": 34 * 537, "imdb": 32 * 108 + 2 * 553}


def test_sweep_param_values_parse_like_config_ints(cfg_path, trace_path):
    """`--param` takes the integer forms a config file takes."""
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--param", "n_mt=0x10,8", "--format", "json"])
    assert [r["n_mt"] for r in rows if r["strategy"] == "imdb"] == [16, 8]


# The CLI's failure contract, one row per case: an id, the argv, the files
# the case writes first (name under {tmp}: bytes), the exit code, and the
# stderr, whole if it ends in a newline and a prefix otherwise. The harness
# fills in {cfg} (CFG), {trace} (a hammer trace), {tmp} and {golden}.
RUN = "run --config {cfg} --trace {trace}"
SWEEP = "sweep --config {cfg} --trace {trace}"
RANKS = "--config {golden}/ranks.cfg --trace {golden}/ranks.trace"
OVERFLOW = ("E:2:energy_pcm_read_pj is inf: an [energy] coefficient is too "
            "large\n")

FAILURES = [
    ("run-without-trace", "run", {}, 1, "E:1:"),  # --trace is required
    ("unknown-subcommand", "frobnicate", {}, 1, "E:1:"),
    ("compare-empty-strategies",
     "compare --config {cfg} --trace {trace} --strategies ' , '", {}, 1,
     "E:1:--strategies"),
    ("sweep-empty-strategies", SWEEP + " --strategies ' , '", {}, 1,
     "E:1:--strategies"),
    ("sweep-repeated-param", SWEEP + " --param n_b=0 --param n_b=2", {}, 1,
     "E:1:--param n_b given twice"),
    *((f"bad-param-{spec}", f"{SWEEP} --param {spec}", {}, 1,
       f"E:1:bad --param {spec!r}")
      for spec in ("n_mt=abc", "n_b=1,x", "n_groups=", "n_mt")),
    ("config-bad-strategy", "run --config {tmp}/bad.cfg --trace {trace}",
     {"bad.cfg": b"[run]\nstrategy = warp\n"}, 2, "E:2:"),
    ("config-repeated-key", "run --config {tmp}/bad.cfg --trace {trace}",
     {"bad.cfg": b"[run]\nstrategy = imdb\nseed = 1\nseed = 2\n"}, 2,
     "E:2:line 4: key 'seed' in [run] repeats line 3\n"),
    ("config-repeated-section", "run --config {tmp}/bad.cfg --trace {trace}",
     {"bad.cfg": b"[run]\nseed = 1\n[media]\ndisturb_limit = 8\n[run]\n"}, 2,
     "E:2:line 5: section [run] repeats line 1\n"),
    ("config-not-utf8", "run --config {tmp}/bad.cfg --trace {trace}",
     {"bad.cfg": b"[run]\nseed = 1\xff\n"}, 2,
     "E:2:line 2, column 9: byte 0xff is not UTF-8\n"),
    # A negative threshold is refused on its own line, not on that of a
    # disturb_limit that is valid with any threshold up to 3.
    ("config-negative-threshold", "run --config {tmp}/bad.cfg --trace {trace}",
     {"bad.cfg": b"[media]\ndisturb_limit = 8\n\n[imdb]\nthreshold = -1\n"},
     2, "E:2:line 5: threshold must be >= 0\n"),
    ("bad-geometry", RUN + " --set geometry.ranks=0", {}, 2,
     "E:2:override 'geometry.ranks=0': ranks must be >= 1\n"),
    # The drain state clears once a bank's queued writes fall to the low
    # watermark; below 0 that never happens, so a draining bank would keep
    # putting writes ahead of pre-write reads for the rest of the run. A
    # watermark of -1 is refused on its own, and 4 only with a queue depth
    # of 4, so only -1 names its override.
    *((f"drain-watermark-{value}", f"{RUN} --set run.queue_depth=4 "
       f"--set run.drain_low_watermark={value}", {}, 2,
       f"E:2:{position}drain_low_watermark must be in [0, queue_depth)\n")
      for value, position in (
          ("-1", "override 'run.drain_low_watermark=-1': "), ("4", ""))),
    # A negative table size or hit latency is an input error: it would
    # give a negative area, a negative table or a run faster than `none`.
    *((f"negative-{arg[2:].replace(' ', '-')}",
       f"{SWEEP} --strategies none,siwc,imdb {arg}", {}, 2, "E:2:")
      for arg in ("--set siwc.entries=-3", "--set imdb.n_mt=-8",
                  "--set imdb.n_b=-1", "--set imdb.hit_cycles=-5",
                  "--param n_mt=-8", "--param n_b=-1")),
    # A non-finite energy input would make every energy figure NaN or
    # infinite, which JSON cannot carry; so would finite inputs whose
    # products overflow, in either format and from sweep workers alike.
    *((f"energy-{value}", f"run {RANKS} --set energy.pcm_read_pj={value} "
       "--format json -o {tmp}/ranks.json", {}, 2, "E:2:")
      for value in ("nan", "inf", "-inf")),
    ("energy-overflow-json", f"run {RANKS} --set energy.pcm_read_pj=1e308 "
     "--format json -o {tmp}/ranks.json", {}, 2, OVERFLOW),
    ("energy-overflow-csv", f"run {RANKS} --set energy.pcm_read_pj=1e308 "
     "-o {tmp}/ranks.csv", {}, 2, OVERFLOW),
    ("energy-overflow-sweep-jobs-2", f"sweep {RANKS} --set "
     "energy.pcm_read_pj=1e308 --jobs 2 -o {tmp}/sweep.csv", {}, 2, OVERFLOW),
    # at disturb_limit 1 each correction re-flips the line it came from
    ("vnc-without-termination-bound", RUN + " --set run.strategy=vnc --set "
     "media.disturb_limit=1 --set imdb.threshold=0", {}, 2,
     "E:2:strategy vnc needs disturb_limit >= 3"),
    ("sweep-without-baseline", SWEEP + " --strategies imdb", {}, 2,
     "E:2:missing baseline"),
    # Every strategy builds every point's config, so n_groups = 3, which
    # does not divide n_mt = 16, is an input error even for strategies that
    # do not read it.
    ("sweep-invalid-point",
     SWEEP + " --strategies none,vnc --param n_groups=3", {}, 2,
     "E:2:sweep point {'n_groups': 3}: n_groups must divide n_mt"),
    ("missing-trace", "run --config {cfg} --trace /nonexistent", {}, 2,
     "E:2:"),
    ("trace-bad-op", "run --config {cfg} --trace {tmp}/bad.trace",
     {"bad.trace": b"0 Q 0x0\n"}, 2, "E:2:"),
    ("trace-overlong-time", "run --config {cfg} --trace {tmp}/long.trace",
     {"long.trace": b"0 R 0x0\n" + b"1" * 5000 + b" R 0x0\n"}, 2,
     "E:2:line 2, column 1: time has"),
    ("trace-plain-text-named-gz",
     "run --config {cfg} --trace {tmp}/plain.trace.gz",
     {"plain.trace.gz": b"0 R 0x0\n"}, 2,
     "E:2:line 1, column 1: unreadable compressed data: Not a gzipped file"),
    ("trace-not-utf8", "run --config {cfg} --trace {tmp}/bin.trace",
     {"bin.trace": b"0 R 0x0\n10 R 0x40\n\xff\xfe junk\n"}, 2,
     "E:2:line 3, column 1: "),
    # one-deep queues: the writes ahead of the bad record are retried first
    ("bad-address-behind-backpressure", "run --config {cfg} --trace "
     "{tmp}/late-bad.trace --set run.queue_depth=1",
     {"late-bad.trace": "".join(f"0 W {a:#x} {LINE_MASK:#x}\n"
                                for a in (0, 64, 128, 192, 1 << 40)).encode()},
     2, "E:2:record 4:"),
    *((f"sweep-bad-address-jobs-{jobs}", "sweep --config {golden}/compare.cfg "
       "--trace {tmp}/bad.trace --jobs " + jobs,
       {"bad.trace": b"0 R 0x0\n10 R 0xffffffffff\n"}, 2,
       "E:2:record 1: byte_addr 0xffffffffff exceeds module capacity 0x1000\n")
      for jobs in ("1", "2")),
    # A negative gap would write decreasing times and a negative target a
    # negative address, which `run` rejects, and a negative count an empty
    # trace: `gen` refuses all three and writes nothing.
    *((f"gen-{name}",
       "gen --config {cfg} --kind " + args + " -o {tmp}/neg.trace", {}, 2,
       "E:2:") for name, args in [
        ("hammer-gap", "hammer --rounds 4 --gap-ns -10"),
        ("hammer-target", "hammer --rounds 4 --target -64"),
        ("slow-flip-gap", "slow-flip --victims 4 --rounds 2 --gap-ns -1"),
        ("uniform-gap", "uniform -n 20 --gap-ns -10"),
        ("uniform-records", "uniform -n -5"),
        ("hotspot-records", "hotspot -n -1"),
        ("slow-flip-victims", "slow-flip --victims -2"),
        ("slow-flip-interleave", "slow-flip --interleave -1"),
        ("slow-flip-rounds", "slow-flip --rounds -3")]),
]


@pytest.mark.parametrize("argv, files, code, stderr",
                         [row[1:] for row in FAILURES],
                         ids=[row[0] for row in FAILURES])
def test_failure_contract(cfg_path, trace_path, tmp_path, capsys, argv, files,
                          code, stderr):
    """Each row exits with its code, prints its stderr as one `E:<code>:`
    line and leaves the `-o` target it names, if any, unwritten."""
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    places = {"cfg": cfg_path, "trace": trace_path, "tmp": tmp_path,
              "golden": GOLDEN}
    args = [arg.format(**places) for arg in shlex.split(argv)]
    assert dispatch(args) == code
    err = capsys.readouterr().err
    assert err.startswith(f"E:{code}:") and err.find("\n") == len(err) - 1
    assert (err == stderr if stderr.endswith("\n")
            else err.startswith(stderr))
    if "-o" in args:
        assert not Path(args[args.index("-o") + 1]).exists()


def test_broken_hook_precondition_exit_code(cfg_path, trace_path, capsys,
                                            monkeypatch):
    """A hook whose precondition breaks is an invariant failure: a pre-write
    read that returns no line leaves IMDB's tables no old data."""
    monkeypatch.setattr(CellArray, "read_line", lambda self, addr: None)
    rc = dispatch(["run", "--config", cfg_path, "--trace", trace_path,
                   "--set", "run.strategy=imdb"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "E:3:write reached the tables without prepared old data\n")


@pytest.mark.parametrize("args", [
    ["--kind", "uniform", "-n", "0"],
    ["--kind", "slow-flip", "--victims", "0"],
    ["--kind", "slow-flip", "--interleave", "0"],
    ["--kind", "slow-flip", "--rounds", "0"],
])
def test_gen_zero_count_writes_trace(cfg_path, tmp_path, args):
    """Zero counts stay allowed: only a negative count is refused."""
    out = tmp_path / "zero.trace"
    assert dispatch(["gen", "--config", cfg_path, *args, "-o", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("error", [
    TraceAbort(1, "byte_addr 0xffffffffff exceeds module capacity 0x1000"),
    TraceParseError(3, 5, "unknown op 'Q'"),
])
def test_trace_errors_survive_pickling(error):
    """A `sweep --jobs` worker returns its error to the parent by pickle."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_truncated_gz_trace_exit_code(cfg_path, tmp_path, capsys):
    whole = tmp_path / "h.trace.gz"
    assert dispatch(["gen", "--kind", "hammer", "--rounds", "50",
                     "-o", str(whole)]) == 0
    cut = tmp_path / "cut.trace.gz"
    cut.write_bytes(whole.read_bytes()[:60])
    rc = dispatch(["run", "--config", cfg_path, "--trace", str(cut)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("E:2:line 1, column 1: unreadable compressed data")


def test_corrupt_crc_gz_trace_exit_code(cfg_path, tmp_path, capsys):
    path = tmp_path / "crc.trace.gz"
    assert dispatch(["gen", "--kind", "hammer", "--rounds", "50",
                     "-o", str(path)]) == 0
    data = bytearray(path.read_bytes())
    data[-8] ^= 0xFF  # the gzip trailer: CRC-32, then the length
    path.write_bytes(bytes(data))
    rc = dispatch(["run", "--config", cfg_path, "--trace", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("E:2:line ")
    assert ", column 1: unreadable compressed data: CRC check failed" in err


def test_compare_and_sweep_drop_blank_strategies(cfg_path, trace_path):
    compare = run_rows(["compare", "--config", cfg_path, "--trace",
                        trace_path, "--strategies", "none,, imdb,",
                        "--format", "json"])
    assert [r["strategy"] for r in compare] == ["none", "imdb"]
    sweep = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                      "--strategies", "none,, imdb,", "--format", "json"])
    assert [r["strategy"] for r in sweep] == ["none", "imdb"]


def test_conservation_failure_exit_code(cfg_path, trace_path, monkeypatch,
                                        capsys):
    run = Engine.run

    def corrupted(self):
        self._admitted += 1  # an admission that no service matches
        return run(self)

    monkeypatch.setattr(Engine, "run", corrupted)
    rc = dispatch(["run", "--config", cfg_path, "--trace", trace_path])
    assert rc == 3
    assert capsys.readouterr().err.startswith("E:3:admitted")


def test_gen_slow_flip_cli(cfg_path, tmp_path):
    path = str(tmp_path / "sf.trace.gz")
    rc = dispatch(["gen", "--kind", "slow-flip", "--config", cfg_path,
                   "--victims", "4", "--interleave", "1", "--rounds", "6",
                   "--seed", "3", "-o", path])
    assert rc == 0
    from disturbsim.traces import read_trace_file
    assert len(read_trace_file(path)) == 6 * 4 * 2


def test_gen_uniform_cli(cfg_path, tmp_path):
    path = str(tmp_path / "u.trace")
    rc = dispatch(["gen", "--kind", "uniform", "--config", cfg_path,
                   "-n", "50", "-o", path])
    assert rc == 0
    from disturbsim.traces import read_trace_file
    assert len(read_trace_file(path)) == 50


def test_readme_example_runs(tmp_path, monkeypatch):
    """The README's example config and CLI block run as written, the sweep
    with two jobs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (tmp_path / "sim.cfg").write_text(
        readme.split("```ini\n", 1)[1].split("```", 1)[0])
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [line.split() for line in block.splitlines()
                if line.startswith("disturbsim ")]
    assert [c[1] for c in commands] == ["gen", "gen", "run", "compare",
                                        "sweep"]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        if command[1] == "sweep":
            command[command.index("--jobs") + 1] = "2"
        assert dispatch(command[1:]) == 0, command


def test_written_files_name_their_encoding(cfg_path, tmp_path):
    """Every file the CLI writes names its encoding: with a missing one
    turned into an error, `gen` to a plain and a gzipped trace and `run` to
    a report exit 0 and print nothing to stderr."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    plain, packed = tmp_path / "t.trace", tmp_path / "t.trace.gz"
    report = tmp_path / "out.json"
    gen = ["gen", "--kind", "hammer", "--config", cfg_path, "--target",
           "0x80", "--rounds", "4", "-o"]
    for args in (gen + [str(plain)], gen + [str(packed)],
                 ["run", "--config", cfg_path, "--trace", str(plain),
                  "--format", "json", "-o", str(report)]):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "disturbsim.cli", *args],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), args
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
    assert json.loads(report.read_text(encoding="utf-8"))["rows"]
