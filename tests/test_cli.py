import json
import os
import pickle
from pathlib import Path

import pytest

from disturbsim.cli import dispatch
from disturbsim.controller import Engine, TraceAbort
from disturbsim.core import LINE_MASK
from disturbsim.media import CellArray
from disturbsim.traces import TraceParseError, TraceRecord, write_trace_file

GOLDEN = Path(__file__).parent / "golden"

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
    rows = json.loads(open(report).read())["rows"]
    assert rows[0]["strategy"] == "none"
    assert rows[0]["wde_raw"] == 1024


def test_run_is_byte_identical(cfg_path, trace_path, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (out1, out2):
        assert dispatch(["run", "--config", cfg_path, "--trace", trace_path,
                         "-o", out]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


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
    args = ["sweep", "--config", cfg_path, "--trace", trace_path,
            "--param", "n_groups=1,4", "--format", "json"]
    assert run_rows(args) == run_rows(args + ["--jobs", "2"])


def test_sweep_requires_none_baseline(cfg_path, trace_path, capsys):
    rc = dispatch(["sweep", "--config", cfg_path, "--trace", trace_path,
                   "--strategies", "imdb"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:missing baseline")


def test_sweep_runs_tableless_strategies_once(cfg_path, trace_path):
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--strategies", "none,vnc,siwc,imdb",
                     "--param", "n_b=0,2", "--format", "json"])
    assert [r["strategy"] for r in rows] == ["none", "vnc", "siwc", "siwc",
                                             "imdb", "imdb"]
    for r in rows[:2]:  # no tables: no SRAM
        assert (r["n_mt"], r["n_b"], r["area_bits"]) == (0, 0, 0)
    assert [r["area_bits"] for r in rows[4:]] == [16 * 108, 16 * 108 + 2 * 553]


def test_sweep_sizes_siwc_area_from_its_cache(cfg_path, trace_path):
    """SIWC rows count full-line cache entries (512 data + 25 tag bits),
    an explicit siwc.entries included, not IMDB's table widths."""
    args = ["sweep", "--config", cfg_path, "--trace", trace_path,
            "--strategies", "none,siwc", "--param", "n_b=0,2",
            "--format", "json"]
    rows = run_rows(args)
    assert [r["area_bits"] for r in rows[1:]] == [16 * 537, 18 * 537]
    rows = run_rows(args + ["--set", "siwc.entries=5"])
    assert [r["area_bits"] for r in rows[1:]] == [5 * 537, 5 * 537]


def test_sweep_param_values_parse_like_config_ints(cfg_path, trace_path):
    """`--param` takes the integer forms a config file takes."""
    rows = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                     "--param", "n_mt=0x10,8", "--format", "json"])
    assert [r["n_mt"] for r in rows if r["strategy"] == "imdb"] == [16, 8]


@pytest.mark.parametrize("spec", ["n_mt=abc", "n_b=1,x", "n_groups=", "n_mt"])
def test_bad_sweep_param_is_usage_error(cfg_path, trace_path, capsys, spec):
    rc = dispatch(["sweep", "--config", cfg_path, "--trace", trace_path,
                   "--param", spec])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"E:1:bad --param {spec!r}")


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


def test_usage_error_exit_code(capsys):
    assert dispatch(["run"]) == 1  # --trace is required
    assert capsys.readouterr().err.startswith("E:1:")
    assert dispatch(["frobnicate"]) == 1


def test_bad_config_exit_code(tmp_path, trace_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nstrategy = warp\n")
    rc = dispatch(["run", "--config", str(bad), "--trace", trace_path])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:")


def test_bad_geometry_exit_code(cfg_path, trace_path, capsys):
    rc = dispatch(["run", "--config", cfg_path, "--trace", trace_path,
                   "--set", "geometry.ranks=0"])
    assert rc == 2
    assert capsys.readouterr().err == "E:2:ranks must be >= 1\n"


@pytest.mark.parametrize("args", [
    ["--set", "siwc.entries=-3"],
    ["--set", "imdb.n_mt=-8"],
    ["--set", "imdb.n_b=-1"],
    ["--set", "imdb.hit_cycles=-5"],
    ["--param", "n_mt=-8"],
    ["--param", "n_b=-1"],
])
def test_negative_table_sizes_and_cycles_exit_code(cfg_path, trace_path,
                                                   capsys, args):
    """A negative table size or hit latency is an input error: it would
    give a negative area, a negative table or a run faster than `none`."""
    rc = dispatch(["sweep", "--config", cfg_path, "--trace", trace_path,
                   "--strategies", "none,siwc,imdb", *args])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_energy_exit_code(tmp_path, capsys, value):
    """A non-finite energy input would make every energy figure NaN or
    infinite, which JSON cannot carry."""
    out = tmp_path / "ranks.json"
    rc = dispatch(["run", "--config", str(GOLDEN / "ranks.cfg"),
                   "--trace", str(GOLDEN / "ranks.trace"),
                   "--set", f"energy.pcm_read_pj={value}",
                   "--format", "json", "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:")
    assert not out.exists()


def test_missing_trace_exit_code(cfg_path, capsys):
    rc = dispatch(["run", "--config", cfg_path, "--trace", "/nonexistent"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:")


def test_vnc_without_termination_bound_exit_code(cfg_path, trace_path, capsys):
    # at disturb_limit 1 each correction re-flips the line it came from
    rc = dispatch(["run", "--config", cfg_path, "--trace", trace_path,
                   "--set", "run.strategy=vnc", "--set", "media.disturb_limit=1",
                   "--set", "imdb.threshold=0"])
    assert rc == 2
    assert "disturb_limit >= 3" in capsys.readouterr().err


def test_bad_trace_exit_code(cfg_path, tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text("0 Q 0x0\n")
    rc = dispatch(["run", "--config", cfg_path, "--trace", str(bad)])
    assert rc == 2


def test_overlong_time_exit_code(cfg_path, tmp_path, capsys):
    bad = tmp_path / "long.trace"
    bad.write_text("0 R 0x0\n" + "1" * 5000 + " R 0x0\n")
    rc = dispatch(["run", "--config", cfg_path, "--trace", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:line 2, column 1: time has")


@pytest.mark.parametrize("args", [
    ["--kind", "hammer", "--rounds", "4", "--gap-ns", "-10"],
    ["--kind", "hammer", "--rounds", "4", "--target", "-64"],
    ["--kind", "slow-flip", "--victims", "4", "--rounds", "2", "--gap-ns", "-1"],
    ["--kind", "uniform", "-n", "20", "--gap-ns", "-10"],
    ["--kind", "uniform", "-n", "-5"],
    ["--kind", "hotspot", "-n", "-1"],
    ["--kind", "slow-flip", "--victims", "-2"],
    ["--kind", "slow-flip", "--interleave", "-1"],
    ["--kind", "slow-flip", "--rounds", "-3"],
])
def test_gen_negative_gap_or_target_exit_code(cfg_path, tmp_path, capsys,
                                              args):
    """A negative gap would write decreasing times and a negative target a
    negative address, which `run` rejects, and a negative count an empty
    trace: `gen` refuses all three and writes nothing."""
    out = tmp_path / "neg.trace"
    rc = dispatch(["gen", "--config", cfg_path, *args, "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:")
    assert not out.exists()


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


def test_bad_address_behind_backpressure_exit_code(cfg_path, tmp_path, capsys):
    # one-deep queues: the writes ahead of the bad record are retried first
    records = [TraceRecord(0, "W", 64 * r, LINE_MASK) for r in range(4)]
    records.append(TraceRecord(0, "W", 1 << 40, LINE_MASK))
    path = str(tmp_path / "late-bad.trace")
    write_trace_file(records, path)
    rc = dispatch(["run", "--config", cfg_path, "--trace", path,
                   "--set", "run.queue_depth=1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:record 4:")


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_bad_address_exit_code(tmp_path, capsys, jobs):
    bad = tmp_path / "bad.trace"
    bad.write_text("0 R 0x0\n10 R 0xffffffffff\n")
    rc = dispatch(["sweep", "--config", str(GOLDEN / "compare.cfg"),
                   "--trace", str(bad), "--jobs", jobs])
    assert rc == 2
    assert capsys.readouterr().err == (
        "E:2:record 1: byte_addr 0xffffffffff exceeds module capacity "
        "0x1000\n")


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


def test_non_utf8_trace_exit_code(cfg_path, tmp_path, capsys):
    bad = tmp_path / "bin.trace"
    bad.write_bytes(b"0 R 0x0\n10 R 0x40\n\xff\xfe junk\n")
    rc = dispatch(["run", "--config", cfg_path, "--trace", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("E:2:line 3, column 1: ")


def test_compare_and_sweep_drop_blank_strategies(cfg_path, trace_path):
    compare = run_rows(["compare", "--config", cfg_path, "--trace",
                        trace_path, "--strategies", "none,, imdb,",
                        "--format", "json"])
    assert [r["strategy"] for r in compare] == ["none", "imdb"]
    sweep = run_rows(["sweep", "--config", cfg_path, "--trace", trace_path,
                      "--strategies", "none,, imdb,", "--format", "json"])
    assert [r["strategy"] for r in sweep] == ["none", "imdb"]


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_empty_strategy_list_is_usage_error(cfg_path, trace_path, capsys,
                                            command):
    rc = dispatch([command, "--config", cfg_path, "--trace", trace_path,
                   "--strategies", " , "])
    assert rc == 1
    assert capsys.readouterr().err.startswith("E:1:--strategies")


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
