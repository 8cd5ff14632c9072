import json
import re
from dataclasses import fields
from fractions import Fraction
from random import Random

import pytest

from disturbsim.cli import dispatch
from disturbsim.config import (_SCHEMA, ConfigError, load_config,
                               parse_config_text)
from disturbsim.core import (FILL_PATTERNS, MT_POLICIES, STRATEGIES,
                             EnergyParams, Geometry, SimConfig)
from disturbsim.traces import gen_synthetic, write_trace_file

SAMPLE = """
# experiment: small module
[geometry]
ranks = 1
banks_per_rank = 1
rows_per_bank = 64
cols_per_row = 2

[media]
disturb_limit = 64
initial_fill = zeros

[imdb]
threshold = 31
insert_prob = 1/4
n_mt = 16
n_b = 4
n_groups = 4

[siwc]
entries = 20
q_insert = 1/2

[run]
strategy = imdb
seed = 9

[energy]
pcm_read_pj = 2.5
"""


def test_parse_sample():
    cfg = parse_config_text(SAMPLE)
    assert cfg.geometry.rows_per_bank == 64
    assert cfg.disturb_limit == 64
    assert cfg.insert_prob == Fraction(1, 4)
    assert cfg.strategy == "imdb"
    assert cfg.seed == 9
    assert cfg.siwc_entries == 20
    assert cfg.energy.pcm_read_pj == 2.5
    assert cfg.initial_fill == "zeros"


def test_empty_text_gives_defaults():
    cfg = parse_config_text("")
    assert cfg.strategy == "none"
    assert cfg.n_mt == 256 and cfg.n_b == 8


def test_overrides_apply_after_file():
    cfg = parse_config_text(SAMPLE, ["run.strategy=siwc", "imdb.n_mt=32",
                                     "imdb.n_groups=8"])
    assert cfg.strategy == "siwc"
    assert cfg.n_mt == 32


@pytest.mark.parametrize("text", [
    "[nosuch]\nx = 1\n",
    "[run]\nwarp = 9\n",
    "stray = 1\n",
    "[run]\nnot a pair\n",
    "[run]\nseed = abc\n",
    "[imdb]\ninsert_prob = 1/0\n",
    "[run]\nstrategy = bogus\n",
    "[imdb]\nn_mt = 16\nn_groups = 3\n",
    "[geometry]\nranks = 0\n",
    "[energy]\npcm_read_pj = -1\n",
    "[energy]\npcm_read_pj = nan\n",
    "[energy]\nsram_search_pj = inf\n",
    "[energy]\nbb_access_pj = -inf\n",
])
def test_rejects_bad_input(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


@pytest.mark.parametrize("override", ["noequals", "nodot=1", "bad.key=1",
                                      "run.bogus=1"])
def test_rejects_bad_overrides(override):
    with pytest.raises(ConfigError):
        parse_config_text("", [override])


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SAMPLE)
    cfg = load_config(str(path), ["run.seed=11"])
    assert cfg.seed == 11


def test_overrides_repeat_and_the_last_wins():
    """Only the file rejects a repeated key: `--set` overrides replace
    each other in order."""
    cfg = parse_config_text("[run]\nseed = 1\n", ["run.seed=2", "run.seed=3"])
    assert cfg.seed == 3


def test_non_utf8_byte_in_a_comment_is_skipped(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"# caf\xe9\n[run]\nseed = 4  # \xff\n")
    assert load_config(str(path)).seed == 4


@pytest.mark.parametrize("text,message", [
    ("[run]\nseed = 1\n\nseed = 1\n",
     "line 4: key 'seed' in [run] repeats line 2"),
    ("[imdb]\nn_mt = 8\n[imdb]\nn_b = 2\n",
     "line 3: section [imdb] repeats line 1"),
    ("[run]\nseed = 1\udcff\n", "line 2, column 9: byte 0xff is not UTF-8"),
])
def test_rejected_config_names_its_lines(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config_text(text)
    assert str(exc.value) == message


def test_hex_ints_accepted():
    cfg = parse_config_text("[run]\nseed = 0x10\n")
    assert cfg.seed == 16


# Every (section, key) the config file accepts, with a non-default value in
# each form the parsers take, the field it sets and the value it gives.
SCHEMA = [
    ("geometry", "ranks", "0x3", "ranks", 3),
    ("geometry", "banks_per_rank", "4", "banks_per_rank", 4),
    ("geometry", "rows_per_bank", "0x40", "rows_per_bank", 64),
    ("geometry", "cols_per_row", "2", "cols_per_row", 2),
    ("timing", "read_ns", "0x20", "read_ns", 32),
    ("timing", "set_ns", "200", "set_ns", 200),
    ("timing", "reset_ns", "120", "reset_ns", 120),
    ("timing", "controller_clock_hz", "1_000_000_000", "controller_clock_hz",
     10 ** 9),
    ("media", "disturb_limit", "2048", "disturb_limit", 2048),
    ("media", "initial_fill", "zeros", "initial_fill", "zeros"),
    ("imdb", "threshold", "0x100", "threshold", 256),
    ("imdb", "insert_prob", "1/4", "insert_prob", Fraction(1, 4)),
    ("imdb", "n_mt", "0x80", "n_mt", 128),
    ("imdb", "n_b", "4", "n_b", 4),
    ("imdb", "n_groups", "16", "n_groups", 16),
    ("imdb", "prior_knowledge", "off", "prior_knowledge", False),
    ("imdb", "mt_policy", "lru", "mt_policy", "lru"),
    ("imdb", "hit_cycles", "3", "hit_cycles", 3),
    ("siwc", "entries", "20", "siwc_entries", 20),
    ("siwc", "q_insert", "1/3", "siwc_q_insert", Fraction(1, 3)),
    ("siwc", "q_evict", "0.25", "siwc_q_evict", Fraction(1, 4)),
    ("run", "strategy", "imdb", "strategy", "imdb"),
    ("run", "seed", "0x10", "seed", 16),
    ("run", "queue_depth", "32", "queue_depth", 32),
    ("run", "drain_low_watermark", "8", "drain_low_watermark", 8),
    ("energy", "pcm_read_pj", "2.5", "pcm_read_pj", 2.5),
    ("energy", "pcm_set_pj_per_bit", "1e-1", "pcm_set_pj_per_bit", 0.1),
    ("energy", "pcm_reset_pj_per_bit", "3", "pcm_reset_pj_per_bit", 3.0),
    ("energy", "sram_search_pj", "0.5", "sram_search_pj", 0.5),
    ("energy", "sram_access_pj", "0.25", "sram_access_pj", 0.25),
    ("energy", "bb_access_pj", "1.5", "bb_access_pj", 1.5),
]


def _settings(cfg: SimConfig) -> dict:
    """Every setting of a config by field name, nested ones included."""
    out = {}
    for obj in (cfg, cfg.geometry, cfg.energy):
        out.update((f.name, getattr(obj, f.name)) for f in fields(obj)
                   if f.name not in ("geometry", "energy"))
    return out


def test_schema_covers_every_field_once():
    names = [name for _, _, _, name, _ in SCHEMA]
    assert len(SCHEMA) == 31 and len(set(names)) == len(names)
    assert len({(sec, key) for sec, key, *_ in SCHEMA}) == len(SCHEMA)
    expected = {f.name for cls in (SimConfig, Geometry, EnergyParams)
                for f in fields(cls)} - {"geometry", "energy"}
    assert set(names) == expected


@pytest.mark.parametrize("section,key,text,name,value", SCHEMA)
def test_each_key_sets_exactly_its_field(section, key, text, name, value):
    defaults = _settings(SimConfig())
    for cfg in (parse_config_text(f"[{section}]\n{key} = {text}\n"),
                parse_config_text("", [f"{section}.{key}={text}"])):
        got = _settings(cfg)
        assert {k for k in got if got[k] != defaults[k]} == {name}
        assert got[name] == value and type(got[name]) is type(value)


def test_bool_accepts_on():
    cfg = parse_config_text("[imdb]\nprior_knowledge = off\n",
                            ["imdb.prior_knowledge=on"])
    assert cfg.prior_knowledge is True


# One valid value for each key of the config file: a small module run by
# `imdb` with every energy event counted at least twice on `small_trace`.
VALID = {
    "geometry": {"ranks": "1", "banks_per_rank": "2", "rows_per_bank": "16",
                 "cols_per_row": "2"},
    "timing": {"read_ns": "100", "set_ns": "150", "reset_ns": "100",
               "controller_clock_hz": "800000000"},
    "media": {"disturb_limit": "8", "initial_fill": "zeros"},
    "imdb": {"threshold": "3", "insert_prob": "1/2", "n_mt": "4", "n_b": "2",
             "n_groups": "2", "prior_knowledge": "on", "mt_policy": "flip",
             "hit_cycles": "2"},
    "siwc": {"entries": "4", "q_insert": "1/2", "q_evict": "1/2"},
    "run": {"strategy": "imdb", "seed": "1", "queue_depth": "8",
            "drain_low_watermark": "4"},
    "energy": {name: "1" for name in _SCHEMA["energy"]},
}

# Values of every kind a key may meet: malformed, out of range, non-finite,
# overflowing, of another key's type, too long for `int` (5,000 digits),
# with an underscore or a non-ASCII digit; the valid integers stay at most
# 1,024, so that no table grows large.
VALUES = ["", "-1", "+4", "0x10", "a/b", "1/0", "2.5", "1e308", "1.7e308",
          "nan", "inf", "abc", "on", "off", *STRATEGIES, *FILL_PATTERNS,
          *MT_POLICIES, "9" * 5000, "1_000", "\u0663", "0", "1", "2",
          "3", "8", "64", "1024"]


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "hotspot.trace"
    g = Geometry(**{k: int(v) for k, v in VALID["geometry"].items()})
    write_trace_file(gen_synthetic("hotspot", 40, Random(1), g), str(path))
    return str(path)


def _refuse(constant):
    raise ValueError(f"report carries {constant}")


@pytest.mark.parametrize("section,key", [(sec, key) for sec in _SCHEMA
                                         for key in _SCHEMA[sec]])
def test_every_value_meets_the_failure_contract(section, key, small_trace,
                                                tmp_path, capsys):
    """Whatever value a key takes, `run` exits 0 with a report that is JSON,
    or 2 with one `E:2:` line. The line names the value's line when the
    key's own parser refuses the value, and a line when the config refuses
    the value on its own, against the defaults: its own, or that of
    another value refused on its own with the same message."""
    parse = _SCHEMA[section][key][1]
    lines = []
    for sec, keys in VALID.items():
        lines.append(f"[{sec}]")
        for name, text in keys.items():
            if (sec, name) == (section, key):
                line_no = len(lines) + 1
            lines.append(f"{name} = {text}")
    path = tmp_path / "sim.cfg"
    ran = []
    for value in VALUES:
        lines[line_no - 1] = f"{key} = {value}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = dispatch(["run", "--config", str(path), "--trace", small_trace,
                       "--format", "json"])
        out, err = capsys.readouterr()
        if rc == 0:
            json.loads(out, parse_constant=_refuse)
            ran.append(value)
            continue
        assert rc == 2, value
        assert err.startswith("E:2:") and err.find("\n") == len(err) - 1
        try:
            parse(value)
        except (ValueError, ZeroDivisionError):
            assert err.startswith(f"E:2:line {line_no}: "), (value, err)
            continue
        try:
            parse_config_text(f"[{section}]\n{key} = {value}\n")
        except ConfigError:
            # refused on its own: this line or another refused value's
            assert re.match(r"E:2:line \d+: ", err), (value, err)
    assert ran  # some value runs: the config and trace themselves are valid
