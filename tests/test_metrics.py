import csv
import io
import json

import pytest

from disturbsim.core import EnergyParams
from disturbsim.imdb import sram_capacity
from disturbsim.metrics import (SCHEMA_VERSION, RunStats, emit_report,
                                energy_total, tradeoff_report)


def stats(**kw) -> RunStats:
    s = RunStats(**kw)
    s.energy = energy_total(s, EnergyParams())
    return s


def desc(strategy, n_mt=16, n_b=2, n_groups=4, banks=1):
    return {"strategy": strategy, "n_mt": n_mt, "n_b": n_b,
            "n_groups": n_groups, "banks": banks,
            "area_bits": sram_capacity(n_mt, n_b, banks)["total_bits"]}


def test_energy_total_is_linear_in_events():
    params = EnergyParams(pcm_read_pj=2.0, pcm_set_pj_per_bit=1.5,
                          pcm_reset_pj_per_bit=3.0, sram_search_pj=0.25,
                          sram_access_pj=0.5, bb_access_pj=0.75)
    s = RunStats(media_reads=10, pre_write_reads=5, set_pulses=4,
                 reset_pulses=2, sram_searches=8, sram_accesses=4,
                 bb_accesses=2)
    e = energy_total(s, params)
    assert e["pcm_read_pj"] == 30.0
    assert e["pcm_set_pj"] == 6.0
    assert e["pcm_reset_pj"] == 6.0
    assert e["total_pj"] == 30 + 6 + 6 + 2 + 2 + 1.5
    assert e["source"] == "config"


@pytest.mark.parametrize("reads,term", [(2, "pcm_read_pj"), (1, "total_pj")])
def test_energy_total_names_the_term_that_overflows(reads, term):
    """Two reads at 1e308 overflow their own term; one read and one SET
    bit at 1e308 each are finite terms whose sum overflows."""
    params = EnergyParams(pcm_read_pj=1e308, pcm_set_pj_per_bit=1e308)
    with pytest.raises(ValueError, match=rf"^energy_{term} is inf: "):
        energy_total(RunStats(media_reads=reads, set_pulses=1), params)


def test_tradeoff_requires_baseline():
    with pytest.raises(ValueError, match="missing baseline"):
        tradeoff_report([(desc("imdb"), stats())])


def test_tradeoff_speedup_and_area():
    sweep = [
        (desc("none", n_mt=0, n_b=0), stats(completion_time_ns=2000, wde_raw=64)),
        (desc("imdb"), stats(completion_time_ns=1000, wde_raw=1)),
    ]
    rows = tradeoff_report(sweep)
    imdb = rows[1]
    assert imdb["speedup"] == 2.0
    assert imdb["area_bits"] == 16 * 108 + 2 * 553
    assert imdb["wde_raw"] == 1
    assert rows[0]["flags"] == ""


def test_tradeoff_speedup_undefined_at_zero_completion():
    sweep = [
        (desc("none", n_mt=0, n_b=0), stats(completion_time_ns=2000)),
        (desc("imdb"), stats(completion_time_ns=0)),
    ]
    rows = tradeoff_report(sweep)
    assert rows[0]["speedup"] == 1.0
    assert rows[1]["speedup"] is None
    assert json.loads(emit_report(rows, "json"))["rows"][1]["speedup"] is None
    table = list(csv.DictReader(io.StringIO(
        emit_report(rows, "csv").split("\n", 1)[1])))
    assert table[0]["speedup"] == "1.0"
    assert table[1]["speedup"] == ""


def test_tradeoff_flags_design_bounds():
    sweep = [
        (desc("none", n_mt=0, n_b=0), stats(completion_time_ns=1)),
        (desc("imdb", n_mt=256, n_b=128, n_groups=64), stats(completion_time_ns=1)),
    ]
    rows = tradeoff_report(sweep)
    assert "Ng<=32" in rows[1]["flags"]
    assert "Nb<=64" in rows[1]["flags"]
    assert len(rows) == 2  # flagged, not dropped


def test_emit_json_schema_and_determinism():
    row = stats(wde_raw=3).as_row()
    text = emit_report([row], "json")
    assert text == emit_report([row], "json")
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["rows"][0]["wde_raw"] == 3
    assert "energy_total_pj" in doc["rows"][0]


def test_emit_csv_shape():
    rows = [stats(wde_raw=1).as_row(), stats(wde_raw=2).as_row()]
    text = emit_report(rows, "csv")
    lines = text.splitlines()
    assert lines[0] == f"# {SCHEMA_VERSION}"
    parsed = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    assert [r["wde_raw"] for r in parsed] == ["1", "2"]


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "xml")


def test_as_row_flattens_energy():
    s = stats()
    row = s.as_row()
    assert "energy" not in row
    assert row["energy_source"] == "config"
