"""Byte-identity of a committed `compare` report.

`golden/compare.json` is the `compare --format json` report of
`golden/compare.cfg` on `golden/compare.trace`, a 200-record hotspot trace
over two banks. Refactors of the controller or of a strategy must
reproduce it byte for byte; a change that alters results on purpose
regenerates it and says why.
"""

import json
from pathlib import Path

from disturbsim.cli import dispatch
from disturbsim.controller import MITIGATIONS
from disturbsim.core import STRATEGIES

GOLDEN = Path(__file__).parent / "golden"


def test_compare_report_matches_golden(tmp_path):
    report = tmp_path / "compare.json"
    assert dispatch(["compare", "--config", str(GOLDEN / "compare.cfg"),
                     "--trace", str(GOLDEN / "compare.trace"),
                     "--format", "json", "-o", str(report)]) == 0
    expected = (GOLDEN / "compare.json").read_bytes()
    assert report.read_bytes() == expected

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
