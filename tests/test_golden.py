"""Byte-identity of a committed `compare` report.

`golden/compare.json` is the `compare --format json` report of
`golden/compare.cfg` on `golden/compare.trace`, a 200-record hotspot trace
over two banks. Refactors of the controller or of a strategy must
reproduce it byte for byte; a change that alters results on purpose
regenerates it and says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from disturbsim.cli import dispatch
from disturbsim.controller import MITIGATIONS
from disturbsim.core import STRATEGIES

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


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
