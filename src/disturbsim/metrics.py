"""Run statistics, energy accounting, and the design trade-off report.

Two disturbance metrics are kept side by side: wde_raw counts physical flip
events at the media, wde_exposed counts what the host could actually observe
(divergent reads plus the end-of-run scrub). Prevention-style strategies
drive both to zero; correction-style strategies (VnC) leave wde_raw nonzero
while keeping wde_exposed at zero.

The media counts its own operations (`media_*`, the pulses and `wde_raw`),
which the engine copies in at the end of a run; the strategies count their
table events, and the engine the rest.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields

from .core import EnergyParams

SCHEMA_VERSION = "disturbsim-report/1"

NG_BOUND = 32
NB_BOUND = 64


@dataclass
class RunStats:
    wde_raw: int = 0
    wde_exposed: int = 0
    rewrites: int = 0
    merges: int = 0
    pre_write_reads: int = 0
    media_reads: int = 0
    media_writes: int = 0
    set_pulses: int = 0
    reset_pulses: int = 0
    mt_hits: int = 0
    bb_hits: int = 0
    insertions: int = 0
    bypasses: int = 0
    evictions: int = 0
    writebacks: int = 0
    sram_searches: int = 0
    sram_accesses: int = 0
    bb_accesses: int = 0
    host_reads: int = 0
    host_writes: int = 0
    completion_time_ns: int = 0
    energy: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        row = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "energy"}
        row.update((f"energy_{k}", self.energy[k]) for k in sorted(self.energy))
        return row


def energy_total(stats: RunStats, params: EnergyParams) -> dict:
    """Linear per-event energy breakdown. Inputs are configuration values
    (source=config), not extracted device numbers. Finite coefficients can
    still overflow once multiplied or summed, which is an input error: a
    report carries no infinite energy."""
    breakdown = {
        "pcm_read_pj": (stats.media_reads + stats.pre_write_reads)
        * params.pcm_read_pj,
        "pcm_set_pj": stats.set_pulses * params.pcm_set_pj_per_bit,
        "pcm_reset_pj": stats.reset_pulses * params.pcm_reset_pj_per_bit,
        "sram_search_pj": stats.sram_searches * params.sram_search_pj,
        "sram_access_pj": stats.sram_accesses * params.sram_access_pj,
        "bb_access_pj": stats.bb_accesses * params.bb_access_pj,
    }
    breakdown["total_pj"] = sum(breakdown.values())
    for name, value in breakdown.items():
        if not math.isfinite(value):
            raise ValueError(f"energy_{name} is {value}: an [energy] "
                             "coefficient is too large")
    breakdown["source"] = "config"
    return breakdown


def tradeoff_report(sweep: list[tuple[dict, RunStats]]) -> list[dict]:
    """Rows of (N_mt, N_b, N_g, W, A_bits, S) for a parameter sweep.

    `sweep` pairs a descriptor dict (strategy, n_mt, n_b, n_groups, and
    area_bits, the SRAM bits of all banks' tables) with its run statistics.
    Exactly the runs labeled strategy "none" serve as the speedup baseline;
    `speedup` is None for a run with `completion_time_ns == 0`. Rows
    breaching the design bounds are flagged, not dropped.
    """
    baseline = next((s for d, s in sweep if d["strategy"] == "none"), None)
    if baseline is None:
        raise ValueError("missing baseline: sweep must include a strategy=none run")
    rows = []
    for desc, stats in sweep:
        speedup = (baseline.completion_time_ns / stats.completion_time_ns
                   if stats.completion_time_ns > 0 else None)
        flags = []
        if desc["n_groups"] > NG_BOUND:
            flags.append(f"exceeds Ng<={NG_BOUND}")
        if desc["n_b"] > NB_BOUND:
            flags.append(f"exceeds Nb<={NB_BOUND}")
        rows.append({
            "strategy": desc["strategy"],
            "n_mt": desc["n_mt"],
            "n_b": desc["n_b"],
            "n_groups": desc["n_groups"],
            "wde_raw": stats.wde_raw,
            "wde_exposed": stats.wde_exposed,
            "area_bits": desc["area_bits"],
            "speedup": speedup,
            "completion_time_ns": stats.completion_time_ns,
            "flags": ";".join(flags),
        })
    return rows


def emit_report(payload, fmt: str = "csv") -> str:
    """Serialize one run's `RunStats` or a list of rows deterministically."""
    rows = ([payload.as_row()] if isinstance(payload, RunStats)
            else list(payload))
    if fmt == "json":
        return json.dumps({"schema": SCHEMA_VERSION, "rows": rows},
                          sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# {SCHEMA_VERSION}\n")
        if rows:
            columns = list(rows[0].keys())
            writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")
