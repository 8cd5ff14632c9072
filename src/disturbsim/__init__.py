"""Trace-driven simulator of write-disturbance errors in phase-change
memory, with table-based mitigation strategies and baselines."""

from .core import (EnergyParams, Geometry, LineAddress, SimConfig,
                   compose_address, count_one_to_zero, count_zeros,
                   decompose_address)
from .controller import Engine, run_to_completion
from .imdb import Imdb, sram_capacity
from .media import CellArray
from .metrics import RunStats, emit_report, energy_total, tradeoff_report
from .traces import (TraceRecord, gen_hammer, gen_slow_flip, gen_synthetic,
                     parse_trace)

__version__ = "0.1.0"

__all__ = [
    "CellArray", "EnergyParams", "Engine", "Geometry", "Imdb",
    "LineAddress", "RunStats", "SimConfig", "TraceRecord",
    "compose_address", "count_one_to_zero", "count_zeros",
    "decompose_address", "emit_report", "energy_total", "gen_hammer",
    "gen_slow_flip", "gen_synthetic", "parse_trace", "run_to_completion",
    "sram_capacity", "tradeoff_report",
]
