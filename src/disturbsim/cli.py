"""Command-line entry point: trace generation, single runs, strategy
comparisons, and design-parameter sweeps.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal invariant
failure. Errors go to stderr with a machine-parsable `E:<code>:` prefix.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from random import Random

from .config import ConfigError, load_config, parse_config_text
from .controller import MITIGATIONS, TraceAbort, run_to_completion
from .core import STRATEGIES, ConsistencyError, SimConfig
from .metrics import emit_report, tradeoff_report
from .traces import (gen_hammer, gen_slow_flip, gen_synthetic,
                     read_trace_file, write_trace_file)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="disturbsim",
                     description="Write-disturbance simulator for PCM modules")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic trace")
    gen.add_argument("--kind", required=True,
                     choices=["hammer", "slow-flip", "uniform", "hotspot",
                              "pmix-proxy"])
    gen.add_argument("--config", help="config file (geometry for generators)")
    gen.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="SECTION.KEY=VALUE")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--gap-ns", type=int, default=10)
    gen.add_argument("--target", type=lambda s: int(s, 0), default=0,
                     help="hammer target byte address")
    gen.add_argument("--rounds", type=int, default=1)
    gen.add_argument("--victims", type=int, default=8)
    gen.add_argument("--interleave", type=int, default=2)
    gen.add_argument("-n", "--records", type=int, default=1000)
    gen.add_argument("-o", "--output", required=True)

    for name in ("run", "compare", "sweep"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="config file")
        cmd.add_argument("--set", dest="overrides", action="append",
                         default=[], metavar="SECTION.KEY=VALUE")
        cmd.add_argument("--trace", required=True)
        cmd.add_argument("-o", "--output", help="report path (default stdout)")
        cmd.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.choices["compare"].add_argument(
        "--strategies", default=",".join(STRATEGIES),
        help="comma-separated strategy list")
    sweep = sub.choices["sweep"]
    sweep.add_argument("--strategies", default="none,imdb",
                       help="must include the `none` baseline")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="NAME=V1,V2,...",
                       help="design parameter axis (n_mt, n_b, n_groups)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="parallel simulation processes, at most one "
                            "per run (at least 1)")
    return parser


def _load_cfg(args) -> SimConfig:
    overrides = list(args.overrides)
    env_seed = os.environ.get("DISTURBSIM_SEED")
    if env_seed is not None:
        # last, so the variable wins over the file and over --set
        overrides.append(f"run.seed={env_seed}")
    if args.config:
        return load_config(args.config, overrides)
    return parse_config_text("", overrides)


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    rng = Random(args.seed)
    if args.kind == "hammer":
        records = gen_hammer(args.target, args.rounds, args.gap_ns)
    elif args.kind == "slow-flip":
        records = gen_slow_flip(args.victims, args.interleave, args.rounds,
                                rng, cfg.geometry, args.gap_ns)
    else:
        records = gen_synthetic(args.kind, args.records, rng, cfg.geometry,
                                args.gap_ns)
    write_trace_file(records, args.output)
    return 0


def _desc(cfg: SimConfig) -> dict:
    return {
        "strategy": cfg.strategy,
        "n_mt": cfg.n_mt,
        "n_b": cfg.n_b,
        "n_groups": cfg.n_groups,
        "banks": cfg.geometry.num_banks,
        "seed": cfg.seed,
    }


def _strategies(spec: str) -> list[str]:
    """The names in a `--strategies` list, without blank entries."""
    strategies = [s.strip() for s in spec.split(",") if s.strip()]
    if not strategies:
        raise UsageError(f"--strategies {spec!r} names no strategy")
    return strategies


def _cmd_run(args) -> int:
    """`run` and `compare`: run each strategy (for `run` the config's own)
    on the trace and write one report row per run."""
    cfg = _load_cfg(args)
    trace = read_trace_file(args.trace)
    rows = []
    for strategy in ([cfg.strategy] if args.subcommand == "run"
                     else _strategies(args.strategies)):
        run_cfg = dataclasses.replace(cfg, strategy=strategy)
        stats = run_to_completion(run_cfg, trace)
        rows.append({**_desc(run_cfg), **stats.as_row()})
    _write_output(emit_report(rows, args.format), args.output)
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs {args.jobs} must be at least 1")
    cfg = _load_cfg(args)
    strategies = _strategies(args.strategies)
    if "none" not in strategies:
        raise ConfigError("missing baseline: sweep strategies must include `none`")
    axes = {}
    for spec in args.param:
        if "=" not in spec:
            raise UsageError(f"bad --param {spec!r}, expected NAME=V1,V2,...")
        name, values = spec.split("=", 1)
        name = name.strip()
        if name not in ("n_mt", "n_b", "n_groups"):
            raise UsageError(f"unsupported sweep parameter {name!r}")
        if name in axes:
            raise UsageError(f"--param {name} given twice")
        try:
            axes[name] = [int(v, 0) for v in values.split(",")]
        except ValueError:
            raise UsageError(f"bad --param {spec!r}, values must be "
                             f"integers") from None
    grid = [{}]
    for name, values in axes.items():
        grid = [{**point, name: v} for point in grid for v in values]

    trace = read_trace_file(args.trace)
    # one run per design: sizes that a strategy does not read change nothing
    runs = {}
    for strategy in strategies:
        for point in grid:
            try:
                c = dataclasses.replace(cfg, strategy=strategy, **point)
            except ValueError as exc:
                raise ConfigError(f"sweep point {point}: {exc}") from exc
            design = MITIGATIONS[strategy].design(c)
            runs.setdefault((strategy, *design.values()), (c, design))
    configs = [c for c, _ in runs.values()]
    # the fork start method forks every worker up front: none beyond the runs
    workers = min(args.jobs, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_to_completion, configs,
                                    repeat(trace)))
    else:
        results = [run_to_completion(c, trace) for c in configs]
    banks = cfg.geometry.num_banks
    sweep = [({**design, "strategy": c.strategy,
               "area_bits": design["area_bits"] * banks}, stats)
             for (c, design), stats in zip(runs.values(), results)]
    table = tradeoff_report(sweep)
    _write_output(emit_report(table, args.format), args.output)
    return 0


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"gen": _cmd_gen, "run": _cmd_run, "compare": _cmd_run,
                   "sweep": _cmd_sweep}[args.subcommand]
        return handler(args)
    except UsageError as exc:
        print(f"E:1:{exc}", file=sys.stderr)
        return 1
    # ConfigError and TraceParseError are ValueErrors
    except (TraceAbort, OSError, ValueError) as exc:
        print(f"E:2:{exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"E:3:{exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
