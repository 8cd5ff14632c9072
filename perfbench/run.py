"""disturbsim benchmark: host time per simulated trace, per strategy.

    python3 perfbench/run.py --workload hotspot-backlog --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark writes the workload's
config and trace files from the seed, then follows the public path of
`disturbsim compare`: `load_config`, `read_trace_file`, and for each
strategy `run_to_completion` and `emit_report`. One process, no threads, a
closed loop: each simulation starts when the previous one ends.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer split
from a traced run. Human-readable lines come first; the last line of
standard output is one JSON object. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Put the checkout's sources first on the path and load the oracle."""
    src = ROOT / "src"
    oracle_file = ROOT / "tests" / "oracle.py"
    if not (src / "disturbsim" / "__init__.py").is_file() or not oracle_file.is_file():
        sys.exit(f"E: {ROOT} holds no src/disturbsim package or tests/oracle.py; "
                 "run from the root of a disturbsim checkout")
    sys.path.insert(0, str(src))
    spec = importlib.util.spec_from_file_location("oracle", oracle_file)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", nargs=3,
                        metavar=("CONFIG", "TRACE", "SECONDS"),
                        help=argparse.SUPPRESS)  # the timed process
    args = parser.parse_args(argv)

    oracle = _import_program()
    import bench
    from workloads import WORKLOADS

    if args.worker:
        config_path, trace_path, seconds = args.worker
        bench.worker(config_path, trace_path, float(seconds))
        return
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    run = bench.Bench(args.workload, args.seed, args.seconds, oracle)
    try:
        if args.trace:
            import layers
            metrics = layers.measure_layers(run)
        else:
            metrics = bench.measure(run)
    finally:
        run.close()
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
