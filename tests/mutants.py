"""A kill-list of hand-made mutants, and the runner that checks each is killed.

Each mutant names a file, a text that occurs in it exactly once, the text
that replaces it, and the tests that must fail once it is replaced. The
runner copies `src/`, `tests/`, `perfbench/` and `pyproject.toml` into a
temporary directory, applies one mutant there, runs its tests with
`pytest -x -q` and requires them to fail; the checkout itself is never
edited. A named test that cannot run in the copy would fail there for that
reason alone, so the runner first runs every named test once in an
unmutated copy and requires them all to pass. Hypothesis runs with a fixed
seed, so a kill does not depend on the examples a run happens to draw, and
under the `mutants` profile of `tests/conftest.py`, which does not shrink:
a failing example already kills the mutant, and shrinking it can take
minutes. The profile changes how soon a kill is found, not what counts as
one.

    python3 tests/mutants.py [NAME ...]

With names, only those mutants run, and the baseline runs only their tests;
an unknown name is refused (exit 2) before anything runs. pytest does not
collect this file; `tests/test_mutants.py` checks without running anything
that each mutant still applies to the code and that names select mutants.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # a mutant that hangs its tests counts as killed
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the checkout


MUTANTS = [
    Mutant("media-carry", "src/disturbsim/media.py",
           "carry &= plane", "carry &= ~plane",
           ("tests/test_media.py::test_media_matches_naive_ledger",)),
    Mutant("incomplete-victims-kept", "src/disturbsim/media.py",
           "                if not self._lazy_victims:  # every neighbour "
           "materialized\n"
           "                    line.victims = victims\n",
           "                line.victims = victims\n",
           ("tests/test_media.py::test_late_written_neighbor_is_pulsed",)),
    Mutant("full-write-as-differential", "src/disturbsim/media.py",
           "old = data ^ LINE_MASK if full else line.phys",
           "old = line.phys",
           ("tests/test_media.py::test_media_matches_naive_ledger",
            "tests/test_golden.py::test_compare_report_matches_golden")),
    Mutant("planes-never-allocated", "src/disturbsim/media.py",
           "                if not planes:  # its first pulse\n"
           "                    planes = victim.planes = [0] * self._planes\n",
           "",
           ("tests/test_media.py::test_media_matches_naive_ledger",)),
    Mutant("clear-skips-held-planes", "src/disturbsim/media.py",
           "if programmed and line.planes:",
           "if programmed and not line.planes:",
           ("tests/test_media.py::test_media_matches_naive_ledger",)),
    Mutant("read-counted-twice", "src/disturbsim/media.py",
           "self.reads += 1", "self.reads += 2",
           ("tests/test_golden.py::test_compare_report_matches_golden",)),
    Mutant("neighbor-row-past-the-edge", "src/disturbsim/core.py",
           "if row < g.rows_per_bank - 1:", "if row < g.rows_per_bank:",
           ("tests/test_core.py::test_neighbor_rows_skip_edges",
            "tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path")),
    Mutant("decode-past-capacity", "src/disturbsim/core.py",
           "if byte_addr >= g.capacity_bytes:",
           "if byte_addr > g.capacity_bytes:",
           ("tests/test_core.py::test_address_out_of_range",)),
    Mutant("decode-bank-ignores-rank", "src/disturbsim/core.py",
           "[rank * banks + bank for rank, bank, _, _ in fields]",
           "[bank for rank, bank, _, _ in fields]",
           ("tests/test_core.py::test_batch_decode_matches_per_address",)),
    Mutant("coin-floor", "src/disturbsim/core.py",
           "return -(-p.numerator * _RANDOM_SCALE // p.denominator)",
           "return (p.numerator * _RANDOM_SCALE // p.denominator)",
           ("tests/test_core.py::test_coin_threshold_decides_as_the_fraction",)),
    Mutant("apple-keeps-last-tie", "src/disturbsim/imdb.py",
           "if key < best_key:", "if key <= best_key:",
           ("tests/test_imdb.py::test_apple_matches_reference",)),
    Mutant("victim-always-apple", "src/disturbsim/imdb.py",
           '(self.select_victim_lru if cfg.mt_policy == "lru"\n'
           "                               else self.select_victim_apple)",
           "self.select_victim_apple",
           ("tests/test_acceptance.py::test_a3_flip_policy_beats_lru",)),
    Mutant("demotion-seeds-from-prior", "src/disturbsim/imdb.py",
           "self._seed(victim.data)", "count_zeros(victim.data)",
           ("tests/test_imdb.py::test_full_bb_demotes_lfu_with_prior",)),
    Mutant("mt-hit-stale-key", "src/disturbsim/imdb.py",
           "        if max(zfc) < self.cfg.threshold:\n"
           "            e.key = _apple_key(e)\n",
           "        if max(zfc) < self.cfg.threshold:\n",
           ("tests/test_imdb.py::test_apple_keys_follow_every_write",)),
    Mutant("absorbed-write-takes-0ns", "src/disturbsim/imdb.py",
           "max(self._hit_ns, 1)", "self._hit_ns",
           ("tests/test_imdb.py::"
            "test_absorbed_write_occupies_the_bank_at_least_1ns",)),
    Mutant("freed-slot-not-pushed", "src/disturbsim/imdb.py",
           "            heappush(self._free_mt, src.slot)\n", "",
           ("tests/test_imdb.py::test_check_holds_after_every_operation",)),
    Mutant("install-keeps-old-index", "src/disturbsim/imdb.py",
           "            del self._where[e.addr]\n", "            pass\n",
           ("tests/test_imdb.py::test_check_holds_after_every_operation",)),
    Mutant("parser-accepts-decreasing-time", "src/disturbsim/traces.py",
           "if t >= last_time:", "if True:",
           ("tests/test_traces.py::test_parse_errors_carry_position",)),
    Mutant("parser-accepts-op-data-mismatch", "src/disturbsim/traces.py",
           'fast = op == "R"', "fast = True",
           ("tests/test_traces.py::test_parse_errors_carry_position",)),
    Mutant("parser-accepts-non-ascii-address", "src/disturbsim/traces.py",
           "and a.isascii() and a.isalnum()", "and a.isalnum()",
           ("tests/test_traces.py::test_parse_errors_carry_position",
            "tests/test_traces.py::test_parse_matches_reference")),
    Mutant("parser-data-via-int", "src/disturbsim/traces.py",
           'int.from_bytes(fromhex(d[2:]), "big")', "int(d, 16)",
           ("tests/test_traces.py::test_parse_matches_reference",)),
    Mutant("watermark-may-be-negative", "src/disturbsim/core.py",
           "if not 0 <= self.drain_watermark < self.queue_depth:",
           "if not self.drain_watermark < self.queue_depth:",
           ("tests/test_cli.py::test_failure_contract",)),
    Mutant("energy-overflow-unchecked", "src/disturbsim/metrics.py",
           "if not math.isfinite(value):", "if False:",
           ("tests/test_cli.py::test_failure_contract",
            "tests/test_config.py::"
            "test_every_value_meets_the_failure_contract")),
    Mutant("config-takes-repeated-key", "src/disturbsim/config.py",
           "(first := seen.setdefault((section, key), line_no))",
           "(first := line_no)",
           ("tests/test_config.py::test_rejected_config_names_its_lines",)),
    Mutant("config-refusal-unpositioned", "src/disturbsim/config.py",
           'raise ConfigError(f"{position}: {exc}") from exc',
           "raise ConfigError(str(exc)) from exc",
           ("tests/test_config.py::"
            "test_every_value_meets_the_failure_contract",)),
    Mutant("rank-term", "src/disturbsim/controller.py",
           "self.banks[addr[0] * self._banks_per_rank + addr[1]]",
           "self.banks[addr[1]]",
           ("tests/test_golden.py::test_two_rank_report_matches_golden",)),
    Mutant("decode-window-skips-a-record", "src/disturbsim/controller.py",
           "self.trace[record_no + 1:record_no + DECODE_WINDOW]",
           "self.trace[record_no + 2:record_no + DECODE_WINDOW]",
           ("tests/test_controller.py::"
            "test_trace_abort_past_a_decode_window_names_record",)),
    Mutant("writeback-to-another-rank", "src/disturbsim/controller.py",
           "if target[0] != addr[0] or target[1] != addr[1]:",
           "if target[1] != addr[1]:",
           ("tests/test_controller.py::"
            "test_service_enqueueing_into_another_rank_raises",)),
    Mutant("take-skips-writeback-check", "src/disturbsim/controller.py",
           "if target[0] != addr[0] or target[1] != addr[1]:",
           "if data is None and (target[0] != addr[0] or "
           "target[1] != addr[1]):",
           ("tests/test_controller.py::"
            "test_admission_writeback_into_another_bank_raises",
            "tests/test_controller.py::"
            "test_service_enqueueing_into_another_bank_raises",
            "tests/test_controller.py::"
            "test_service_enqueueing_into_another_rank_raises")),
    Mutant("service-writes-absorbed", "src/disturbsim/controller.py",
           "        if not absorbed:\n"
           "            latency += media.apply_write(",
           "        if absorbed:\n"
           "            latency += media.apply_write(",
           ("tests/test_golden.py::test_compare_report_matches_golden",
            "tests/test_controller.py::"
            "test_engine_writes_a_host_write_unless_its_hook_absorbs_it")),
    Mutant("host-write-owes-one-service", "src/disturbsim/controller.py",
           "            self._admitted += 1  # the pre-write read\n", "",
           ("tests/test_golden.py::test_compare_report_matches_golden",)),
    Mutant("enqueue-time-zero", "src/disturbsim/controller.py",
           "HOST_WRITE, None, now, seq)",
           "HOST_WRITE, None, 0, seq)",
           ("tests/test_perfbench_hooks.py::"
            "test_traced_run_reports_as_untraced",)),
    Mutant("write-leaves-without-release", "src/disturbsim/controller.py",
           "            elif oldest and not line[0].prepared:\n"
           "                heappush(bank.ready_pres, (line[0].seq, "
           "line[0]))\n",
           "",
           ("tests/test_controller.py::"
            "test_indexed_bank_matches_reference_scheduler",)),
    Mutant("idle-when-next-record-due-as-last-phase-starts",
           "src/disturbsim/controller.py",
           "if due > (start if kind is HOST_READ",
           "if due >= (start if kind is HOST_READ",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("idle-path-off", "src/disturbsim/controller.py",
           "if self._admitted == self._serviced:  # I4: each pick",
           "if False:  # I4: each pick",
           ("tests/test_golden.py::test_paced_report_matches_golden",)),
    Mutant("idle-looks-only-at-its-bank", "src/disturbsim/controller.py",
           "if self._admitted == self._serviced:  # I4: each pick",
           "if not (bank.read_q or bank.write_q):  # I4: each pick",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("idle-read-keeps-drain-state", "src/disturbsim/controller.py",
           "                    # as a pick would: no write is queued\n"
           "                    bank.draining = False\n",
           "",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("idle-pick-misses-the-write", "src/disturbsim/controller.py",
           "                if self.next_command(bank, start) is not cmd:\n"
           "                    raise _not_at_head(cmd)\n",
           "                filed = bank.write_q.pop(cmd, 0) is None\n"
           "                if self.next_command(bank, start) is not cmd:\n"
           "                    raise _not_at_head(cmd)\n"
           "                if filed:\n"
           "                    bank.write_q[cmd] = None\n",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("idle-skips-the-pick", "src/disturbsim/controller.py",
           "                if self.next_command(bank, start) is not cmd:\n"
           "                    raise _not_at_head(cmd)\n",
           "",
           ("tests/test_perfbench_hooks.py::"
            "test_traced_idle_path_picks_each_command_once",)),
    Mutant("idle-host-starts-at-now", "src/disturbsim/controller.py",
           "            start = bank.busy_until if bank.busy_until > now "
           "else now\n"
           "            due = self._next_due(record_no)\n",
           "            start = now\n"
           "            due = self._next_due(record_no)\n",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("idle-maintenance-ignores-due", "src/disturbsim/controller.py",
           "                if due > start:\n", "                if True:\n",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("idle-maintenance-starts-at-now", "src/disturbsim/controller.py",
           "                start = bank.busy_until if bank.busy_until > now "
           "else now\n",
           "                start = now\n",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("idle-maintenance-skips-drain", "src/disturbsim/controller.py",
           "                    if left >= self._depth:\n"
           "                        bank.draining = True\n"
           "                    if bank.draining and left <= "
           "self._low_watermark:\n"
           "                        bank.draining = False\n",
           "",
           ("tests/test_controller.py::"
            "test_idle_path_matches_the_queue_path",)),
    Mutant("loop-no-rescan-after-retry", "src/disturbsim/controller.py",
           "                    due = records[i].time if i < n else never\n"
           "                    continue\n",
           "                    due = records[i].time if i < n else never\n",
           ("tests/test_controller.py::"
            "test_one_pass_loop_matches_two_pass_reference",)),
    Mutant("retry-only-after-its-time", "src/disturbsim/controller.py",
           "if issued and due <= now:", "if issued and due < now:",
           ("tests/test_controller.py::"
            "test_one_pass_loop_matches_two_pass_reference",)),
    Mutant("merged-writeback-written-differential",
           "src/disturbsim/controller.py",
           "media.apply_write(addr, data, full)",
           "media.apply_write(addr, data, False)",
           ("tests/test_controller.py::"
            "test_rewrite_merged_into_a_queued_writeback_is_written_full",)),
    Mutant("rewrite-enqueued-differential", "src/disturbsim/controller.py",
           "Command(kind, addr, data, kind is REWRITE,",
           "Command(kind, addr, data, False,",
           ("tests/test_golden.py::test_compare_report_matches_golden",)),
    Mutant("loop-issuer-out-of-wake", "src/disturbsim/controller.py",
           "                    issued = True\n"
           "                    if not (bank.read_q or bank.write_q):\n"
           "                        continue\n",
           "                    issued = True\n"
           "                    continue\n",
           ("tests/test_controller.py::"
            "test_one_pass_loop_matches_two_pass_reference",)),
    Mutant("loop-wake-before-service", "src/disturbsim/controller.py",
           "                if bank.busy_until <= now:\n",
           "                wake = min(wake, bank.busy_until)\n"
           "                if bank.busy_until <= now:\n",
           ("tests/test_controller.py::"
            "test_one_pass_loop_matches_two_pass_reference",)),
    Mutant("vnc-skips-correction-neighbours", "src/disturbsim/baselines.py",
           "            checked.extend(nb.neighbor_rows(cfg.geometry))\n", "",
           ("tests/test_baselines.py::"
            "test_vnc_cascading_corrections_converge",)),
    Mutant("siwc-design-reads-groups", "src/disturbsim/baselines.py",
           '"n_groups": 0, "area_bits": entries',
           '"n_groups": cfg.n_groups, "area_bits": entries',
           ("tests/test_cli.py::test_sweep_runs_siwc_once_across_n_groups",
            "tests/test_cli.py::test_sweep_runs_each_distinct_design_once")),
    Mutant("imdb-design-drops-groups", "src/disturbsim/imdb.py",
           '"n_groups": cfg.n_groups if cfg.n_mt else 0,', '"n_groups": 0,',
           ("tests/test_cli.py::test_sweep_runs_siwc_once_across_n_groups",
            "tests/test_cli.py::test_sweep_runs_each_distinct_design_once")),
    Mutant("imdb-design-groups-without-table", "src/disturbsim/imdb.py",
           '"n_groups": cfg.n_groups if cfg.n_mt else 0,',
           '"n_groups": cfg.n_groups,',
           ("tests/test_cli.py::test_sweep_runs_imdb_without_main_table_once",)),
    Mutant("sweep-runs-every-point", "src/disturbsim/cli.py",
           "runs.setdefault((strategy, *design.values()), (c, design))",
           "runs[len(runs)] = (c, design)",
           ("tests/test_cli.py::test_sweep_runs_a_repeated_value_once",
            "tests/test_cli.py::test_sweep_runs_each_distinct_design_once")),
]


def apply(text: str, mutant: Mutant) -> str:
    """`text` with the mutant's one occurrence of its old text replaced."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in "
                         f"{mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def pytest_in_copy(tests: tuple[str, ...],
                   mutant: Mutant | None = None) -> tuple[int | None, str]:
    """Run `tests` in a copy of the checkout, with `mutant` applied if one
    is given; return pytest's exit code (None on timeout) and its last
    lines."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, work / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / part, work / part)
        if mutant is not None:
            target = work / mutant.path
            target.write_text(apply(target.read_text(), mutant))
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q",
               "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests]
        try:
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
    return proc.returncode, " | ".join(tail)


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply `mutant` in a copy of the checkout and run its tests; return
    whether they failed, and how."""
    code, tail = pytest_in_copy(mutant.tests, mutant)
    if code is None:
        return True, tail
    # pytest exits 1 when tests ran and failed; other codes mean they
    # passed (0) or never ran as meant (errors, no tests collected)
    if code == 1:
        return True, "failed"
    return False, f"pytest exited {code}: {tail}"


def select(names: list[str]) -> list[Mutant]:
    """The mutants named, in kill-list order, or every mutant if no name is
    given. Raises ValueError naming each unknown name."""
    if not names:
        return MUTANTS
    known = {mutant.name for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown mutant: {', '.join(unknown)}")
    return [mutant for mutant in MUTANTS if mutant.name in names]


def main(names: list[str]) -> int:
    try:
        mutants = select(names)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    begin = start = time.perf_counter()
    named = tuple(sorted({t for mutant in mutants for t in mutant.tests}))
    code, tail = pytest_in_copy(named)
    print(f"baseline: {len(named)} named tests in an unmutated copy "
          f"({tail}, {time.perf_counter() - start:.1f} s)", flush=True)
    if code != 0:
        print(f"BASELINE FAILED: pytest exited {code}", flush=True)
        return 1
    survivors = 0
    for mutant in mutants:
        start = time.perf_counter()
        killed, how = run(mutant)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'} {mutant.name} "
              f"({how}, {time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed in "
          f"{time.perf_counter() - begin:.1f} s", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
