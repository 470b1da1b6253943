"""Scenario runner: replayability, invariants, fault classes, engines, CLI.

Every run draws every fault class and checks all eight invariants; the
seed picks the engine (``seed % 3``: serial, depth 8, depth 16).
The per-engine classes pick their seeds with :func:`seed_for`.
"""

import itertools
import re
import shlex
from types import SimpleNamespace

import pytest

from repro.simtest import FAULT_CLASSES, SimConfig, run_scenario, shrink
from repro.simtest.__main__ import build_parser, configs, main
from repro.simtest.runner import OPS

# Small scenarios keep the tier-1 suite fast; the slow_sim sweep below
# covers volume.
FAST = dict(steps=25, shards=3)


def seed_for(engine: str, start: int) -> int:
    """The first seed at or after ``start`` that drives ``engine``."""
    return next(s for s in itertools.count(start) if SimConfig(seed=s).engine == engine)


def fired_ops(result) -> set:
    """Names of the ops a run's trace shows."""
    return set(re.findall(r"^step=\d+ op=(\w+)", "\n".join(result.trace), re.M))


def failure_lines(result) -> str:
    return "\n".join(str(v) for v in result.violations)


class TestReplayability:
    def test_same_seed_replays_byte_identical_trace(self, scenario):
        config = SimConfig(seed=seed_for("serial", 11), **FAST)
        first = scenario(config)  # memoised: a run made earlier
        second = run_scenario(config)
        assert first.trace == second.trace
        assert first.digest == second.digest
        assert first.counters == second.counters

    def test_different_seeds_diverge(self, scenario):
        a = scenario(SimConfig(seed=1, **FAST))
        b = scenario(SimConfig(seed=2, **FAST))
        assert a.digest != b.digest

    def test_repro_string_round_trips_through_config(self):
        config = SimConfig(seed=42, steps=10, shards=2, without={"crash", "drop"})
        line = config.repro_string()
        assert "--seed 42" in line
        assert "--steps 10" in line
        assert "--shards 2" in line
        assert "--without crash,drop" in line
        (parsed,) = configs(build_parser().parse_args(shlex.split(line)[3:]))
        assert parsed == config

    def test_every_shrunk_config_replays_from_its_repro_string(self, capsys):
        # Whatever shrink can return — any set of left-out classes, any
        # step count — its printed line must rebuild an equal config, and
        # the CLI must replay it to the same digest.
        base = SimConfig(seed=4, steps=6)
        shrunk = [base] + [
            shrink(base, run=lambda c, kept=kept: SimpleNamespace(
                ok=kept in c.without or c.steps < 3
            ))[0]
            for kept in FAULT_CLASSES
        ]
        assert {len(c.without) for c in shrunk} == {0, len(FAULT_CLASSES) - 1}
        for config in shrunk:
            argv = shlex.split(config.repro_string())[3:]
            (parsed,) = configs(build_parser().parse_args(argv))
            assert parsed == config
            assert main(argv) == 0
            printed = re.search(r"digest=(\w+)", capsys.readouterr().out).group(1)
            assert printed == run_scenario(config).digest[:16]


class TestInvariants:
    @pytest.mark.parametrize("seed", [3, 9, 17])
    def test_fixed_seeds_uphold_all_invariants(self, seed, scenario):
        result = scenario(SimConfig(seed=seed, **FAST))
        assert result.ok, failure_lines(result)

    def test_conservation_counts_add_up(self, scenario):
        result = scenario(SimConfig(seed=9, **FAST))
        c = result.counters
        assert (
            c["runtime.hits"] + c["runtime.misses"] + c["runtime.degraded_calls"]
            == c["runtime.calls"]
        )

    def test_faults_actually_fired(self, scenario):
        # Sanity: the schedule is live, not a no-op pass-through.
        result = scenario(SimConfig(seed=9, **FAST))
        c = result.counters
        assert c["net.dropped"] + c["net.corrupted"] + c["net.delayed"] > 0

    def test_corruption_ops_are_survivable(self):
        # A corruption-heavy walk: tampered blobs/metadata must be
        # rejected and recomputed, never returned.
        config = SimConfig(seed=11, steps=30, shards=2, without={"crash", "partition"})
        result = run_scenario(config)
        assert result.ok, failure_lines(result)
        assert {"corrupt_blob", "corrupt_meta"} <= fired_ops(result)


class TestFaultClasses:
    """``without`` removes exactly what it names.  The two halves pair
    each message fault with the op class that shares its counter
    (partitions drop, slow links delay), so a zero counter is exact."""

    HALVES = (
        frozenset({"crash", "partition", "drop", "delay"}),
        frozenset({"tamper", "migration", "duplicate", "corrupt"}),
    )
    COUNTER = {
        "drop": "net.dropped", "delay": "net.delayed",
        "duplicate": "net.duplicated", "corrupt": "net.corrupted",
    }

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_no_op_or_message_fault_of_a_left_out_class_appears(self, seed, scenario):
        without = self.HALVES[seed % 2]
        result = scenario(SimConfig(seed=seed, without=without, **FAST))
        assert result.ok, failure_lines(result)
        left_out = {op.name for op in OPS if op.fault in without}
        assert fired_ops(result).isdisjoint(left_out)
        for fault in without & set(self.COUNTER):
            assert result.counters.get(self.COUNTER[fault], 0) == 0, fault

    def test_every_class_is_left_out_somewhere(self):
        assert set().union(*self.HALVES) == set(FAULT_CLASSES)

    def test_every_op_names_a_known_class(self):
        assert {op.fault for op in OPS} - {None} == set(FAULT_CLASSES[:4])

    def test_unknown_class_is_refused(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            SimConfig(seed=1, without={"crashes"})


class TestPipelined:
    """Seeds whose engine is the static depth-8 pipeline (coalescing
    on) — results, conservation, and the coalescing invariant must hold
    under every fault schedule."""

    @pytest.mark.parametrize("start", [3, 9, 17])
    def test_fixed_seeds_uphold_all_invariants(self, start, scenario):
        result = scenario(SimConfig(seed=seed_for("pipeline", start), **FAST))
        assert result.config.engine == "pipeline"
        assert result.ok, failure_lines(result)

    def test_pipelined_runs_replay_byte_identical(self, scenario):
        config = SimConfig(seed=seed_for("pipeline", 11), **FAST)
        first = scenario(config)
        second = run_scenario(config)
        assert first.digest == second.digest

    def test_coalescing_actually_fires_somewhere(self, scenario):
        # The walk's small input pool makes in-batch duplicates likely;
        # across the pipelined seeds of 1..15 at least one batch must
        # coalesce, otherwise the invariant never exercises its subject.
        results = [
            scenario(SimConfig(seed=seed, **FAST))
            for seed in range(1, 16) if SimConfig(seed=seed).engine == "pipeline"
        ]
        assert sum(r.counters.get("runtime.coalesced_hits", 0) for r in results) > 0

    def test_conservation_holds_with_coalesced_hits(self, scenario):
        result = scenario(SimConfig(seed=seed_for("pipeline", 4), **FAST))
        c = result.counters
        assert c["runtime.coalesced_hits"] > 0
        assert (
            c["runtime.hits"] + c["runtime.misses"] + c["runtime.degraded_calls"]
            == c["runtime.calls"]
        )


class TestDepthIdentity:
    """Seeds whose engine is the depth-16 window — invariant 8 (deep
    runs are byte-identical to a depth-1 replay)."""

    @pytest.mark.parametrize("start", [3, 9, 17])
    def test_fixed_seeds_uphold_all_invariants(self, start, scenario):
        result = scenario(SimConfig(seed=seed_for("deep", start), **FAST))
        assert result.config.engine == "deep"
        assert result.ok, failure_lines(result)
        assert result.checked["depth_identity"] == 1

    def test_deep_runs_replay_byte_identical(self, scenario):
        config = SimConfig(seed=seed_for("deep", 11), **FAST)
        first = scenario(config)
        second = run_scenario(config)
        assert first.digest == second.digest
        assert first.values == second.values

    def test_deep_runs_trace_their_window(self, scenario):
        result = scenario(SimConfig(seed=seed_for("deep", 8), **FAST))
        assert "counter engine.depth_current=16" in result.trace

    def test_deep_values_match_depth_one_replay(self, scenario):
        # Invariant 8, checked from the outside: the runner already
        # replays internally; here the depth-1 stream is rebuilt
        # independently and compared call-for-call.
        config = SimConfig(seed=seed_for("deep", 17), **FAST)
        deep = scenario(config)
        reference = run_scenario(config, _replay_depth=1)
        assert deep.values == reference.values
        assert reference.counters["engine.depth_current"] == 1
        assert reference.checked["depth_identity"] == 0

    def test_deep_composes_with_migration(self, scenario):
        # Depth 16 + an open dual-ownership window: invariant 8 and the
        # placement invariants must hold together.
        for seed in (2, 20):
            result = scenario(SimConfig(seed=seed, **FAST))
            assert result.config.engine == "deep"
            assert result.ok, failure_lines(result)
            assert "mig_open" in fired_ops(result)
            assert result.checked["depth_identity"] == 1


class TestPlannedMigration:
    """The walk's planned-transition branch: one window batching
    2 joins + 1 leave + 1 reweight, opened mid-chaos."""

    def test_plan_branch_fires_and_holds_invariants(self, scenario):
        # One seed per engine whose walk opens a planned multi-change
        # window; the settle phase drains it with every invariant green.
        for seed in (1, 9, 20):
            result = scenario(SimConfig(seed=seed, **FAST))
            assert result.ok, failure_lines(result)
            plan_lines = [
                line for line in result.trace
                if "op=mig_open kind=plan" in line
            ]
            assert plan_lines, f"seed {seed} no longer opens a plan"
            assert "label=+" in plan_lines[0]
            assert "-shard-" in plan_lines[0]  # a leave rode along
            assert "~shard-" in plan_lines[0]  # and a reweight

    def test_plan_survives_participant_power_fail(self, scenario):
        # Seed 29 (deep) power-fails a joiner mid-plan, seed 99
        # (serial) the leaver; the window still drains and the
        # single-owner invariant holds.
        for seed in (29, 99):
            result = scenario(SimConfig(seed=seed, **FAST))
            assert result.ok, failure_lines(result)
            assert "mig_powerfail shard=" in "\n".join(result.trace)
            assert any(
                "migration=plan finished" in line
                or "op=mig_finish kind=plan" in line
                for line in result.trace
            )


class TestFindings:
    """Failures the schedule found that this tree records as DESIGN
    deviations instead of fixing.  Each is a strict xfail: the change
    that fixes it flips the test."""

    @pytest.mark.xfail(strict=True, reason=(
        "DESIGN 'a range hand-off trusts any live source': a range commits "
        "from live sources only, so an acked PUT whose one copy sits on a "
        "dead source is lost when the window closes"
    ))
    def test_hand_off_keeps_an_acked_put_held_only_by_a_dead_source(self):
        # A PUT acked by one replica while the other was down; that replica
        # then dies and a plan drains it: its ranges commit from the live
        # replica, which never had the entry.
        result = run_scenario(SimConfig(
            seed=198, steps=49, without={"drop", "delay", "corrupt"},
        ))
        assert result.ok, failure_lines(result)

    @pytest.mark.xfail(strict=True, reason=(
        "DESIGN 'a range hand-off trusts any live source': three acked PUTs "
        "held only by a leaving source are lost when it dies before the "
        "window closes"
    ))
    def test_hand_off_keeps_acked_puts_held_only_by_a_dying_leaver(self):
        # When mig_finish runs (step 56), three acked tags sit only on
        # shard-1, a source the plan drains, killed at step 54: its
        # ranges commit from the live sources and the tags are gone.
        result = run_scenario(SimConfig(
            seed=734, steps=57, without={"drop", "duplicate", "delay", "corrupt"},
        ))
        assert result.ok, failure_lines(result)


@pytest.mark.slow_sim
class TestSweep:
    def test_generated_schedules_pass(self):
        # 150 seeds: fifty per engine.
        failures = [
            result for seed in range(150)
            if not (result := run_scenario(SimConfig(seed=seed))).ok
        ]
        assert not failures, "\n".join(
            violation_line
            for result in failures
            for violation_line in (result.repro, *map(str, result.violations))
        )


class TestCli:
    def test_single_seed_exits_zero_and_prints_digest(self, capsys):
        code = main(["--seed", "3", "--steps", "12", "--shards", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "digest=" in out and "OK" in out

    def test_cli_output_is_deterministic(self, capsys):
        main(["--seed", "3", "--steps", "12", "--shards", "2"])
        first = capsys.readouterr().out
        main(["--seed", "3", "--steps", "12", "--shards", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_flag_prints_event_lines(self, capsys):
        main(["--seed", "3", "--steps", "12", "--shards", "2", "--trace"])
        out = capsys.readouterr().out
        assert "op=" in out and "phase=settle" in out

    @pytest.mark.parametrize("engine", ["serial", "pipeline", "deep"])
    def test_engine_seed_exits_zero_and_names_its_engine(self, engine, capsys):
        code = main(["--seed", str(seed_for(engine, 3)), "--steps", "12",
                     "--shards", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"engine={engine}" in out and "OK" in out

    def test_without_flag_exits_zero(self, capsys):
        code = main(["--seed", "3", "--steps", "12", "--without", "crash,partition"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_without_class_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seed", "3", "--without", "crash,bogus"])
        assert exit_info.value.code == 2
        assert "unknown fault class(es) bogus" in capsys.readouterr().err
