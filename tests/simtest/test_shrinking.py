"""Shrinking search, exercised with synthetic oracles (no full runs)."""


from types import SimpleNamespace

from repro.simtest import FAULT_CLASSES, SimConfig, shrink


def oracle(predicate):
    """A fake run callable: fails (ok=False) when predicate holds."""
    def run(config):
        return SimpleNamespace(ok=not predicate(config))
    return run


class TestShrink:
    def test_passing_config_is_returned_unchanged(self):
        config = SimConfig(seed=1, steps=40)
        smaller, runs = shrink(config, run=oracle(lambda c: False))
        assert smaller == config
        assert runs == 1  # just the initial check

    def test_step_count_descends_to_minimum(self):
        # Failure needs at least 12 steps, nothing else.
        config = SimConfig(seed=1, steps=40)
        smaller, _ = shrink(config, run=oracle(lambda c: c.steps >= 12))
        assert smaller.steps == 12

    def test_irrelevant_fault_classes_are_disabled(self):
        config = SimConfig(seed=1, steps=40)
        smaller, _ = shrink(
            config, run=oracle(lambda c: c.steps >= 5 and "drop" not in c.without)
        )
        # Load-bearing "drop" is kept; every other class is left out.
        assert smaller.without == set(FAULT_CLASSES) - {"drop"}
        assert smaller.steps == 5

    def test_needed_fault_class_is_preserved(self):
        config = SimConfig(seed=1, steps=20)
        smaller, _ = shrink(
            config, run=oracle(lambda c: "tamper" not in c.without and c.steps >= 3)
        )
        assert "tamper" not in smaller.without
        assert smaller.steps == 3

    def test_run_budget_is_respected(self):
        calls = 0

        def counting_run(config):
            nonlocal calls
            calls += 1
            return SimpleNamespace(ok=False)

        config = SimConfig(seed=1, steps=1024)
        shrink(config, run=counting_run, max_runs=5)
        assert calls <= 6  # initial check + at most max_runs - 1 more

    def test_shrunk_config_keeps_seed_and_repro_string(self):
        config = SimConfig(seed=7, steps=16)
        smaller, _ = shrink(config, run=oracle(lambda c: c.steps >= 2))
        assert isinstance(smaller, SimConfig)
        assert smaller.seed == config.seed
        assert smaller.steps == 2
        assert "--seed 7" in smaller.repro_string()
