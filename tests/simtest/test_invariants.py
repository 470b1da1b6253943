"""The invariant oracles, unit-tested against synthetic states."""

from repro.core.stats import RuntimeStats
from repro.sgx.platform import HostStorage
from repro.simtest.invariants import (
    check_confidentiality,
    check_conservation,
    check_durability,
)


class FakeCluster:
    def __init__(self, held):
        self.held = held

    def holders_of(self, tag):
        return ["shard-0"] if tag in self.held else []


class TestDurability:
    def test_held_tags_pass(self):
        cluster = FakeCluster({b"t1", b"t2"})
        assert check_durability({b"t1", b"t2"}, set(), cluster) == []

    def test_lost_tag_is_a_violation_with_repro(self):
        cluster = FakeCluster({b"t1"})
        violations = check_durability(
            {b"t1", b"t2"}, set(), cluster, repro="python -m repro.simtest --seed 7"
        )
        assert len(violations) == 1
        assert violations[0].invariant == "durability"
        assert "--seed 7" in str(violations[0])

    def test_corrupted_tags_are_excluded(self):
        cluster = FakeCluster(set())
        assert check_durability({b"t1"}, {b"t1"}, cluster) == []


class TestConfidentiality:
    def test_clean_wire_passes(self):
        secrets = {"result[0]": b"\xaa" * 32}
        assert check_confidentiality(secrets, [b"ciphertext" * 4]) == []

    def test_leaked_secret_is_reported_once(self):
        secret = b"\xaa" * 32
        payloads = [b"x" + secret + b"y", secret]  # two sightings
        violations = check_confidentiality({"result[0]": secret}, payloads)
        assert len(violations) == 1
        assert violations[0].invariant == "confidentiality"

    def test_secret_held_by_a_host_is_reported_once(self):
        secret = b"\xaa" * 32
        host, clean = HostStorage(), HostStorage()
        host.put("store/arena/1", b"sealed" * 8)
        host.put("store/blobs/ff", b"x" + secret)
        clean.put("store/arena/1", b"sealed" * 8)
        secrets = {"result[0]": secret}
        assert check_confidentiality(secrets, [b"ciphertext" * 4], hosts=[clean]) == []
        violations = check_confidentiality(secrets, [b"ciphertext" * 4], hosts=[clean, host])
        assert len(violations) == 1
        assert violations[0].invariant == "confidentiality"
        assert "store/blobs/ff" in violations[0].detail


class TestConservation:
    def test_balanced_counts_pass(self):
        stats = RuntimeStats(calls=10, hits=4, misses=5, degraded=1)
        assert check_conservation(stats) == []

    def test_imbalance_is_a_violation(self):
        stats = RuntimeStats(calls=10, hits=4, misses=5, degraded=0)
        violations = check_conservation(stats)
        assert len(violations) == 1
        assert violations[0].invariant == "conservation"

    def test_degraded_is_mutually_exclusive_in_record_call(self):
        from repro.core.stats import CallRecord
        stats = RuntimeStats()
        record = CallRecord(
            description="f", hit=False, input_bytes=1, result_bytes=1,
            wall_seconds=0.0, sim_seconds=0.0, degraded=True,
        )
        stats.record_call(record)
        assert (stats.calls, stats.hits, stats.misses, stats.degraded) == (1, 0, 0, 1)
