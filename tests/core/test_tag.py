"""Tag and locking-hash derivation."""

from repro.core.tag import TAG_SIZE, derive_locking_hash, derive_tag
from repro.sgx.cost_model import SimClock


class TestTag:
    def test_deterministic(self):
        assert derive_tag(b"f", b"m") == derive_tag(b"f", b"m")

    def test_size(self):
        assert len(derive_tag(b"f", b"m")) == TAG_SIZE

    def test_function_and_input_both_matter(self):
        base = derive_tag(b"f", b"m")
        assert base != derive_tag(b"g", b"m")
        assert base != derive_tag(b"f", b"n")

    def test_boundary_ambiguity_resolved(self):
        # ("fu", "ncm") vs ("fun", "cm") must not collide.
        assert derive_tag(b"fu", b"ncm") != derive_tag(b"fun", b"cm")

    def test_clock_charged_linearly(self):
        clock = SimClock()
        derive_tag(b"f" * 32, b"m" * 1000, clock)
        small = clock.cycles
        clock.reset()
        derive_tag(b"f" * 32, b"m" * 100000, clock)
        assert clock.cycles > small


class TestLockingHash:
    def test_challenge_matters(self):
        a = derive_locking_hash(b"f", b"m", b"r1")
        b = derive_locking_hash(b"f", b"m", b"r2")
        assert a != b

    def test_differs_from_tag(self):
        # Domain separation: h must never equal t even for equal inputs.
        assert derive_locking_hash(b"f", b"m", b"") != derive_tag(b"f", b"m")

    def test_clock_charged(self):
        clock = SimClock()
        derive_locking_hash(b"f", b"m", b"r", clock)
        assert clock.cycles > 0
