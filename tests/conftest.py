"""Shared fixtures for the SPEED reproduction test suite."""

from __future__ import annotations

import pytest

from repro import Deployment, FunctionDescription, TrustedLibrary, TrustedLibraryRegistry


def double_bytes(data: bytes) -> bytes:
    """A trivial deterministic trusted-library function for tests."""
    return data + data


def make_libs() -> TrustedLibraryRegistry:
    libs = TrustedLibraryRegistry()
    libs.register(
        TrustedLibrary("testlib", "1.0").add("bytes double(bytes)", double_bytes)
    )
    return libs


DOUBLE_DESC = FunctionDescription("testlib", "1.0", "bytes double(bytes)")


@pytest.fixture
def deployment() -> Deployment:
    return Deployment(seed=b"test-deployment")


@pytest.fixture
def app(deployment):
    return deployment.create_application("test-app", make_libs())


@pytest.fixture
def dedup_double(app):
    return app.deduplicable(DOUBLE_DESC)


def pin_compute(patch: pytest.MonkeyPatch):
    """Patch ``SimClock.charge_compute`` — fed *measured* wall time, it is
    the virtual clock's only host-timed input — to charge every call
    what the first one measured, so runs of one function differ only in
    the modelled costs and a noisy host cannot flip a comparison of them.

    That steadies a comparison of two runs, not one against an absolute
    threshold: a host 1.7x faster than the one the threshold was written
    on still measures a 1.7x cheaper kernel.  For those, call the
    returned function with the seconds every call is to be charged — a
    stated constant, and the host clock is out of the test."""
    from repro.sgx.cost_model import SimClock

    real = SimClock.charge_compute
    charged = []

    def pinned(self, wall_seconds, native_factor=1.0):
        if not charged:
            charged.append(wall_seconds)
        real(self, charged[0], native_factor)

    patch.setattr(SimClock, "charge_compute", pinned)
    return charged.append


@pytest.fixture
def pinned_compute(monkeypatch):
    """:func:`pin_compute` for the length of one test."""
    return pin_compute(monkeypatch)
