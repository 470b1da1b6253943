"""Deployment wiring: applications, addressing, aggregate operations."""

import pytest

from repro.deployment import Deployment
from repro.errors import SpeedError
from tests.conftest import DOUBLE_DESC, make_libs


class TestDeployment:
    def test_duplicate_application_name_rejected(self):
        d = Deployment(seed=b"dep-1")
        d.create_application("app", make_libs())
        with pytest.raises(SpeedError):
            d.create_application("app", make_libs())

    def test_applications_listed(self):
        d = Deployment(seed=b"dep-2")
        d.create_application("a", make_libs())
        d.create_application("b", make_libs())
        assert sorted(d._apps) == ["a", "b"]

    def test_flush_all_puts(self):
        d = Deployment(seed=b"dep-3")
        a = d.create_application("a", make_libs())
        b = d.create_application("b", make_libs())
        a.deduplicable(DOUBLE_DESC)(b"x")
        b.deduplicable(DOUBLE_DESC)(b"y")
        assert a.runtime.flush_puts() + b.runtime.flush_puts() == 2
        assert len(d.store) == 2

    def test_application_enclaves_are_measured_by_their_libraries(self):
        from repro import TrustedLibrary, TrustedLibraryRegistry

        d = Deployment(seed=b"dep-4")
        app1 = d.create_application("one", make_libs())

        libs2 = TrustedLibraryRegistry()
        libs2.register(TrustedLibrary("otherlib", "2.0").add("g()", lambda x: x))
        app2 = d.create_application("two", libs2)
        assert app1.enclave.measurement.mrenclave != app2.enclave.measurement.mrenclave

    def test_clock_is_shared_across_components(self):
        d = Deployment(seed=b"dep-5")
        app = d.create_application("app", make_libs())
        before = d.clock.cycles
        app.deduplicable(DOUBLE_DESC)(b"x")
        assert d.clock.cycles > before
        assert d.clock is d.platform.clock

    def test_epc_override(self):
        d = Deployment(seed=b"dep-6", epc_usable_bytes=1024 * 1024)
        assert d.platform.epc.capacity_pages == (1024 * 1024) // 4096

    def test_store_address_scoped_to_machine(self):
        d1 = Deployment(seed=b"dep-7", machine="alpha")
        assert "alpha" in d1.store.address
