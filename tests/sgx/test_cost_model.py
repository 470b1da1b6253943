"""Virtual clock: charging, categories, calibration arithmetic."""

import pytest

from repro.errors import EnclaveError
from repro.sgx.cost_model import CostParams, SimClock


class TestCharging:
    def test_starts_at_zero(self):
        assert SimClock().cycles == 0

    def test_accumulates(self):
        clock = SimClock()
        clock.charge_cycles(100)
        clock.charge_cycles(250)
        assert clock.cycles == 350

    @pytest.mark.parametrize("cycles", [-1, float("nan"), float("inf")])
    def test_rejects_negative(self, cycles):
        clock = SimClock()
        with pytest.raises(EnclaveError):
            clock.charge_cycles(cycles)
        with pytest.raises(EnclaveError):
            clock.charge_seconds(cycles, "compute")
        assert clock.cycles == 0 and clock.breakdown() == {}

    def test_seconds_conversion(self):
        clock = SimClock(CostParams(cpu_freq_hz=1e9))
        clock.charge_seconds(0.5)
        assert clock.cycles == pytest.approx(5e8)
        assert clock.elapsed_seconds() == pytest.approx(0.5)

    def test_categories(self):
        clock = SimClock()
        clock.charge_ecall()
        clock.charge_hash(1000)
        clock.charge_network(100)
        breakdown = clock.breakdown()
        assert set(breakdown) == {"transition", "crypto", "network"}
        assert sum(breakdown.values()) == pytest.approx(clock.cycles)

    def test_snapshot_delta(self):
        clock = SimClock()
        clock.charge_cycles(10)
        mark = clock.snapshot()
        clock.charge_cycles(32)
        assert clock.since(mark) == 32

    def test_reset(self):
        clock = SimClock()
        clock.charge_hash(10)
        clock.reset()
        assert clock.cycles == 0
        assert clock.breakdown() == {}


class TestCalibration:
    def test_hash_is_affine_in_size(self):
        clock = SimClock()
        clock.charge_hash(0)
        fixed = clock.cycles
        clock.reset()
        clock.charge_hash(1000)
        assert clock.cycles == pytest.approx(fixed + 1000 * clock.params.hash_cycles_per_byte)

    def test_transitions_cost_symmetric(self):
        params = CostParams()
        assert params.ecall_cycles == params.ocall_cycles

    def test_compute_charges_declared_seconds(self):
        clock = SimClock(CostParams(cpu_freq_hz=1e9))
        clock.charge_compute(0.1)
        assert clock.breakdown() == {"compute": pytest.approx(1e8)}
        assert clock.elapsed_seconds() == pytest.approx(0.1)

    def test_page_fault_batch(self):
        clock = SimClock()
        clock.charge_page_fault(3)
        assert clock.cycles == 3 * clock.params.page_fault_cycles

