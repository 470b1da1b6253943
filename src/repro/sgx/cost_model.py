"""Virtual clock and calibrated cost model for the simulated SGX platform.

The paper's evaluation runs on real SGX hardware (Xeon E3-1505 v5 @
2.8 GHz, SDK v1.8).  Our substrate is a simulator, so every operation
whose *cost* the paper measures is charged to a deterministic virtual
clock in CPU cycles:

* enclave transitions (ECALL/OCALL) — ~8,000 cycles each way, the figure
  reported by HotCalls [51] and cited by the paper as the source of the
  SGX overhead visible in Fig. 6;
* EPC paging (EWB/ELDU) — tens of thousands of cycles per 4 KiB page;
* in-enclave crypto — per-byte costs calibrated against the paper's
  Table I (SHA-256 tag generation, AES-GCM-128 encrypt/decrypt);
* marshalling across the enclave boundary — per-byte copy cost;
* application compute — the cost each marked function declares for its
  input on the paper's platform (``native_cost``, see
  :mod:`repro.apps.registry`), never the host time our pure-Python
  substitute happened to take.

Every charge is therefore a pure function of the inputs, so equal seeds
give equal clocks to the last bit.  Reports carry two numbers
everywhere: the honest Python wall time and the simulated time, which is
the one whose *shape* should match the paper.  See EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from ..errors import EnclaveError


@dataclass(frozen=True)
class CostParams:
    """Calibrated cost constants, in CPU cycles (per op / per byte).

    Defaults are derived from the paper's platform: 2.8 GHz Xeon E3-1505
    v5; Table I slopes/intercepts; HotCalls transition costs; Eleos/VAULT
    EPC paging figures.
    """

    cpu_freq_hz: float = 2.8e9

    # Enclave transitions (each direction).  The raw EENTER/EEXIT pair
    # costs ~8k cycles (HotCalls [51]), but the *effective* cost with
    # cache/TLB pollution observed by SGX system papers is several times
    # higher; we charge an effective 30k cycles (~10.7 us) per crossing.
    ecall_cycles: int = 30_000
    ocall_cycles: int = 30_000

    # Switchless ("hot") calls: the paper's SS V-B points at HotCalls [51]
    # and Eleos [10] as the fix for transition cost — a spinning worker
    # inside the enclave serves requests from a shared buffer without
    # EENTER/EEXIT, at ~600-1,400 cycles per call.  Enabling
    # ``switchless`` swaps the transition charge for this figure
    # (ablation A7 quantifies the effect on Fig. 6).
    switchless: bool = False
    hotcall_cycles: int = 1_200

    # Crossing the boundary copies data through untrusted buffers.
    marshal_cycles_per_byte: float = 0.5

    # EPC paging: evict (EWB) + load (ELDU) a 4 KiB page.
    page_fault_cycles: int = 40_000
    page_size: int = 4096

    # In-enclave SHA-256 (Table I "Tag Gen." slope ≈ 5.8 ns/B → ~16 cyc/B,
    # intercept ≈ 22 µs → ~62k cycles).
    hash_fixed_cycles: int = 62_000
    hash_cycles_per_byte: float = 16.0

    # In-enclave AES-GCM-128 encrypt (Table I "Result Enc."):
    # slope ≈ 1.7 ns/B → ~4.7 cyc/B, intercept ≈ 13 µs.
    aead_enc_fixed_cycles: int = 36_000
    aead_enc_cycles_per_byte: float = 4.7

    # In-enclave AES-GCM-128 decrypt (Table I "Result Dec."):
    # slope ≈ 0.23 ns/B → ~0.65 cyc/B, intercept ≈ 21 µs.
    aead_dec_fixed_cycles: int = 58_000
    aead_dec_cycles_per_byte: float = 0.65

    # AES key generation via RDRAND + schedule (Table I "Key Gen."
    # intercept beyond the hash term).
    keygen_fixed_cycles: int = 50_000

    # Loopback "secure channel" hop between co-located processes.
    net_fixed_cycles: int = 30_000
    net_cycles_per_byte: float = 1.2


class SimClock:
    """Deterministic cycle-accumulating clock with per-category breakdown.

    All simulated components share one clock (one clock per experiment).
    ``elapsed_seconds`` converts at the platform frequency.
    """

    #: Cycles charged so far: read it, charge through the methods.
    cycles: float = 0.0

    def __init__(self, params: CostParams | None = None):
        self.params = params or CostParams()
        self.cycles = 0.0
        self._by_category: dict[str, float] = defaultdict(float)

    # -- raw charging ---------------------------------------------------
    def charge_cycles(self, cycles: float, category: str = "other") -> None:
        if not 0.0 <= cycles < math.inf:
            raise EnclaveError(f"cannot charge {cycles!r} cycles")
        self.cycles += cycles
        self._by_category[category] += cycles

    def charge_seconds(self, seconds: float, category: str = "other") -> None:
        self.charge_cycles(seconds * self.params.cpu_freq_hz, category)

    # -- calibrated primitives ------------------------------------------
    # Each adds its amount in place, as charge_cycles would: these run on
    # every request, and amounts made from the parameters and byte counts
    # need not be checked for a negative or infinite value.
    def charge_ecall(self) -> None:
        cost = self.params.hotcall_cycles if self.params.switchless else self.params.ecall_cycles
        self.cycles += cost
        self._by_category["transition"] += cost

    def charge_ocall(self) -> None:
        cost = self.params.hotcall_cycles if self.params.switchless else self.params.ocall_cycles
        self.cycles += cost
        self._by_category["transition"] += cost

    def charge_marshal(self, n_bytes: int) -> None:
        cost = n_bytes * self.params.marshal_cycles_per_byte
        self.cycles += cost
        self._by_category["marshal"] += cost

    def charge_page_fault(self, n_pages: int = 1) -> None:
        self.charge_cycles(n_pages * self.params.page_fault_cycles, "paging")

    def charge_hash(self, n_bytes: int) -> None:
        cost = self.params.hash_fixed_cycles + n_bytes * self.params.hash_cycles_per_byte
        self.cycles += cost
        self._by_category["crypto"] += cost

    def charge_aead_encrypt(self, n_bytes: int) -> None:
        p = self.params
        cost = p.aead_enc_fixed_cycles + n_bytes * p.aead_enc_cycles_per_byte
        self.cycles += cost
        self._by_category["crypto"] += cost

    def charge_aead_decrypt(self, n_bytes: int) -> None:
        p = self.params
        cost = p.aead_dec_fixed_cycles + n_bytes * p.aead_dec_cycles_per_byte
        self.cycles += cost
        self._by_category["crypto"] += cost

    def charge_keygen(self) -> None:
        self.charge_cycles(self.params.keygen_fixed_cycles, "crypto")

    def charge_network(self, n_bytes: int) -> None:
        cost = self.params.net_fixed_cycles + n_bytes * self.params.net_cycles_per_byte
        self.cycles += cost
        self._by_category["network"] += cost

    def charge_compute(self, seconds: float) -> None:
        """Charge application compute: ``seconds`` on the paper's
        platform, as the marked function's ``native_cost`` declares."""
        self.charge_seconds(seconds, "compute")

    # -- reading --------------------------------------------------------
    def elapsed_seconds(self) -> float:
        return self.cycles / self.params.cpu_freq_hz

    def breakdown(self) -> dict[str, float]:
        """Cycles charged per category (copy)."""
        return dict(self._by_category)

    def snapshot(self) -> float:
        """Current cycle count, for measuring deltas around an operation."""
        return self.cycles

    def since(self, snapshot: float) -> float:
        return self.cycles - snapshot

    def reset(self) -> None:
        self.cycles = 0.0
        self._by_category.clear()


class ChargeLog(list):
    """Stands in for a :class:`SimClock` where work runs ahead of the
    place its cost is accounted: it records each ``charge_*`` call, and
    :meth:`replay` makes them on a real clock in order, so that clock
    reads to the bit what charging in place would have left."""

    def replay(self, clock: SimClock | None) -> None:
        if clock is not None:
            for name, args in self:
                getattr(clock, name)(*args)


def _recorder(name: str):
    def record(self: ChargeLog, *args) -> None:
        self.append((name, args))
    return record


# A method per SimClock charge, not __getattr__, which runs only after the
# normal lookup has failed, at the price of an AttributeError per charge.
for _name in [name for name in vars(SimClock) if name.startswith("charge_")]:
    setattr(ChargeLog, _name, _recorder(_name))
del _name

