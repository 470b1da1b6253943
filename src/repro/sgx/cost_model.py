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
* application compute — measured Python wall time scaled by a per-app
  *native factor* (how much slower our pure-Python reimplementation is
  than the C library the paper used).

Reports therefore carry two numbers everywhere: the honest Python wall
time and the simulated time, which is the one whose *shape* should match
the paper.  See EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

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

    def __init__(self, params: CostParams | None = None):
        self.params = params or CostParams()
        self._cycles: float = 0.0
        self._modelled: float = 0.0
        self._by_category: dict[str, float] = defaultdict(float)

    # -- raw charging ---------------------------------------------------
    def charge_cycles(self, cycles: float, category: str = "other") -> None:
        if cycles < 0:
            raise EnclaveError("cannot charge negative cycles")
        self._cycles += cycles
        self._by_category[category] += cycles
        if category != "compute":
            self._modelled += cycles

    def charge_seconds(self, seconds: float, category: str = "other") -> None:
        self.charge_cycles(seconds * self.params.cpu_freq_hz, category)

    # -- calibrated primitives ------------------------------------------
    def charge_ecall(self) -> None:
        cost = self.params.hotcall_cycles if self.params.switchless else self.params.ecall_cycles
        self.charge_cycles(cost, "transition")

    def charge_ocall(self) -> None:
        cost = self.params.hotcall_cycles if self.params.switchless else self.params.ocall_cycles
        self.charge_cycles(cost, "transition")

    def charge_marshal(self, n_bytes: int) -> None:
        self.charge_cycles(n_bytes * self.params.marshal_cycles_per_byte, "marshal")

    def charge_page_fault(self, n_pages: int = 1) -> None:
        self.charge_cycles(n_pages * self.params.page_fault_cycles, "paging")

    def charge_hash(self, n_bytes: int) -> None:
        self.charge_cycles(
            self.params.hash_fixed_cycles + n_bytes * self.params.hash_cycles_per_byte,
            "crypto",
        )

    def charge_aead_encrypt(self, n_bytes: int) -> None:
        self.charge_cycles(
            self.params.aead_enc_fixed_cycles
            + n_bytes * self.params.aead_enc_cycles_per_byte,
            "crypto",
        )

    def charge_aead_decrypt(self, n_bytes: int) -> None:
        self.charge_cycles(
            self.params.aead_dec_fixed_cycles
            + n_bytes * self.params.aead_dec_cycles_per_byte,
            "crypto",
        )

    def charge_keygen(self) -> None:
        self.charge_cycles(self.params.keygen_fixed_cycles, "crypto")

    def charge_network(self, n_bytes: int) -> None:
        self.charge_cycles(
            self.params.net_fixed_cycles + n_bytes * self.params.net_cycles_per_byte,
            "network",
        )

    def charge_compute(self, wall_seconds: float, native_factor: float = 1.0) -> None:
        """Charge application compute measured in Python wall time.

        ``native_factor`` is the calibrated slowdown of our pure-Python
        reimplementation versus the native library the paper used; the
        simulated platform executes the work ``native_factor`` times
        faster than we just did.
        """
        if native_factor <= 0:
            raise EnclaveError("native_factor must be positive")
        self.charge_seconds(wall_seconds / native_factor, "compute")

    # -- reading --------------------------------------------------------
    @property
    def cycles(self) -> float:
        return self._cycles

    @property
    def modelled_cycles(self) -> float:
        """Cycles from every category but ``compute``, the one charge
        that is measured host time: a pure function of the inputs, so its
        deltas repeat to the last bit (``cycles`` deltas inherit the
        rounding of whatever compute preceded them)."""
        return self._modelled

    def elapsed_seconds(self) -> float:
        return self._cycles / self.params.cpu_freq_hz

    def breakdown(self) -> dict[str, float]:
        """Cycles charged per category (copy)."""
        return dict(self._by_category)

    def snapshot(self) -> float:
        """Current cycle count, for measuring deltas around an operation."""
        return self._cycles

    def since(self, snapshot: float) -> float:
        return self._cycles - snapshot

    def reset(self) -> None:
        self._cycles = self._modelled = 0.0
        self._by_category.clear()


@dataclass
class Stopwatch:
    """Pairs a wall-clock timer with a SimClock delta for dual reporting."""

    clock: SimClock
    _wall_start: float = field(default=0.0, init=False)
    _sim_start: float = field(default=0.0, init=False)
    wall_seconds: float = field(default=0.0, init=False)
    sim_seconds: float = field(default=0.0, init=False)

    def __enter__(self) -> "Stopwatch":
        import time

        self._wall_start = time.perf_counter()
        self._sim_start = self.clock.snapshot()
        return self

    def __exit__(self, *exc) -> None:
        import time

        self.wall_seconds = time.perf_counter() - self._wall_start
        self.sim_seconds = self.clock.since(self._sim_start) / self.clock.params.cpu_freq_hz
