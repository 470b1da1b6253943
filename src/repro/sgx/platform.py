"""The simulated SGX machine: clock, EPC, root keys, enclave registry.

One :class:`SgxPlatform` models one physical machine of the paper's
testbed (Xeon E3-1505 v5, 128 MiB EPC / 90 MiB usable, SDK v1.8).  All
simulated state is derived from an explicit seed so experiments replay
bit-for-bit.
"""

from __future__ import annotations

from .attestation import AttestationService, Quote
from .cost_model import CostParams, SimClock
from .enclave import Enclave
from .epc import DEFAULT_EPC_USABLE, EpcManager
from .measurement import Measurement, measure_code
from ..crypto.drbg import HmacDrbg
from ..crypto.hashes import tagged_hash
from ..errors import EnclaveError


class HostStorage:
    """Every byte the untrusted host holds for one machine (RAM and disk),
    name -> bytes.  Only sealed or AEAD-protected bytes are put here, and
    the host may rewrite any of them; nothing is charged on the clock.

    Names are also kept by folder (up to their last ``/``), so listing a
    folder — a log's segments, say — looks only at the folders under it,
    never at the store's arena beside it."""

    def __init__(self):
        self._held: dict[str, bytes] = {}
        self._folders: dict[str, set[str]] = {}

    def put(self, name: str, data: bytes) -> None:
        self._held[name] = data
        self._folders.setdefault(name[:name.rfind("/") + 1], set()).add(name)

    def get(self, name: str) -> bytes | None:
        return self._held.get(name)

    def delete(self, name: str) -> bytes | None:
        """Drop ``name``; returns what it held (None if nothing)."""
        data = self._held.pop(name, None)
        if data is not None:
            self._folders[name[:name.rfind("/") + 1]].discard(name)
        return data

    def names(self, prefix: str = "") -> list[str]:
        """Every held name starting with ``prefix``, sorted."""
        home = prefix[:prefix.rfind("/") + 1]  # the folder ``prefix`` ends in
        return sorted([
            name for folder, held in self._folders.items() if folder.startswith(home)
            for name in held if name.startswith(prefix)
        ])


class SgxPlatform:
    """One SGX-capable machine hosting any number of enclaves."""

    def __init__(
        self,
        seed: bytes = b"speed-platform-seed",
        name: str = "machine-0",
        params: CostParams | None = None,
        epc_usable_bytes: int = DEFAULT_EPC_USABLE,
        allow_paging: bool = True,
        attestation_service: AttestationService | None = None,
    ):
        self.name = name
        self.platform_id = tagged_hash(b"sgx/platform-id", name.encode(), seed)[:16]
        self.clock = SimClock(params)
        self.epc = EpcManager(self.clock, epc_usable_bytes, allow_paging)
        self._drbg = HmacDrbg(seed, personalization=b"platform/" + name.encode())
        # Hardware root secrets: never exposed outside the simulated package.
        self.seal_fabric_key = self._drbg.generate(32)
        self.report_key_root = self._drbg.generate(32)
        self._attestation_key = self._drbg.generate(32)
        self._attestation_service = attestation_service
        if attestation_service is not None:
            attestation_service.provision(self.platform_id, self._attestation_key)
        self._enclaves: dict[int, Enclave] = {}
        self._next_enclave_id = 1
        # Hardware monotonic counters (SGX PSE): persist across enclave
        # teardown and power failure, so sealed state can be anchored
        # against whole-state rollback.
        self._monotonic: dict[bytes, int] = {}
        # Survives power failure too, as far as owners leave it.
        self.host = HostStorage()

    # -- monotonic counters --------------------------------------------------
    def monotonic_read(self, counter_id: bytes = b"default") -> int:
        """Current value of a hardware monotonic counter (0 if never bumped)."""
        return self._monotonic.get(counter_id, 0)

    def monotonic_increment(self, counter_id: bytes = b"default") -> int:
        """Atomically bump a hardware monotonic counter; returns the new value."""
        value = self._monotonic.get(counter_id, 0) + 1
        self._monotonic[counter_id] = value
        return value

    # -- enclave lifecycle -------------------------------------------------
    def create_enclave(
        self, name: str, code_identity: bytes, signer: bytes = b"speed-dev"
    ) -> Enclave:
        """ECREATE/EINIT: build, measure, and launch an enclave."""
        measurement = measure_code(code_identity, signer)
        # Building an enclave hashes its initial contents page by page.
        self.clock.charge_hash(len(code_identity))
        enclave = Enclave(
            platform=self,
            enclave_id=self._next_enclave_id,
            name=name,
            measurement=measurement,
            drbg=self._drbg.fork(b"enclave/" + name.encode()),
        )
        self._enclaves[enclave.enclave_id] = enclave
        self._next_enclave_id += 1
        return enclave

    def destroy_enclave(self, enclave: Enclave) -> None:
        if enclave.enclave_id not in self._enclaves:
            raise EnclaveError("enclave does not belong to this platform")
        enclave.destroy()
        del self._enclaves[enclave.enclave_id]

    @property
    def enclaves(self) -> tuple[Enclave, ...]:
        return tuple(self._enclaves.values())

    # -- quoting -------------------------------------------------------------
    def sign_quote(self, source: Measurement, report_data: bytes) -> Quote:
        if self._attestation_service is None:
            raise EnclaveError(
                "platform was not provisioned with an attestation service"
            )
        return self._attestation_service.sign_quote(self.platform_id, source, report_data)
