"""Enclave lifecycle, ECALL/OCALL boundary, and per-enclave services.

An :class:`Enclave` is created by an :class:`SgxPlatform` (see
:mod:`repro.sgx.platform`).  The simulator enforces the SGX programming
model the paper describes in §IV-A:

* the host enters the enclave via an **ECALL** and the enclave reaches
  out via an **OCALL** — both are context managers here, so mis-nesting
  (an ECALL from inside, an OCALL from outside) raises immediately;
* every transition charges the calibrated cycle cost to the platform
  clock, and arguments/results crossing the boundary charge marshalling
  cost — this is exactly the overhead the paper points to in Fig. 6;
* enclave heap accesses go through :meth:`Enclave.touch`, which the EPC
  model turns into page faults when the working set outgrows the EPC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .attestation import Quote, Report, make_report, verify_report
from .measurement import Measurement
from .sealing import SealedBlob, SealPolicy, seal_cipher, seal_with, unseal_with
from ..crypto.drbg import HmacDrbg
from ..errors import EnclaveError
from ..obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .platform import SgxPlatform


class _Transition:
    """Context manager for one boundary crossing (ECALL or OCALL)."""

    __slots__ = ("_enclave", "_kind", "_name", "_in_bytes", "_out_bytes", "_span")

    def __init__(self, enclave: "Enclave", kind: str, name: str, in_bytes: int, out_bytes: int):
        self._enclave = enclave
        self._kind = kind
        self._name = name
        self._in_bytes = in_bytes
        self._out_bytes = out_bytes
        self._span = None

    def __enter__(self):
        enclave, kind = self._enclave, self._kind
        if enclave.tracer.enabled:
            self._span = enclave.tracer.span(
                f"sgx.{kind}", clock=enclave.platform.clock, op=self._name, enclave=enclave.name,
            )
            self._span.__enter__()
        if enclave._destroyed:
            enclave._check_alive()
        clock, stack = enclave.platform.clock, enclave._call_stack
        if kind == "ecall":
            if len(stack) % 2:
                raise EnclaveError(
                    f"nested ECALL {self._name!r} from inside enclave {enclave.name!r}"
                )
            clock.charge_ecall()
            enclave.ecall_count += 1
        else:
            if not len(stack) % 2:
                raise EnclaveError(
                    f"OCALL {self._name!r} attempted outside enclave {enclave.name!r}"
                )
            clock.charge_ocall()
            enclave.ocall_count += 1
        clock.charge_marshal(self._in_bytes)
        stack.append(kind)
        return self

    def __exit__(self, exc_type, exc, tb):
        enclave, kind = self._enclave, self._kind
        stack, clock = enclave._call_stack, enclave.platform.clock
        if not stack or stack[-1] != kind:
            raise EnclaveError("mismatched enclave transition nesting")
        stack.pop()
        clock.charge_marshal(self._out_bytes)
        # Returning crosses the boundary once more.
        if kind == "ecall":
            clock.charge_ecall()
        else:
            clock.charge_ocall()
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span = None
        return False


class Enclave:
    """One simulated enclave instance."""

    def __init__(
        self,
        platform: "SgxPlatform",
        enclave_id: int,
        name: str,
        measurement: Measurement,
        drbg: HmacDrbg,
    ):
        self.platform = platform
        self.enclave_id = enclave_id
        self.name = name
        self.measurement = measurement
        self._drbg = drbg
        self._call_stack: list[str] = []  # alternating "ecall"/"ocall"
        self._destroyed = False
        self.ecall_count = 0
        self.ocall_count = 0
        # One sealing cipher per policy, kept for the enclave's life.
        fabric = platform.seal_fabric_key
        self._seal_ciphers = {p: seal_cipher(fabric, measurement, p) for p in SealPolicy}
        # Observability: a Session points this at its shared tracer so
        # boundary crossings surface as sgx.ecall/sgx.ocall spans.
        self.tracer = NULL_TRACER

    # -- boundary --------------------------------------------------------
    @property
    def inside(self) -> bool:
        """True when execution is currently inside the enclave."""
        return len(self._call_stack) % 2 == 1

    @property
    def transition_count(self) -> int:
        """Total boundary crossings entered so far (ECALLs + OCALLs).

        Each counted transition also pays a second crossing on return, so
        cycle cost is proportional to twice this number; as a *count* of
        world switches this is the figure the batching benchmark reports
        per call.
        """
        return self.ecall_count + self.ocall_count

    def _check_alive(self) -> None:
        if self._destroyed:
            raise EnclaveError(f"enclave {self.name!r} was destroyed")

    def ecall(self, name: str = "", in_bytes: int = 0, out_bytes: int = 0) -> _Transition:
        """Enter the enclave from the host (or from within an OCALL)."""
        return _Transition(self, "ecall", name, in_bytes, out_bytes)

    def ocall(self, name: str = "", in_bytes: int = 0, out_bytes: int = 0) -> _Transition:
        """Leave the enclave to run untrusted host code."""
        return _Transition(self, "ocall", name, in_bytes, out_bytes)

    # -- memory ----------------------------------------------------------
    def touch(self, region: str, offset: int, n_bytes: int) -> int:
        """Access enclave heap memory; returns the page faults incurred."""
        if self._destroyed:
            self._check_alive()
        if not len(self._call_stack) % 2:
            raise EnclaveError("enclave memory is not accessible from outside (EPC isolation)")
        return self.platform.epc.access(self.enclave_id, region, offset, n_bytes)

    # -- randomness (sgx_read_rand) ---------------------------------------
    def read_rand(self, n_bytes: int) -> bytes:
        """Draw enclave-local randomness (deterministic under the seed)."""
        if self._destroyed:
            self._check_alive()
        if not len(self._call_stack) % 2:
            raise EnclaveError("sgx_read_rand must be called from inside the enclave")
        return self._drbg.generate(n_bytes)

    # -- sealing -----------------------------------------------------------
    def seal(self, data: bytes, policy: SealPolicy = SealPolicy.MRENCLAVE) -> SealedBlob:
        self._check_alive()
        if not self.inside:
            raise EnclaveError("sealing keys are only available inside the enclave")
        iv = self._drbg.generate(12)
        self.platform.clock.charge_aead_encrypt(len(data))
        return seal_with(self._seal_ciphers[policy], data, policy, iv)

    def unseal(self, blob: SealedBlob) -> bytes:
        self._check_alive()
        if not self.inside:
            raise EnclaveError("unsealing is only possible inside the enclave")
        self.platform.clock.charge_aead_decrypt(len(blob.payload))
        return unseal_with(self._seal_ciphers[blob.policy], blob)

    # -- attestation -------------------------------------------------------
    def create_report(self, target: Measurement, report_data: bytes = b"") -> Report:
        """Local attestation: produce a report for a co-located enclave."""
        self._check_alive()
        if not self.inside:
            raise EnclaveError("EREPORT is an in-enclave instruction")
        self.platform.clock.charge_hash(128)
        return make_report(
            self.platform.report_key_root, self.measurement, target.mrenclave, report_data
        )

    def verify_peer_report(self, report: Report) -> Measurement:
        """Verify a report addressed to this enclave; returns the peer's
        measurement."""
        self._check_alive()
        if not self.inside:
            raise EnclaveError("report keys are only available inside the enclave")
        self.platform.clock.charge_hash(128)
        verify_report(self.platform.report_key_root, self.measurement.mrenclave, report)
        return report.source

    def create_quote(self, report_data: bytes = b"") -> Quote:
        """Remote attestation: have the platform's quoting identity sign."""
        self._check_alive()
        if not self.inside:
            raise EnclaveError("quoting starts from inside the enclave")
        self.platform.clock.charge_hash(512)
        return self.platform.sign_quote(self.measurement, report_data)

    # -- lifecycle -----------------------------------------------------------
    def destroy(self) -> None:
        if self._destroyed:
            return
        if self._call_stack:
            raise EnclaveError("cannot destroy an enclave with live calls")
        self._destroyed = True
        self.platform.epc.release_enclave(self.enclave_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "destroyed" if self._destroyed else ("inside" if self.inside else "outside")
        return f"<Enclave {self.name!r} id={self.enclave_id} {state}>"
