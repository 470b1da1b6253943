"""Simulated Intel SGX substrate.

The paper's system runs on real SGX hardware; this package is the
substitute substrate (see DESIGN.md §2): a deterministic machine model
with a cycle-accounted virtual clock (:mod:`.cost_model`), an EPC page
cache with demand paging (:mod:`.epc`), enclave lifecycle and the
ECALL/OCALL boundary (:mod:`.enclave`), measurement (:mod:`.measurement`),
sealing (:mod:`.sealing`), and local/remote attestation
(:mod:`.attestation`).
"""

from .attestation import AttestationService, Quote, Report
from .cost_model import CostParams, SimClock
from .enclave import Enclave
from .epc import DEFAULT_EPC_USABLE, EpcManager
from .measurement import Measurement, measure_code
from .platform import SgxPlatform
from .sealing import SealedBlob, SealPolicy

__all__ = [
    "AttestationService",
    "CostParams",
    "DEFAULT_EPC_USABLE",
    "Enclave",
    "EpcManager",
    "Measurement",
    "Quote",
    "Report",
    "SealPolicy",
    "SealedBlob",
    "SgxPlatform",
    "SimClock",
    "measure_code",
]
