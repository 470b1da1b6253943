"""Controlled deduplication: store-side access control (paper §III-D).

"Such a 'keyless' encryption scheme does not naturally provide flexible
access control mechanism.  To ensure that only authorized applications
can access ResultStore, it requires an additional authorization
mechanism."

This module provides that mechanism.  Because every SGX-mode connection
is established over local attestation, the store learns the connecting
application's *measurement* before serving a single request; an
:class:`AuthorizationPolicy` decides, from that measurement, whether the
connection is admitted.  Policies can pin exact enclave builds
(MRENCLAVE), whole vendors (MRSIGNER), or both, and can be flipped
between allowlist and open modes at deployment time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import StoreError
from ..sgx.measurement import Measurement


class AuthorizationError(StoreError):
    """A connection was refused by the store's authorization policy."""


@dataclass
class AuthorizationPolicy:
    """Measurement-based admission control for ResultStore connections.

    ``open_admission=True`` (the default when no policy is configured)
    admits everyone — the paper's base design.  Otherwise a connection is
    admitted iff its MRENCLAVE or its MRSIGNER is enrolled.
    """

    open_admission: bool = False
    allowed_mrenclaves: set[bytes] = field(default_factory=set)
    allowed_mrsigners: set[bytes] = field(default_factory=set)
    denials: int = field(default=0, init=False)

    # -- enrolment --------------------------------------------------------
    def allow_signer(self, mrsigner: bytes) -> "AuthorizationPolicy":
        """Admit every enclave from one signer (vendor-level trust)."""
        self.allowed_mrsigners.add(mrsigner)
        return self

    # -- admission ---------------------------------------------------------
    def admits(self, measurement: Measurement) -> bool:
        if self.open_admission:
            return True
        return (
            measurement.mrenclave in self.allowed_mrenclaves
            or measurement.mrsigner in self.allowed_mrsigners
        )

    def check(self, measurement: Measurement) -> None:
        """Raise :class:`AuthorizationError` for unauthorized peers."""
        if not self.admits(measurement):
            self.denials += 1
            raise AuthorizationError(
                "connection refused: enclave "
                f"{measurement.mrenclave.hex()[:16]}… is not authorized"
            )
