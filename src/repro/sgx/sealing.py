"""Data sealing for the simulated SGX platform.

Sealing lets an enclave persist secrets outside the EPC: the data is
AEAD-protected under a key derived from the platform's sealing fabric and
the enclave's identity.  Two key policies exist, as on real hardware:

* ``MRENCLAVE`` — only the *exact same* enclave build can unseal;
* ``MRSIGNER`` — any enclave from the same signer can unseal (used for
  upgradable services such as the ResultStore's persisted dictionary).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .measurement import Measurement
from ..crypto import gcm
from ..crypto.hashes import hmac_sha256
from ..errors import IntegrityError, SealingError


class SealPolicy(enum.Enum):
    MRENCLAVE = "mrenclave"
    MRSIGNER = "mrsigner"


@dataclass(frozen=True)
class SealedBlob:
    """A sealed secret: policy label + AEAD blob (iv || tag || ct)."""

    policy: SealPolicy
    payload: bytes


def derive_seal_key(
    fabric_key: bytes, measurement: Measurement, policy: SealPolicy
) -> bytes:
    """Derive the 16-byte sealing key for an enclave identity + policy."""
    identity = (
        measurement.mrenclave if policy is SealPolicy.MRENCLAVE else measurement.mrsigner
    )
    return hmac_sha256(fabric_key, b"seal/" + policy.value.encode() + identity)[:16]


def seal_cipher(fabric_key: bytes, measurement: Measurement, policy: SealPolicy) -> gcm.AesGcm:
    """The AEAD under one policy's sealing key, built to be kept: an
    enclave holds one per policy for life, as a channel endpoint holds its
    directions, so every seal takes the fold stack, never a scalar step."""
    return gcm.AesGcm(derive_seal_key(fabric_key, measurement, policy), kept=True)


_AAD = {policy: b"speed/seal/" + policy.value.encode() for policy in SealPolicy}


def seal_with(cipher: gcm.AesGcm, data: bytes, policy: SealPolicy, iv: bytes) -> SealedBlob:
    """Seal ``data`` under ``cipher``, the :func:`seal_cipher` of ``policy``."""
    return SealedBlob(policy=policy, payload=cipher.seal(iv, data, _AAD[policy]))


def unseal_with(cipher: gcm.AesGcm, blob: SealedBlob) -> bytes:
    """Unseal ``blob`` under its policy's :func:`seal_cipher`; raises
    :class:`SealingError` on a wrong identity or an altered blob."""
    try:
        return cipher.open(blob.payload, _AAD[blob.policy])
    except IntegrityError as exc:
        raise SealingError("unsealing failed: wrong identity or corrupt blob") from exc
