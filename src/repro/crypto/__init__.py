"""Cryptographic substrate for the SPEED reproduction.

Everything the paper's prototype takes from the Intel SGX SDK crypto
library is implemented here from scratch: AES-128 encryption
(:mod:`.aes`), counter mode (:mod:`.ctr`), AES-GCM AEAD (:mod:`.gcm`),
HKDF (:mod:`.hkdf`), an HMAC-DRBG (:mod:`.drbg`) and finite-field
Diffie-Hellman (:mod:`.dh`); SHA-256 and HMAC come from :mod:`hashlib`
(:mod:`.hashes`).  :mod:`.mle` holds the generic MLE schemes (CE, RCE)
that the cross-application design builds on; the variant it protects
results with is :mod:`repro.core.scheme`.
"""

from .aes import AES128, BLOCK_SIZE, KEY_SIZE
from .constant_time import bytes_eq
from .dh import DhKeyPair, derive_session_keys, generate_keypair, shared_secret
from .drbg import HmacDrbg
from .gcm import AesGcm, IV_SIZE, TAG_SIZE, open_, seal
from .hashes import DIGEST_SIZE, hmac_sha256, sha256, tagged_hash
from .hkdf import hkdf, hkdf_expand, hkdf_extract
from .mle import (
    ConvergentEncryption,
    MleCiphertext,
    RandomizedConvergentEncryption,
)

__all__ = [
    "AES128",
    "AesGcm",
    "BLOCK_SIZE",
    "ConvergentEncryption",
    "DIGEST_SIZE",
    "DhKeyPair",
    "HmacDrbg",
    "IV_SIZE",
    "KEY_SIZE",
    "MleCiphertext",
    "RandomizedConvergentEncryption",
    "TAG_SIZE",
    "bytes_eq",
    "derive_session_keys",
    "generate_keypair",
    "hkdf",
    "hkdf_expand",
    "hkdf_extract",
    "hmac_sha256",
    "open_",
    "seal",
    "sha256",
    "shared_secret",
    "tagged_hash",
]
