"""Untrusted blob storage for result ciphertexts.

"The actual content of [res] is stored outside enclave for space
efficiency, just keeping a pointer in the metadata dictionary" (§III-B):
in host RAM, as names in the machine's host storage.  The adversary of
§II-B controls that memory; the store enclave's blob digest and,
independently, the application's AEAD check detect what it rewrites.
"""

from __future__ import annotations

from ..errors import StoreError


class BlobStore:
    """Reference-counted append-only blob arena: a view over the
    ``prefix`` names of one machine's host storage."""

    def __init__(self, host, prefix: str):
        self._host = host
        self.prefix = prefix
        self._next_ref = 1
        self.bytes_stored = 0

    def name(self, ref: int) -> str:
        """The host name holding blob ``ref``."""
        return f"{self.prefix}{ref}"

    def put(self, data: bytes) -> int:
        ref = self._next_ref
        self._next_ref += 1
        self._host.put(self.name(ref), bytes(data))
        self.bytes_stored += len(data)
        return ref

    def get(self, ref: int) -> bytes:
        blob = self._host.get(self.name(ref))
        if blob is None:
            raise StoreError(f"dangling blob reference {ref}")
        return blob

    def delete(self, ref: int) -> None:
        blob = self._host.delete(self.name(ref))
        if blob is None:
            raise StoreError(f"double free of blob reference {ref}")
        self.bytes_stored -= len(blob)

    def __len__(self) -> int:
        return len(self._host.names(self.prefix))
