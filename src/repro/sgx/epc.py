"""Enclave Page Cache (EPC) model with demand paging.

SGX machines of the paper's generation expose 128 MiB of protected
memory, roughly 90 MiB usable after SGX metadata (§V-A).  When enclaves
collectively touch more than that, the kernel driver transparently swaps
pages out (EWB) and back in (ELDU), each swap costing tens of thousands
of cycles — the reason the paper insists on keeping only small metadata
inside the ResultStore enclave (§II, §IV-B).

The model is page-granular LRU over *touched* pages: an enclave declares
memory regions, accesses charge page faults for non-resident pages, and
residency is bounded by the usable EPC size.
"""

from __future__ import annotations

from collections import OrderedDict

from .cost_model import SimClock
from ..errors import EnclaveMemoryError

DEFAULT_EPC_USABLE = 90 * 1024 * 1024


class EpcManager:
    """Global LRU page cache shared by all enclaves on a platform."""

    def __init__(
        self,
        clock: SimClock,
        usable_bytes: int = DEFAULT_EPC_USABLE,
        allow_paging: bool = True,
    ):
        if usable_bytes <= 0:
            raise EnclaveMemoryError("EPC size must be positive")
        self._clock = clock
        self.page_size = clock.params.page_size
        self.capacity_pages = usable_bytes // self.page_size
        self.allow_paging = allow_paging
        self._resident: OrderedDict[tuple[int, str, int], None] = OrderedDict()
        self.fault_count = 0
        self.eviction_count = 0

    # -- core ------------------------------------------------------------
    def access(self, enclave_id: int, region: str, offset: int, n_bytes: int) -> int:
        """Touch a byte range; returns the number of page faults charged.
        A page is keyed ``(enclave_id, region, index)``."""
        if n_bytes <= 0:
            return 0
        resident, page = self._resident, self.page_size
        faults = 0
        for index in range(offset // page, (offset + n_bytes - 1) // page + 1):
            key = (enclave_id, region, index)
            if key in resident:
                resident.move_to_end(key)
                continue
            faults += 1
            if len(resident) >= self.capacity_pages:
                if not self.allow_paging:
                    raise EnclaveMemoryError(
                        "EPC exhausted and paging disabled "
                        f"({self.capacity_pages} pages resident)"
                    )
                resident.popitem(last=False)
                self.eviction_count += 1
            resident[key] = None
        if faults:
            self.fault_count += faults
            self._clock.charge_page_fault(faults)
        return faults

    def release_enclave(self, enclave_id: int) -> None:
        """Drop all pages of a destroyed enclave (no cost: EREMOVE is cheap
        relative to the swaps we model)."""
        stale = [k for k in self._resident if k[0] == enclave_id]
        for key in stale:
            del self._resident[key]
