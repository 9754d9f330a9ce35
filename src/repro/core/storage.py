"""Storage backends for Logarithmic Gecko.

Logarithmic Gecko only needs four operations from the medium that stores its
runs: allocate a fresh page, write a page, read a page, and mark a previously
written page as superseded. Abstracting those four operations lets the data
structure run

* inside a full FTL against the simulated flash device (with IO charged to
  the :class:`~repro.flash.stats.IOStats` ledger and gecko pages placed on
  validity blocks), or
* standalone against an in-memory backend, which is what the unit tests,
  property tests, and the Figure 9/10/11 micro-benchmarks use: it counts
  reads and writes without the overhead of a device.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

from ..flash.address import PhysicalAddress
from ..flash.block import _intern_block_type
from ..flash.device import FlashDevice, device_taps
from ..flash.errors import ReadFreePageError
from ..flash.stats import IOKind, IOPurpose
from ..ftl.block_manager import BlockManager, BlockType
from .run import GeckoPagePayload

_VALIDITY_TYPE = BlockType.VALIDITY
_VALIDITY_CODE = _intern_block_type(BlockType.VALIDITY.value)
_VALIDITY_PURPOSE = IOPurpose.VALIDITY
_PAGE_READ, _PAGE_WRITE = IOKind.PAGE_READ, IOKind.PAGE_WRITE
_new_address = tuple.__new__


class GeckoStorage(ABC):
    """Minimal page-store interface Logarithmic Gecko writes its runs to.

    A stored page's payload is a :class:`GeckoPagePayload` carrying one
    packed column chunk (:class:`~repro.core.gecko_entry.EntryColumns`), so
    copying a page on write/read is a handful of flat-buffer copies — never
    one object per entry.
    """

    @abstractmethod
    def allocate(self) -> PhysicalAddress:
        """Reserve a fresh page and return its address."""

    @abstractmethod
    def write(self, address: PhysicalAddress, payload: GeckoPagePayload,
              spare_payload: Optional[dict] = None) -> None:
        """Write one Gecko page."""

    @abstractmethod
    def read(self, address: PhysicalAddress) -> GeckoPagePayload:
        """Read one Gecko page."""

    @abstractmethod
    def invalidate(self, address: PhysicalAddress) -> None:
        """Mark a Gecko page as superseded (its run was merged away)."""

    @property
    @abstractmethod
    def reads(self) -> int:
        """Number of page reads performed so far."""

    @property
    @abstractmethod
    def writes(self) -> int:
        """Number of page writes performed so far."""


class InMemoryGeckoStorage(GeckoStorage):
    """Dictionary-backed storage for standalone Logarithmic Gecko instances.

    Only live (not-yet-invalidated) pages are retained: a superseded run's
    pages are dropped on :meth:`invalidate`, so a long-lived instance holds
    O(live pages) host memory rather than one stored page per write ever
    performed.
    """

    def __init__(self) -> None:
        self._pages: Dict[PhysicalAddress, GeckoPagePayload] = {}
        self._next = 0
        self._reads = 0
        self._writes = 0

    def allocate(self) -> PhysicalAddress:
        address = PhysicalAddress(0, self._next)
        self._next += 1
        return address

    def write(self, address: PhysicalAddress, payload: GeckoPagePayload,
              spare_payload: Optional[dict] = None) -> None:
        # Stored copies are cheap column-chunk copies, not per-entry clones;
        # they isolate the store from later mutation of the caller's batch.
        self._writes += 1
        self._pages[address] = payload.copy()

    def read(self, address: PhysicalAddress) -> GeckoPagePayload:
        # Returns the stored payload itself, exactly like the device-backed
        # storage does: column chunks are immutable once written (readers
        # bisect or bulk-copy out of them, never mutate), so copying on the
        # gc_query/merge hot path would be pure overhead.
        self._reads += 1
        return self._pages[address]

    def invalidate(self, address: PhysicalAddress) -> None:
        self._pages.pop(address, None)

    @property
    def reads(self) -> int:
        return self._reads

    @property
    def writes(self) -> int:
        return self._writes

    @property
    def live_pages(self) -> int:
        """Pages not yet invalidated (used to measure space-amplification)."""
        return len(self._pages)


class FlashGeckoStorage(GeckoStorage):
    """Device-backed storage: Gecko pages live on validity blocks.

    Every operation is charged to the device's IO ledger under the
    ``VALIDITY`` purpose, which is how the paper attributes Logarithmic
    Gecko's IO in the write-amplification breakdowns. Run serialization
    (:meth:`append_page`) and page reads poke the device columns directly
    on plain and tapped devices alike, calling the device's taps after
    each counter bump.
    """

    def __init__(self, device: FlashDevice, block_manager: BlockManager) -> None:
        self.device = device
        self.block_manager = block_manager
        self._reads = 0
        self._writes = 0
        # The same tap tuple PageMappedFTL discovers (``()`` when plain).
        self._taps = device_taps(device)

    def allocate(self) -> PhysicalAddress:
        return self.block_manager.allocate_page(BlockType.VALIDITY)

    def write(self, address: PhysicalAddress, payload: GeckoPagePayload,
              spare_payload: Optional[dict] = None) -> None:
        self._writes += 1
        self.device.write_page_tagged(
            address, payload, block_type=BlockType.VALIDITY.value,
            payload=dict(spare_payload) if spare_payload else None,
            purpose=IOPurpose.VALIDITY)

    def append_page(self, payload: GeckoPagePayload,
                    spare_payload: Optional[dict] = None) -> PhysicalAddress:
        """Fused ``allocate()`` + ``write()`` for run serialization.

        Observably identical to the two-call sequence (same allocation
        policy, same tags, IO accounting and tap calls); the
        allocate-and-program sequence is poked directly instead of running
        through four call layers per Gecko page. The caller hands over
        ownership of ``spare_payload`` (run serialization builds a fresh
        dict per page).
        """
        self._writes += 1
        device = self.device
        manager = self.block_manager
        active_id = manager.active_blocks[_VALIDITY_TYPE]
        if active_id is None:
            active_id = manager._open_new_active_block(_VALIDITY_TYPE, False)
        block = device.blocks[active_id]
        offset = block.next_free_offset
        if offset >= block.pages_per_block:
            active_id = manager._open_new_active_block(_VALIDITY_TYPE, False)
            block = device.blocks[active_id]
            offset = block.next_free_offset
        device._write_clock = timestamp = device._write_clock + 1
        block._state_words[offset >> 6] |= 1 << (offset & 63)
        block._logical[offset] = -1
        block._timestamp[offset] = timestamp
        block._type_code[offset] = _VALIDITY_CODE
        block._data[offset] = payload
        if spare_payload:
            block._payload[offset] = spare_payload
        block.next_free_offset = offset + 1
        device.stats.page_write_counts[_VALIDITY_PURPOSE] += 1
        if self._taps:
            for tap in self._taps:
                tap(_PAGE_WRITE, active_id, _VALIDITY_PURPOSE)
        return _new_address(PhysicalAddress, (active_id, offset))

    def read(self, address: PhysicalAddress) -> GeckoPagePayload:
        self._reads += 1
        # Inlined ``read_page_data`` (GC queries and merges read run pages
        # constantly): cursor check plus the charged read.
        block_id, offset = address
        block = self.device.blocks[block_id]
        if offset >= block.next_free_offset:
            raise ReadFreePageError(f"{address} has not been programmed")
        self.device.stats.page_read_counts[_VALIDITY_PURPOSE] += 1
        if self._taps:
            for tap in self._taps:
                tap(_PAGE_READ, block_id, _VALIDITY_PURPOSE)
        return block._data.get(offset)

    def invalidate(self, address: PhysicalAddress) -> None:
        self.block_manager.invalidate_metadata_page(address)

    @property
    def reads(self) -> int:
        return self._reads

    @property
    def writes(self) -> int:
        return self._writes
