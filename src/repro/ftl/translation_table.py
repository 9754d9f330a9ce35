"""Flash-resident translation table and Global Mapping Directory (GMD).

The translation table maps every logical page to its current physical
location. It is far too large for integrated RAM on a multi-terabyte device,
so it is stored in flash across *translation pages*, each holding a contiguous
range of mapping entries. Because translation pages are themselves updated
out of place, a small RAM-resident directory — the GMD — records the current
physical location of every translation page.

Updates to the flash-resident table are applied lazily and in bulk by
*synchronization operations* (driven by the FTL), which read a translation
page, fold in all dirty cached entries that belong to it, and write the new
version to a fresh flash page.

A translation page is what the paper says it is: a flat run of 4-byte
mapping entries. Each entry is the *linear* physical page number
``block * pages_per_block + page`` of its logical page (``-1`` when the
logical page is unmapped), the one physical-address format of the whole
mapping layer — the cache, synchronization, trim, GC migration and
recovery all pass these ints. ``PhysicalAddress`` pairs appear only where a
flash primitive, the GMD (which locates translation pages) or a validity
store needs one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..flash.address import LogicalAddress, PhysicalAddress
from ..flash.config import MAPPING_ENTRY_BYTES
from ..flash.device import FlashDevice
from ..flash.stats import IOPurpose
from .block_manager import BlockManager, BlockType

#: Typecode of a translation page's entry array: a signed 4-byte int, so
#: every linear page number below ``2**31`` fits and ``-1`` marks a hole.
ENTRY_TYPECODE = "i"
assert array(ENTRY_TYPECODE).itemsize == MAPPING_ENTRY_BYTES
#: Entry value of an unmapped logical page.
UNMAPPED = -1


@dataclass(slots=True)
class TranslationPageContent:
    """Payload stored in one flash translation page.

    ``entries`` is a fixed-length ``array('i')`` indexed by
    ``logical % entries_per_page``; each slot holds the linear physical page
    number of that logical page, or ``UNMAPPED``. A flat buffer holds no
    Python objects, so copying a version is one memcpy and the cyclic
    garbage collector finds nothing inside a stored version to traverse.
    """

    translation_page_id: int
    entries: array

    def copy(self) -> "TranslationPageContent":
        return TranslationPageContent(self.translation_page_id,
                                      self.entries[:])


class TranslationTable:
    """DFTL-style flash-resident translation table with a RAM-resident GMD."""

    def __init__(self, device: FlashDevice, block_manager: BlockManager) -> None:
        config = device.config
        if config.physical_pages >= 1 << 31:
            raise ValueError(
                f"a device of {config.physical_pages} physical pages does "
                f"not fit {MAPPING_ENTRY_BYTES}-byte mapping entries (at "
                f"most 2**31 - 1 pages)")
        self.device = device
        self.block_manager = block_manager
        self.config = config
        self.entries_per_page = config.mapping_entries_per_page
        self.num_translation_pages = config.num_translation_pages
        #: Entries of a never-written translation page, copied on demand.
        self._unmapped = array(ENTRY_TYPECODE,
                               [UNMAPPED]) * self.entries_per_page
        #: The Global Mapping Directory: translation-page id -> flash location.
        #: ``None`` means the translation page has never been written.
        self.gmd: List[Optional[PhysicalAddress]] = (
            [None] * self.num_translation_pages)

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def translation_page_of(self, logical: LogicalAddress) -> int:
        """Translation-page id that covers ``logical``."""
        return logical // self.entries_per_page

    def location_of(self, translation_page_id: int) -> Optional[PhysicalAddress]:
        """Current flash location of a translation page (from the GMD)."""
        return self.gmd[translation_page_id]

    def unmapped_entries(self) -> array:
        """A fresh entry array of a translation page with no mappings."""
        return self._unmapped[:]

    @property
    def gmd_ram_bytes(self) -> int:
        """RAM footprint of the GMD (4 bytes per translation page)."""
        return MAPPING_ENTRY_BYTES * self.num_translation_pages

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_translation_page(
            self, translation_page_id: int,
            purpose: IOPurpose = IOPurpose.TRANSLATION
    ) -> TranslationPageContent:
        """Read a translation page from flash (one page read).

        Returns a private copy the caller may mutate. If the translation
        page has never been written, an all-unmapped content object is
        returned without any IO: there is nothing to read.
        """
        location = self.gmd[translation_page_id]
        if location is None:
            return TranslationPageContent(translation_page_id,
                                          self.unmapped_entries())
        content = self.device.read_page_data(location, purpose=purpose)
        return content.copy()

    def lookup(self, logical: LogicalAddress,
               purpose: IOPurpose = IOPurpose.TRANSLATION) -> Optional[int]:
        """Fetch the flash-resident mapping entry for one logical page.

        Returns the linear physical page number, or ``None`` if the logical
        page is unmapped. Reads the covering translation page (one charged
        page read) but skips the copy :meth:`read_translation_page` makes.
        """
        entries_per_page = self.entries_per_page
        location = self.gmd[logical // entries_per_page]
        if location is None:
            return None
        physical = self.device.read_page_data(
            location, purpose=purpose).entries[logical % entries_per_page]
        return physical if physical >= 0 else None

    def lookup_batch(self, logicals, purpose: IOPurpose = IOPurpose.TRANSLATION
                     ) -> Dict[LogicalAddress, Optional[int]]:
        """Resolve many logical pages in one pass over the translation table.

        Sorted-key grouping: the logicals are sorted so that all keys covered
        by the same translation page form a contiguous run, and each distinct
        translation page is read from flash exactly once (one charged page
        read per *page*, not per key). This is the batch analogue of
        :meth:`lookup` for callers whose IO trace is defined in terms of
        distinct translation pages touched — per-op host paths keep calling
        :meth:`lookup` so their one-read-per-miss accounting is preserved.
        """
        resolved: Dict[LogicalAddress, Optional[int]] = {}
        entries_per_page = self.entries_per_page
        gmd = self.gmd
        read_page_data = self.device.read_page_data
        current_page = -1
        current_entries: Optional[array] = None
        for logical in sorted(set(logicals)):
            translation_page = logical // entries_per_page
            if translation_page != current_page:
                current_page = translation_page
                location = gmd[translation_page]
                current_entries = (
                    None if location is None
                    else read_page_data(location, purpose=purpose).entries)
            physical = (current_entries[logical % entries_per_page]
                        if current_entries is not None else UNMAPPED)
            resolved[logical] = physical if physical >= 0 else None
        return resolved

    # ------------------------------------------------------------------
    # Writes (synchronization)
    # ------------------------------------------------------------------
    def write_translation_page(
            self, content: TranslationPageContent,
            purpose: IOPurpose = IOPurpose.TRANSLATION
    ) -> Tuple[PhysicalAddress, Optional[PhysicalAddress]]:
        """Write a new version of a translation page out of place.

        Returns ``(new_location, old_location)``. The old location (if any)
        is reported to the block manager as an invalid metadata page; the GMD
        is updated to point at the new location.
        """
        old_location = self.gmd[content.translation_page_id]
        new_location = self.block_manager.allocate_page(BlockType.TRANSLATION)
        self.device.write_page_tagged(
            new_location, content,
            block_type=BlockType.TRANSLATION.value,
            payload={"translation_page_id": content.translation_page_id},
            purpose=purpose)
        self.gmd[content.translation_page_id] = new_location
        if old_location is not None:
            self.block_manager.invalidate_metadata_page(old_location)
        return new_location, old_location

    def apply_updates(
            self, translation_page_id: int,
            updates: Dict[LogicalAddress, int],
            purpose: IOPurpose = IOPurpose.TRANSLATION
    ) -> Tuple[TranslationPageContent, TranslationPageContent]:
        """Fold ``updates`` (logical -> linear physical page) into a
        translation page (read-modify-write).

        Returns ``(old_content, new_content)`` so the caller can identify
        which previously mapped physical pages have just become invalid.
        """
        old_content = self.read_translation_page(translation_page_id,
                                                 purpose=purpose)
        new_content = old_content.copy()
        entries = new_content.entries
        entries_per_page = self.entries_per_page
        for logical, physical in updates.items():
            entries[logical % entries_per_page] = physical
        self.write_translation_page(new_content, purpose=purpose)
        return old_content, new_content

    # ------------------------------------------------------------------
    # Garbage-collection and recovery support
    # ------------------------------------------------------------------
    def migrate_translation_page(self, old_location: PhysicalAddress,
                                 purpose: IOPurpose = IOPurpose.GC) -> PhysicalAddress:
        """Copy a still-valid translation page to a fresh location.

        Used when a greedy garbage collector picks a translation block that
        still contains live translation pages.
        """
        page = self.device.read_page(old_location, purpose=purpose)
        content: TranslationPageContent = page.data
        new_location = self.block_manager.allocate_page(BlockType.TRANSLATION)
        self.device.write_page(new_location, content.copy(),
                               spare=page.spare.copy(), purpose=purpose)
        self.gmd[content.translation_page_id] = new_location
        self.block_manager.invalidate_metadata_page(old_location)
        return new_location

    def reset_ram_state(self) -> None:
        """Drop the GMD (models power failure)."""
        self.gmd = [None] * self.num_translation_pages

    def restore_gmd(self, gmd: List[Optional[PhysicalAddress]]) -> None:
        """Install a recovered GMD."""
        if len(gmd) != self.num_translation_pages:
            raise ValueError("recovered GMD has the wrong length")
        self.gmd = list(gmd)
