"""GeckoFTL: the paper's FTL (Section 4).

GeckoFTL combines the shared DFTL-style translation scheme with three
innovations:

1. **Logarithmic Gecko as the page-validity store** — validity metadata lives
   in flash, shrinking integrated RAM by ~95% versus a RAM-resident PVB while
   generating ~98% less write-amplification than a flash-resident PVB.
2. **Lazy invalid-page identification (Section 4.1)** — writes never fetch the
   old mapping entry just to invalidate the before-image. Instead, each cached
   mapping entry carries a UIP ("unidentified invalid page") flag, and the
   before-image is reported to Logarithmic Gecko during the synchronization
   operation that was going to read the translation page anyway. Garbage
   collection compensates by checking the cache for UIPs before migrating.
3. **Metadata-aware garbage collection (Section 4.2)** — translation blocks
   and Gecko blocks are never chosen as greedy victims; because metadata is
   updated orders of magnitude more often than user data, those blocks become
   fully invalid on their own and are erased for free.

Checkpoints (Section 4.3) bound the recovery-time backwards scan without
bounding the number of dirty cached entries, removing the contention between
recovery time and write-amplification that LazyFTL and IB-FTL suffer from.
The recovery algorithm itself (GeckoRec) lives in :mod:`repro.core.recovery`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from ..api.registry import register_ftl
from ..flash.address import LogicalAddress, PhysicalAddress
from ..flash.device import FlashDevice
from ..flash.stats import IOKind, IOPurpose
from ..flash.block import _intern_block_type
from ..flash.errors import ReadFreePageError
from ..ftl.base import PageMappedFTL
from ..ftl.block_manager import BlockType
from ..ftl.garbage_collector import VictimPolicy
from ..ftl.mapping_cache import CachedMapping
from ..ftl.translation_table import TranslationPageContent
from ..ftl.validity.base import ValidityStore
from .gecko_entry import EntryLayout
from .logarithmic_gecko import GeckoConfig, LogarithmicGecko
from .storage import FlashGeckoStorage

_TRANSLATION_TYPE = BlockType.TRANSLATION
_TRANSLATION_CODE = _intern_block_type(BlockType.TRANSLATION.value)
_TRANSLATION_PURPOSE = IOPurpose.TRANSLATION
_USER_TYPE = BlockType.USER
_USER_CODE = _intern_block_type(BlockType.USER.value)
_GC_PURPOSE = IOPurpose.GC
_PAGE_READ, _PAGE_WRITE = IOKind.PAGE_READ, IOKind.PAGE_WRITE
_SPARE_READ = IOKind.SPARE_READ
_new_mapping = object.__new__


class GeckoValidityStore(ValidityStore):
    """Adapter exposing Logarithmic Gecko through the ValidityStore interface."""

    def __init__(self, gecko: LogarithmicGecko) -> None:
        self.gecko = gecko

    def mark_invalid(self, address: PhysicalAddress) -> None:
        self.gecko.record_invalid(address.block, address.page)

    def note_erase(self, block_id: int) -> None:
        self.gecko.record_erase(block_id)

    def invalid_offsets(self, block_id: int) -> Set[int]:
        return self.gecko.gc_query(block_id)

    def invalid_bitmap(self, block_id: int) -> int:
        """Packed-int form of :meth:`invalid_offsets` (collector fast path)."""
        return self.gecko.gc_query_bitmap(block_id)

    def ram_bytes(self) -> int:
        return self.gecko.ram_bytes()

    def reset_ram_state(self) -> None:
        self.gecko.reset_ram_state()

    def flush(self) -> None:
        self.gecko.flush_buffer()

    def migrate_page(self, address: PhysicalAddress) -> None:
        """Relocate a live Gecko page (only needed under a greedy GC policy)."""
        self.gecko.migrate_run_page(address)


@register_ftl("GeckoFTL", "Gecko")
class GeckoFTL(PageMappedFTL):
    """The paper's FTL: Logarithmic Gecko, lazy UIPs, checkpointed recovery."""

    name = "GeckoFTL"
    uses_battery = False

    def __init__(self, device: FlashDevice,
                 cache_capacity: int = 1024,
                 size_ratio: int = 2,
                 partition_factor: Optional[int] = None,
                 multiway_merge: bool = False,
                 checkpoint_period: Optional[int] = None,
                 victim_policy: VictimPolicy = VictimPolicy.METADATA_AWARE,
                 **kwargs) -> None:
        # Stash Gecko tuning before the base constructor builds the store.
        self._size_ratio = size_ratio
        self._partition_factor = partition_factor
        self._multiway_merge = multiway_merge
        super().__init__(device, cache_capacity=cache_capacity,
                         victim_policy=victim_policy,
                         dirty_fraction_limit=None, **kwargs)
        #: A checkpoint is taken every ``checkpoint_period`` cache inserts or
        #: updates; the paper uses the cache capacity C as the period.
        self.checkpoint_period = (checkpoint_period if checkpoint_period
                                  is not None else cache_capacity)
        self._cache_update_counter = 0
        self._previous_checkpoint_symbol: Optional[int] = None
        self.checkpoints_taken = 0

    def make_recovery(self):
        """GeckoFTL recovers with GeckoRec (Appendix C), not a full scan."""
        from .recovery import GeckoRecovery  # deferred: recovery imports ftl
        return GeckoRecovery(self)

    # ------------------------------------------------------------------
    # Validity store construction
    # ------------------------------------------------------------------
    def _create_validity_store(self) -> ValidityStore:
        layout = self._build_layout()
        gecko = LogarithmicGecko(
            GeckoConfig(size_ratio=self._size_ratio, layout=layout,
                        multiway_merge=self._multiway_merge),
            storage=FlashGeckoStorage(self.device, self.block_manager))
        self.gecko = gecko
        return GeckoValidityStore(gecko)

    def _build_layout(self) -> EntryLayout:
        if self._partition_factor is None:
            return EntryLayout.recommended(self.config.pages_per_block,
                                           self.config.page_size)
        return EntryLayout(pages_per_block=self.config.pages_per_block,
                           page_size=self.config.page_size,
                           partition_factor=self._partition_factor)

    # ------------------------------------------------------------------
    # Lazy invalid-page identification (Section 4.1)
    # ------------------------------------------------------------------
    def _update_mapping_on_write(self, logical: LogicalAddress,
                                 new_physical: int) -> None:
        """Update the cached mapping without touching the translation table.

        On a cache hit the before-image is the cached physical address, so it
        is reported to Logarithmic Gecko immediately and the UIP flag is left
        as it was (an even older before-image may still be unidentified). On
        a miss no flash read is spent: the new entry is created dirty with the
        UIP flag set, and the before-image will be identified during the next
        synchronization operation of its translation page.
        """
        self._cache_update_counter += 1
        cache = self.cache
        entries = cache._entries
        entry = entries.get(logical)
        if entry is not None:
            # Inlined cache hit (``get`` + ``_invalidate_user_page`` +
            # ``mark_dirty``): this is the steady-state write path, one
            # dispatch per host write.
            cache.hits += 1
            entries.move_to_end(logical)
            old_block, old_page = divmod(entry.physical,
                                         self._pages_per_block)
            # Inlined ``gecko.record_invalid`` + ``buffer.insert_invalid``:
            # the before-image is a programmed page, so the offset range
            # check is satisfied by construction.
            gecko = self.gecko
            gecko.updates += 1
            buffer = gecko.buffer
            sub_key, bit = divmod(old_page, buffer._bits_per_slice)
            key = (old_block << buffer._subkey_bits) | sub_key
            bitmaps = buffer._bitmaps
            current = bitmaps.get(key)
            bitmaps[key] = ((1 << bit) if current is None
                            else current | (1 << bit))
            if len(bitmaps) >= buffer._capacity:
                gecko.flush_buffer()
            bvc_counts = self.bvc._counts
            if bvc_counts[old_block] > 0:
                bvc_counts[old_block] -= 1
            entry.physical = new_physical
            if not entry.dirty:
                entry.dirty = True
                cache._dirty_count += 1
            return
        # Inlined cache miss (``put`` of a known-absent key + the eviction
        # length check): logical keys are non-negative, so ``entry is None``
        # means absent, never a checkpoint symbol.
        cache.misses += 1
        # Slot stores instead of the dataclass constructor: one entry is
        # created per missing host write, and the generated ``__init__``
        # costs more than the six stores.
        entry = _new_mapping(CachedMapping)
        entry.logical = logical
        entry.physical = new_physical
        entry.dirty = True
        entry.uip = True
        entry.uncertain = False
        entry.in_flash = None
        entries[logical] = entry
        cache._live_count += 1
        cache._dirty_count += 1
        entries_per_translation_page = cache.entries_per_translation_page
        translation_page = logical // entries_per_translation_page
        by_translation_page = cache._by_translation_page
        bucket = by_translation_page.get(translation_page)
        if bucket is None:
            by_translation_page[translation_page] = {logical}
        else:
            bucket.add(logical)
        if cache._live_count > cache.capacity and not self._in_gc:
            # Inlined ``_evict_if_over_capacity`` (the cache sits exactly at
            # capacity in steady state, so every miss insert evicts one
            # entry): walk past expired checkpoint symbols to the coldest
            # real entry, drop it, and synchronize it if it was dirty.
            obs = self.obs
            capacity = cache.capacity
            pop_coldest = entries.popitem
            while cache._live_count > capacity:
                victim = None
                while entries:
                    key, victim = pop_coldest(False)
                    if victim is None:
                        continue
                    cache._live_count -= 1
                    victim_page = key // entries_per_translation_page
                    victim_bucket = by_translation_page.get(victim_page)
                    if victim_bucket is not None:
                        victim_bucket.discard(key)
                        if not victim_bucket:
                            del by_translation_page[victim_page]
                    if victim.dirty:
                        cache._dirty_count -= 1
                    break
                if victim is None:
                    break
                if obs is not None:
                    obs.on_cache_evict(victim.logical, victim.dirty)
                if victim.dirty:
                    self._synchronize_translation_page(
                        victim.logical // entries_per_translation_page,
                        extra_entry=victim)

    def _after_write(self, logical: LogicalAddress) -> None:
        """Take a checkpoint every ``checkpoint_period`` cache updates."""
        if self._cache_update_counter >= self.checkpoint_period:
            self._cache_update_counter = 0
            self._take_checkpoint()

    # ------------------------------------------------------------------
    # Synchronization with UIP identification and post-recovery correction
    # ------------------------------------------------------------------
    def _synchronize_translation_page(
            self, translation_page: int,
            extra_entry: Optional[CachedMapping] = None) -> None:
        # Inlined range query (``dirty_entries_on_translation_page``): one
        # sorted walk over the secondary index, probing the entry map
        # directly. Synchronization operations run several hundred times per
        # thousand host writes, so every call layer here is measurable.
        cache = self.cache
        cache_entries = cache._entries
        bucket = cache._by_translation_page.get(translation_page)
        dirty_entries = []
        if bucket:
            for logical in sorted(bucket):
                entry = cache_entries.get(logical)
                if entry is not None and entry.dirty:
                    dirty_entries.append(entry)
        if extra_entry is not None:
            # Identity scan, not ``in``: CachedMapping is a dataclass, so
            # ``in`` would compare field tuples; the evicted extra entry is
            # only a duplicate if it *is* one of the cached objects.
            for entry in dirty_entries:
                if entry is extra_entry:
                    break
            else:
                dirty_entries.insert(0, extra_entry)
        if not dirty_entries:
            return

        translation_table = self.translation_table
        gmd = translation_table.gmd
        device = self.device
        taps = self._taps
        location = gmd[translation_page]
        # Inlined ``read_translation_page`` (same one-charged-read
        # accounting, private entry copy materialized directly).
        if location is None:
            page_entries = translation_table.unmapped_entries()
        else:
            read_id, read_offset = location
            read_block = device.blocks[read_id]
            if read_offset >= read_block.next_free_offset:
                raise ReadFreePageError(f"{location} has not been programmed")
            device.stats.page_read_counts[_TRANSLATION_PURPOSE] += 1
            if taps:
                for tap in taps:
                    tap(_PAGE_READ, read_id, _TRANSLATION_PURPOSE)
            page_entries = read_block._data[read_offset].entries[:]

        # Every participating entry has a distinct logical page, so folding
        # each update straight into the copy never hides a before-image
        # another entry still has to read.
        synced: List[CachedMapping] = []
        first_logical = translation_page * translation_table.entries_per_page
        pages_per_block = self._pages_per_block
        gecko = self.gecko
        buffer = gecko.buffer
        bits_per_slice = buffer._bits_per_slice
        subkey_bits = buffer._subkey_bits
        bitmaps = buffer._bitmaps
        buffer_capacity = buffer._capacity
        bvc_counts = self.bvc._counts
        for entry in dirty_entries:
            slot = entry.logical - first_logical
            old_physical = page_entries[slot]
            if entry.uncertain:
                self._resolve_uncertain_entry(
                    entry, old_physical if old_physical >= 0 else None)
                if not entry.dirty:
                    continue
            elif entry.uip and old_physical >= 0 \
                    and old_physical != entry.physical:
                # Inlined ``_invalidate_user_page`` (and, inside it,
                # ``gecko.record_invalid``): report the identified
                # before-image to Logarithmic Gecko and clamp the BVC.
                # This runs once per identified UIP — roughly ten times per
                # synchronization operation under a random workload.
                old_block, old_page = divmod(old_physical, pages_per_block)
                gecko.updates += 1
                sub_key, bit = divmod(old_page, bits_per_slice)
                key = (old_block << subkey_bits) | sub_key
                current = bitmaps.get(key)
                bitmaps[key] = ((1 << bit) if current is None
                                else current | (1 << bit))
                if len(bitmaps) >= buffer_capacity:
                    gecko.flush_buffer()
                if bvc_counts[old_block] > 0:
                    bvc_counts[old_block] -= 1
            entry.uip = False
            page_entries[slot] = entry.physical
            synced.append(entry)

        if not synced:
            # Every participating entry turned out to be clean: abort the
            # synchronization operation and save the flash write
            # (Appendix C.3.1).
            return
        # Inlined ``write_translation_page``: allocate the next translation
        # page (metadata may dip into the GC reserve), program it with the
        # same tags/accounting as ``write_page_tagged``, repoint the GMD,
        # retire the old copy.
        manager = self.block_manager
        active_id = manager.active_blocks[_TRANSLATION_TYPE]
        if active_id is None:
            active_id = manager._open_new_active_block(_TRANSLATION_TYPE,
                                                       False)
        block = device.blocks[active_id]
        offset = block.next_free_offset
        if offset >= block.pages_per_block:
            active_id = manager._open_new_active_block(_TRANSLATION_TYPE,
                                                       False)
            block = device.blocks[active_id]
            offset = block.next_free_offset
        device._write_clock = timestamp = device._write_clock + 1
        block._state_words[offset >> 6] |= 1 << (offset & 63)
        block._logical[offset] = -1
        block._timestamp[offset] = timestamp
        block._type_code[offset] = _TRANSLATION_CODE
        block._data[offset] = TranslationPageContent(translation_page,
                                                     page_entries)
        block._payload[offset] = {"translation_page_id": translation_page}
        block.next_free_offset = offset + 1
        device.stats.page_write_counts[_TRANSLATION_PURPOSE] += 1
        if taps:
            for tap in taps:
                tap(_PAGE_WRITE, active_id, _TRANSLATION_PURPOSE)
        gmd[translation_page] = PhysicalAddress(active_id, offset)
        if location is not None:
            manager.info[location[0]].invalid_metadata_offsets.add(
                location[1])
        for entry in synced:
            entry.in_flash = True
            if entry.dirty:
                entry.dirty = False
                # Only a still-cached entry participates in the dirty count
                # (an evicted extra_entry does not).
                if cache_entries.get(entry.logical) is entry:
                    cache._dirty_count -= 1

    def _resolve_uncertain_entry(self, entry: CachedMapping,
                                 old_physical: Optional[int]) -> None:
        """Correct the pessimistic flags of an entry recreated by recovery.

        Appendix C.3: if the flash-resident entry already matches, the entry
        was never dirty — clear everything and omit it from the operation.
        Otherwise it really is dirty; before re-reporting the before-image as
        invalid, check its spare area to make sure the page still holds this
        logical page (it may have been erased and rewritten since), which
        guarantees no live page is ever reported invalid.
        """
        entry.uncertain = False
        if old_physical == entry.physical:
            entry.uip = False
            entry.in_flash = True
            if entry.logical in self.cache:
                self.cache.mark_dirty(entry.logical, False)
            else:
                entry.dirty = False
            return
        if old_physical is not None:
            tagged_logical = self.device.read_spare_logical(
                PhysicalAddress(*divmod(old_physical, self._pages_per_block)),
                purpose=IOPurpose.VALIDITY)
            if tagged_logical == entry.logical:
                self._invalidate_user_page(old_physical)
        entry.uip = False

    def _invalidate_user_page(self, physical: int) -> None:
        """Report a before-image to Logarithmic Gecko and the BVC.

        The BVC can transiently drift during the post-recovery correction
        phase (a page can be re-reported); clamping at zero mirrors what a
        2-byte hardware counter would do and never affects victim choice
        meaningfully.
        """
        block_id, offset = divmod(physical, self._pages_per_block)
        self.gecko.record_invalid(block_id, offset)
        if self.bvc.valid_count(block_id) > 0:
            self.bvc.decrement(block_id)

    # ------------------------------------------------------------------
    # Garbage collection: UIP check before migration
    # ------------------------------------------------------------------
    def _migrate_user_page(self, old_physical: int) -> None:
        """Migrate a page only after verifying it is the current copy.

        The paper's check (Section 4.1): read the spare area, and if the
        cache holds an entry for the page's logical address with the UIP flag
        set and a different physical address, the page is an unidentified
        invalid page and is not migrated.

        We verify slightly more strongly before migrating: the current
        mapping (the cache if the logical is cached, otherwise the
        flash-resident translation entry) must point at exactly this page.
        This closes a correctness hole the paper's description leaves open:
        invalidation records for *intermediate* copies — reported on
        cache-hit writes straight into Logarithmic Gecko's buffer — are lost
        on power failure and are not re-discoverable from translation-page
        diffs, so after a crash an unrecorded stale copy could otherwise be
        "migrated" over the newer mapping. The extra cost is one
        translation-page read per migrated page whose mapping entry is not
        cached, charged to the GC purpose.
        """
        victim, offset = divmod(old_physical, self._pages_per_block)
        self._migrate_current_copies(victim, (offset,))

    def _migrate_user_pages(self, victim: int, offsets: List[int]) -> None:
        """Batch form of :meth:`_migrate_user_page` for one victim block.

        A subclass that overrides :meth:`_migrate_user_page` still sees
        every page through the base class's per-page loop.
        """
        if type(self)._migrate_user_page is not GeckoFTL._migrate_user_page:
            super()._migrate_user_pages(victim, offsets)
            return
        self._migrate_current_copies(victim, offsets)

    def _migrate_current_copies(self, victim: int,
                                offsets: Sequence[int]) -> None:
        """Check and migrate a victim's pages at ``offsets``, ascending.

        Garbage collection migrates every live page of a victim in one
        burst, so the spare-area check, the current-copy verification, and
        the read-allocate-program sequence are fused into a single loop
        with all per-victim state (device columns, cache internals, GMD)
        hoisted out of it. Each charged op bumps its IOStats counter and
        then calls the device's taps.
        """
        device = self.device
        taps = self._taps
        blocks = device.blocks
        stats = device.stats
        spare_reads = stats.spare_read_counts
        page_reads = stats.page_read_counts
        page_writes = stats.page_write_counts
        victim_block = blocks[victim]
        victim_cursor = victim_block.next_free_offset
        victim_logical = victim_block._logical
        victim_data = victim_block._data
        pages_per_block = victim_block.pages_per_block
        victim_first = victim * pages_per_block
        cache = self.cache
        cache_entries = cache._entries
        by_translation_page = cache._by_translation_page
        entries_per_translation_page = cache.entries_per_translation_page
        capacity = cache.capacity
        table = self.translation_table
        gmd = table.gmd
        entries_per_page = table.entries_per_page
        manager = self.block_manager
        active_blocks = manager.active_blocks
        bvc_counts = self.bvc._counts
        in_gc = self._in_gc
        for offset in offsets:
            # Spare-area read: identify the page's logical address.
            spare_reads[_GC_PURPOSE] += 1
            if taps:
                for tap in taps:
                    tap(_SPARE_READ, victim, _GC_PURPOSE)
            logical = None
            if offset < victim_cursor:
                tag = victim_logical[offset]
                if tag >= 0:
                    logical = tag
            cached = (cache_entries.get(logical)
                      if logical is not None else None)
            if cached is not None:
                if cached.physical != victim_first + offset:
                    # Stale copy (unidentified invalid page): skip, and
                    # clear the UIP flag — the copy dies with the erase.
                    cached.uip = False
                    continue
            else:
                # Uncached: verify against the flash-resident mapping
                # (one charged translation-page read).
                location = gmd[logical // entries_per_page]
                if location is None:
                    continue
                read_id, read_offset = location
                read_block = blocks[read_id]
                if read_offset >= read_block.next_free_offset:
                    raise ReadFreePageError(
                        f"{location} has not been programmed")
                page_reads[_GC_PURPOSE] += 1
                if taps:
                    for tap in taps:
                        tap(_PAGE_READ, read_id, _GC_PURPOSE)
                if read_block._data[read_offset].entries[
                        logical % entries_per_page] != victim_first + offset:
                    continue
            # Current copy confirmed: read, allocate, program (GC purpose).
            page_reads[_GC_PURPOSE] += 1
            if taps:
                for tap in taps:
                    tap(_PAGE_READ, victim, _GC_PURPOSE)
            data = victim_data.get(offset)
            active_id = active_blocks[_USER_TYPE]
            if active_id is None \
                    or blocks[active_id].next_free_offset >= pages_per_block:
                active_id = manager._open_new_active_block(_USER_TYPE, True)
            target = blocks[active_id]
            new_offset = target.next_free_offset
            device._write_clock = timestamp = device._write_clock + 1
            target._state_words[new_offset >> 6] |= 1 << (new_offset & 63)
            target._logical[new_offset] = logical
            target._timestamp[new_offset] = timestamp
            target._type_code[new_offset] = _USER_CODE
            if data is not None:
                target._data[new_offset] = data
            target.next_free_offset = new_offset + 1
            page_writes[_GC_PURPOSE] += 1
            if taps:
                for tap in taps:
                    tap(_PAGE_WRITE, active_id, _GC_PURPOSE)
            bvc_counts[active_id] += 1
            new_physical = active_id * pages_per_block + new_offset
            if cached is not None:
                cache.hits += 1
                cache_entries.move_to_end(logical)
                cached.physical = new_physical
                if not cached.dirty:
                    cached.dirty = True
                    cache._dirty_count += 1
            else:
                cache.misses += 1
                entry = _new_mapping(CachedMapping)
                entry.logical = logical
                entry.physical = new_physical
                entry.dirty = True
                entry.uip = False
                entry.uncertain = False
                entry.in_flash = None
                cache_entries[logical] = entry
                cache._live_count += 1
                cache._dirty_count += 1
                translation_page = logical // entries_per_translation_page
                bucket = by_translation_page.get(translation_page)
                if bucket is None:
                    by_translation_page[translation_page] = {logical}
                else:
                    bucket.add(logical)
                if not in_gc and cache._live_count > capacity:
                    self._evict_if_over_capacity()

    # ------------------------------------------------------------------
    # Checkpoints (Section 4.3)
    # ------------------------------------------------------------------
    def _take_checkpoint(self) -> None:
        """Synchronize dirty entries that lingered since the last checkpoint.

        Guarantees that any logical page updated before the second-most-recent
        checkpoint is already synchronized, which bounds the post-failure
        backwards scan to ``2 * C`` spare-area reads.
        """
        self.checkpoints_taken += 1
        cache = self.cache
        new_symbol = cache.insert_checkpoint_symbol()
        previous = self._previous_checkpoint_symbol
        if previous is not None:
            # Fused ``entries_older_than_symbol`` + dirty filter: one walk
            # from the cold end up to the symbol, collecting the dirty
            # entries' translation pages directly.
            entries_per_translation_page = cache.entries_per_translation_page
            translation_pages = set()
            for key, entry in cache._entries.items():
                if key == previous:
                    break
                if entry is not None and entry.dirty:
                    translation_pages.add(
                        entry.logical // entries_per_translation_page)
            for translation_page in sorted(translation_pages):
                self._synchronize_translation_page(translation_page)
            cache.remove_checkpoint_symbol(previous)
        self._previous_checkpoint_symbol = new_symbol

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        summary = super().describe()
        summary.update({
            "size_ratio": self._size_ratio,
            "partition_factor": self.gecko.layout.partition_factor,
            "entries_per_page": self.gecko.layout.entries_per_page,
            "multiway_merge": self._multiway_merge,
            "checkpoint_period": self.checkpoint_period,
            "gecko_levels": self.gecko.num_levels,
            "gecko_runs": self.gecko.num_runs,
        })
        return summary
